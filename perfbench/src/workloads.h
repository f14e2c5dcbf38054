#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three benchmark workloads and the pieces of set-up they share.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/visualcloud.h"
#include "decorators.h"
#include "harness.h"
#include "image/scene.h"
#include "obs/metrics.h"

namespace perfbench {

std::unique_ptr<Workload> NewIngestWorkload();
std::unique_ptr<Workload> NewServeWorkload();
std::unique_ptr<Workload> NewQueryWorkload();

/// Shared content geometry: the repository's canonical bench layout
/// (256×128 equirectangular, 15 fps, 1 s segments, 6×8 tiles, default
/// three-rung ladder).
inline constexpr int kWidth = 256;
inline constexpr int kHeight = 128;
inline constexpr int kFps = 15;
inline constexpr int kSegmentFrames = 15;
inline constexpr int kTileRows = 6;
inline constexpr int kTileCols = 8;

vc::IngestOptions BenchIngestOptions();

/// splitmix64 stream: every input of a run derives from the seed by it.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

 private:
  uint64_t state_;
};

/// A standard scene ("timelapse", "venice", "coaster") at the bench
/// geometry. Content is fixed: the seed varies what is done with it (the
/// scene cycle, traces, networks, query parameters), so a run's cost does
/// not hinge on which textures a seed happens to draw.
vc::Result<std::unique_ptr<vc::SceneGenerator>> BenchScene(
    const std::string& name);

/// An in-memory store behind the counting Env decorator.
struct BenchStore {
  std::unique_ptr<CountingEnv> env;
  std::unique_ptr<vc::VisualCloud> db;
};
vc::Result<BenchStore> OpenBenchStore(const std::string& root,
                                      size_t cache_bytes, int encode_threads);

/// The Env seam's per-layer metrics from `env`, summed over
/// `traced_requests` requests: per-request time, calls and bytes, and
/// metadata bytes per metadata write (one per catalog commit).
void AddEnvLayerMetrics(const EnvTotals& env, int64_t traced_requests,
                        MetricMap* metrics);

/// Before/after view of the process-wide metrics registry.
struct RegistryDelta {
  vc::MetricsSnapshot before, after;

  uint64_t Counter(const std::string& name) const;
  /// Change in a histogram's observation sum / count.
  double HistogramSum(const std::string& name) const;
  uint64_t HistogramCount(const std::string& name) const;
};

/// FNV-1a over bytes, chained through `hash`.
uint64_t HashBytes(const uint8_t* data, size_t size,
                   uint64_t hash = 1469598103934665603ull);
uint64_t HashFrames(const std::vector<vc::Frame>& frames);

/// Mean luma PSNR of `decoded[i]` against `source[i]`.
vc::Result<double> MeanPsnr(const std::vector<vc::Frame>& decoded,
                            const std::vector<vc::Frame>& source);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
