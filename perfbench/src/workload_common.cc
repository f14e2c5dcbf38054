#include "image/metrics.h"
#include "workloads.h"

namespace perfbench {

vc::IngestOptions BenchIngestOptions() {
  vc::IngestOptions options;
  options.tile_rows = kTileRows;
  options.tile_cols = kTileCols;
  options.frames_per_segment = kSegmentFrames;
  options.fps = kFps;
  return options;
}

uint64_t SeedStream::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SeedStream::Uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

vc::Result<std::unique_ptr<vc::SceneGenerator>> BenchScene(
    const std::string& name) {
  vc::SceneOptions options;
  options.width = kWidth;
  options.height = kHeight;
  options.fps = kFps;
  return vc::MakeScene(name, options);
}

vc::Result<BenchStore> OpenBenchStore(const std::string& root,
                                      size_t cache_bytes,
                                      int encode_threads) {
  BenchStore store;
  store.env = std::make_unique<CountingEnv>(vc::NewMemEnv());
  vc::VisualCloudOptions options;
  options.storage.env = store.env.get();
  options.storage.root = root;
  options.storage.cache_capacity_bytes = cache_bytes;
  options.encode_threads = encode_threads;
  VC_ASSIGN_OR_RETURN(store.db, vc::VisualCloud::Open(options));
  return store;
}

void AddEnvLayerMetrics(const EnvTotals& env, int64_t traced_requests,
                        MetricMap* metrics) {
  const double n = static_cast<double>(traced_requests);
  MetricMap& m = *metrics;
  m["env.write_ms"] = {static_cast<double>(env.write_ns) / 1e6 / n, "ms",
                       traced_requests};
  m["env.writes"] = {static_cast<double>(env.writes) / n, "count",
                     traced_requests};
  m["env.write_bytes"] = {static_cast<double>(env.write_bytes) / n, "bytes",
                          traced_requests};
  m["env.metadata_bytes"] = {
      env.metadata_writes > 0 ? static_cast<double>(env.metadata_bytes) /
                                    static_cast<double>(env.metadata_writes)
                              : 0.0,
      "bytes", static_cast<int64_t>(env.metadata_writes)};
  m["env.read_ms"] = {static_cast<double>(env.read_ns) / 1e6 / n, "ms",
                      traced_requests};
  m["env.read_bytes"] = {static_cast<double>(env.read_bytes) / n, "bytes",
                         traced_requests};
}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  auto get = [&](const vc::MetricsSnapshot& s) -> uint64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return get(after) - get(before);
}

double RegistryDelta::HistogramSum(const std::string& name) const {
  auto get = [&](const vc::MetricsSnapshot& s) -> double {
    auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0.0 : it->second.sum;
  };
  return get(after) - get(before);
}

uint64_t RegistryDelta::HistogramCount(const std::string& name) const {
  auto get = [&](const vc::MetricsSnapshot& s) -> uint64_t {
    auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0 : it->second.count;
  };
  return get(after) - get(before);
}

uint64_t HashBytes(const uint8_t* data, size_t size, uint64_t hash) {
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ data[i]) * 1099511628211ull;
  }
  return hash;
}

uint64_t HashFrames(const std::vector<vc::Frame>& frames) {
  uint64_t hash = HashBytes(nullptr, 0);
  for (const vc::Frame& frame : frames) {
    for (const auto* plane :
         {&frame.y_plane(), &frame.u_plane(), &frame.v_plane()}) {
      hash = HashBytes(plane->data(), plane->size(), hash);
    }
  }
  return hash;
}

vc::Result<double> MeanPsnr(const std::vector<vc::Frame>& decoded,
                            const std::vector<vc::Frame>& source) {
  if (decoded.empty() || decoded.size() != source.size()) {
    return vc::Status::InvalidArgument("PSNR needs matching frame lists");
  }
  double sum = 0.0;
  for (size_t i = 0; i < decoded.size(); ++i) {
    double psnr;
    VC_ASSIGN_OR_RETURN(psnr, vc::LumaPsnr(decoded[i], source[i]));
    sum += psnr;
  }
  return sum / static_cast<double>(decoded.size());
}

}  // namespace perfbench
