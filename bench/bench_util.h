#ifndef VC_BENCH_BENCH_UTIL_H_
#define VC_BENCH_BENCH_UTIL_H_

// Shared configuration for the experiment harness. Every bench binary
// regenerates one table/figure of EXPERIMENTS.md; they share this canonical
// workload so numbers are comparable across experiments.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "core/session.h"
#include "core/visualcloud.h"
#include "image/scene.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "predict/trace_synthesizer.h"

namespace vc {
namespace bench {

/// Canonical workload parameters (kept small enough that the whole harness
/// reruns in minutes on a laptop; shapes, not absolute numbers, are the
/// reproduction target).
inline constexpr int kWidth = 256;
inline constexpr int kHeight = 128;
inline constexpr int kFps = 15;
inline constexpr int kSegmentFrames = 15;  // 1-second segments
inline constexpr int kVideoSeconds = 20;
inline constexpr int kTileRows = 6;
inline constexpr int kTileCols = 8;
inline constexpr double kFovYawDeg = 90.0;
inline constexpr double kFovPitchDeg = 75.0;

/// Canonical ingest options (callers may override fields).
inline IngestOptions CanonicalIngest() {
  IngestOptions options;
  options.tile_rows = kTileRows;
  options.tile_cols = kTileCols;
  options.frames_per_segment = kSegmentFrames;
  options.fps = kFps;
  options.ladder = DefaultQualityLadder();
  return options;
}

/// Canonical session options for an `approach`.
inline SessionOptions CanonicalSession(StreamingApproach approach) {
  SessionOptions options;
  options.approach = approach;
  options.network.bandwidth_bps = 50e6;  // unconstrained unless a bench sweeps
  options.network.latency_seconds = 0.02;
  options.viewport.fov_yaw = DegToRad(kFovYawDeg);
  options.viewport.fov_pitch = DegToRad(kFovPitchDeg);
  options.viewport.width = 64;
  options.viewport.height = 48;
  return options;
}

/// An opened in-memory VisualCloud plus the env keeping it alive.
struct BenchDb {
  std::unique_ptr<Env> env;
  std::unique_ptr<VisualCloud> db;
};

inline BenchDb OpenBenchDb() {
  BenchDb bench;
  bench.env = NewMemEnv();
  VisualCloudOptions options;
  options.storage.env = bench.env.get();
  options.storage.root = "/bench";
  if (const char* threads = std::getenv("VC_BENCH_THREADS")) {
    options.encode_threads = std::atoi(threads);
  }
  auto db = VisualCloud::Open(options);
  if (!db.ok()) {
    std::fprintf(stderr, "bench: open failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(1);
  }
  bench.db = std::move(*db);
  return bench;
}

/// Aborts the bench with a message when `status` is not OK.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
inline T CheckOk(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// Builds the canonical scene by name.
inline std::unique_ptr<SceneGenerator> CanonicalScene(const std::string& name,
                                                      int width = kWidth,
                                                      int height = kHeight) {
  SceneOptions options;
  options.width = width;
  options.height = height;
  options.fps = kFps;
  auto scene = MakeScene(name, options);
  CheckOk(scene.status(), "scene");
  return std::move(*scene);
}

/// The canonical viewer population: every archetype × `seeds_per` seeds,
/// each `seconds` long.
inline std::vector<HeadTrace> ViewerPopulation(int seeds_per, double seconds) {
  std::vector<HeadTrace> traces;
  for (const std::string& archetype : ViewerArchetypes()) {
    for (int seed = 1; seed <= seeds_per; ++seed) {
      auto options = ArchetypeOptions(archetype, seed);
      options->duration_seconds = seconds;
      auto trace = SynthesizeTrace(*options);
      CheckOk(trace.status(), "trace synthesis");
      traces.push_back(std::move(*trace));
    }
  }
  return traces;
}

/// Prints the standard experiment banner.
inline void Banner(const char* experiment, const char* claim) {
  std::printf("=======================================================\n");
  std::printf("%s\n", experiment);
  std::printf("  %s\n", claim);
  std::printf("=======================================================\n");
}

/// Prints the process-wide metrics snapshot as a single machine-parseable
/// line (`METRICS <experiment> <json>`), so BENCH_*.json harvests subsystem
/// counters — cache hits, stalls, downgrades, predictor misses — alongside
/// the timing tables. Call at the end of a bench's main().
inline void EmitMetricsSnapshot(const char* experiment) {
  std::printf("METRICS %s %s\n", experiment,
              MetricsToJson(MetricRegistry::Global().Snapshot()).c_str());
}

/// Writes a bench's machine-readable result snapshot (`BENCH_<name>.json`)
/// into `$VC_BENCH_JSON_DIR` (default: the working directory), so the perf
/// trajectory of successive runs can be diffed. Prints the path written.
inline void WriteBenchJson(const std::string& filename,
                           const std::string& json) {
  std::string path = filename;
  if (const char* dir = std::getenv("VC_BENCH_JSON_DIR")) {
    path = std::string(dir) + "/" + filename;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs(json.c_str(), file);
  std::fputc('\n', file);
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
}

/// Merges `"key": value` into the top level of the JSON document `doc`
/// (replacing the key's old value, or appending the key). A structural scan,
/// not a full parser — sufficient for the documents the bench harness itself
/// writes.
inline std::string MergeJsonKey(const std::string& doc, const std::string& key,
                                const std::string& value) {
  size_t open = doc.find('{');
  size_t close = doc.rfind('}');
  if (open == std::string::npos || close == std::string::npos ||
      close <= open) {
    return "{\"" + key + "\": " + value + "}";
  }
  size_t i = open + 1;
  while (i < close) {
    while (i < close &&
           (std::isspace(static_cast<unsigned char>(doc[i])) ||
            doc[i] == ',')) {
      ++i;
    }
    if (i >= close || doc[i] != '"') break;
    size_t key_start = ++i;
    while (i < close && doc[i] != '"') i += doc[i] == '\\' ? 2 : 1;
    std::string this_key = doc.substr(key_start, i - key_start);
    while (i < close && doc[i] != ':') ++i;
    ++i;
    while (i < close && std::isspace(static_cast<unsigned char>(doc[i]))) ++i;
    size_t value_start = i;
    int depth = 0;
    bool in_string = false;
    while (i < close) {
      char c = doc[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
      ++i;
    }
    if (this_key == key) {
      return doc.substr(0, value_start) + value + doc.substr(i);
    }
  }
  // Key absent: append before the closing brace (with a separating comma
  // unless the object is empty).
  bool empty = true;
  for (size_t j = open + 1; j < close; ++j) {
    if (!std::isspace(static_cast<unsigned char>(doc[j]))) {
      empty = false;
      break;
    }
  }
  return doc.substr(0, close) + (empty ? "" : ",\n ") + "\"" + key +
         "\": " + value + doc.substr(close);
}

/// Read-modify-writes one top-level key of `BENCH_<name>.json`, so several
/// bench binaries (e.g. bench_codec and bench_kernels) can share one
/// snapshot file without clobbering each other's sections.
inline void WriteBenchJsonKey(const std::string& filename,
                              const std::string& key,
                              const std::string& value) {
  std::string path = filename;
  if (const char* dir = std::getenv("VC_BENCH_JSON_DIR")) {
    path = std::string(dir) + "/" + filename;
  }
  std::string existing;
  if (std::FILE* file = std::fopen(path.c_str(), "r")) {
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      existing.append(buffer, n);
    }
    std::fclose(file);
  }
  std::string merged = MergeJsonKey(existing, key, value);
  // The merge keeps the old file's tail; end with exactly one newline so
  // repeated writes do not grow the file by a blank line each.
  while (!merged.empty() &&
         std::isspace(static_cast<unsigned char>(merged.back()))) {
    merged.pop_back();
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs(merged.c_str(), file);
  std::fputc('\n', file);
  std::fclose(file);
  std::printf("updated %s (key \"%s\")\n", path.c_str(), key.c_str());
}

/// Reads a counter out of a snapshot (0 when absent).
inline double SnapshotCounter(const MetricsSnapshot& snapshot,
                              const std::string& name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0.0
                                       : static_cast<double>(it->second);
}

}  // namespace bench
}  // namespace vc

#endif  // VC_BENCH_BENCH_UTIL_H_
