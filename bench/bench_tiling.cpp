// E4 — tiling-configuration sweep.
//
// Finer spatial partitioning lets the server trim out-of-view bytes more
// precisely, but every tile boundary costs compression efficiency (motion
// constrained to the tile, prediction reset at edges, per-tile headers).
// This bench sweeps the grid and reports stored size, full-quality session
// bytes, predicted-session bytes, and savings — exposing where the
// overhead starts eroding the benefit. A second sweep times ladder ingest
// per grid with motion-analysis reuse off and on: the encode cost of finer
// grids and how much of it the hints claw back.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "image/metrics.h"

using namespace vc;
using namespace vc::bench;

namespace {

struct GridCase {
  int rows, cols;
};

const std::vector<GridCase> kGrids = {{1, 1}, {2, 2}, {2, 4},
                                      {4, 4}, {4, 8}, {8, 8}};

/// Times one ladder ingest of `frames` at `grid` into a fresh db; returns
/// its wall seconds and SAD evals per search.
struct IngestTiming {
  double seconds = 0.0;
  double sad_evals_per_search = 0.0;
};

IngestTiming TimeIngest(const std::vector<Frame>& frames,
                        const GridCase& grid, bool reuse) {
  IngestOptions ingest = CanonicalIngest();
  ingest.tile_rows = grid.rows;
  ingest.tile_cols = grid.cols;
  ingest.reuse_motion_analysis = reuse;

  IngestTiming timing;
  BenchDb bench = OpenBenchDb();
  MetricRegistry::Global().Reset();
  Stopwatch watch;
  CheckOk(bench.db->Ingest("clip", frames, ingest).status(), "ingest");
  timing.seconds = watch.ElapsedSeconds();
  MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  double searches = SnapshotCounter(snapshot, "codec.search_full") +
                    SnapshotCounter(snapshot, "codec.search_hinted");
  if (searches > 0) {
    timing.sad_evals_per_search =
        SnapshotCounter(snapshot, "codec.sad_evals") / searches;
  }
  return timing;
}

}  // namespace

int main() {
  Banner("E4: savings vs tile grid",
         "expect: savings grow then plateau with tile count while the "
         "stored-size overhead keeps growing");

  auto traces = ViewerPopulation(/*seeds_per=*/3, kVideoSeconds);
  BenchDb bench = OpenBenchDb();
  auto scene = CanonicalScene("venice");

  std::printf("\n%-7s %8s %12s %14s %14s %8s\n", "grid", "tiles",
              "stored(KB)", "mono bytes", "vcloud bytes", "saved");

  std::string savings_json;
  for (const GridCase& grid_case : kGrids) {
    IngestOptions ingest = CanonicalIngest();
    ingest.tile_rows = grid_case.rows;
    ingest.tile_cols = grid_case.cols;
    std::string name = "venice-" + std::to_string(grid_case.rows) + "x" +
                       std::to_string(grid_case.cols);
    CheckOk(
        bench.db->IngestScene(name, *scene, kVideoSeconds * kFps, ingest)
            .status(),
        "ingest");
    VideoMetadata metadata = CheckOk(bench.db->Describe(name), "describe");

    auto mean_bytes = [&](StreamingApproach approach) {
      uint64_t total = 0;
      for (const HeadTrace& trace : traces) {
        SessionOptions session = CanonicalSession(approach);
        auto stats =
            SimulateSession(bench.db->storage(), metadata, trace, session);
        CheckOk(stats.status(), "session");
        total += stats->bytes_sent;
      }
      return total / traces.size();
    };

    uint64_t mono = mean_bytes(StreamingApproach::kMonolithicFull);
    uint64_t vcloud = mean_bytes(StreamingApproach::kVisualCloud);
    double saved = 1.0 - static_cast<double>(vcloud) / mono;
    std::printf("%d x %-3d %8d %12.1f %14llu %14llu %7.0f%%\n",
                grid_case.rows, grid_case.cols,
                grid_case.rows * grid_case.cols,
                metadata.TotalBytes() / 1024.0,
                static_cast<unsigned long long>(mono),
                static_cast<unsigned long long>(vcloud), 100.0 * saved);

    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s  {\"grid\": \"%dx%d\", \"stored_bytes\": %llu, "
                  "\"mono_bytes\": %llu, \"vcloud_bytes\": %llu, "
                  "\"saved\": %.4f}",
                  savings_json.empty() ? "" : ",\n", grid_case.rows,
                  grid_case.cols,
                  static_cast<unsigned long long>(metadata.TotalBytes()),
                  static_cast<unsigned long long>(mono),
                  static_cast<unsigned long long>(vcloud), saved);
    savings_json += row;
  }

  std::printf("\n(1x1 cannot trim anything: 0%% saved by construction)\n");

  // ---- ladder ingest cost per grid, analysis reuse off vs on -------------
  Banner("E4b: ladder ingest cost vs tile grid",
         "expect: finer grids encode faster per search (clipped walks) but "
         "pay per-tile overhead; hints recover most per-rung analysis");

  constexpr int kIngestSeconds = 4;
  // Laps per mode; the table reports each mode's median lap.
  constexpr int kLaps = 7;
  auto frames = RenderScene(*CanonicalScene("coaster"), kIngestSeconds * kFps);

  std::printf("\n%-7s %14s %14s %9s %16s %16s\n", "grid", "unhinted(s)",
              "hinted(s)", "speedup", "SAD/srch unh.", "SAD/srch hint");
  std::string ingest_json;
  for (const GridCase& grid_case : kGrids) {
    // Interleave modes so machine-load drift hits both equally.
    IngestTiming unhinted, hinted;
    std::vector<double> unhinted_laps, hinted_laps;
    for (int lap = 0; lap < kLaps; ++lap) {
      unhinted = TimeIngest(frames, grid_case, /*reuse=*/false);
      hinted = TimeIngest(frames, grid_case, /*reuse=*/true);
      unhinted_laps.push_back(unhinted.seconds);
      hinted_laps.push_back(hinted.seconds);
    }
    unhinted.seconds = Median(unhinted_laps);
    hinted.seconds = Median(hinted_laps);
    double speedup = unhinted.seconds / hinted.seconds;
    std::printf("%d x %-3d %14.3f %14.3f %8.2fx %16.1f %16.1f\n",
                grid_case.rows, grid_case.cols, unhinted.seconds,
                hinted.seconds, speedup, unhinted.sad_evals_per_search,
                hinted.sad_evals_per_search);

    char row[320];
    std::snprintf(row, sizeof(row),
                  "%s  {\"grid\": \"%dx%d\", \"unhinted_seconds\": %.4f, "
                  "\"hinted_seconds\": %.4f, \"speedup\": %.3f, "
                  "\"unhinted_sad_per_search\": %.2f, "
                  "\"hinted_sad_per_search\": %.2f}",
                  ingest_json.empty() ? "" : ",\n", grid_case.rows,
                  grid_case.cols, unhinted.seconds, hinted.seconds, speedup,
                  unhinted.sad_evals_per_search, hinted.sad_evals_per_search);
    ingest_json += row;
  }
  std::printf("\n");

  std::string json = "{\"experiment\": \"E4-tiling\",\n"
                     " \"savings_by_grid\": [\n" +
                     savings_json +
                     "\n ],\n"
                     " \"ingest_by_grid\": {\"scene\": \"coaster\", "
                     "\"frames\": " +
                     std::to_string(kIngestSeconds * kFps) +
                     ", \"ladder_rungs\": 3,\n  \"runs\": [\n" + ingest_json +
                     "\n ]}}";
  WriteBenchJson("BENCH_tiling.json", json);
  EmitMetricsSnapshot("E4");
  return 0;
}
