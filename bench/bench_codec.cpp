// M1 — codec microbenchmark: rate-distortion table plus encode/decode
// throughput (the median of interleaved laps), including the
// motion-constrained-tiles ablation.
//
// Expected shape: bitrate falls monotonically with QP while PSNR falls;
// high-motion content costs more bits at equal QP; constraining motion to
// tiles costs a few percent of bitrate (the price of independent
// decodability); encode is slower than decode (motion search).

#include <functional>
#include <string>

#include "bench_util.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/simd.h"
#include "common/stopwatch.h"
#include "image/metrics.h"

using namespace vc;
using namespace vc::bench;

namespace {

std::vector<Frame> SceneFrames(const std::string& name, int count) {
  auto scene = CanonicalScene(name);
  return RenderScene(*scene, count);
}

EncoderOptions BaseOptions(int qp) {
  EncoderOptions options;
  options.width = kWidth;
  options.height = kHeight;
  options.gop_length = kSegmentFrames;
  options.fps = kFps;
  options.qp = qp;
  return options;
}

void PrintRdTable() {
  Banner("M1: codec rate-distortion and tiling ablation",
         "expect: bitrate down / PSNR down as QP rises; MCTS costs a few "
         "percent bitrate");
  constexpr int kFrames = 30;

  std::printf("\n%-11s %4s %12s %9s %9s\n", "scene", "qp", "kbit/s",
              "PSNR(dB)", "WS-PSNR");
  for (const std::string& scene_name : StandardSceneNames()) {
    auto frames = SceneFrames(scene_name, kFrames);
    for (int qp : {8, 14, 20, 28, 35, 42, 50}) {
      auto video = CheckOk(EncodeVideo(frames, BaseOptions(qp)), "encode");
      auto decoded = CheckOk(DecodeVideo(video), "decode");
      double psnr = 0, ws = 0;
      for (size_t i = 0; i < frames.size(); ++i) {
        psnr += CheckOk(LumaPsnr(frames[i], decoded[i]), "psnr");
        ws += CheckOk(WsPsnr(frames[i], decoded[i]), "wspsnr");
      }
      double kbps = video.size_bytes() * 8.0 / 1000.0 /
                    (static_cast<double>(kFrames) / kFps);
      std::printf("%-11s %4d %12.1f %9.2f %9.2f\n", scene_name.c_str(), qp,
                  kbps, psnr / kFrames, ws / kFrames);
    }
  }

  std::printf("\nMotion-constrained tile set ablation (venice, qp 28):\n");
  std::printf("%-7s %16s %16s %9s\n", "grid", "bytes (MCTS)",
              "bytes (free mv)", "overhead");
  auto frames = SceneFrames("venice", kFrames);
  for (auto [rows, cols] :
       {std::pair{1, 1}, {2, 2}, {4, 4}, {4, 8}}) {
    EncoderOptions constrained = BaseOptions(28);
    constrained.tile_rows = rows;
    constrained.tile_cols = cols;
    constrained.motion_constrained_tiles = true;
    EncoderOptions free_mv = constrained;
    free_mv.motion_constrained_tiles = false;
    auto video_c = CheckOk(EncodeVideo(frames, constrained), "encode");
    auto video_f = CheckOk(EncodeVideo(frames, free_mv), "encode");
    std::printf("%d x %-3d %16zu %16zu %8.1f%%\n", rows, cols,
                video_c.size_bytes(), video_f.size_bytes(),
                100.0 * (static_cast<double>(video_c.size_bytes()) /
                             video_f.size_bytes() -
                         1.0));
  }
  std::printf("\n");
}

// ---------------------------------------------- multi-rate analysis reuse

/// One ladder ingest run (all rungs of all tiles of all segments) and the
/// derived quality/analysis figures.
struct IngestRun {
  double seconds = 0.0;
  double encode_seconds = 0.0;  // summed per-cell encode time (all threads)
  double sad_evals_per_search = 0.0;
  double hint_accept_rate = 0.0;
  std::vector<double> psnr_db;  // mean luma PSNR per ladder rung
};

/// Fills the analysis/quality figures of `run` from the metrics of the lap
/// that just finished plus PSNR reads against `bench`'s db.
void CollectIngestStats(BenchDb& bench, const std::vector<Frame>& frames,
                        int rungs, IngestRun* run) {
  MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  auto cell_hist = snapshot.histograms.find("ingest.cell_encode_seconds");
  if (cell_hist != snapshot.histograms.end()) {
    run->encode_seconds = cell_hist->second.sum;
  }
  double searches = SnapshotCounter(snapshot, "codec.search_full") +
                    SnapshotCounter(snapshot, "codec.search_hinted");
  if (searches > 0) {
    run->sad_evals_per_search =
        SnapshotCounter(snapshot, "codec.sad_evals") / searches;
  }
  double hinted = SnapshotCounter(snapshot, "codec.search_hinted");
  if (hinted > 0) {
    run->hint_accept_rate =
        SnapshotCounter(snapshot, "codec.hints_accepted") / hinted;
  }

  for (int quality = 0; quality < rungs; ++quality) {
    auto decoded = CheckOk(
        bench.db->ReadFrames("clip", 0, static_cast<int>(frames.size()) - 1,
                             quality),
        "read");
    double total = 0.0;
    for (size_t i = 0; i < frames.size(); ++i) {
      total += CheckOk(LumaPsnr(frames[i], decoded[i]), "psnr");
    }
    run->psnr_db.push_back(total / frames.size());
  }
}

/// Runs the unhinted and hinted ladder ingests back to back. Encoding is
/// deterministic, so repeats only differ by scheduling noise: laps of the
/// two modes are interleaved (so slow machine-load drift hits both equally
/// instead of biasing the ratio) and each mode reports its median lap.
std::pair<IngestRun, IngestRun> RunLadderIngestPair(
    const std::vector<Frame>& frames, int tile_rows, int tile_cols) {
  IngestOptions modes[2];
  for (int m = 0; m < 2; ++m) {
    modes[m] = CanonicalIngest();
    modes[m].tile_rows = tile_rows;
    modes[m].tile_cols = tile_cols;
    modes[m].reuse_motion_analysis = m == 1;
  }

  constexpr int kLaps = 7;
  IngestRun runs[2];
  std::vector<double> laps[2];
  for (int lap = 0; lap < kLaps; ++lap) {
    for (int m = 0; m < 2; ++m) {
      BenchDb bench = OpenBenchDb();
      MetricRegistry::Global().Reset();
      Stopwatch watch;
      CheckOk(bench.db->Ingest("clip", frames, modes[m]).status(), "ingest");
      laps[m].push_back(watch.ElapsedSeconds());
      if (lap == kLaps - 1) {
        // Metrics and decoded output are identical across laps; read them
        // off the final one.
        CollectIngestStats(bench, frames,
                           static_cast<int>(modes[m].ladder.size()),
                           &runs[m]);
      }
    }
  }
  for (int m = 0; m < 2; ++m) runs[m].seconds = Median(laps[m]);
  return {runs[0], runs[1]};
}

std::string PsnrJsonArray(const std::vector<double>& psnr) {
  std::string out = "[";
  for (size_t i = 0; i < psnr.size(); ++i) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%s%.3f", i == 0 ? "" : ", ",
                  psnr[i]);
    out += buffer;
  }
  return out + "]";
}

void PrintIngestReuseTable() {
  // Wall time on the default encode pool (one worker per core). Hints
  // halve the SAD evaluations per search, but a tile's hinted rungs wait for
  // its reference rung, which idles workers on coarse grids (on 1x1, two of
  // three rungs wait for the one cell); the CPU saving shows on a one-worker
  // pool (perfbench ingest).
  Banner("M1b: multi-rate analysis reuse on the ingest encode path",
         "expect: hints cut SAD evaluations per search ~2x at PSNR within "
         "0.1 dB per rung; wall time about 1x or better on multi-tile "
         "grids, below 1x on 1x1");
  constexpr int kSeconds = 4;

  // Sweep scenes × tile grids: reuse pays in proportion to how much work
  // the per-rung analysis repeats. Motion-heavy content (coaster) runs long
  // diamond walks; at the canonical 6x8 grid the 32x21 tiles hold ~4
  // macroblocks and motion-constrained bounds clip most of the search, while
  // coarse grids have full-sized neighborhoods (the paper's 4x4 grid on 4K
  // video leaves 960x540 tiles — the coarse rows are the faithful scale
  // analogue at bench resolution).
  std::printf("\n%-9s %-7s %-10s %9s %11s %13s %8s %8s %8s\n", "scene",
              "grid", "mode", "sec", "seg/s", "SAD/search", "hi dB", "med dB",
              "lo dB");
  std::string rows_json;
  for (const char* scene : {"venice", "coaster"}) {
    auto frames = SceneFrames(scene, kSeconds * kFps);
    for (auto [rows, cols] : {std::pair{6, 8}, {2, 2}, {1, 1}}) {
      auto [unhinted, hinted] = RunLadderIngestPair(frames, rows, cols);

      double speedup = unhinted.seconds / hinted.seconds;
      double max_delta = 0.0;
      for (size_t q = 0; q < unhinted.psnr_db.size(); ++q) {
        max_delta = std::max(
            max_delta, std::abs(unhinted.psnr_db[q] - hinted.psnr_db[q]));
      }

      auto row = [&](const char* mode, const IngestRun& run) {
        std::printf("%-9s %dx%-5d %-10s %9.3f %11.2f %13.1f %8.2f %8.2f "
                    "%8.2f\n",
                    scene, rows, cols, mode, run.seconds,
                    kSeconds / run.seconds, run.sad_evals_per_search,
                    run.psnr_db[0], run.psnr_db[1], run.psnr_db[2]);
      };
      row("unhinted", unhinted);
      row("hinted", hinted);
      std::printf("          speedup %.2fx, max PSNR delta %.4f dB, hint "
                  "accept rate %.1f%%\n",
                  speedup, max_delta, 100.0 * hinted.hint_accept_rate);

      char row_json[1024];
      std::snprintf(
          row_json, sizeof(row_json),
          "%s  {\"scene\": \"%s\", \"grid\": \"%dx%d\",\n"
          "   \"unhinted\": {\"seconds\": %.4f, \"sad_evals_per_search\": "
          "%.2f, \"psnr_db\": %s},\n"
          "   \"hinted\": {\"seconds\": %.4f, \"sad_evals_per_search\": "
          "%.2f, \"hint_accept_rate\": %.4f, \"psnr_db\": %s},\n"
          "   \"speedup\": %.3f, \"max_psnr_delta_db\": %.4f}",
          rows_json.empty() ? "" : ",\n", scene, rows, cols,
          unhinted.seconds, unhinted.sad_evals_per_search,
          PsnrJsonArray(unhinted.psnr_db).c_str(), hinted.seconds,
          hinted.sad_evals_per_search, hinted.hint_accept_rate,
          PsnrJsonArray(hinted.psnr_db).c_str(), speedup, max_delta);
      rows_json += row_json;
    }
  }
  std::printf("\n");

  std::string json = "{\n  \"frames\": " + std::to_string(kSeconds * kFps) +
                     ", \"ladder_rungs\": 3,\n  \"runs\": [\n" + rows_json +
                     "\n ]}";
  // Merged key-by-key so bench_kernels' sections in the same snapshot file
  // survive a bench_codec rerun (and vice versa).
  WriteBenchJsonKey("BENCH_codec.json", "experiment", "\"M1-codec\"");
  WriteBenchJsonKey("BENCH_codec.json", "ingest_reuse", json);
}

// ----------------------------------------------- SIMD kernels end-to-end

/// One segment-encode configuration: scalar or SIMD kernels.
struct CodecMode {
  const char* name;
  bool simd;
};

struct CodecModeResult {
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
  size_t bytes = 0;
  double psnr_db = 0.0;
};

double MeanLumaPsnr(const std::vector<Frame>& reference,
                    const std::vector<Frame>& decoded) {
  double total = 0.0;
  for (size_t i = 0; i < reference.size(); ++i) {
    total += CheckOk(LumaPsnr(reference[i], decoded[i]), "psnr");
  }
  return total / static_cast<double>(reference.size());
}

void PrintSimdSegmentTable() {
  Banner("M1c: SIMD kernels on the segment codec path",
         "expect: SIMD speeds encode/decode at a byte-identical stream");
  constexpr int kReps = 5;
  auto frames = SceneFrames("venice", kSegmentFrames);  // one 1-s segment

  const CodecMode modes[] = {
      {"scalar+eg", false},
      {"simd+eg", true},
  };
  constexpr int kModes = 2;

  EncoderOptions options = BaseOptions(28);
  options.tile_rows = kTileRows;
  options.tile_cols = kTileCols;

  const bool simd_prior = simd::Enabled();
  CodecModeResult results[kModes];
  std::vector<uint8_t> streams[kModes];
  // Interleave laps so machine-load drift hits every mode equally; encoding
  // is deterministic, so repeats differ only by scheduling noise and each
  // mode keeps its fastest lap.
  for (int rep = 0; rep < kReps; ++rep) {
    for (int m = 0; m < kModes; ++m) {
      simd::SetEnabled(modes[m].simd);
      Stopwatch encode_watch;
      auto video = CheckOk(EncodeVideo(frames, options), "encode");
      double encode_seconds = encode_watch.ElapsedSeconds();
      Stopwatch decode_watch;
      auto decoded = CheckOk(DecodeVideo(video), "decode");
      double decode_seconds = decode_watch.ElapsedSeconds();
      CodecModeResult& result = results[m];
      if (rep == 0 || encode_seconds < result.encode_seconds) {
        result.encode_seconds = encode_seconds;
      }
      if (rep == 0 || decode_seconds < result.decode_seconds) {
        result.decode_seconds = decode_seconds;
      }
      if (rep == 0) {
        result.bytes = video.size_bytes();
        result.psnr_db = MeanLumaPsnr(frames, decoded);
        streams[m] = video.Serialize();
      }
    }
  }
  simd::SetEnabled(simd_prior);

  // The central claim, checked rather than eyeballed: SIMD changes the
  // stream by not one byte.
  CheckOk(streams[0] == streams[1]
              ? Status::OK()
              : Status::Internal("scalar and SIMD streams differ"),
          "simd bit-exactness");

  std::printf("\n%-13s %9s %8s %9s %9s %9s %9s\n", "mode", "enc s", "seg/s",
              "dec s", "bytes", "PSNR dB", "speedup");
  for (int m = 0; m < kModes; ++m) {
    std::printf("%-13s %9.3f %8.2f %9.3f %9zu %9.2f %8.2fx\n", modes[m].name,
                results[m].encode_seconds, 1.0 / results[m].encode_seconds,
                results[m].decode_seconds, results[m].bytes,
                results[m].psnr_db,
                results[0].encode_seconds / results[m].encode_seconds);
  }
  std::printf("decode speedup: simd+eg %.2fx\n\n",
              results[0].decode_seconds / results[1].decode_seconds);

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\n  \"best_tier\": \"%s\",\n  \"segment\": {\n"
      "   \"scalar_eg\": {\"encode_seconds\": %.4f, \"decode_seconds\": "
      "%.4f, \"bytes\": %zu, \"psnr_db\": %.3f},\n"
      "   \"simd_eg\": {\"encode_seconds\": %.4f, \"decode_seconds\": %.4f, "
      "\"bytes\": %zu, \"psnr_db\": %.3f},\n"
      "   \"simd_encode_speedup\": %.3f, \"simd_decode_speedup\": %.3f,\n"
      "   \"stream_bit_identical\": true}\n }",
      simd::LevelName(simd::ActiveLevel()), results[0].encode_seconds,
      results[0].decode_seconds, results[0].bytes, results[0].psnr_db,
      results[1].encode_seconds, results[1].decode_seconds, results[1].bytes,
      results[1].psnr_db,
      results[0].encode_seconds / results[1].encode_seconds,
      results[0].decode_seconds / results[1].decode_seconds);
  WriteBenchJsonKey("BENCH_codec.json", "simd_segment", json);
}

// ------------------------------------------------------------- throughput

/// Encode, full decode and one-tile decode of a 30-frame venice clip at
/// QP 14, 28 and 42, on one thread. Each lap runs every row once, in
/// order, so machine-load drift hits the rows alike; a row's rate is its
/// frames over its median lap.
void PrintThroughputTable() {
  Banner("M1: codec throughput",
         "expect: encode slower than decode (motion search); one-tile "
         "decode of a 4x8 stream several times the full-frame rate");
  constexpr int kLaps = 15;
  constexpr int kClipFrames = 30;
  const auto frames = SceneFrames("venice", kClipFrames);

  struct Row {
    std::string name;
    std::function<void()> lap;
  };
  std::vector<Row> rows;
  const int qps[] = {14, 28, 42};
  std::vector<EncodedVideo> videos;
  for (int qp : qps) {
    videos.push_back(CheckOk(EncodeVideo(frames, BaseOptions(qp)), "encode"));
    rows.push_back({"encode qp " + std::to_string(qp), [&frames, qp] {
                      auto encoder = CheckOk(Encoder::Create(BaseOptions(qp)),
                                             "encoder");
                      for (const Frame& frame : frames) {
                        CheckOk(encoder->Encode(frame).status(), "encode");
                      }
                    }});
  }
  for (size_t i = 0; i < videos.size(); ++i) {
    const EncodedVideo* video = &videos[i];
    rows.push_back({"decode qp " + std::to_string(qps[i]), [video] {
                      auto decoder =
                          CheckOk(Decoder::Create(video->header), "decoder");
                      for (const EncodedFrame& frame : video->frames) {
                        CheckOk(decoder->Decode(Slice(frame.payload)).status(),
                                "decode");
                      }
                    }});
  }
  // The tile index at work: one tile of a 4x8-tiled stream, every other
  // tile never even parsed.
  EncoderOptions tiled = BaseOptions(28);
  tiled.tile_rows = 4;
  tiled.tile_cols = 8;
  const EncodedVideo tiled_video =
      CheckOk(EncodeVideo(frames, tiled), "encode");
  rows.push_back({"1 tile of 4x8 qp 28", [&tiled_video] {
                    auto decoder = CheckOk(
                        Decoder::Create(tiled_video.header), "decoder");
                    const std::vector<TileId> one_tile = {TileId{1, 3}};
                    for (const EncodedFrame& frame : tiled_video.frames) {
                      CheckOk(
                          decoder->DecodeTiles(Slice(frame.payload), one_tile)
                              .status(),
                          "decode tile");
                    }
                  }});

  std::vector<std::vector<double>> laps(rows.size());
  for (int lap = 0; lap < kLaps; ++lap) {
    for (size_t r = 0; r < rows.size(); ++r) {
      Stopwatch watch;
      rows[r].lap();
      laps[r].push_back(watch.ElapsedSeconds());
    }
  }

  std::printf("\n%-20s %12s %10s\n", "row", "median ms", "fps");
  std::string json;
  for (size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    const double seconds = Median(laps[r]);
    const double fps = kClipFrames / seconds;
    std::printf("%-20s %12.3f %10.0f\n", row.name.c_str(), 1e3 * seconds,
                fps);
    char entry[160];
    std::snprintf(entry, sizeof(entry),
                  "%s   {\"row\": \"%s\", \"median_seconds\": %.6f, "
                  "\"fps\": %.1f}",
                  json.empty() ? "" : ",\n", row.name.c_str(), seconds, fps);
    json += entry;
  }
  std::printf("\n");
  WriteBenchJsonKey("BENCH_codec.json", "throughput",
                    "{\n  \"scene\": \"venice\", \"frames\": " +
                        std::to_string(kClipFrames) +
                        ", \"laps\": " + std::to_string(kLaps) +
                        ",\n  \"rows\": [\n" + json + "\n ]}");
}

}  // namespace

int main() {
  PrintRdTable();
  PrintIngestReuseTable();
  PrintSimdSegmentTable();
  PrintThroughputTable();
  EmitMetricsSnapshot("M1");
  return 0;
}
