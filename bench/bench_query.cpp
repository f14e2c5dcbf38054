// E8 — declarative query layer: tile pruning vs naive full scan.
//
// Paper claim (VisualCloud, SIGMOD'17 demo): declarative VR queries let the
// DBMS prune work the viewer never sees — the optimizer turns viewport and
// time predicates into (segment × tile × quality) cell pruning before any
// byte is decoded, and serves stored ladder rungs without transcoding.
//
// This bench runs a canonical query mix twice through the same physical
// executor: once pruned (the optimizer's plan) and once as a naive
// filter-after-scan baseline that fetches and decodes every catalog cell,
// then discards out-of-plan pixels. The decoded frames must be
// byte-identical — pruning may only remove work, never change the answer —
// and the pruned run must touch at most half the cells the naive run does.
// A transcode-elision leg (E8b) exports a full-grid selection both ways:
// stored bitstream stitching vs an explicit-quantizer decode + re-encode.
// A smart-cut leg (E8c) serves a degrade-periphery window that starts and
// ends mid-segment: whole mixed-rung segments stitched with per-tile QP
// frames and the partial ends re-encoded, vs the same window re-encoded
// whole at the same quantizer.
//
// E12 extends the claim to materialized views: a standing degrade-periphery
// query is materialized once (maintenance cost reported per segment), then
// the same query arriving fresh is served two ways — stitched from the
// source's cells vs the optimizer's view-matching rewrite stitching the
// view's stored cells. The served streams must be byte-identical; the
// view scan only moves host time.
//
// `--smoke` shrinks the video so the whole binary finishes in seconds
// (registered as a ctest); smoke runs skip BENCH_query.json.

#include <cstring>

#include "bench_util.h"
#include "codec/bitstream.h"
#include "common/stopwatch.h"
#include "query/executor.h"
#include "query/parser.h"
#include "view/maintainer.h"

using namespace vc;
using namespace vc::bench;

namespace {

bool FramesEqual(const std::vector<Frame>& a, const std::vector<Frame>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].SameSize(b[i]) || a[i].y_plane() != b[i].y_plane() ||
        a[i].u_plane() != b[i].u_plane() || a[i].v_plane() != b[i].v_plane()) {
      return false;
    }
  }
  return true;
}

struct NamedQuery {
  const char* label;
  Query query;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  Banner("E8: declarative query layer — pruned vs naive full scan",
         "viewport/time predicates prune >=50% of catalog cells with "
         "byte-identical decoded output");

  BenchDb bench = OpenBenchDb();
  const int seconds = smoke ? 4 : kVideoSeconds;
  IngestOptions ingest = CanonicalIngest();
  auto scene = CanonicalScene("venice");
  CheckOk(bench.db->IngestScene("venice", *scene, seconds * kFps, ingest),
          "ingest");
  VideoMetadata metadata = CheckOk(bench.db->Describe("venice"), "describe");
  StorageManager* storage = bench.db->storage();
  const double duration = seconds;

  // The query mix: viewport selections around the sphere, time windows,
  // quality floors, one degrade (spatial quality falloff instead of spatial
  // pruning), and one query arriving through the text-form parser.
  std::vector<NamedQuery> queries;
  queries.push_back(
      {"front-window",
       Query::Scan("venice")
           .TimeSlice(0.0, duration / 2)
           .Viewport(kPi, kPi / 2, DegToRad(kFovYawDeg),
                     DegToRad(kFovPitchDeg))
           .QualityFloor("high")});
  queries.push_back(
      {"seam-crossing",
       Query::Scan("venice")
           .TimeSlice(duration / 4, 3 * duration / 4)
           .Viewport(0.05, kPi / 2, DegToRad(110), DegToRad(70))
           .QualityFloor("medium")});
  queries.push_back(
      {"degrade-periphery",
       Query::Scan("venice")
           .TimeSlice(0.0, duration / 4)
           .Viewport(kPi / 2, kPi / 2, DegToRad(kFovYawDeg),
                     DegToRad(kFovPitchDeg))
           .QualityFloor("high")
           .Degrade("low")});
  Query parsed = CheckOk(
      ParseQuery(Slice(std::string("scan(venice) | timeslice(0,") +
                       std::to_string(duration / 2) +
                       ") | viewport(270,60,100,80) | quality(low)")),
      "parse");
  queries.push_back({"parsed-text", parsed});

  std::printf("\n%-18s %9s %9s %8s %10s %10s %8s %7s\n", "query", "pruned",
              "naive", "pruned%", "pruned ms", "naive ms", "speedup",
              "equal");

  std::string rows;
  long long scanned_pruned = 0, scanned_naive = 0;
  bool all_equal = true;
  for (const NamedQuery& q : queries) {
    PhysicalPlan plan = CheckOk(Optimize(q.query, storage), "optimize");
    if (plan.Explain().empty()) CheckOk(Status::Internal("empty explain"),
                                        "explain");

    storage->ClearCache();
    Stopwatch pruned_watch;
    QueryResult pruned = CheckOk(ExecutePlan(plan, storage), "pruned run");
    double pruned_ms = pruned_watch.ElapsedMillis();

    storage->ClearCache();
    ExecuteOptions naive_options;
    naive_options.naive_full_scan = true;
    Stopwatch naive_watch;
    QueryResult naive =
        CheckOk(ExecutePlan(plan, storage, naive_options), "naive run");
    double naive_ms = naive_watch.ElapsedMillis();

    bool equal = FramesEqual(pruned.frames, naive.frames);
    all_equal = all_equal && equal;
    scanned_pruned += pruned.cells_scanned;
    scanned_naive += naive.cells_scanned;
    double pruned_pct =
        100.0 * (naive.cells_scanned - pruned.cells_scanned) /
        (naive.cells_scanned > 0 ? naive.cells_scanned : 1);

    std::printf("%-18s %9d %9d %7.1f%% %10.2f %10.2f %7.2fx %7s\n", q.label,
                pruned.cells_scanned, naive.cells_scanned, pruned_pct,
                pruned_ms, naive_ms,
                pruned_ms > 0 ? naive_ms / pruned_ms : 0.0,
                equal ? "yes" : "NO");

    char row[384];
    std::snprintf(row, sizeof(row),
                  "%s  {\"query\": \"%s\", \"cells_pruned_run\": %d, "
                  "\"cells_naive_run\": %d, \"pruned_fraction\": %.4f, "
                  "\"pruned_ms\": %.3f, \"naive_ms\": %.3f, "
                  "\"frames\": %zu, \"identical\": %s}",
                  rows.empty() ? "" : ",\n", q.label, pruned.cells_scanned,
                  naive.cells_scanned, pruned_pct / 100.0, pruned_ms,
                  naive_ms, pruned.frames.size(), equal ? "true" : "false");
    rows += row;
  }

  // Transcode-elision leg: a whole-video single-rung export served as
  // stitched stored bytes vs the same selection re-encoded at the rung's
  // own quantizer.
  const int medium_qp = metadata.ladder[1].qp;
  auto timed_run = [&](const Query& query, const char* what,
                       double* ms) -> QueryResult {
    PhysicalPlan plan = CheckOk(Optimize(query, storage), what);
    storage->ClearCache();
    Stopwatch watch;
    QueryResult result = CheckOk(ExecutePlan(plan, storage), what);
    *ms = watch.ElapsedMillis();
    return result;
  };
  double stitch_ms = 0, transcode_ms = 0;
  QueryResult stitched =
      timed_run(Query::Scan("venice").QualityFloor("medium").Encode(),
                "stitched export", &stitch_ms);
  QueryResult transcoded = timed_run(
      Query::Scan("venice").QualityFloor("medium").Encode(medium_qp),
      "transcoded export", &transcode_ms);

  std::printf("\nE8b: transcode elision (full-grid medium export, %d "
              "segments)\n", metadata.segment_count());
  std::printf("  stitched:   %8.2f ms, %d segment merges, 0 transcodes\n",
              stitch_ms, stitched.transcodes_avoided);
  std::printf("  transcoded: %8.2f ms, %d transcodes at qp %d (%.2fx "
              "slower)\n", transcode_ms, transcoded.transcodes, medium_qp,
              stitch_ms > 0 ? transcode_ms / stitch_ms : 0.0);

  // Smart-cut leg: a degrade-periphery window from mid-segment to
  // mid-segment. Whole segments stitch at two rungs; the partial ends are
  // re-encoded at the best served rung's quantizer, which the full
  // re-encode uses everywhere.
  Query window = Query::Scan("venice")
                     .TimeSlice(0.5, 3.5)
                     .Viewport(kPi / 2, kPi / 2, DegToRad(kFovYawDeg),
                               DegToRad(kFovPitchDeg))
                     .QualityFloor("high")
                     .Degrade("low");
  const int high_qp = metadata.ladder[0].qp;
  double cut_ms = 0, full_ms = 0;
  QueryResult cut = timed_run(window.Encode(), "smart cut", &cut_ms);
  QueryResult full =
      timed_run(window.Encode(high_qp), "full re-encode", &full_ms);
  std::printf("\nE8c: smart cut (degrade window [0.5 s, 3.5 s))\n");
  std::printf("  smart cut:  %8.2f ms, %d segments stitched, %d "
              "re-encoded\n", cut_ms, cut.transcodes_avoided,
              cut.transcodes);
  std::printf("  re-encode:  %8.2f ms, %d segments re-encoded at qp %d "
              "(%.2fx slower)\n", full_ms, full.transcodes, high_qp,
              cut_ms > 0 ? full_ms / cut_ms : 0.0);

  // E12: materialized-view serving. Materialize the degrade-periphery
  // standing query, then serve a subsuming one-shot query both ways.
  Query view_chain = Query::Scan("venice")
                         .Viewport(kPi / 2, kPi / 2, DegToRad(kFovYawDeg),
                                   DegToRad(kFovPitchDeg))
                         .QualityFloor("high")
                         .Degrade("low");
  ViewMaintainer maintainer(bench.db.get());
  CheckOk(maintainer.CreateView(
              "periph", Slice(view_chain.Encode().Store("periph").ToString())),
          "create view");
  storage->ClearCache();
  Stopwatch maintain_watch;
  CheckOk(maintainer.Maintain("periph"), "maintain view");
  double maintain_ms = maintain_watch.ElapsedMillis();
  std::vector<StandingQueryResult> emissions =
      CheckOk(maintainer.Results("periph"), "view results");
  double maintain_per_segment_ms =
      emissions.empty() ? 0.0 : maintain_ms / emissions.size();

  Query serve_query = view_chain.Encode();
  double source_ms = 0;
  QueryResult from_source =
      timed_run(serve_query, "source stitch run", &source_ms);
  // Share of the served bytes spent on per-tile QP bytes.
  uint64_t qp_bytes = 0;
  for (const EncodedFrame& frame : from_source.encoded.frames) {
    if (frame.payload[1] == kPerTileQp) qp_bytes += metadata.tile_count();
  }
  const double qp_share =
      static_cast<double>(qp_bytes) /
      static_cast<double>(from_source.encoded.size_bytes());

  std::vector<MaterializedViewInfo> views =
      CheckOk(maintainer.catalog()->Candidates(*storage), "view candidates");
  OptimizeOptions view_options;
  view_options.views = &views;
  PhysicalPlan view_plan =
      CheckOk(Optimize(serve_query, storage, view_options), "optimize view");
  if (view_plan.view_served != "periph") {
    std::fprintf(stderr, "bench: optimizer did not serve from the view\n");
    return 1;
  }
  storage->ClearCache();
  Stopwatch view_watch;
  QueryResult served =
      CheckOk(ExecutePlan(view_plan, storage), "view-scan run");
  double view_ms = view_watch.ElapsedMillis();
  bool view_identical =
      served.encoded.Serialize() == from_source.encoded.Serialize();

  std::printf("\nE12: materialized view serving (degrade periphery, %zu "
              "segments materialized)\n", emissions.size());
  std::printf("  maintain:  %8.2f ms total, %.2f ms/segment\n", maintain_ms,
              maintain_per_segment_ms);
  std::printf("  source:    %8.2f ms, %d transcodes, per-tile QP bytes "
              "%.3f%% of output\n", source_ms, from_source.transcodes,
              100.0 * qp_share);
  std::printf("  view-scan: %8.2f ms, %d transcodes (%.2fx), bytes %s\n",
              view_ms, served.transcodes,
              view_ms > 0 ? source_ms / view_ms : 0.0,
              view_identical ? "identical" : "DIVERGED");
  if (!view_identical) {
    std::fprintf(stderr, "bench: view-served bytes diverged from baseline\n");
    return 1;
  }

  double aggregate_pruned_fraction =
      scanned_naive > 0
          ? 1.0 - static_cast<double>(scanned_pruned) / scanned_naive
          : 0.0;
  std::printf("\naggregate: %lld cells (pruned) vs %lld (naive) — %.1f%% "
              "pruned, outputs %s\n",
              scanned_pruned, scanned_naive,
              100.0 * aggregate_pruned_fraction,
              all_equal ? "byte-identical" : "DIVERGED");

  // These two are the acceptance bar; fail loudly rather than report
  // quietly so the smoke ctest enforces them.
  if (!all_equal) {
    std::fprintf(stderr, "bench: pruned and naive outputs diverged\n");
    return 1;
  }
  if (aggregate_pruned_fraction < 0.5) {
    std::fprintf(stderr, "bench: pruning below 50%% (%.1f%%)\n",
                 100.0 * aggregate_pruned_fraction);
    return 1;
  }

  EmitMetricsSnapshot("E8");
  if (smoke) {
    std::printf("\nsmoke run: BENCH_query.json left untouched\n");
    return 0;
  }

  char tail[768];
  std::snprintf(
      tail, sizeof(tail),
      " \"aggregate\": {\"cells_pruned_run\": %lld, "
      "\"cells_naive_run\": %lld, \"pruned_fraction\": %.4f, "
      "\"identical\": %s},\n"
      " \"transcode_elision\": {\"stitched_ms\": %.3f, "
      "\"transcoded_ms\": %.3f, \"segment_merges\": %d, "
      "\"transcodes\": %d, \"transcode_qp\": %d},\n"
      " \"smart_cut\": {\"smart_cut_ms\": %.3f, \"reencode_ms\": %.3f, "
      "\"segments_stitched\": %d, \"segments_reencoded\": %d, "
      "\"full_reencodes\": %d}",
      scanned_pruned, scanned_naive, aggregate_pruned_fraction,
      all_equal ? "true" : "false", stitch_ms, transcode_ms,
      stitched.transcodes_avoided, transcoded.transcodes, medium_qp, cut_ms,
      full_ms, cut.transcodes_avoided, cut.transcodes, full.transcodes);

  char e12[448];
  std::snprintf(
      e12, sizeof(e12),
      " \"view_serving\": {\"maintain_ms\": %.3f, "
      "\"maintain_ms_per_segment\": %.3f, \"segments\": %zu, "
      "\"source_ms\": %.3f, \"view_scan_ms\": %.3f, "
      "\"speedup\": %.2f, \"per_tile_qp_share\": %.5f, "
      "\"identical\": %s}",
      maintain_ms, maintain_per_segment_ms, emissions.size(), source_ms,
      view_ms, view_ms > 0 ? source_ms / view_ms : 0.0, qp_share,
      view_identical ? "true" : "false");

  WriteBenchJson("BENCH_query.json",
                 std::string("{\n \"experiment\": \"E8+E12\","
                             "\n \"queries\": [\n") +
                     rows + "\n ],\n" + tail + ",\n" + e12 + "\n}");
  return 0;
}
