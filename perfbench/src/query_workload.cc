// `query`: a seeded mix of declarative queries over a catalog larger than
// the storage cell cache it runs with.
//
// Each request is ParseQuery -> Optimize -> ExecutePlan on one query text.
// The cycle holds six instances of each of six classes, parameters drawn
// from the seed: viewport/time windows at two rungs (materialized frames),
// a full-grid stitched export, a degrade-periphery re-encode, a subsumed
// query the optimizer serves from a view materialized during set-up, and a
// union that exercises the text parser hardest. The codec runs as decode,
// stitch and re-encode, and storage as miss reads with CRC checks.

#include <cstdio>

#include "codec/decoder.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "trace.h"
#include "view/maintainer.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kVideoSeconds = 20;
constexpr size_t kCacheBytes = 256ull << 10;
constexpr const char* kView = "periph";
constexpr const char* kViewSource = "venice";

enum class Class { kWindowHigh, kWindowMedium, kExport, kDegrade, kView,
                   kUnion };
constexpr int kClasses = 6;
constexpr int kInstances = 6;  // twice per video

/// What one cycle position produced; must repeat exactly.
struct Outputs {
  std::string choice;      ///< Chosen costed alternative, or "none".
  uint64_t output = 0;     ///< Hash of the frames or encoded stream.
  uint64_t read_bytes = 0; ///< Env bytes read (cache misses).
  int cells_scanned = 0;
  uint64_t cache_hits = 0, cache_misses = 0;

  bool operator==(const Outputs&) const = default;
};

struct LayerSums {
  double parse_s = 0, plan_s = 0, exec_s = 0;
  EnvTotals env;
  uint64_t cells_scanned = 0, cells_total = 0, transcoded = 0, view_hits = 0,
           cache_hits = 0, cache_misses = 0;
  double decode_s = 0, stitch_s = 0, encode_s_per_px = 0;
  uint64_t decode_n = 0, stitch_n = 0, encode_n = 0;
};

/// Choice label usable in a metric name.
std::string ChoiceOf(const vc::PhysicalPlan& plan) {
  for (const vc::PlanAlternative& alt : plan.alternatives) {
    if (!alt.chosen) continue;
    return alt.name.rfind("view-scan", 0) == 0 ? "view-scan" : alt.name;
  }
  return "none";
}

/// Bytes ExecutePlan's naive_full_scan baseline reads: every catalog cell
/// of each scan, at the plan's rung where the plan keeps the tile and at the
/// scan's best planned rung where it pruned it.
uint64_t NaiveBytes(const vc::PhysicalPlan& plan) {
  uint64_t bytes = 0;
  for (const vc::ScanPlan& scan : plan.scans) {
    int best = -1;
    for (const vc::SegmentSlice& slice : scan.slices) {
      for (int rung : slice.tile_quality) {
        if (rung >= 0 && (best < 0 || rung < best)) best = rung;
      }
    }
    if (best < 0) best = 0;
    const vc::VideoMetadata& md = scan.metadata;
    size_t next = 0;
    for (int s = 0; s < md.segment_count(); ++s) {
      const vc::SegmentSlice* slice = nullptr;
      if (next < scan.slices.size() && scan.slices[next].segment == s) {
        slice = &scan.slices[next++];
      }
      for (int t = 0; t < md.tile_count(); ++t) {
        int rung = slice != nullptr ? slice->tile_quality[t] : -1;
        bytes += md.cells[md.CellIndex(s, t, rung >= 0 ? rung : best)]
                     .byte_size;
      }
    }
  }
  return bytes;
}

uint64_t OutputHash(const vc::QueryResult& result) {
  if (!result.has_encoded) return HashFrames(result.frames);
  std::vector<uint8_t> bytes = result.encoded.Serialize();
  return HashBytes(bytes.data(), bytes.size());
}

class QueryWorkload : public Workload {
 public:
  const char* name() const override { return "query"; }
  const char* work_unit() const override { return "query"; }
  int CycleLength() const override { return kClasses * kInstances; }

  std::map<std::string, std::string> Config() const override {
    return {{"query.catalog_bytes", std::to_string(catalog_bytes_)},
            {"query.cache_bytes", std::to_string(kCacheBytes)},
            {"query.cycle", std::to_string(CycleLength())},
            {"query.cost_model", "CostModel::Calibrated (default)"},
            {"store", "in-memory Env, io_threads=0"}};
  }

  vc::Status Setup(uint64_t seed) override;
  vc::Result<double> Request(uint64_t index, bool traced) override;
  vc::Status Verify(uint64_t index) override;
  vc::Status Finish(int64_t traced_requests, WorkloadReport* report) override;

 private:
  struct Executed {
    vc::PhysicalPlan plan;
    vc::QueryResult result;
    double parse_s = 0, plan_s = 0, exec_s = 0;
  };
  /// Parse -> Optimize -> ExecutePlan, each phase timed and spanned.
  vc::Result<Executed> Run(const std::string& text,
                           const vc::OptimizeOptions& options);
  vc::Result<Outputs> RunPosition(int pos, Executed* executed);
  vc::Status CheckAgainstBaselines();
  vc::Result<double> OutputPsnr(const Executed& executed);

  std::vector<std::unique_ptr<vc::SceneGenerator>> scenes_;  // by video
  std::vector<std::string> video_names_;
  BenchStore store_;
  std::unique_ptr<vc::ViewMaintainer> maintainer_;
  std::vector<vc::MaterializedViewInfo> views_;
  std::vector<std::string> texts_;  ///< The query cycle.
  std::vector<Class> classes_;
  uint64_t catalog_bytes_ = 0;

  std::vector<Outputs> expected_;
  Outputs last_;
  double data_ratio_ = 0, quality_db_ = 0;
  std::map<std::string, int> choices_;  ///< Per cycle, from the check pass.
  std::vector<std::string> notes_;
  LayerSums layers_;
};

vc::Status QueryWorkload::Setup(uint64_t seed) {
  maintainer_.reset();
  store_.db.reset();  // before the Env it writes through
  store_.env.reset();
  layers_ = LayerSums();
  notes_.clear();
  SeedStream seeds(seed);

  VC_ASSIGN_OR_RETURN(store_, OpenBenchStore("/query", kCacheBytes, 0));
  scenes_.clear();
  video_names_ = vc::StandardSceneNames();
  catalog_bytes_ = 0;
  for (const std::string& scene : video_names_) {
    std::unique_ptr<vc::SceneGenerator> generator;
    VC_ASSIGN_OR_RETURN(generator, BenchScene(scene));
    VC_RETURN_IF_ERROR(store_.db
                           ->IngestScene(scene, *generator,
                                         kVideoSeconds * kFps,
                                         BenchIngestOptions())
                           .status());
    vc::VideoMetadata metadata;
    VC_ASSIGN_OR_RETURN(metadata, store_.db->Describe(scene));
    catalog_bytes_ += metadata.TotalBytes();
    scenes_.push_back(std::move(generator));
  }
  if (catalog_bytes_ <= 4 * kCacheBytes) {
    return vc::Status::Internal("query catalog must exceed the cache");
  }

  // The materialized view: degrade-periphery over venice around a seeded
  // yaw, maintained once during set-up.
  char view_chain[160];
  std::snprintf(view_chain, sizeof(view_chain),
                "scan(%s) | viewport(%.0f,90,90,75) | quality(high) | "
                "degrade(low) | encode",
                kViewSource, seeds.Uniform(0, 360));
  maintainer_ = std::make_unique<vc::ViewMaintainer>(store_.db.get());
  VC_RETURN_IF_ERROR(maintainer_->CreateView(
      kView, vc::Slice(std::string(view_chain) + " | store(" + kView + ")")));
  VC_RETURN_IF_ERROR(maintainer_->Maintain(kView));
  VC_ASSIGN_OR_RETURN(views_,
                      maintainer_->catalog()->Candidates(*store_.db->storage()));

  // The query cycle.
  texts_.clear();
  classes_.clear();
  // Classes spread over videos run twice per video per cycle, so the mix's
  // cost does not depend on which videos a seed draws; the seed picks viewports, window
  // starts and the view's yaw. The degrade re-encode, the costliest class,
  // always runs on the view's source video: re-encode cost differs about
  // 3x between the scenes, and a class spread over them would put p95 in
  // the gap between two scenes' costs instead of inside one cluster.
  auto window = [&](int length) {
    // Half-second starts: every window trims a partial first segment.
    const double t0 =
        0.5 + static_cast<double>(seeds.Below(kVideoSeconds - length));
    char text[64];
    std::snprintf(text, sizeof(text), "timeslice(%.1f,%.1f)", t0, t0 + length);
    return std::string(text);
  };
  auto viewport = [&](int fov_yaw, int fov_pitch) {
    char text[64];
    std::snprintf(text, sizeof(text), "viewport(%.0f,%.0f,%d,%d)",
                  seeds.Uniform(0, 360), seeds.Uniform(80, 100), fov_yaw,
                  fov_pitch);
    return std::string(text);
  };
  for (int instance = 0; instance < kInstances; ++instance) {
    for (int c = 0; c < kClasses; ++c) {
      const std::string scan =
          "scan(" + video_names_[(c + instance) % 3] + ") | ";
      std::string text;
      switch (static_cast<Class>(c)) {
        case Class::kWindowHigh:
          text = scan + window(4) + " | " + viewport(100, 80) +
                 " | quality(high)";
          break;
        case Class::kWindowMedium:
          text = scan + window(4) + " | " + viewport(110, 70) +
                 " | quality(medium)";
          break;
        case Class::kExport: {
          const int t0 = static_cast<int>(seeds.Below(kVideoSeconds - 4));
          text = scan + "timeslice(" + std::to_string(t0) + "," +
                 std::to_string(t0 + 4) + ") | quality(medium) | encode";
          break;
        }
        case Class::kDegrade:
          text = std::string("scan(") + kViewSource + ") | " + window(3) +
                 " | " + viewport(90, 75) +
                 " | quality(high) | degrade(low) | encode";
          break;
        case Class::kView:
          text = view_chain;
          break;
        case Class::kUnion:
          // Two different videos, so no cell is read by both branches.
          text = "union(scan(" + video_names_[instance % 3] + ") | " +
                 window(2) + " ; scan(" + video_names_[(instance + 1) % 3] +
                 ") | " + window(2) + ") | " + viewport(100, 80) +
                 " | quality(low)";
          break;
      }
      texts_.push_back(text);
      classes_.push_back(static_cast<Class>(c));
    }
  }

  // Sampled correctness checks against the naive baselines, then one pass
  // that warms the cache and calibrates the cost model, then the recording
  // pass. The recording pass starts from the state a pass leaves behind,
  // which is also where every timed pass starts.
  VC_RETURN_IF_ERROR(CheckAgainstBaselines());
  std::vector<std::string> warm_choices;
  for (int pos = 0; pos < CycleLength(); ++pos) {
    Executed executed;
    Outputs outputs;
    VC_ASSIGN_OR_RETURN(outputs, RunPosition(pos, &executed));
    warm_choices.push_back(outputs.choice);
  }
  expected_.clear();
  choices_.clear();
  double read = 0, naive = 0, psnr = 0;
  int psnr_n = 0;
  for (int pos = 0; pos < CycleLength(); ++pos) {
    Executed executed;
    Outputs outputs;
    VC_ASSIGN_OR_RETURN(outputs, RunPosition(pos, &executed));
    if (outputs.choice != warm_choices[pos]) {
      notes_.push_back("optimizer choice flipped at cycle position " +
                       std::to_string(pos) + ": " + warm_choices[pos] +
                       " -> " + outputs.choice);
    }
    expected_.push_back(outputs);
    ++choices_[outputs.choice];
    read += static_cast<double>(outputs.read_bytes);
    vc::OptimizeOptions base;  // the same query without views
    vc::PhysicalPlan base_plan;
    vc::Query query;
    VC_ASSIGN_OR_RETURN(query, vc::ParseQuery(vc::Slice(texts_[pos])));
    VC_ASSIGN_OR_RETURN(base_plan,
                        vc::Optimize(query, store_.db->storage(), base));
    naive += static_cast<double>(NaiveBytes(base_plan));
    if (classes_[pos] == Class::kExport || classes_[pos] == Class::kDegrade) {
      double value;
      VC_ASSIGN_OR_RETURN(value, OutputPsnr(executed));
      psnr += value;
      ++psnr_n;
    }
  }
  data_ratio_ = read / naive;
  quality_db_ = psnr / psnr_n;
  return vc::Status::OK();
}

vc::Result<QueryWorkload::Executed> QueryWorkload::Run(
    const std::string& text, const vc::OptimizeOptions& options) {
  Executed out;
  vc::Query query;
  int64_t t0 = NowNs();
  {
    ScopedSpan span("query.ParseQuery");
    VC_ASSIGN_OR_RETURN(query, vc::ParseQuery(vc::Slice(text)));
  }
  int64_t t1 = NowNs();
  {
    ScopedSpan span("query.Optimize");
    VC_ASSIGN_OR_RETURN(out.plan,
                        vc::Optimize(query, store_.db->storage(), options));
  }
  int64_t t2 = NowNs();
  {
    ScopedSpan span("query.ExecutePlan");
    VC_ASSIGN_OR_RETURN(out.result,
                        vc::ExecutePlan(out.plan, store_.db->storage()));
  }
  int64_t t3 = NowNs();
  out.parse_s = static_cast<double>(t1 - t0) / 1e9;
  out.plan_s = static_cast<double>(t2 - t1) / 1e9;
  out.exec_s = static_cast<double>(t3 - t2) / 1e9;
  return out;
}

vc::Result<Outputs> QueryWorkload::RunPosition(int pos, Executed* executed) {
  vc::OptimizeOptions options;
  options.views = &views_;
  const EnvTotals env_before = store_.env->totals();
  const vc::CacheStats cache_before = store_.db->storage()->cache_stats();
  VC_ASSIGN_OR_RETURN(*executed, Run(texts_[pos], options));
  const EnvTotals env = store_.env->totals() - env_before;
  const vc::CacheStats cache = store_.db->storage()->cache_stats();
  Outputs outputs;
  outputs.choice = ChoiceOf(executed->plan);
  outputs.output = OutputHash(executed->result);
  outputs.read_bytes = env.read_bytes;
  outputs.cells_scanned = executed->result.cells_scanned;
  outputs.cache_hits = cache.hits - cache_before.hits;
  outputs.cache_misses = cache.misses - cache_before.misses;
  return outputs;
}

vc::Status QueryWorkload::CheckAgainstBaselines() {
  vc::StorageManager* storage = store_.db->storage();
  const vc::CostModel pinned;  // defaults: the checks' choices are fixed
  vc::OptimizeOptions with_views;
  with_views.views = &views_;
  with_views.cost_model = &pinned;
  vc::OptimizeOptions without_views;
  without_views.cost_model = &pinned;
  for (Class c : {Class::kWindowHigh, Class::kDegrade, Class::kUnion,
                  Class::kExport, Class::kView}) {
    const int pos = static_cast<int>(c);  // first instance of the class
    Executed pruned;
    VC_ASSIGN_OR_RETURN(pruned, Run(texts_[pos], without_views));
    if (c == Class::kExport) {
      // Stitched stored bitstreams decode to exactly the frames the same
      // selection materializes.
      const std::string text = texts_[pos].substr(
          0, texts_[pos].rfind(" | encode"));
      Executed frames;
      VC_ASSIGN_OR_RETURN(frames, Run(text, without_views));
      std::vector<vc::Frame> decoded;
      VC_ASSIGN_OR_RETURN(decoded, vc::DecodeVideo(pruned.result.encoded));
      if (!pruned.plan.transcode_free ||
          HashFrames(decoded) != HashFrames(frames.result.frames)) {
        return vc::Status::Internal("stitched export differs from its frames");
      }
      continue;
    }
    if (c == Class::kView) {
      Executed served;
      VC_ASSIGN_OR_RETURN(served, Run(texts_[pos], with_views));
      if (served.plan.view_served != kView ||
          OutputHash(served.result) != OutputHash(pruned.result)) {
        return vc::Status::Internal(
            "view-served result differs from the re-encoded one");
      }
      continue;
    }
    // Naive full scan from a cold cache: byte-identical output, and it
    // reads exactly the bytes data_ratio's baseline counts.
    storage->ClearCache();
    vc::ExecuteOptions naive;
    naive.naive_full_scan = true;
    const EnvTotals before = store_.env->totals();
    vc::QueryResult baseline;
    VC_ASSIGN_OR_RETURN(baseline, vc::ExecutePlan(pruned.plan, storage, naive));
    const uint64_t read = (store_.env->totals() - before).read_bytes;
    if (OutputHash(baseline) != OutputHash(pruned.result)) {
      return vc::Status::Internal("query output differs from naive scan: " +
                                  texts_[pos]);
    }
    if (read != NaiveBytes(pruned.plan)) {
      return vc::Status::Internal("naive scan read " + std::to_string(read) +
                                  " bytes, expected " +
                                  std::to_string(NaiveBytes(pruned.plan)));
    }
  }
  return vc::Status::OK();
}

vc::Result<double> QueryWorkload::OutputPsnr(const Executed& executed) {
  std::vector<vc::Frame> decoded;
  VC_ASSIGN_OR_RETURN(decoded, vc::DecodeVideo(executed.result.encoded));
  const vc::ScanPlan& scan = executed.plan.scans.at(0);
  size_t video = 0;
  while (video < video_names_.size() &&
         video_names_[video] != scan.metadata.name) {
    ++video;
  }
  if (video == video_names_.size()) {
    return vc::Status::Internal("output scans an unknown video");
  }
  std::vector<vc::Frame> source;
  for (const vc::SegmentSlice& slice : scan.slices) {
    for (int f = slice.first_frame; f <= slice.last_frame; ++f) {
      source.push_back(scenes_[video]->FrameAt(f));
    }
  }
  return MeanPsnr(decoded, source);
}

vc::Result<double> QueryWorkload::Request(uint64_t index, bool traced) {
  const int pos = static_cast<int>(index % CycleLength());
  if (!traced) {
    Executed executed;
    VC_ASSIGN_OR_RETURN(last_, RunPosition(pos, &executed));
    return 1.0;
  }
  RegistryDelta registry;
  registry.before = vc::MetricRegistry::Global().Snapshot();
  const EnvTotals env_before = store_.env->totals();
  Executed executed;
  VC_ASSIGN_OR_RETURN(last_, RunPosition(pos, &executed));
  registry.after = vc::MetricRegistry::Global().Snapshot();
  const EnvTotals env = store_.env->totals() - env_before;

  LayerSums& l = layers_;
  l.parse_s += executed.parse_s;
  l.plan_s += executed.plan_s;
  l.exec_s += executed.exec_s;
  l.env += env;
  l.cells_scanned += static_cast<uint64_t>(executed.result.cells_scanned);
  l.cells_total += static_cast<uint64_t>(executed.plan.TotalCells());
  l.transcoded += executed.result.transcodes > 0 ? 1 : 0;
  l.view_hits += executed.plan.view_served.empty() ? 0 : 1;
  l.cache_hits += last_.cache_hits;
  l.cache_misses += last_.cache_misses;
  l.decode_s += registry.HistogramSum("query.decode_seconds_per_cell");
  l.decode_n += registry.HistogramCount("query.decode_seconds_per_cell");
  l.stitch_s += registry.HistogramSum("query.stitch_seconds_per_cell");
  l.stitch_n += registry.HistogramCount("query.stitch_seconds_per_cell");
  l.encode_s_per_px += registry.HistogramSum("query.encode_seconds_per_pixel");
  l.encode_n += registry.HistogramCount("query.encode_seconds_per_pixel");
  return 1.0;
}

vc::Status QueryWorkload::Verify(uint64_t index) {
  const Outputs& want = expected_[index % CycleLength()];
  if (last_ == want) return vc::Status::OK();
  return vc::Status::Internal(
      "query outputs differ from the check pass at position " +
      std::to_string(index % CycleLength()) + " (choice " + last_.choice +
      " vs " + want.choice + ", read " + std::to_string(last_.read_bytes) +
      " vs " + std::to_string(want.read_bytes) + ")");
}

vc::Status QueryWorkload::Finish(int64_t traced_requests,
                                 WorkloadReport* report) {
  report->end_to_end["data_ratio"] = {data_ratio_, "ratio", 0};
  report->end_to_end["quality_db"] = {quality_db_, "dB", 0};
  report->deterministic["data_ratio"] = Exact(data_ratio_);
  report->deterministic["quality_db"] = Exact(quality_db_);
  uint64_t scanned = 0, hits = 0;
  for (const Outputs& o : expected_) {
    scanned += static_cast<uint64_t>(o.cells_scanned);
    hits += o.cache_hits;
  }
  report->deterministic["cells_scanned"] = std::to_string(scanned);
  report->deterministic["cell_cache_hits"] = std::to_string(hits);
  for (const auto& [choice, count] : choices_) {
    report->deterministic["choice." + choice] = std::to_string(count);
  }
  report->notes.insert(report->notes.end(), notes_.begin(), notes_.end());

  if (traced_requests > 0) {
    const double n = static_cast<double>(traced_requests);
    const LayerSums& l = layers_;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    MetricMap& m = report->per_layer;
    m["query.parse_ms"] = {1e3 * l.parse_s / n, "ms", traced_requests};
    m["query.plan_ms"] = {1e3 * l.plan_s / n, "ms", traced_requests};
    m["query.exec_ms"] = {1e3 * l.exec_s / n, "ms", traced_requests};
    AddEnvLayerMetrics(l.env, traced_requests, &m);
    m["query.cells_scanned"] = {static_cast<double>(l.cells_scanned) / n,
                                "count", traced_requests};
    m["query.pruned_fraction"] = {
        1.0 - ratio(static_cast<double>(l.cells_scanned),
                    static_cast<double>(l.cells_total)),
        "ratio", traced_requests};
    m["query.transcode_share"] = {static_cast<double>(l.transcoded) / n,
                                  "ratio", traced_requests};
    m["query.view_hit_share"] = {static_cast<double>(l.view_hits) / n,
                                 "ratio", traced_requests};
    m["codec.decode_ms_per_cell"] = {
        1e3 * ratio(l.decode_s, static_cast<double>(l.decode_n)), "ms",
        static_cast<int64_t>(l.decode_n)};
    m["codec.stitch_ms_per_cell"] = {
        1e3 * ratio(l.stitch_s, static_cast<double>(l.stitch_n)), "ms",
        static_cast<int64_t>(l.stitch_n)};
    m["codec.encode_ms_per_mpixel"] = {
        1e9 * ratio(l.encode_s_per_px, static_cast<double>(l.encode_n)), "ms",
        static_cast<int64_t>(l.encode_n)};
    m["storage.cache_hit_rate"] = {
        ratio(static_cast<double>(l.cache_hits),
              static_cast<double>(l.cache_hits + l.cache_misses)),
        "ratio", traced_requests};
    for (const char* choice : {"stitch", "re-encode", "view-scan", "none"}) {
      auto it = choices_.find(choice);
      m[std::string("query.choice.") + choice] = {
          it == choices_.end() ? 0.0 : static_cast<double>(it->second),
          "count", 0};
    }
  }
  return vc::Status::OK();
}

}  // namespace

std::unique_ptr<Workload> NewQueryWorkload() {
  return std::make_unique<QueryWorkload>();
}

}  // namespace perfbench
