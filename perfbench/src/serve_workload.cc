// `serve`: video-on-demand viewer cohorts through StreamingServer::Run.
//
// The catalog holds one seeded video per standard scene and fits in the
// storage cell cache, which stays warm across requests. Each request is one
// cohort of kCohortViewers viewers streaming one video, cycling its own
// kCohortSlots entries of a bounded pool of seeded head traces and network
// profiles, some of them bandwidth-limited or faulted so adaptation,
// retries and rebuffering happen. Everything runs on this thread (io_threads = 0,
// prefetch off, the server's default options).

#include "core/session.h"
#include "predict/trace_synthesizer.h"
#include "server/streaming_server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kVideoSeconds = 20;
constexpr int kCohortViewers = 64;
constexpr int kCohorts = 6;        // the input cycle
constexpr int kCohortSlots = 16;   // distinct viewers per cohort
constexpr int kPoolSize = kCohorts * kCohortSlots;
constexpr int kQualityPerCohort = 2;
constexpr double kFovYawDeg = 90.0;
constexpr double kFovPitchDeg = 75.0;

/// The simulated outcome of one cohort; must repeat exactly.
struct Outcome {
  uint64_t bytes_sent = 0;
  double stall_seconds = 0;
  double media_seconds = 0;
  int stall_events = 0, faults = 0, retries = 0, skips = 0, completed = 0;
  uint64_t cache_hits = 0, cache_misses = 0, plan_hits = 0, plan_misses = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome OutcomeOf(const vc::ServerStats& stats) {
  Outcome o;
  o.bytes_sent = stats.bytes_sent;
  o.stall_seconds = stats.stall_seconds;
  o.media_seconds = stats.media_seconds;
  o.stall_events = stats.stall_events;
  o.faults = stats.transfer_faults;
  o.retries = stats.transfer_retries;
  o.skips = stats.segments_skipped;
  o.completed = stats.sessions_completed;
  o.cache_hits = stats.cache.hits;
  o.cache_misses = stats.cache.misses;
  o.plan_hits = stats.plan.hits;
  o.plan_misses = stats.plan.misses;
  return o;
}

struct LayerSums {
  double wall_s = 0, read_s = 0, plan_s = 0;
  EnvTotals env;
  uint64_t cells = 0, cache_hits = 0, cache_misses = 0, plan_hits = 0,
           plan_misses = 0, downgrades = 0, retries = 0, skips = 0;
  double stall_s = 0, media_s = 0;
};

struct Cohort {
  int video = 0;
  std::vector<vc::ViewerRequest> plain;
  std::vector<vc::ViewerRequest> decorated;  ///< cell_source = decorator
};

class ServeWorkload : public Workload {
 public:
  const char* name() const override { return "serve"; }
  const char* work_unit() const override { return "viewer_segment"; }
  int CycleLength() const override { return kCohorts; }

  std::map<std::string, std::string> Config() const override {
    return {{"serve.cohort_viewers", std::to_string(kCohortViewers)},
            {"serve.pool", std::to_string(kPoolSize)},
            {"serve.cohort_slots", std::to_string(kCohortSlots)},
            {"serve.cohorts", std::to_string(kCohorts)},
            {"serve.catalog_bytes", std::to_string(catalog_bytes_)},
            {"serve.cache_bytes", std::to_string(kCacheBytes)},
            {"store", "in-memory Env, io_threads=0, prefetch off"}};
  }

  vc::Status Setup(uint64_t seed) override;
  vc::Result<double> Request(uint64_t index, bool traced) override;
  vc::Status Verify(uint64_t index) override;
  vc::Status Finish(int64_t traced_requests, WorkloadReport* report) override;

 private:
  static constexpr size_t kCacheBytes = 64ull << 20;

  vc::Result<vc::ServerStats> RunCohort(int pos, bool decorated);

  std::vector<std::unique_ptr<vc::SceneGenerator>> scenes_;
  BenchStore store_;
  std::unique_ptr<CountingCellSource> source_;
  std::vector<vc::VideoMetadata> videos_;
  std::vector<double> top_rung_bytes_;  ///< Monolithic top-rung bytes/video.
  std::vector<Cohort> cohorts_;
  uint64_t catalog_bytes_ = 0;

  std::vector<Outcome> expected_;
  Outcome last_;
  double data_ratio_ = 0, quality_db_ = 0, rebuffer_ratio_ = 0;
  LayerSums layers_;
};

vc::Status ServeWorkload::Setup(uint64_t seed) {
  source_.reset();
  store_.db.reset();  // before the Env it writes through
  store_.env.reset();
  layers_ = LayerSums();
  SeedStream seeds(seed);

  VC_ASSIGN_OR_RETURN(store_, OpenBenchStore("/serve", kCacheBytes, 0));
  source_ = std::make_unique<CountingCellSource>(store_.db->storage());
  scenes_.clear();
  videos_.clear();
  top_rung_bytes_.clear();
  catalog_bytes_ = 0;
  for (const std::string& scene : vc::StandardSceneNames()) {
    std::unique_ptr<vc::SceneGenerator> generator;
    VC_ASSIGN_OR_RETURN(generator, BenchScene(scene));
    VC_RETURN_IF_ERROR(store_.db
                           ->IngestScene(scene, *generator,
                                         kVideoSeconds * kFps,
                                         BenchIngestOptions())
                           .status());
    vc::VideoMetadata metadata;
    VC_ASSIGN_OR_RETURN(metadata, store_.db->Describe(scene));
    double top = 0;
    for (int s = 0; s < metadata.segment_count(); ++s) {
      top += static_cast<double>(metadata.SegmentBytesAtQuality(s, 0));
    }
    top_rung_bytes_.push_back(top);
    catalog_bytes_ += metadata.TotalBytes();
    videos_.push_back(std::move(metadata));
    scenes_.push_back(std::move(generator));
  }
  if (catalog_bytes_ >= kCacheBytes) {
    return vc::Status::Internal("serve catalog does not fit in the cache");
  }

  // The viewer pool: archetype traces and four network profiles, scaled to
  // the monolithic top-rung bitrate so the constrained ones bind.
  const double top_bps = 8.0 * top_rung_bytes_[1] / kVideoSeconds;
  const std::vector<std::string>& archetypes = vc::ViewerArchetypes();
  std::vector<vc::ViewerRequest> pool;
  for (int i = 0; i < kPoolSize; ++i) {
    vc::TraceSynthOptions trace_options;
    VC_ASSIGN_OR_RETURN(trace_options,
                        vc::ArchetypeOptions(archetypes[i % archetypes.size()],
                                             seeds.Next()));
    trace_options.duration_seconds = kVideoSeconds;
    vc::ViewerRequest viewer;
    VC_ASSIGN_OR_RETURN(viewer.trace, vc::SynthesizeTrace(trace_options));
    vc::SessionOptions& session = viewer.session;
    session.approach = vc::StreamingApproach::kVisualCloud;
    session.viewport.fov_yaw = vc::DegToRad(kFovYawDeg);
    session.viewport.fov_pitch = vc::DegToRad(kFovPitchDeg);
    session.viewport.width = 64;
    session.viewport.height = 48;
    session.network.latency_seconds = 0.02;
    session.network.seed = seeds.Next();
    switch (i % 4) {
      case 0:  // broadband
        session.network.bandwidth_bps = 4.0 * top_bps;
        break;
      case 1:  // constrained: below the monolithic top rung
        session.network.bandwidth_bps = 0.6 * top_bps;
        break;
      case 2:  // faulted broadband
        session.network.bandwidth_bps = 2.0 * top_bps;
        session.network.faults.episodes_per_minute = 12;
        session.network.faults.episode_seconds = 0.8;
        session.network.faults.seed = seeds.Next();
        break;
      default:  // fluctuating
        session.network.bandwidth_bps = 1.5 * top_bps;
        session.network.bandwidth_trace = {
            {0.0, 1.5 * top_bps}, {6.0, 0.3 * top_bps}, {10.0, 1.5 * top_bps}};
        break;
    }
    pool.push_back(std::move(viewer));
  }

  cohorts_.assign(kCohorts, Cohort{});
  for (int c = 0; c < kCohorts; ++c) {
    Cohort& cohort = cohorts_[c];
    cohort.video = c % static_cast<int>(videos_.size());
    for (int j = 0; j < kCohortViewers; ++j) {
      // Each cohort replays its own slots of the pool, every slot by
      // several viewers arriving at different times.
      vc::ViewerRequest viewer = pool[c * kCohortSlots + j % kCohortSlots];
      viewer.arrival_seconds = 0.025 * j;
      cohort.plain.push_back(viewer);
      viewer.session.cell_source = source_.get();
      cohort.decorated.push_back(std::move(viewer));
    }
  }

  // Check pass: one pass warms the cache, the next records each cohort's
  // outcome and the deterministic metrics.
  for (int pos = 0; pos < kCohorts; ++pos) {
    VC_RETURN_IF_ERROR(RunCohort(pos, false).status());
  }
  expected_.clear();
  double sent = 0, monolithic = 0, stall = 0, media = 0;
  for (int pos = 0; pos < kCohorts; ++pos) {
    vc::ServerStats stats;
    VC_ASSIGN_OR_RETURN(stats, RunCohort(pos, false));
    expected_.push_back(OutcomeOf(stats));
    sent += static_cast<double>(stats.bytes_sent);
    // The monolithic stream for the segments actually delivered: a
    // segment abandoned after a failed retry sends nothing, so it leaves
    // the denominator too (at the video's mean top-rung segment size) and
    // more skips cannot lower the ratio.
    const vc::VideoMetadata& video = videos_[cohorts_[pos].video];
    const double top_per_segment =
        top_rung_bytes_[cohorts_[pos].video] / video.segment_count();
    for (const vc::SessionStats& session : stats.sessions) {
      monolithic +=
          (session.segments - session.segments_skipped) * top_per_segment;
    }
    stall += stats.stall_seconds;
    media += stats.media_seconds;
  }
  data_ratio_ = sent / monolithic;
  rebuffer_ratio_ = stall / media;

  // The CellSource decorator must not change what is served.
  vc::ServerStats decorated;
  VC_ASSIGN_OR_RETURN(decorated, RunCohort(0, true));
  if (!(OutcomeOf(decorated) == expected_[0])) {
    return vc::Status::Internal("CellSource decorator changed the outcome");
  }

  // Quality: in-viewport PSNR of a fixed subset of sessions, two viewers
  // of every cohort; across the cycle each network profile gets three.
  double psnr = 0;
  for (int c = 0; c < kCohorts; ++c) {
    const Cohort& cohort = cohorts_[c];
    for (int i = 0; i < kQualityPerCohort; ++i) {
      const vc::ViewerRequest& viewer =
          cohort.plain[(c % 2) * kQualityPerCohort + i];
      vc::SessionOptions options = viewer.session;
      options.evaluate_quality = true;
      vc::SessionStats stats;
      VC_ASSIGN_OR_RETURN(
          stats, vc::SimulateSession(store_.db->storage(),
                                     videos_[cohort.video], viewer.trace,
                                     options, scenes_[cohort.video].get()));
      psnr += stats.mean_viewport_psnr;
    }
  }
  quality_db_ = psnr / (kCohorts * kQualityPerCohort);
  return vc::Status::OK();
}

vc::Result<vc::ServerStats> ServeWorkload::RunCohort(int pos,
                                                     bool decorated) {
  const Cohort& cohort = cohorts_[pos];
  vc::StreamingServer server(store_.db->storage(), vc::ServerOptions());
  ScopedSpan span("server.Run");
  return server.Run(videos_[cohort.video],
                    decorated ? cohort.decorated : cohort.plain);
}

vc::Result<double> ServeWorkload::Request(uint64_t index, bool traced) {
  const int pos = static_cast<int>(index % kCohorts);
  vc::ServerStats stats;
  if (!traced) {
    VC_ASSIGN_OR_RETURN(stats, RunCohort(pos, false));
  } else {
    RegistryDelta registry;
    registry.before = vc::MetricRegistry::Global().Snapshot();
    const CellSourceTotals reads_before = source_->totals();
    const EnvTotals env_before = store_.env->totals();
    const int64_t start = NowNs();
    VC_ASSIGN_OR_RETURN(stats, RunCohort(pos, true));
    const int64_t wall = NowNs() - start;
    layers_.env += store_.env->totals() - env_before;
    registry.after = vc::MetricRegistry::Global().Snapshot();
    const CellSourceTotals reads = source_->totals() - reads_before;
    layers_.wall_s += static_cast<double>(wall) / 1e9;
    layers_.read_s += static_cast<double>(reads.ns) / 1e9;
    layers_.cells += reads.cells;
    layers_.plan_s += registry.HistogramSum("session.plan_seconds");
    layers_.downgrades += registry.Counter("session.quality_downgrades");
    layers_.cache_hits += stats.cache.hits;
    layers_.cache_misses += stats.cache.misses;
    layers_.plan_hits += stats.plan.hits;
    layers_.plan_misses += stats.plan.misses;
    layers_.retries += static_cast<uint64_t>(stats.transfer_retries);
    layers_.skips += static_cast<uint64_t>(stats.segments_skipped);
    layers_.stall_s += stats.stall_seconds;
    layers_.media_s += stats.media_seconds;
  }
  last_ = OutcomeOf(stats);
  double viewer_segments = 0;
  for (const vc::SessionStats& session : stats.sessions) {
    viewer_segments += session.segments;
  }
  return viewer_segments;
}

vc::Status ServeWorkload::Verify(uint64_t index) {
  const Outcome& want = expected_[index % kCohorts];
  if (last_ == want) return vc::Status::OK();
  return vc::Status::Internal(
      "cohort outcome differs from the check pass (bytes " +
      std::to_string(last_.bytes_sent) + " vs " +
      std::to_string(want.bytes_sent) + ", cache hits " +
      std::to_string(last_.cache_hits) + " vs " +
      std::to_string(want.cache_hits) + ")");
}

vc::Status ServeWorkload::Finish(int64_t traced_requests,
                                 WorkloadReport* report) {
  report->end_to_end["data_ratio"] = {data_ratio_, "ratio", 0};
  report->end_to_end["quality_db"] = {quality_db_, "dB", 0};
  report->end_to_end["rebuffer_ratio"] = {rebuffer_ratio_, "ratio", 0};
  report->deterministic["data_ratio"] = Exact(data_ratio_);
  report->deterministic["quality_db"] = Exact(quality_db_);
  report->deterministic["rebuffer_ratio"] = Exact(rebuffer_ratio_);
  uint64_t bytes = 0, cache_hits = 0, plan_hits = 0;
  for (const Outcome& o : expected_) {
    bytes += o.bytes_sent;
    cache_hits += o.cache_hits;
    plan_hits += o.plan_hits;
  }
  report->deterministic["bytes_sent"] = std::to_string(bytes);
  report->deterministic["cell_cache_hits"] = std::to_string(cache_hits);
  report->deterministic["plan_cache_hits"] = std::to_string(plan_hits);

  if (traced_requests > 0) {
    const double n = static_cast<double>(traced_requests);
    const LayerSums& l = layers_;
    auto rate = [](uint64_t hits, uint64_t misses) {
      return hits + misses > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0.0;
    };
    MetricMap& m = report->per_layer;
    AddEnvLayerMetrics(l.env, traced_requests, &m);
    m["storage.cell_read_ms"] = {1e3 * l.read_s / n, "ms", traced_requests};
    m["storage.cell_reads"] = {static_cast<double>(l.cells) / n, "count",
                               traced_requests};
    m["storage.cache_hit_rate"] = {rate(l.cache_hits, l.cache_misses),
                                   "ratio", traced_requests};
    m["core.plan_ms"] = {1e3 * l.plan_s / n, "ms", traced_requests};
    m["core.plan_cache_hit_rate"] = {rate(l.plan_hits, l.plan_misses),
                                     "ratio", traced_requests};
    m["server.self_ms"] = {1e3 * (l.wall_s - l.read_s - l.plan_s) / n, "ms",
                           traced_requests};
    m["streaming.downgrades"] = {static_cast<double>(l.downgrades) / n,
                                 "count", traced_requests};
    m["streaming.retries"] = {static_cast<double>(l.retries) / n, "count",
                              traced_requests};
    m["streaming.skips"] = {static_cast<double>(l.skips) / n, "count",
                            traced_requests};
    m["streaming.rebuffer_ratio"] = {l.media_s > 0 ? l.stall_s / l.media_s
                                                   : 0.0,
                                     "ratio", traced_requests};
  }
  return vc::Status::OK();
}

}  // namespace

std::unique_ptr<Workload> NewServeWorkload() {
  return std::make_unique<ServeWorkload>();
}

}  // namespace perfbench
