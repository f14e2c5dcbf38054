#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "core/session.h"
#include "core/visualcloud.h"
#include "obs/metrics.h"
#include "predict/trace_synthesizer.h"
#include "server/cluster_server.h"
#include "server/live_feed.h"
#include "server/streaming_server.h"
#include "storage/sharded_store.h"
#include "test_digest.h"

namespace vc {
namespace {

/// Shared fixture: one in-memory VisualCloud with a small venice clip
/// ingested once (encoding dominates test time).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = NewMemEnv().release();
    VisualCloudOptions options;
    options.storage.env = env_;
    options.storage.root = "/vcdb";
    auto db = VisualCloud::Open(options);
    ASSERT_TRUE(db.ok());
    db_ = db->release();

    SceneOptions scene_options;
    scene_options.width = 128;
    scene_options.height = 64;
    auto scene = NewVeniceScene(scene_options);

    IngestOptions ingest;
    ingest.tile_rows = 4;
    ingest.tile_cols = 4;
    ingest.frames_per_segment = 8;
    ingest.fps = 8.0;  // 1-second segments with 8 frames
    ingest.ladder = {{"high", 14}, {"medium", 28}, {"low", 42}};
    auto version = db_->IngestScene("venice", *scene, 32, ingest);
    ASSERT_TRUE(version.ok()) << version.status().ToString();
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    delete env_;
    env_ = nullptr;
  }

  static HeadTrace MakeTrace(double yaw_rate) {
    std::vector<TraceSample> samples;
    for (int i = 0; i <= 32 * 4; ++i) {
      double t = i / 32.0 * 4.0;  // covers the 4-second clip
      samples.push_back({t, {WrapYaw(1.0 + yaw_rate * t), kPi / 2}});
    }
    return *HeadTrace::FromSamples(std::move(samples));
  }

  static SessionOptions BaseSession() {
    SessionOptions options;
    options.network.bandwidth_bps = 50e6;
    options.network.latency_seconds = 0.01;
    options.viewport.width = 48;
    options.viewport.height = 48;
    options.viewport.fov_yaw = DegToRad(90.0);
    options.viewport.fov_pitch = DegToRad(75.0);
    return options;
  }

  /// `count` viewers with distinct traces and network seeds, arrivals
  /// staggered 100 ms apart.
  static std::vector<ViewerRequest> MakeViewers(int count) {
    std::vector<ViewerRequest> viewers;
    for (int i = 0; i < count; ++i) {
      ViewerRequest viewer;
      viewer.trace = MakeTrace(0.2 + 0.1 * i);
      viewer.session = BaseSession();
      viewer.session.network.seed = 100 + i;
      viewer.arrival_seconds = 0.1 * i;
      viewers.push_back(std::move(viewer));
    }
    return viewers;
  }

  static VideoMetadata Metadata() { return *db_->Describe("venice"); }

  static Env* env_;
  static VisualCloud* db_;
};

Env* ServerTest::env_ = nullptr;
VisualCloud* ServerTest::db_ = nullptr;

void ExpectSameStats(const SessionStats& a, const SessionStats& b) {
  EXPECT_EQ(a.approach, b.approach);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.startup_delay, b.startup_delay);
  EXPECT_EQ(a.stall_seconds, b.stall_seconds);
  EXPECT_EQ(a.stall_events, b.stall_events);
  EXPECT_EQ(a.duration_seconds, b.duration_seconds);
  EXPECT_EQ(a.mean_viewport_psnr, b.mean_viewport_psnr);
  EXPECT_EQ(a.min_viewport_psnr, b.min_viewport_psnr);
  EXPECT_EQ(a.quality_samples, b.quality_samples);
  EXPECT_EQ(a.mean_inview_quality, b.mean_inview_quality);
  EXPECT_EQ(a.transfer_faults, b.transfer_faults);
  EXPECT_EQ(a.transfer_retries, b.transfer_retries);
  EXPECT_EQ(a.segments_skipped, b.segments_skipped);
}

// ------------------------------------------------------------ Serve digest

TEST_F(ServerTest, ServeOutcomeDigestIsPinned) {
  // Eight synthesized viewers on two faulted, bandwidth-limited network
  // profiles. The digest of every simulated outcome holds the session's
  // defaults (orientation feed cadence, budget derating, out-of-view rung)
  // and the network model's (fault horizon, collapse factor) to their exact
  // effect on served bytes and QoE.
  VideoMetadata metadata = Metadata();
  const double top_bps =
      8.0 * PlanBytes(metadata, 0, TileQualityPlan(metadata.tile_count(), 0)) /
      metadata.segment_duration_seconds();
  const std::vector<std::string>& archetypes = ViewerArchetypes();
  std::vector<ViewerRequest> viewers;
  for (int i = 0; i < 8; ++i) {
    auto synth = ArchetypeOptions(archetypes[i % archetypes.size()], 50 + i);
    ASSERT_TRUE(synth.ok());
    synth->duration_seconds = 4.0;
    auto trace = SynthesizeTrace(*synth);
    ASSERT_TRUE(trace.ok());
    ViewerRequest viewer;
    viewer.trace = *trace;
    viewer.session = BaseSession();
    NetworkOptions& network = viewer.session.network;
    network.seed = 300 + i;
    if (i % 2 == 0) {
      network.bandwidth_bps = 0.6 * top_bps;
      network.faults.episodes_per_minute = 20.0;
      network.faults.episode_seconds = 0.8;
      network.faults.timeout_seconds = 0.5;
    } else {
      network.bandwidth_bps = 0.9 * top_bps;
      network.bandwidth_trace = {{1.5, 0.3 * top_bps}, {3.0, top_bps}};
      network.faults.episodes_per_minute = 30.0;
      network.faults.timeout_seconds = 1.0;
    }
    network.faults.seed = 900 + i;
    viewer.arrival_seconds = 0.05 * i;
    viewers.push_back(std::move(viewer));
  }
  StreamingServer server(db_->storage(), ServerOptions{});
  auto stats = server.Run(metadata, viewers);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->sessions.size(), 8u);
  EXPECT_GT(stats->transfer_faults, 0);
  EXPECT_GT(stats->transfer_retries, 0);

  Fnv1a digest;
  digest.Add(stats->bytes_sent);
  digest.Add(stats->stall_seconds);
  digest.Add(stats->stall_events);
  digest.Add(stats->transfer_faults);
  digest.Add(stats->transfer_retries);
  digest.Add(stats->segments_skipped);
  for (const SessionStats& session : stats->sessions) {
    digest.Add(session.approach);
    digest.Add(session.bytes_sent);
    digest.Add(session.segments);
    digest.Add(session.startup_delay);
    digest.Add(session.stall_seconds);
    digest.Add(session.stall_events);
    digest.Add(session.duration_seconds);
    digest.Add(session.mean_inview_quality);
    digest.Add(session.transfer_faults);
    digest.Add(session.transfer_retries);
    digest.Add(session.segments_skipped);
  }
  EXPECT_EQ(digest.value(), 0xda4c7e4ea12fc5d1ull)
      << std::hex << digest.value();
}

// ------------------------------------------------------- ClientSession API

TEST_F(ServerTest, WrapperMatchesManualStepLoop) {
  // The SimulateSession compatibility wrapper and a hand-driven
  // ClientSession must produce bit-identical stats.
  VideoMetadata metadata = Metadata();
  HeadTrace trace = MakeTrace(0.3);
  SessionOptions options = BaseSession();

  auto wrapped = SimulateSession(db_->storage(), metadata, trace, options);
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();

  auto client = ClientSession::Create(db_->storage(), metadata, trace,
                                      options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_FALSE((*client)->done());
  EXPECT_EQ((*client)->next_segment(), 0);
  while (!(*client)->done()) {
    ASSERT_TRUE((*client)->Step((*client)->NextDeadline()).ok());
  }
  EXPECT_EQ((*client)->next_segment(), (*client)->segment_count());
  ExpectSameStats(*wrapped, (*client)->stats());

  // Stepping a finished session is an error, not a crash.
  EXPECT_TRUE((*client)->Step((*client)->wall_seconds() + 1).IsAborted());
}

TEST_F(ServerTest, DeadlinePacingHoldsDownloads) {
  VideoMetadata metadata = Metadata();
  SessionOptions options = BaseSession();
  options.buffer_ahead_seconds = 0.5;
  auto client =
      ClientSession::Create(db_->storage(), metadata, MakeTrace(0.3), options);
  ASSERT_TRUE(client.ok());

  // Before playback starts the session is ready immediately.
  EXPECT_EQ((*client)->NextDeadline(), 0.0);
  ASSERT_TRUE((*client)->Step((*client)->NextDeadline()).ok());
  // After segment 0 the pacing deadline is in the future: segment 1 plays
  // at play_start + 1s, so its download is held until 0.5s before that.
  double deadline = (*client)->NextDeadline();
  EXPECT_GT(deadline, (*client)->wall_seconds());
  // Step() never moves the wall clock backwards.
  ASSERT_TRUE((*client)->Step(deadline).ok());
  EXPECT_GE((*client)->wall_seconds(), deadline);
}

TEST_F(ServerTest, FaultRetryAccounting) {
  // Heavy fault injection over many seeds: every session must finish with
  // consistent accounting (a retry per first fault, a skip per second),
  // and the fault path must actually trigger across the seed sweep.
  VideoMetadata metadata = Metadata();
  int sessions_with_faults = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SessionOptions options = BaseSession();
    options.network.faults.episodes_per_minute = 240.0;
    options.network.faults.episode_seconds = 2.0;
    options.network.faults.timeout_seconds = 0.5;
    options.network.faults.seed = seed;

    auto stats =
        SimulateSession(db_->storage(), metadata, MakeTrace(0.3), options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GE(stats->transfer_faults, stats->transfer_retries);
    EXPECT_LE(stats->segments_skipped, stats->transfer_retries);
    EXPECT_EQ(stats->transfer_faults,
              stats->transfer_retries + stats->segments_skipped);
    EXPECT_EQ(stats->segments, metadata.segment_count());
    if (stats->transfer_faults > 0 && stats->transfer_retries > 0) {
      ++sessions_with_faults;
    }
  }
  EXPECT_GT(sessions_with_faults, 0)
      << "fault injection never fired across 16 seeds";
}

// ----------------------------------------------------------- server runs

TEST_F(ServerTest, ServerRunIsDeterministic) {
  // Two runs with identical viewers and seeds give bit-identical stats,
  // regardless of host timing.
  VideoMetadata metadata = Metadata();
  auto run_once = [&]() {
    db_->storage()->ClearCache();
    StreamingServer server(db_->storage(), ServerOptions{});
    auto stats = server.Run(metadata, MakeViewers(6));
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return *stats;
  };
  ServerStats first = run_once();
  ServerStats second = run_once();

  EXPECT_EQ(first.bytes_sent, second.bytes_sent);
  EXPECT_EQ(first.wall_seconds, second.wall_seconds);
  EXPECT_EQ(first.stall_seconds, second.stall_seconds);
  EXPECT_EQ(first.sessions_admitted, second.sessions_admitted);
  EXPECT_EQ(first.sessions_completed, second.sessions_completed);
  EXPECT_EQ(first.cache.hits, second.cache.hits);
  EXPECT_EQ(first.cache.misses, second.cache.misses);
  ASSERT_EQ(first.sessions.size(), second.sessions.size());
  for (size_t i = 0; i < first.sessions.size(); ++i) {
    ExpectSameStats(first.sessions[i], second.sessions[i]);
  }
}

TEST_F(ServerTest, SessionStatsIndependentOfCohortSize) {
  // Scheduler interleaving must not leak between sessions: viewer 0's
  // stats are the same whether it streams alone or among five others.
  // The viewers are oracles: the shared popularity model — the one
  // deliberate cross-session channel — feeds only kVisualCloud plans.
  VideoMetadata metadata = Metadata();
  auto oracles = [](int count) {
    std::vector<ViewerRequest> viewers = MakeViewers(count);
    for (ViewerRequest& viewer : viewers) {
      viewer.session.approach = StreamingApproach::kOracle;
    }
    return viewers;
  };

  db_->storage()->ClearCache();
  StreamingServer solo_server(db_->storage(), ServerOptions{});
  auto solo = solo_server.Run(metadata, oracles(1));
  ASSERT_TRUE(solo.ok());

  db_->storage()->ClearCache();
  StreamingServer cohort_server(db_->storage(), ServerOptions{});
  auto cohort = cohort_server.Run(metadata, oracles(6));
  ASSERT_TRUE(cohort.ok());

  ASSERT_EQ(solo->sessions.size(), 1u);
  ASSERT_EQ(cohort->sessions.size(), 6u);
  ExpectSameStats(solo->sessions[0], cohort->sessions[0]);
}

TEST_F(ServerTest, SharedCacheServesRepeatViewers) {
  // Six viewers of one video: after the first warms the cache, the rest
  // hit it — the whole point of serving from one storage manager.
  VideoMetadata metadata = Metadata();
  db_->storage()->ClearCache();
  StreamingServer server(db_->storage(), ServerOptions{});
  auto stats = server.Run(metadata, MakeViewers(6));
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->cache.hits, 0u);
  EXPECT_GT(stats->cache.HitRate(), 0.5);
  EXPECT_EQ(stats->sessions_completed, 6);
  EXPECT_GT(stats->bytes_sent, 0u);
  EXPECT_GT(stats->wall_seconds, 0.0);
}

TEST_F(ServerTest, AdmissionControlQueuesAndRejects) {
  VideoMetadata metadata = Metadata();
  std::vector<ViewerRequest> viewers = MakeViewers(6);
  // Viewer 3 wants more bandwidth than the whole uplink budget.
  viewers[3].session.network.bandwidth_bps = 500e6;

  ServerOptions options;
  options.max_concurrent_sessions = 2;
  options.bandwidth_budget_bps = 200e6;  // four 50 Mbps clients
  db_->storage()->ClearCache();
  StreamingServer server(db_->storage(), options);
  auto stats = server.Run(metadata, viewers);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_EQ(stats->sessions_offered, 6);
  EXPECT_EQ(stats->sessions_rejected, 1);
  EXPECT_EQ(stats->sessions_admitted, 5);
  EXPECT_EQ(stats->sessions_completed, 5);
  EXPECT_GT(stats->sessions_queued, 0);
  EXPECT_GT(stats->max_queue_depth, 0);
  EXPECT_LE(stats->max_active_sessions, 2);
  EXPECT_EQ(stats->sessions.size(), 5u);
  ASSERT_EQ(stats->admitted.size(), 5u);
  for (int viewer : stats->admitted) EXPECT_NE(viewer, 3);
}

TEST_F(ServerTest, FaultedServerRunCompletes) {
  // A server full of faulty links must finish every admitted session with
  // nonzero retry/stall accounting and zero crashes.
  VideoMetadata metadata = Metadata();
  std::vector<ViewerRequest> viewers = MakeViewers(6);
  for (ViewerRequest& viewer : viewers) {
    viewer.session.network.faults.episodes_per_minute = 120.0;
    viewer.session.network.faults.episode_seconds = 0.5;
    viewer.session.network.faults.timeout_seconds = 0.5;
    viewer.session.network.faults.seed = viewer.session.network.seed;
  }
  db_->storage()->ClearCache();
  StreamingServer server(db_->storage(), ServerOptions{});
  auto stats = server.Run(metadata, viewers);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->sessions_completed, 6);
  EXPECT_GT(stats->transfer_faults, 0);
  EXPECT_GT(stats->transfer_retries, 0);
  EXPECT_GT(stats->transfer_retries, 0);
}

TEST_F(ServerTest, AsyncPipelinePreservesSimulatedOutcome) {
  // The determinism contract of the async storage pipeline: served bytes,
  // QoE, admission, and fault accounting are byte-identical with prefetch
  // on or off and across I/O pool widths — speculation only warms the
  // cache. Fault injection is on so the invariance covers the retry path.
  VideoMetadata metadata = Metadata();
  auto make_viewers = [] {
    std::vector<ViewerRequest> viewers = MakeViewers(6);
    for (ViewerRequest& viewer : viewers) {
      viewer.session.network.faults.episodes_per_minute = 120.0;
      viewer.session.network.faults.episode_seconds = 0.5;
      viewer.session.network.faults.timeout_seconds = 0.5;
      viewer.session.network.faults.seed = viewer.session.network.seed;
    }
    return viewers;
  };
  auto run_config = [&](int io_threads, PrefetchMode mode) {
    // Fresh storage manager (cold cache) over the same committed store.
    StorageOptions storage_options;
    storage_options.env = env_;
    storage_options.root = "/vcdb";
    storage_options.io_threads = io_threads;
    storage_options.read_latency_seconds = 0.0002;
    auto storage = StorageManager::Open(storage_options);
    EXPECT_TRUE(storage.ok());
    ServerOptions server_options;
    server_options.prefetch = mode;
    StreamingServer server(storage->get(), server_options);
    auto stats = server.Run(metadata, make_viewers());
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return *stats;
  };

  ServerStats baseline = run_config(0, PrefetchMode::kOff);
  struct Config {
    int io_threads;
    PrefetchMode prefetch;
  };
  for (const Config& config :
       {Config{1, PrefetchMode::kOff}, Config{1, PrefetchMode::kPredict},
        Config{4, PrefetchMode::kPredict},
        Config{4, PrefetchMode::kPopularity}}) {
    ServerStats stats = run_config(config.io_threads, config.prefetch);
    EXPECT_EQ(stats.bytes_sent, baseline.bytes_sent);
    EXPECT_EQ(stats.wall_seconds, baseline.wall_seconds);
    EXPECT_EQ(stats.media_seconds, baseline.media_seconds);
    EXPECT_EQ(stats.stall_seconds, baseline.stall_seconds);
    EXPECT_EQ(stats.stall_events, baseline.stall_events);
    EXPECT_EQ(stats.transfer_faults, baseline.transfer_faults);
    EXPECT_EQ(stats.transfer_retries, baseline.transfer_retries);
    EXPECT_EQ(stats.segments_skipped, baseline.segments_skipped);
    EXPECT_EQ(stats.sessions_admitted, baseline.sessions_admitted);
    EXPECT_EQ(stats.sessions_queued, baseline.sessions_queued);
    EXPECT_EQ(stats.sessions_rejected, baseline.sessions_rejected);
    EXPECT_EQ(stats.sessions_completed, baseline.sessions_completed);
    ASSERT_EQ(stats.sessions.size(), baseline.sessions.size());
    for (size_t i = 0; i < stats.sessions.size(); ++i) {
      ExpectSameStats(stats.sessions[i], baseline.sessions[i]);
    }
    if (config.prefetch != PrefetchMode::kOff) {
      EXPECT_GT(stats.cache.prefetch_issued, 0u)
          << "prefetch mode must actually speculate";
      EXPECT_GT(stats.cache.prefetch_hits, 0u);
    } else {
      EXPECT_EQ(stats.cache.prefetch_issued, 0u);
    }
  }
}

TEST_F(ServerTest, ServerOptionsValidate) {
  ServerOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.max_concurrent_sessions = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = ServerOptions{};
  options.bandwidth_budget_bps = -1;
  EXPECT_FALSE(options.Validate().ok());
}

// ------------------------------------------------------- cluster runs

TEST_F(ServerTest, ClusterOptionsValidate) {
  ClusterOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.nodes = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = ClusterOptions{};
  options.node.max_concurrent_sessions = 0;
  EXPECT_FALSE(options.Validate().ok());
}

/// Forwards to `base`, counting every demand cell read asked of it.
class CountingCellSource : public CellSource {
 public:
  explicit CountingCellSource(CellSource* base) : base_(base) {}

  Result<LruCache::Value> ReadCell(const VideoMetadata& metadata, int segment,
                                   int tile, int quality) override {
    ++demand_reads_;
    return base_->ReadCell(metadata, segment, tile, quality);
  }
  Result<LruCache::AsyncHandle> ReadCellAsync(const VideoMetadata& metadata,
                                              int segment, int tile,
                                              int quality,
                                              LoadKind kind) override {
    if (kind == LoadKind::kDemand) ++demand_reads_;
    return base_->ReadCellAsync(metadata, segment, tile, quality, kind);
  }
  ThreadPool* io_pool() const override { return base_->io_pool(); }
  CacheStats cache_stats() const override { return base_->cache_stats(); }

  uint64_t demand_reads() const { return demand_reads_.load(); }

 private:
  CellSource* base_;
  std::atomic<uint64_t> demand_reads_{0};
};

TEST_F(ServerTest, CallerCellSourceIsHonouredByBothServers) {
  // A viewer's own SessionOptions::cell_source (an instrumenting decorator,
  // say) wins over the serving node's: every demand read passes through
  // it, and the outcome matches the undecorated run.
  VideoMetadata metadata = Metadata();
  std::vector<VideoMetadata> videos = {metadata};
  CountingCellSource counting(db_->storage());
  std::vector<ViewerRequest> plain = MakeViewers(6);
  std::vector<ViewerRequest> decorated = MakeViewers(6);
  for (ViewerRequest& viewer : decorated) {
    viewer.session.cell_source = &counting;
  }
  auto lookups = [](const CacheStats& cache) {
    return cache.hits + cache.misses;
  };
  auto expect_same_sessions = [](const ServerStats& a, const ServerStats& b) {
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (size_t i = 0; i < a.sessions.size(); ++i) {
      ExpectSameStats(a.sessions[i], b.sessions[i]);
    }
  };

  // Single node: the decorator wraps the server's own storage manager, so
  // its count equals the cache lookups either run makes.
  StreamingServer server(db_->storage(), ServerOptions{});
  auto single = server.Run(metadata, plain);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  auto single_decorated = server.Run(metadata, decorated);
  ASSERT_TRUE(single_decorated.ok()) << single_decorated.status().ToString();
  EXPECT_GT(counting.demand_reads(), 0u);
  EXPECT_EQ(counting.demand_reads(), lookups(single->cache));
  EXPECT_EQ(counting.demand_reads(), lookups(single_decorated->cache));
  expect_same_sessions(*single, *single_decorated);

  // Two-node cluster: decorated sessions read through the decorator
  // instead of their node's L1, which therefore sees no lookups at all.
  ShardedStoreOptions store_options;
  store_options.backend.env = env_;
  store_options.backend.root = "/vcdb";
  store_options.shards = 2;
  auto store = ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok());
  ClusterOptions options;
  options.nodes = 2;
  ClusterServer cluster(store->get(), options);
  auto clustered = cluster.Run(videos, plain);
  ASSERT_TRUE(clustered.ok()) << clustered.status().ToString();
  uint64_t before = counting.demand_reads();
  auto clustered_decorated = cluster.Run(videos, decorated);
  ASSERT_TRUE(clustered_decorated.ok())
      << clustered_decorated.status().ToString();
  EXPECT_EQ(counting.demand_reads() - before,
            lookups(clustered->totals.cache));
  EXPECT_EQ(lookups(clustered_decorated->totals.cache), 0u);
  expect_same_sessions(clustered->totals, clustered_decorated->totals);
  expect_same_sessions(*single, clustered->totals);
}

TEST_F(ServerTest, ServerMetricsPublishedByBothServers) {
  // Both topologies run the same scheduler, so one cohort moves the
  // server.* admission counters by equal deltas and leaves the gauges at
  // the run's own values.
  VideoMetadata metadata = Metadata();
  std::vector<VideoMetadata> videos = {metadata};
  std::vector<ViewerRequest> viewers = MakeViewers(6);
  viewers[5].session.network.bandwidth_bps = 1e9;  // over budget: rejected
  ServerOptions server_options;
  server_options.bandwidth_budget_bps = 500e6;

  MetricRegistry& registry = MetricRegistry::Global();
  const std::vector<std::string> counters = {"server.sessions_admitted",
                                             "server.sessions_rejected",
                                             "server.sessions_completed"};
  const std::vector<std::string> gauges = {
      "server.active_sessions", "server.queue_depth", "server.cache_hit_rate",
      "server.rebuffer_ratio"};
  auto measure = [&](const std::function<Result<ServerStats>()>& run) {
    for (const std::string& gauge : gauges) registry.GetGauge(gauge)->Set(-1);
    std::vector<uint64_t> moved;
    for (const std::string& counter : counters) {
      moved.push_back(registry.GetCounter(counter)->Value());
    }
    Result<ServerStats> stats = run();
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    for (size_t i = 0; i < counters.size(); ++i) {
      moved[i] = registry.GetCounter(counters[i])->Value() - moved[i];
    }
    EXPECT_EQ(registry.GetGauge("server.active_sessions")->Value(), 0.0);
    EXPECT_EQ(registry.GetGauge("server.queue_depth")->Value(), 0.0);
    EXPECT_EQ(registry.GetGauge("server.cache_hit_rate")->Value(),
              stats->cache.HitRate());
    EXPECT_EQ(registry.GetGauge("server.rebuffer_ratio")->Value(),
              stats->RebufferRatio());
    return moved;
  };

  StreamingServer server(db_->storage(), server_options);
  std::vector<uint64_t> single =
      measure([&] { return server.Run(metadata, viewers); });
  EXPECT_EQ(single, (std::vector<uint64_t>{5, 1, 5}));

  ShardedStoreOptions store_options;
  store_options.backend.env = env_;
  store_options.backend.root = "/vcdb";
  store_options.shards = 2;
  auto store = ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok());
  ClusterOptions options;
  options.nodes = 2;
  options.node = server_options;
  ClusterServer cluster(store->get(), options);
  std::vector<uint64_t> clustered = measure([&]() -> Result<ServerStats> {
    auto run = cluster.Run(videos, viewers);
    if (!run.ok()) return run.status();
    return run->totals;
  });
  EXPECT_EQ(clustered, single);
}

TEST_F(ServerTest, ShardedClusterPreservesSimulatedOutcome) {
  // The scale-out determinism contract: a fixed faulty cohort's served
  // bytes, QoE, admission, and fault accounting are byte-identical to the
  // single-node server across node counts, shard counts, and prefetch
  // settings. Placement and tiered caching only move host time and cache
  // hit rates. Admission is left ample (no per-node queueing), which is
  // the regime where node count is outcome-invariant.
  VideoMetadata metadata = Metadata();
  auto make_viewers = [] {
    std::vector<ViewerRequest> viewers = MakeViewers(6);
    for (ViewerRequest& viewer : viewers) {
      viewer.session.network.faults.episodes_per_minute = 120.0;
      viewer.session.network.faults.episode_seconds = 0.5;
      viewer.session.network.faults.timeout_seconds = 0.5;
      viewer.session.network.faults.seed = viewer.session.network.seed;
    }
    return viewers;
  };

  ServerStats baseline = [&] {
    StorageOptions storage_options;
    storage_options.env = env_;
    storage_options.root = "/vcdb";
    storage_options.read_latency_seconds = 0.0002;
    auto storage = StorageManager::Open(storage_options);
    EXPECT_TRUE(storage.ok());
    StreamingServer server(storage->get(), ServerOptions{});
    auto stats = server.Run(metadata, make_viewers());
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return *stats;
  }();
  EXPECT_GT(baseline.transfer_faults, 0);

  struct Config {
    int nodes;
    int shards;
    int io_threads;
    PrefetchMode prefetch;
  };
  std::vector<VideoMetadata> videos = {metadata};
  for (const Config& config :
       {Config{1, 1, 0, PrefetchMode::kOff},
        Config{2, 2, 0, PrefetchMode::kOff},
        Config{2, 4, 2, PrefetchMode::kPredict},
        Config{4, 2, 2, PrefetchMode::kPopularity}}) {
    SCOPED_TRACE("nodes=" + std::to_string(config.nodes) +
                 " shards=" + std::to_string(config.shards) +
                 " io_threads=" + std::to_string(config.io_threads));
    ShardedStoreOptions store_options;
    store_options.backend.env = env_;
    store_options.backend.root = "/vcdb";
    store_options.backend.io_threads = config.io_threads;
    store_options.backend.read_latency_seconds = 0.0002;
    store_options.shards = config.shards;
    auto store = ShardedStore::Open(store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();

    ClusterOptions options;
    options.nodes = config.nodes;
    options.node.prefetch = config.prefetch;
    ClusterServer cluster(store->get(), options);
    auto run = cluster.Run(videos, make_viewers());
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    const ServerStats& stats = run->totals;
    EXPECT_EQ(stats.bytes_sent, baseline.bytes_sent);
    EXPECT_EQ(stats.wall_seconds, baseline.wall_seconds);
    EXPECT_EQ(stats.media_seconds, baseline.media_seconds);
    EXPECT_EQ(stats.stall_seconds, baseline.stall_seconds);
    EXPECT_EQ(stats.stall_events, baseline.stall_events);
    EXPECT_EQ(stats.transfer_faults, baseline.transfer_faults);
    EXPECT_EQ(stats.transfer_retries, baseline.transfer_retries);
    EXPECT_EQ(stats.segments_skipped, baseline.segments_skipped);
    EXPECT_EQ(stats.sessions_admitted, baseline.sessions_admitted);
    EXPECT_EQ(stats.sessions_queued, baseline.sessions_queued);
    EXPECT_EQ(stats.sessions_rejected, baseline.sessions_rejected);
    EXPECT_EQ(stats.sessions_completed, baseline.sessions_completed);
    ASSERT_EQ(stats.sessions.size(), baseline.sessions.size());
    for (size_t i = 0; i < stats.sessions.size(); ++i) {
      ExpectSameStats(stats.sessions[i], baseline.sessions[i]);
    }

    ASSERT_EQ(run->nodes.size(), static_cast<size_t>(config.nodes));
    int placed = 0;
    for (const ClusterNodeStats& node : run->nodes) {
      placed += node.sessions_placed;
      // Prefetch attribution never over-counts: tagged entries still
      // resident at end of run are neither hit nor wasted yet, so the
      // balance is an upper bound here (it closes exactly on Clear —
      // see the randomized invariant test in storage_test).
      EXPECT_GE(node.l1.prefetch_issued,
                node.l1.prefetch_hits + node.l1.prefetch_wasted);
    }
    EXPECT_EQ(placed, stats.sessions_admitted);
    if (config.prefetch != PrefetchMode::kOff) {
      EXPECT_GT(stats.cache.prefetch_issued, 0u)
          << "prefetch mode must actually speculate";
    } else {
      EXPECT_EQ(stats.cache.prefetch_issued, 0u);
    }
  }
}

TEST_F(ServerTest, ClusterNodesShareL2) {
  // Six viewers of one video on two nodes: locality packs the first node
  // until the balance guard spills the overflow onto the second, whose L1
  // misses are then served by the L2 the first node already warmed —
  // cross-node sharing without re-reading the backends.
  VideoMetadata metadata = Metadata();
  std::vector<VideoMetadata> videos = {metadata};

  ShardedStoreOptions store_options;
  store_options.backend.env = env_;
  store_options.backend.root = "/vcdb";
  store_options.shards = 2;
  auto store = ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok());

  ClusterOptions options;
  options.nodes = 2;
  ClusterServer cluster(store->get(), options);
  auto run = cluster.Run(videos, MakeViewers(6));
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  ASSERT_EQ(run->nodes.size(), 2u);
  EXPECT_GT(run->nodes[0].sessions_placed, 0);
  EXPECT_GT(run->nodes[1].sessions_placed, 0);
  EXPECT_EQ(run->nodes[0].sessions_placed + run->nodes[1].sessions_placed, 6);
  // The balance guard forced some viewers off the hot node.
  EXPECT_GT(run->spillovers(), 0);
  // Repeat viewers hit their own node's L1; the spilled node's cold L1
  // misses were absorbed by the shared L2.
  EXPECT_GT(run->totals.cache.hits, 0u);
  EXPECT_GT(run->l2.hits, 0u);
  EXPECT_EQ(run->totals.sessions_completed, 6);
}

TEST_F(ServerTest, ClusterPlacementCoSchedulesHotVideos) {
  // Two catalog entries (same committed clip — distinct videos as far as
  // placement and popularity are concerned) with alternating audiences:
  // the balancer gives each video its own node, and every follow-up viewer
  // lands next to its predecessors.
  VideoMetadata metadata = Metadata();
  std::vector<VideoMetadata> videos = {metadata, metadata};
  std::vector<ViewerRequest> viewers = MakeViewers(8);
  for (int i = 0; i < 8; ++i) viewers[i].video = i % 2;

  ShardedStoreOptions store_options;
  store_options.backend.env = env_;
  store_options.backend.root = "/vcdb";
  auto store = ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok());

  ClusterOptions options;
  options.nodes = 2;
  ClusterServer cluster(store->get(), options);
  auto run = cluster.Run(videos, viewers);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  ASSERT_EQ(run->nodes.size(), 2u);
  EXPECT_EQ(run->nodes[0].sessions_placed, 4);
  EXPECT_EQ(run->nodes[1].sessions_placed, 4);
  // All but each video's first viewer joined an active audience.
  EXPECT_EQ(run->nodes[0].locality_placements +
                run->nodes[1].locality_placements,
            6);
  // The locality-preferred node was never full, so nothing spilled.
  EXPECT_EQ(run->spillovers(), 0);
  for (const ClusterNodeStats& node : run->nodes) {
    EXPECT_GT(node.bytes_sent, 0u);
    EXPECT_EQ(node.max_active_sessions, 4);
  }
}

// --------------------------------------------------------- live serving

/// Same tile/ladder layout as the fixture's "venice" ingest: 1-second
/// segments so publish instants land on easy numbers.
IngestOptions LiveLayout() {
  IngestOptions ingest;
  ingest.tile_rows = 4;
  ingest.tile_cols = 4;
  ingest.frames_per_segment = 8;
  ingest.fps = 8.0;
  ingest.ladder = {{"high", 14}, {"medium", 28}, {"low", 42}};
  return ingest;
}

std::unique_ptr<SceneGenerator> LiveScene() {
  SceneOptions options;
  options.width = 128;
  options.height = 64;
  return NewVeniceScene(options);
}

TEST_F(ServerTest, LiveViewersJoinAtTheLiveEdge) {
  // A 4-segment feed (1 s segments, 0.2 s encode) publishes at 1.2, 2.2,
  // 3.2, 4.2. Viewers arriving mid-stream join at the live edge and stream
  // only the remaining segments; an early arrival is clamped to the first
  // publish and streams everything.
  auto scene = LiveScene();
  auto feed = LiveFeed::Create(db_, "live_edge_feed", *scene, 32,
                               LiveLayout(), LiveFeedOptions{});
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  EXPECT_EQ((*feed)->final_segment_count(), 4);
  EXPECT_EQ((*feed)->snapshot().segment_count(), 0);
  EXPECT_NEAR((*feed)->PublishTimeOf(0), 1.2, 1e-12);
  EXPECT_NEAR((*feed)->PublishTimeOf(3), 4.2, 1e-12);

  std::vector<ViewerRequest> viewers = MakeViewers(3);
  viewers[0].arrival_seconds = 0.0;  // before the first publish: clamped
  viewers[1].arrival_seconds = 2.5;  // two segments live
  viewers[2].arrival_seconds = 3.5;  // three segments live

  StreamingServer server(db_->storage(), ServerOptions{});
  auto stats = server.RunLive(feed->get(), viewers);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_TRUE((*feed)->complete());
  EXPECT_EQ(stats->live.total_segments, 4);
  EXPECT_EQ(stats->live.segments_published, 4);
  EXPECT_EQ(stats->live.degraded_segments, 0);
  EXPECT_NEAR(stats->live.max_lag_seconds, 0.2, 1e-12);
  EXPECT_NEAR(stats->live.final_lag_seconds, 0.2, 1e-12);

  EXPECT_EQ(stats->sessions_completed, 3);
  ASSERT_EQ(stats->sessions.size(), 3u);
  EXPECT_EQ(stats->sessions[0].segments, 4);
  EXPECT_EQ(stats->sessions[1].segments, 3);
  EXPECT_EQ(stats->sessions[2].segments, 2);

  // The caught-up feed is an ordinary archived video in the catalog...
  auto archived = db_->Describe("live_edge_feed");
  ASSERT_TRUE(archived.ok()) << archived.status().ToString();
  EXPECT_FALSE(archived->streaming);
  EXPECT_EQ(archived->segment_count(), 4);
  ASSERT_TRUE(db_->Drop("live_edge_feed").ok());
}

TEST_F(ServerTest, LiveFeedDegradesToStayUnderLagBudget) {
  // Fault injection: segment 1's encode takes 2.5 s instead of 0.3 s.
  // Without a budget the backlog drains slowly; with a 0.6 s glass-to-glass
  // budget the scheduler degrades the next segments to the fast preset and
  // catches up sooner. The schedule is precomputed, so this needs no
  // publishes at all.
  auto scene = LiveScene();
  LiveFeedOptions slow;
  slow.encode_seconds = 0.3;
  slow.encode_overrides[1] = 2.5;
  LiveFeedOptions degrading = slow;
  degrading.max_lag_seconds = 0.6;
  degrading.degraded_encode_seconds = 0.05;

  auto blocked =
      LiveFeed::Create(db_, "lag_blocked", *scene, 48, LiveLayout(), slow);
  auto bounded = LiveFeed::Create(db_, "lag_bounded", *scene, 48,
                                  LiveLayout(), degrading);
  ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();

  // The faulted segment itself never degrades (the override is its cost).
  EXPECT_FALSE((*bounded)->IsDegraded(1));
  EXPECT_NEAR((*bounded)->LagOf(1), 2.5, 1e-12);
  // The two segments behind the backlog degrade; once lag is back inside
  // the budget the encoder returns to the full-quality preset.
  EXPECT_TRUE((*bounded)->IsDegraded(2));
  EXPECT_TRUE((*bounded)->IsDegraded(3));
  EXPECT_FALSE((*bounded)->IsDegraded(4));
  EXPECT_FALSE((*bounded)->IsDegraded(5));
  EXPECT_NEAR((*blocked)->LagOf(2), 1.8, 1e-12);
  EXPECT_NEAR((*bounded)->LagOf(2), 1.55, 1e-12);
  EXPECT_NEAR((*bounded)->LagOf(3), 0.6, 1e-12);
  for (int segment : {2, 3, 4}) {
    EXPECT_LT((*bounded)->LagOf(segment), (*blocked)->LagOf(segment))
        << "segment " << segment;
  }

  // Served run over the faulted feed: the early viewer stalls at the live
  // edge while segment 1 encodes, and the ingest-side stats surface the
  // degrade decisions and the worst-case lag.
  LiveFeedOptions run_options = degrading;
  auto feed = LiveFeed::Create(db_, "lag_run", *scene, 32, LiveLayout(),
                               run_options);
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  std::vector<ViewerRequest> viewers = MakeViewers(1);
  viewers[0].arrival_seconds = 0.0;
  StreamingServer server(db_->storage(), ServerOptions{});
  auto stats = server.RunLive(feed->get(), viewers);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->live.segments_published, 4);
  EXPECT_EQ(stats->live.degraded_segments, 2);
  EXPECT_NEAR(stats->live.max_lag_seconds, 2.5, 1e-12);
  ASSERT_EQ(stats->sessions.size(), 1u);
  EXPECT_GE(stats->sessions[0].stall_events, 1);
  EXPECT_GT(stats->sessions[0].stall_seconds, 1.0);
  ASSERT_TRUE(db_->Drop("lag_run").ok());
}

TEST_F(ServerTest, LiveOutcomeInvariantAcrossRerunsNodesAndPrefetch) {
  // The live determinism contract: the same frame-arrival schedule and
  // viewer cohort produce byte-identical served output and ingest stats
  // across reruns (fresh feeds), node counts, shard counts, io_threads,
  // and prefetch modes. Includes a fault + degrade so the invariance
  // covers the budget path too.
  auto scene = LiveScene();
  LiveFeedOptions feed_options;
  feed_options.encode_seconds = 0.25;
  feed_options.encode_overrides[2] = 1.5;
  feed_options.max_lag_seconds = 0.5;
  feed_options.degraded_encode_seconds = 0.1;

  auto make_viewers = [] {
    std::vector<ViewerRequest> viewers = MakeViewers(4);
    viewers[0].arrival_seconds = 0.0;
    viewers[1].arrival_seconds = 1.4;
    viewers[2].arrival_seconds = 2.6;
    viewers[3].arrival_seconds = 3.0;
    return viewers;
  };

  int run_id = 0;
  std::vector<std::string> feed_names;
  auto make_feed = [&]() {
    std::string name = "live_det_" + std::to_string(run_id++);
    feed_names.push_back(name);
    auto feed = LiveFeed::Create(db_, name, *scene, 32, LiveLayout(),
                                 feed_options);
    EXPECT_TRUE(feed.ok()) << feed.status().ToString();
    return std::move(*feed);
  };
  auto expect_same_run = [&](const ServerStats& stats,
                             const ServerStats& baseline) {
    EXPECT_EQ(stats.bytes_sent, baseline.bytes_sent);
    EXPECT_EQ(stats.wall_seconds, baseline.wall_seconds);
    EXPECT_EQ(stats.media_seconds, baseline.media_seconds);
    EXPECT_EQ(stats.stall_seconds, baseline.stall_seconds);
    EXPECT_EQ(stats.stall_events, baseline.stall_events);
    EXPECT_EQ(stats.sessions_completed, baseline.sessions_completed);
    EXPECT_EQ(stats.live.segments_published,
              baseline.live.segments_published);
    EXPECT_EQ(stats.live.degraded_segments,
              baseline.live.degraded_segments);
    EXPECT_EQ(stats.live.max_lag_seconds, baseline.live.max_lag_seconds);
    EXPECT_EQ(stats.live.mean_lag_seconds, baseline.live.mean_lag_seconds);
    ASSERT_EQ(stats.sessions.size(), baseline.sessions.size());
    for (size_t i = 0; i < stats.sessions.size(); ++i) {
      ExpectSameStats(stats.sessions[i], baseline.sessions[i]);
    }
  };

  auto run_single = [&]() {
    StorageOptions storage_options;
    storage_options.env = env_;
    storage_options.root = "/vcdb";
    storage_options.read_latency_seconds = 0.0002;
    auto storage = StorageManager::Open(storage_options);
    EXPECT_TRUE(storage.ok());
    auto feed = make_feed();
    StreamingServer server(storage->get(), ServerOptions{});
    auto stats = server.RunLive(feed.get(), make_viewers());
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return *stats;
  };

  ServerStats baseline = run_single();
  EXPECT_EQ(baseline.live.degraded_segments, 1);
  EXPECT_GT(baseline.stall_seconds, 0.0);

  // Rerun on a fresh feed: identical serving stats, and the two archived
  // catalogs hold byte-identical cells.
  ServerStats rerun = run_single();
  expect_same_run(rerun, baseline);
  auto first = db_->Describe(feed_names[0]);
  auto second = db_->Describe(feed_names[1]);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->cells.size(), second->cells.size());
  for (size_t i = 0; i < first->cells.size(); ++i) {
    ASSERT_EQ(first->cells[i].byte_size, second->cells[i].byte_size);
    ASSERT_EQ(first->cells[i].crc32, second->cells[i].crc32);
  }

  struct Config {
    int nodes;
    int shards;
    int io_threads;
    PrefetchMode prefetch;
  };
  for (const Config& config :
       {Config{1, 1, 0, PrefetchMode::kOff},
        Config{3, 2, 2, PrefetchMode::kPredict},
        Config{2, 1, 2, PrefetchMode::kPopularity}}) {
    SCOPED_TRACE("nodes=" + std::to_string(config.nodes) +
                 " shards=" + std::to_string(config.shards) +
                 " io_threads=" + std::to_string(config.io_threads));
    ShardedStoreOptions store_options;
    store_options.backend.env = env_;
    store_options.backend.root = "/vcdb";
    store_options.backend.io_threads = config.io_threads;
    store_options.backend.read_latency_seconds = 0.0002;
    store_options.shards = config.shards;
    auto store = ShardedStore::Open(store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();

    ClusterOptions options;
    options.nodes = config.nodes;
    options.node.prefetch = config.prefetch;
    ClusterServer cluster(store->get(), options);
    auto feed = make_feed();
    auto run = cluster.RunLive(feed.get(), make_viewers());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    expect_same_run(run->totals, baseline);
  }

  for (const std::string& name : feed_names) {
    ASSERT_TRUE(db_->Drop(name).ok());
  }
}

// ------------------------------------------------------ live popularity

TEST_F(ServerTest, PopularitySinkFeedsSharedModel) {
  // A session configured with a popularity sink records its gaze live and
  // bumps the viewer count when it finishes.
  VideoMetadata metadata = Metadata();
  PopularityModel model(metadata.tile_grid(),
                        metadata.segment_duration_seconds(),
                        metadata.segment_count());
  SessionOptions options = BaseSession();
  options.popularity_sink = &model;

  auto stats =
      SimulateSession(db_->storage(), metadata, MakeTrace(0.3), options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(model.viewer_count(), 1);
  // The trace holds pitch at the equator, so some equatorial tile must
  // have accumulated gaze mass in the first segment.
  EXPECT_FALSE(model.PopularTiles(0, 0.5).empty());
}

// ------------------------------------------------- Serving fast-path PRs

TEST_F(ServerTest, PlanCacheToggleKeepsOutcomeByteIdentical) {
  // The shared plan cache is a pure memoizer: turning it off changes host
  // time and plan stats, never a single served byte or QoE field.
  VideoMetadata metadata = Metadata();
  StorageOptions storage_options;
  storage_options.env = env_;
  storage_options.root = "/vcdb";
  auto storage = StorageManager::Open(storage_options);
  ASSERT_TRUE(storage.ok());

  ServerOptions with_cache;
  ASSERT_TRUE(with_cache.share_plans) << "must default on";
  ServerOptions without_cache;
  without_cache.share_plans = false;

  StreamingServer cached_server(storage->get(), with_cache);
  auto cached = cached_server.Run(metadata, MakeViewers(6));
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  StreamingServer plain_server(storage->get(), without_cache);
  auto plain = plain_server.Run(metadata, MakeViewers(6));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  EXPECT_EQ(cached->bytes_sent, plain->bytes_sent);
  EXPECT_EQ(cached->wall_seconds, plain->wall_seconds);
  EXPECT_EQ(cached->stall_seconds, plain->stall_seconds);
  ASSERT_EQ(cached->sessions.size(), plain->sessions.size());
  for (size_t i = 0; i < cached->sessions.size(); ++i) {
    ExpectSameStats(cached->sessions[i], plain->sessions[i]);
  }

  // The cohort's sessions share at least the view-independent work, so the
  // cache must both be exercised and actually hit.
  EXPECT_GT(cached->plan.hits + cached->plan.misses, 0u);
  EXPECT_EQ(plain->plan.hits + plain->plan.misses, 0u);
}

TEST_F(ServerTest, IdenticalViewersShareEveryPlanAfterTheFirst) {
  // Exact replicas (same trace, same seed) are the plan cache's best case:
  // every session after the first plans entirely from cache. This is the
  // regime the 10k-viewer benchmark leans on.
  VideoMetadata metadata = Metadata();
  StorageOptions storage_options;
  storage_options.env = env_;
  storage_options.root = "/vcdb";
  auto storage = StorageManager::Open(storage_options);
  ASSERT_TRUE(storage.ok());

  std::vector<ViewerRequest> viewers;
  for (int i = 0; i < 5; ++i) {
    ViewerRequest viewer;
    viewer.trace = MakeTrace(0.3);
    viewer.session = BaseSession();
    viewer.session.network.seed = 7;  // identical network draws
    viewer.arrival_seconds = 0.0;     // identical pacing
    viewers.push_back(std::move(viewer));
  }

  StreamingServer server(storage->get(), ServerOptions{});
  auto stats = server.Run(metadata, viewers);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->sessions.size(), 5u);
  for (const SessionStats& session : stats->sessions) {
    ExpectSameStats(session, stats->sessions[0]);
  }
  // One cohort member misses per (segment, plan input); the other four hit.
  EXPECT_GE(stats->plan.HitRate(), 0.75);
  EXPECT_GE(stats->plan.hits,
            4 * static_cast<uint64_t>(metadata.segment_count()));
}

TEST_F(ServerTest, PrefetchChurnCountersSurfaceInServerStats) {
  // Per-session hints repeat across a cohort streaming one video; the
  // dedupe TTL suppresses the repeats instead of queueing and cancelling
  // them. The suppression is visible in stats and changes no outcome.
  VideoMetadata metadata = Metadata();
  StorageOptions storage_options;
  storage_options.env = env_;
  storage_options.root = "/vcdb";
  storage_options.io_threads = 2;
  storage_options.read_latency_seconds = 0.0002;
  auto storage = StorageManager::Open(storage_options);
  ASSERT_TRUE(storage.ok());

  ServerOptions options;
  options.prefetch = PrefetchMode::kPredict;
  StreamingServer server(storage->get(), options);
  auto stats = server.Run(metadata, MakeViewers(8));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->prefetch.enqueued, 0u);
  EXPECT_GT(stats->prefetch.deduped, 0u)
      << "a one-video cohort must generate overlapping hints";
  EXPECT_LE(stats->prefetch.CancellationRatio(), 1.0);

  // Churn control must not perturb the simulated outcome: rerun without
  // any prefetching and demand byte-identical sessions.
  StorageOptions cold_options = storage_options;
  cold_options.io_threads = 0;
  auto cold_storage = StorageManager::Open(cold_options);
  ASSERT_TRUE(cold_storage.ok());
  StreamingServer cold_server(cold_storage->get(), ServerOptions{});
  auto cold = cold_server.Run(metadata, MakeViewers(8));
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(stats->bytes_sent, cold->bytes_sent);
  ASSERT_EQ(stats->sessions.size(), cold->sessions.size());
  for (size_t i = 0; i < stats->sessions.size(); ++i) {
    ExpectSameStats(stats->sessions[i], cold->sessions[i]);
  }
}

}  // namespace
}  // namespace vc
