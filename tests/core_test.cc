#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <random>
#include <thread>
#include <utility>

#include "common/env.h"
#include "codec/decoder.h"
#include "core/export.h"
#include "core/session.h"
#include "core/tile_assignment.h"
#include "core/visualcloud.h"
#include "image/metrics.h"
#include "obs/metrics.h"
#include "predict/trace_synthesizer.h"
#include "test_digest.h"

namespace vc {
namespace {

/// Shared fixture: one in-memory VisualCloud instance with a small venice
/// clip ingested once (encoding dominates test time).
class CoreTest : public ::testing::Test {
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
    scene_ = NewVeniceScene(scene_options).release();

    IngestOptions ingest;
    ingest.tile_rows = 4;
    ingest.tile_cols = 4;
    ingest.frames_per_segment = 8;
    ingest.fps = 8.0;  // 1-second segments with 8 frames
    ingest.ladder = {{"high", 14}, {"medium", 28}, {"low", 42}};
    auto version = db_->IngestScene("venice", *scene_, 32, ingest);
    ASSERT_TRUE(version.ok()) << version.status().ToString();
    ASSERT_EQ(*version, 1u);
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    delete scene_;
    scene_ = nullptr;
    delete env_;
    env_ = nullptr;
  }

  static HeadTrace MakeTrace(double yaw_rate = 0.3) {
    std::vector<TraceSample> samples;
    for (int i = 0; i <= 32 * 4; ++i) {
      double t = i / 32.0 * 4.0;  // covers the 4-second clip
      samples.push_back({t, {WrapYaw(1.0 + yaw_rate * t), kPi / 2}});
    }
    return *HeadTrace::FromSamples(std::move(samples));
  }

  static SessionOptions BaseSession(StreamingApproach approach) {
    SessionOptions options;
    options.approach = approach;
    options.network.bandwidth_bps = 50e6;  // unconstrained by default
    options.network.latency_seconds = 0.01;
    options.viewport.width = 48;
    options.viewport.height = 48;
    options.viewport.fov_yaw = DegToRad(90.0);
    options.viewport.fov_pitch = DegToRad(75.0);
    return options;
  }

  static Env* env_;
  static VisualCloud* db_;
  static SceneGenerator* scene_;
};

Env* CoreTest::env_ = nullptr;
VisualCloud* CoreTest::db_ = nullptr;
SceneGenerator* CoreTest::scene_ = nullptr;

// ------------------------------------------------------------------ Ingest

TEST_F(CoreTest, IngestProducesExpectedLayout) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  EXPECT_EQ(metadata->width, 128);
  EXPECT_EQ(metadata->height, 64);
  EXPECT_EQ(metadata->segment_count(), 4);
  EXPECT_EQ(metadata->tile_count(), 16);
  EXPECT_EQ(metadata->quality_count(), 3);
  EXPECT_EQ(metadata->cells.size(), 4u * 16 * 3);
  EXPECT_NEAR(metadata->segment_duration_seconds(), 1.0, 1e-9);
  for (const CellInfo& cell : metadata->cells) {
    EXPECT_GT(cell.byte_size, 0u);
  }
}

TEST_F(CoreTest, QualityLadderShrinksBytes) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  for (int segment = 0; segment < metadata->segment_count(); ++segment) {
    uint64_t high = metadata->SegmentBytesAtQuality(segment, 0);
    uint64_t medium = metadata->SegmentBytesAtQuality(segment, 1);
    uint64_t low = metadata->SegmentBytesAtQuality(segment, 2);
    EXPECT_GT(high, medium);
    EXPECT_GT(medium, low);
  }
}

TEST_F(CoreTest, ListAndDescribe) {
  auto videos = db_->List();
  ASSERT_TRUE(videos.ok());
  EXPECT_NE(std::find(videos->begin(), videos->end(), "venice"),
            videos->end());
  EXPECT_TRUE(db_->Describe("nothere").status().IsNotFound());
}

TEST_F(CoreTest, ReadFramesMatchesSource) {
  auto frames = db_->ReadFrames("venice", 4, 9, /*quality=*/0);
  ASSERT_TRUE(frames.ok()) << frames.status().ToString();
  ASSERT_EQ(frames->size(), 6u);
  for (int i = 0; i < 6; ++i) {
    Frame original = scene_->FrameAt(4 + i);
    auto psnr = LumaPsnr(original, (*frames)[i]);
    ASSERT_TRUE(psnr.ok());
    EXPECT_GT(*psnr, 32.0) << "frame " << 4 + i;
  }
}

TEST_F(CoreTest, ReadFramesLowQualityIsWorse) {
  auto high = db_->ReadFrames("venice", 0, 3, 0);
  auto low = db_->ReadFrames("venice", 0, 3, 2);
  ASSERT_TRUE(high.ok());
  ASSERT_TRUE(low.ok());
  double high_psnr = 0, low_psnr = 0;
  for (int i = 0; i < 4; ++i) {
    Frame original = scene_->FrameAt(i);
    high_psnr += *LumaPsnr(original, (*high)[i]);
    low_psnr += *LumaPsnr(original, (*low)[i]);
  }
  EXPECT_GT(high_psnr, low_psnr);
}

TEST_F(CoreTest, ReadFramesValidatesRange) {
  EXPECT_FALSE(db_->ReadFrames("venice", -1, 3).ok());
  EXPECT_FALSE(db_->ReadFrames("venice", 3, 1).ok());
  EXPECT_TRUE(db_->ReadFrames("venice", 0, 999).status().IsOutOfRange());
}

TEST_F(CoreTest, IngestValidation) {
  IngestOptions bad;
  bad.ladder.clear();
  std::vector<Frame> frames = {Frame(128, 64)};
  EXPECT_TRUE(db_->Ingest("x", frames, bad).status().IsInvalidArgument());
  IngestOptions ok_options;
  EXPECT_TRUE(db_->Ingest("x", {}, ok_options).status().IsInvalidArgument());
  std::vector<Frame> mixed = {Frame(128, 64), Frame(64, 64)};
  EXPECT_TRUE(
      db_->Ingest("x", mixed, ok_options).status().IsInvalidArgument());
}

TEST_F(CoreTest, AnalysisReuseMatchesUnhintedQuality) {
  // Ingesting with motion-analysis reuse on and off must land within a
  // whisker of each other at every ladder rung, and the hinted ingest must
  // actually take the hinted path (visible in the codec counters).
  auto frames = RenderScene(*scene_, 16);
  IngestOptions ingest;
  ingest.tile_rows = 2;
  ingest.tile_cols = 2;
  ingest.frames_per_segment = 8;
  ingest.fps = 8.0;
  ingest.ladder = {{"high", 14}, {"medium", 28}, {"low", 42}};

  auto rung_psnr = [&](VisualCloud* db, const std::string& name) {
    std::vector<double> psnr;
    for (int quality = 0; quality < 3; ++quality) {
      auto decoded = db->ReadFrames(name, 0, 15, quality);
      EXPECT_TRUE(decoded.ok());
      double total = 0;
      for (int i = 0; i < 16; ++i) total += *LumaPsnr(frames[i], (*decoded)[i]);
      psnr.push_back(total / 16);
    }
    return psnr;
  };

  auto env = NewMemEnv();
  VisualCloudOptions options;
  options.storage.env = env.get();
  options.storage.root = "/reusedb";
  auto db = VisualCloud::Open(options);
  ASSERT_TRUE(db.ok());

  ingest.reuse_motion_analysis = false;
  ASSERT_TRUE((*db)->Ingest("plain", frames, ingest).ok());
  auto plain = rung_psnr(db->get(), "plain");

  MetricRegistry::Global().Reset();
  ingest.reuse_motion_analysis = true;
  ASSERT_TRUE((*db)->Ingest("hinted", frames, ingest).ok());
  auto hinted = rung_psnr(db->get(), "hinted");

  for (int quality = 0; quality < 3; ++quality) {
    EXPECT_NEAR(hinted[quality], plain[quality], 0.1) << "rung " << quality;
  }

  MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  // 2 segments × 4 tiles × 3 rungs encoded; the two non-reference rungs of
  // every cell ran hinted searches.
  EXPECT_EQ(snapshot.counters["ingest.segments"], 2u);
  EXPECT_EQ(snapshot.counters["ingest.cells"], 2u * 4 * 3);
  EXPECT_GT(snapshot.counters["codec.search_hinted"], 0u);
  EXPECT_GT(snapshot.counters["codec.hints_accepted"], 0u);
  EXPECT_GT(snapshot.counters["codec.search_full"], 0u);
}

// --------------------------------------------------------- Tile assignment

TEST_F(CoreTest, AssignTileQualitiesSplitsInAndOut) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  AssignmentOptions options;
  options.margin = 0.1;
  Orientation gaze{kPi / 2, kPi / 2};
  TileQualityPlan plan = AssignTileQualities(*metadata, gaze, options);
  ASSERT_EQ(plan.size(), 16u);
  int high_tiles = 0, low_tiles = 0;
  for (int q : plan) {
    if (q == 0) ++high_tiles;
    if (q == metadata->quality_count() - 1) ++low_tiles;
  }
  EXPECT_GT(high_tiles, 0);
  EXPECT_GT(low_tiles, 0);
  // The gaze tile itself is high quality.
  TileGrid grid = metadata->tile_grid();
  EXPECT_EQ(plan[grid.IndexOf(grid.TileFor(gaze))], 0);
}

TEST_F(CoreTest, PlanBytesAndBudgetFitting) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  Orientation gaze{kPi / 2, kPi / 2};
  AssignmentOptions options;
  TileQualityPlan plan = AssignTileQualities(*metadata, gaze, options);
  uint64_t bytes = PlanBytes(*metadata, 0, plan);
  EXPECT_GT(bytes, 0u);

  // A tiny budget forces everything to the lowest rung.
  TileQualityPlan squeezed =
      FitPlanToBudget(*metadata, 0, plan, gaze, /*budget=*/1.0);
  for (int q : squeezed) {
    EXPECT_EQ(q, metadata->quality_count() - 1);
  }
  // A huge budget leaves the plan untouched.
  TileQualityPlan untouched =
      FitPlanToBudget(*metadata, 0, plan, gaze, 1e12);
  EXPECT_EQ(untouched, plan);
  // Degradation hits far-from-gaze tiles before the gaze tile.
  uint64_t mid_budget = bytes - 1;
  TileQualityPlan degraded =
      FitPlanToBudget(*metadata, 0, plan, gaze, mid_budget);
  TileGrid grid = metadata->tile_grid();
  EXPECT_EQ(degraded[grid.IndexOf(grid.TileFor(gaze))], 0);
}

TEST_F(CoreTest, FitPlanToBudgetBoundaries) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  const int lowest = metadata->quality_count() - 1;
  Orientation gaze{1.0, kPi / 3};
  TileQualityPlan plan =
      AssignTileQualities(*metadata, gaze, AssignmentOptions{});
  const uint64_t bytes = PlanBytes(*metadata, 0, plan);

  // A plan that exactly fits comes back unchanged.
  EXPECT_EQ(FitPlanToBudget(*metadata, 0, plan, gaze,
                            static_cast<double>(bytes)),
            plan);

  // One byte short: exactly one rung is dropped, on the tile farthest from
  // the gaze among those that can still degrade.
  TileQualityPlan fitted = FitPlanToBudget(*metadata, 0, plan, gaze,
                                           static_cast<double>(bytes - 1));
  TileGrid grid = metadata->tile_grid();
  auto distance = [&](int tile) {
    return AngularDistance(grid.CenterOf(grid.TileAt(tile)), gaze);
  };
  double farthest = -1.0;
  for (int tile = 0; tile < grid.tile_count(); ++tile) {
    if (plan[tile] < lowest) farthest = std::max(farthest, distance(tile));
  }
  ASSERT_GE(farthest, 0.0);
  int changed = 0;
  for (int tile = 0; tile < grid.tile_count(); ++tile) {
    if (fitted[tile] == plan[tile]) continue;
    ++changed;
    EXPECT_EQ(fitted[tile], plan[tile] + 1);
    EXPECT_EQ(distance(tile), farthest);
  }
  EXPECT_EQ(changed, 1);
  EXPECT_LT(PlanBytes(*metadata, 0, fitted), bytes);

  // Every tile already at the lowest rung: nothing can degrade, whatever
  // the budget.
  TileQualityPlan floor(grid.tile_count(), lowest);
  EXPECT_EQ(FitPlanToBudget(*metadata, 0, floor, gaze, 1.0), floor);
  const double floor_bytes =
      static_cast<double>(PlanBytes(*metadata, 0, floor));
  EXPECT_EQ(FitPlanToBudget(*metadata, 0, floor, gaze, floor_bytes), floor);
}

/// FitPlanToBudget as it was first written: every pass rescans the
/// farthest-first order from the start. The reference the forward-cursor
/// loop must match exactly.
TileQualityPlan ReferenceFitPlanToBudget(const VideoMetadata& metadata,
                                         int segment, TileQualityPlan plan,
                                         const Orientation& predicted,
                                         double budget_bytes) {
  uint64_t bytes = PlanBytes(metadata, segment, plan);
  if (static_cast<double>(bytes) <= budget_bytes) return plan;
  TileGrid grid = metadata.tile_grid();
  const int lowest = metadata.quality_count() - 1;
  std::vector<int> order(grid.tile_count());
  for (int i = 0; i < grid.tile_count(); ++i) order[i] = i;
  std::vector<double> distance(grid.tile_count());
  for (int i = 0; i < grid.tile_count(); ++i) {
    distance[i] = AngularDistance(grid.CenterOf(grid.TileAt(i)), predicted);
  }
  std::sort(order.begin(), order.end(), [&distance](int a, int b) {
    return distance[a] > distance[b];
  });
  while (static_cast<double>(bytes) > budget_bytes) {
    bool degraded = false;
    for (int tile : order) {
      if (plan[tile] < lowest) {
        uint64_t before =
            metadata.cells[metadata.CellIndex(segment, tile, plan[tile])]
                .byte_size;
        plan[tile] += 1;
        uint64_t after =
            metadata.cells[metadata.CellIndex(segment, tile, plan[tile])]
                .byte_size;
        bytes = bytes - before + after;
        degraded = true;
        break;
      }
    }
    if (!degraded) break;
  }
  return plan;
}

TEST_F(CoreTest, FitPlanToBudgetMatchesRestartScanReference) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  const int tiles = metadata->tile_count();
  const int lowest = metadata->quality_count() - 1;
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // Pole and tile-center gazes put many tiles at exactly equal distances,
  // so the unstable sort's tie order is exercised too.
  const Orientation special_gazes[] = {
      {0.0, 0.0}, {1.0, kPi}, {kPi / 4, kPi / 8}, {0.0, kPi / 2}};
  for (int i = 0; i < 2000; ++i) {
    const int segment = static_cast<int>(rng() % metadata->segment_count());
    Orientation gaze{unit(rng) * kTwoPi, unit(rng) * kPi};
    if (i % 5 == 0) gaze = special_gazes[rng() % std::size(special_gazes)];
    TileQualityPlan plan(tiles);
    for (int& q : plan) q = static_cast<int>(rng() % (lowest + 1));
    const TileQualityPlan floor(tiles, lowest);
    const double low = static_cast<double>(PlanBytes(*metadata, segment, floor));
    const double high = static_cast<double>(PlanBytes(*metadata, segment, plan));
    // Budgets from below the all-lowest floor to above the plan itself.
    const double budget = 0.8 * low + unit(rng) * (1.1 * high - 0.8 * low);
    ASSERT_EQ(FitPlanToBudget(*metadata, segment, plan, gaze, budget),
              ReferenceFitPlanToBudget(*metadata, segment, plan, gaze, budget))
        << "case " << i << " segment " << segment << " gaze " << gaze.yaw
        << "," << gaze.pitch << " budget " << budget;
  }
}

// ----------------------------------------------------------------- Session

TEST_F(CoreTest, VisualCloudSendsFewerBytesThanMonolithic) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  HeadTrace trace = MakeTrace();

  auto mono = SimulateSession(db_->storage(), *metadata, trace,
                              BaseSession(StreamingApproach::kMonolithicFull));
  auto tiled = SimulateSession(db_->storage(), *metadata, trace,
                               BaseSession(StreamingApproach::kVisualCloud));
  auto oracle = SimulateSession(db_->storage(), *metadata, trace,
                                BaseSession(StreamingApproach::kOracle));
  ASSERT_TRUE(mono.ok()) << mono.status().ToString();
  ASSERT_TRUE(tiled.ok());
  ASSERT_TRUE(oracle.ok());

  EXPECT_LT(tiled->bytes_sent, mono->bytes_sent);
  EXPECT_LE(oracle->bytes_sent, tiled->bytes_sent * 11 / 10);
  double savings = BandwidthSavings(*mono, *tiled);
  EXPECT_GT(savings, 0.15) << "tiled streaming should save bandwidth";
}

TEST_F(CoreTest, OracleKeepsViewportQualityHigh) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  HeadTrace trace = MakeTrace();

  SessionOptions options = BaseSession(StreamingApproach::kOracle);
  options.evaluate_quality = true;
  auto oracle =
      SimulateSession(db_->storage(), *metadata, trace, options, scene_);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  SessionOptions mono_options = BaseSession(StreamingApproach::kMonolithicFull);
  mono_options.evaluate_quality = true;
  auto mono = SimulateSession(db_->storage(), *metadata, trace, mono_options,
                              scene_);
  ASSERT_TRUE(mono.ok());

  // The oracle's viewport quality matches full-quality delivery closely.
  EXPECT_GT(oracle->mean_viewport_psnr, mono->mean_viewport_psnr - 1.0);
  EXPECT_GT(oracle->quality_samples, 0);
}

TEST_F(CoreTest, ConstrainedBandwidthCausesAdaptation) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  HeadTrace trace = MakeTrace();

  SessionOptions rich = BaseSession(StreamingApproach::kUniformDash);
  SessionOptions poor = BaseSession(StreamingApproach::kUniformDash);
  poor.network.bandwidth_bps = 100e3;  // starved

  auto rich_stats = SimulateSession(db_->storage(), *metadata, trace, rich);
  auto poor_stats = SimulateSession(db_->storage(), *metadata, trace, poor);
  ASSERT_TRUE(rich_stats.ok());
  ASSERT_TRUE(poor_stats.ok());
  EXPECT_LT(poor_stats->bytes_sent, rich_stats->bytes_sent);
  EXPECT_GT(poor_stats->mean_inview_quality,
            rich_stats->mean_inview_quality);  // higher rung index = worse
}

TEST_F(CoreTest, SessionValidation) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  HeadTrace trace = MakeTrace();

  SessionOptions options = BaseSession(StreamingApproach::kVisualCloud);
  options.evaluate_quality = true;  // but no reference scene
  EXPECT_TRUE(SimulateSession(db_->storage(), *metadata, trace, options)
                  .status()
                  .IsInvalidArgument());

  options = BaseSession(StreamingApproach::kVisualCloud);
  options.high_quality = 99;
  EXPECT_TRUE(SimulateSession(db_->storage(), *metadata, trace, options)
                  .status()
                  .IsInvalidArgument());

  options = BaseSession(StreamingApproach::kVisualCloud);
  EXPECT_TRUE(SimulateSession(db_->storage(), *metadata, HeadTrace(), options)
                  .status()
                  .IsInvalidArgument());

  options = BaseSession(StreamingApproach::kVisualCloud);
  options.predictor = "psychic";
  EXPECT_FALSE(SimulateSession(db_->storage(), *metadata, trace, options).ok());
}

TEST_F(CoreTest, SessionOptionsRejectNonFiniteValues) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  HeadTrace trace = MakeTrace();
  auto rejected = [&](const SessionOptions& options) {
    return ClientSession::Create(db_->storage(), *metadata, trace, options)
        .status()
        .IsInvalidArgument();
  };
  ASSERT_FALSE(rejected(BaseSession(StreamingApproach::kVisualCloud)));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<const char*, double SessionOptions::*>> fields =
      {{"viewport_margin", &SessionOptions::viewport_margin},
       {"buffer_ahead_seconds", &SessionOptions::buffer_ahead_seconds}};
  for (const auto& [name, field] : fields) {
    SessionOptions options = BaseSession(StreamingApproach::kVisualCloud);
    options.*field = nan;
    EXPECT_TRUE(rejected(options)) << name;
  }
  for (double fov : {nan, 0.0, kPi}) {
    SessionOptions options = BaseSession(StreamingApproach::kVisualCloud);
    options.viewport.fov_yaw = fov;
    EXPECT_TRUE(rejected(options)) << "fov_yaw " << fov;
    options = BaseSession(StreamingApproach::kVisualCloud);
    options.viewport.fov_pitch = fov;
    EXPECT_TRUE(rejected(options)) << "fov_pitch " << fov;
  }
}

TEST_F(CoreTest, PopularityModelExpandsHighQualitySet) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  HeadTrace trace = MakeTrace();

  // Train a model where historical viewers stared at the yaw opposite this
  // session's trace: those tiles must be added to the high-quality set.
  PopularityModel model(metadata->tile_grid(),
                        metadata->segment_duration_seconds(),
                        metadata->segment_count());
  std::vector<TraceSample> opposite;
  for (int i = 0; i <= 32 * 4; ++i) {
    double t = i / 32.0 * 4.0;
    opposite.push_back({t, {WrapYaw(1.0 + 0.3 * t + kPi), kPi / 2}});
  }
  model.AddTrace(*HeadTrace::FromSamples(std::move(opposite)));

  SessionOptions plain = BaseSession(StreamingApproach::kVisualCloud);
  SessionOptions crowd = plain;
  crowd.popularity = &model;
  auto plain_stats = SimulateSession(db_->storage(), *metadata, trace, plain);
  auto crowd_stats = SimulateSession(db_->storage(), *metadata, trace, crowd);
  ASSERT_TRUE(plain_stats.ok());
  ASSERT_TRUE(crowd_stats.ok());
  EXPECT_GT(crowd_stats->bytes_sent, plain_stats->bytes_sent)
      << "popular (historically watched) tiles must be upgraded too";

  // A mismatched grid is ignored rather than misapplied.
  PopularityModel wrong_grid(TileGrid(2, 3), 1.0, metadata->segment_count());
  crowd.popularity = &wrong_grid;
  auto ignored = SimulateSession(db_->storage(), *metadata, trace, crowd);
  ASSERT_TRUE(ignored.ok());
  EXPECT_EQ(ignored->bytes_sent, plain_stats->bytes_sent);
}

TEST_F(CoreTest, SessionAccountsStalls) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  HeadTrace trace = MakeTrace();
  // Non-adaptive full quality over a starved link must stall.
  SessionOptions options = BaseSession(StreamingApproach::kMonolithicFull);
  options.network.bandwidth_bps = 50e3;
  auto stats = SimulateSession(db_->storage(), *metadata, trace, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->stall_seconds, 0.0);
  EXPECT_GT(stats->stall_events, 0);
  EXPECT_GT(stats->startup_delay, 0.0);
}

TEST_F(CoreTest, SimulateSessionPopulatesGlobalMetrics) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  HeadTrace trace = MakeTrace();

  MetricRegistry& registry = MetricRegistry::Global();
  MetricsSnapshot before = registry.Snapshot();
  auto value = [](const MetricsSnapshot& snapshot, const std::string& name) {
    auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? uint64_t{0} : it->second;
  };

  SessionOptions options = BaseSession(StreamingApproach::kVisualCloud);
  options.evaluate_quality = true;  // exercises the storage read path too
  auto stats = SimulateSession(db_->storage(), *metadata, trace, options,
                               scene_);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  MetricsSnapshot after = registry.Snapshot();
  EXPECT_GT(value(after, "session.sessions"), value(before, "session.sessions"));
  EXPECT_GE(value(after, "session.segments"),
            value(before, "session.segments") + 4);
  EXPECT_GT(value(after, "net.transfers"), value(before, "net.transfers"));
  EXPECT_GT(value(after, "net.bytes_sent"), value(before, "net.bytes_sent"));
  EXPECT_GT(value(after, "storage.cell_reads"),
            value(before, "storage.cell_reads"));
  // Every segment scores the predictor as either a viewport hit or a miss.
  uint64_t predictions =
      value(after, "predict.dead_reckoning.viewport_hits") +
      value(after, "predict.dead_reckoning.viewport_misses") -
      value(before, "predict.dead_reckoning.viewport_hits") -
      value(before, "predict.dead_reckoning.viewport_misses");
  EXPECT_GE(predictions, 4u);
  // Transfer latencies landed in the histogram.
  auto histogram = after.histograms.find("net.transfer_seconds");
  ASSERT_NE(histogram, after.histograms.end());
  EXPECT_GT(histogram->second.count, 0u);
}

TEST_F(CoreTest, ApproachNames) {
  EXPECT_EQ(ApproachName(StreamingApproach::kMonolithicFull), "monolithic");
  EXPECT_EQ(ApproachName(StreamingApproach::kUniformDash), "uniform_dash");
  EXPECT_EQ(ApproachName(StreamingApproach::kVisualCloud), "visualcloud");
  EXPECT_EQ(ApproachName(StreamingApproach::kOracle), "oracle");
}

// ----------------------------------------------------------------- Export

TEST_F(CoreTest, ExportMonolithicMatchesStoredPixels) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  auto exported = ExportMonolithic(db_->storage(), *metadata, /*quality=*/0);
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();
  EXPECT_EQ(exported->header.width, metadata->width);
  EXPECT_EQ(exported->header.tile_grid(), metadata->tile_grid());
  ASSERT_EQ(exported->frames.size(), 32u);

  // The exported stream decodes to exactly what the per-cell path decodes.
  auto decoded = DecodeVideo(*exported);
  ASSERT_TRUE(decoded.ok());
  auto reference = db_->ReadFrames("venice", 0, 31, 0);
  ASSERT_TRUE(reference.ok());
  for (size_t i = 0; i < decoded->size(); ++i) {
    ASSERT_EQ((*decoded)[i].y_plane(), (*reference)[i].y_plane())
        << "frame " << i;
  }
}

TEST_F(CoreTest, ExportValidatesQuality) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  EXPECT_FALSE(ExportMonolithic(db_->storage(), *metadata, 99).ok());
  EXPECT_FALSE(ExportMonolithic(db_->storage(), *metadata, -1).ok());
}

// ------------------------------------------------------------ Ingest digest

TEST_F(CoreTest, IngestOutputDigestIsPinned) {
  // Every stored cell byte of a fixed clip ingested with the default
  // IngestOptions, in catalog order. The digest holds the codec's defaults
  // (constant QP per rung, motion search range, tiling, ladder) to their
  // exact output: change any of them and it moves.
  SceneOptions scene_options;
  scene_options.width = 128;
  scene_options.height = 64;
  auto scene = NewCoasterScene(scene_options);
  auto version = db_->IngestScene("digest", *scene, 45, IngestOptions{});
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  auto metadata = db_->Describe("digest");
  ASSERT_TRUE(metadata.ok());
  EXPECT_EQ(metadata->spherical.stereo, StereoMode::kMono);
  ASSERT_EQ(metadata->segment_count(), 2);

  Fnv1a digest;
  for (int segment = 0; segment < metadata->segment_count(); ++segment) {
    for (int tile = 0; tile < metadata->tile_count(); ++tile) {
      for (int quality = 0; quality < metadata->quality_count(); ++quality) {
        auto cell = db_->storage()->ReadCell(*metadata, segment, tile, quality);
        ASSERT_TRUE(cell.ok()) << cell.status().ToString();
        digest.Add(static_cast<uint64_t>((*cell)->size()));
        digest.AddBytes((*cell)->data(), (*cell)->size());
      }
    }
  }
  EXPECT_EQ(digest.value(), 0xabef5f795e9d9a33ull)
      << std::hex << digest.value();
  ASSERT_TRUE(db_->Drop("digest").ok());
}

// ------------------------------------------------------------- Live ingest

TEST_F(CoreTest, LiveIngestCheckpointsAndFinishes) {
  IngestOptions ingest;
  ingest.tile_rows = 2;
  ingest.tile_cols = 2;
  ingest.frames_per_segment = 8;
  ingest.fps = 8.0;
  ingest.ladder = {{"high", 14}, {"low", 42}};
  auto live = db_->StartLiveIngest("live", 128, 64, ingest);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  // Push 1.5 segments, checkpoint after the first full one.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*live)->AppendFrame(scene_->FrameAt(i)).ok());
  }
  EXPECT_EQ((*live)->segments_written(), 1);
  auto v1 = (*live)->Checkpoint();
  ASSERT_TRUE(v1.ok());

  // A viewer can stream the checkpoint while capture continues.
  auto checkpoint_md = db_->storage()->GetVideoVersion("live", *v1);
  ASSERT_TRUE(checkpoint_md.ok());
  EXPECT_TRUE(checkpoint_md->streaming);
  EXPECT_EQ(checkpoint_md->segment_count(), 1);
  SessionOptions session = BaseSession(StreamingApproach::kVisualCloud);
  auto stats =
      SimulateSession(db_->storage(), *checkpoint_md, MakeTrace(), session);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->bytes_sent, 0u);

  for (int i = 8; i < 12; ++i) {
    ASSERT_TRUE((*live)->AppendFrame(scene_->FrameAt(i)).ok());
  }
  auto final_version = (*live)->Close();
  ASSERT_TRUE(final_version.ok());
  EXPECT_GT(*final_version, *v1);
  auto final_md = db_->Describe("live");
  ASSERT_TRUE(final_md.ok());
  EXPECT_FALSE(final_md->streaming);
  // The partial 4-frame segment was flushed as a short segment.
  EXPECT_EQ(final_md->segment_count(), 2);
  EXPECT_EQ(final_md->segments[1].frame_count, 4u);
  // Both versions share the data directory.
  EXPECT_EQ(final_md->DataDir(), checkpoint_md->DataDir());
  ASSERT_TRUE(db_->Drop("live").ok());
}

TEST_F(CoreTest, LiveIngestValidation) {
  IngestOptions ingest;
  ingest.frames_per_segment = 4;
  ingest.ladder = {{"only", 30}};
  auto live = db_->StartLiveIngest("liveval", 128, 64, ingest);
  ASSERT_TRUE(live.ok());
  // Wrong frame size rejected.
  EXPECT_TRUE((*live)->AppendFrame(Frame(64, 64)).IsInvalidArgument());
  // Checkpoint before any full segment rejected.
  EXPECT_TRUE((*live)->Checkpoint().status().IsInvalidArgument());
  // After Finish, the session is closed.
  ASSERT_TRUE((*live)->AppendFrame(scene_->FrameAt(0)).ok());
  ASSERT_TRUE((*live)->AppendFrame(scene_->FrameAt(1)).ok());
  ASSERT_TRUE((*live)->AppendFrame(scene_->FrameAt(2)).ok());
  ASSERT_TRUE((*live)->AppendFrame(scene_->FrameAt(3)).ok());
  ASSERT_TRUE((*live)->Close().ok());
  EXPECT_TRUE((*live)->AppendFrame(scene_->FrameAt(4)).IsAborted());
  EXPECT_TRUE((*live)->Close().status().IsAborted());
  ASSERT_TRUE(db_->Drop("liveval").ok());
  // Bad dimensions rejected up front.
  EXPECT_FALSE(db_->StartLiveIngest("bad", 100, 64, ingest).ok());
}

void ExpectSameCatalog(const VideoMetadata& a, const VideoMetadata& b) {
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (size_t s = 0; s < a.segments.size(); ++s) {
    EXPECT_EQ(a.segments[s].start_frame, b.segments[s].start_frame);
    EXPECT_EQ(a.segments[s].frame_count, b.segments[s].frame_count);
  }
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].byte_size, b.cells[i].byte_size) << "cell " << i;
    EXPECT_EQ(a.cells[i].crc32, b.cells[i].crc32) << "cell " << i;
  }
}

TEST_F(CoreTest, IngestWrapperMatchesManualSession) {
  // The offline Ingest entry point is a thin wrapper over
  // LiveIngestSession; driving the session by hand (same chunking: every
  // frame appended in order, Close at the end) must produce byte-identical
  // cells.
  IngestOptions ingest;
  ingest.tile_rows = 2;
  ingest.tile_cols = 2;
  ingest.frames_per_segment = 8;
  ingest.fps = 8.0;
  ingest.ladder = {{"high", 14}, {"low", 42}};
  std::vector<Frame> frames;
  for (int i = 0; i < 12; ++i) frames.push_back(scene_->FrameAt(i));

  auto wrapped = db_->Ingest("wrap_a", frames, ingest);
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();

  auto session = db_->StartLiveIngest("wrap_b", 128, 64, ingest);
  ASSERT_TRUE(session.ok());
  for (const Frame& frame : frames) {
    ASSERT_TRUE((*session)->AppendFrame(frame).ok());
  }
  auto manual = (*session)->Close();
  ASSERT_TRUE(manual.ok()) << manual.status().ToString();

  auto a = db_->Describe("wrap_a");
  auto b = db_->Describe("wrap_b");
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectSameCatalog(*a, *b);
  ASSERT_TRUE(db_->Drop("wrap_a").ok());
  ASSERT_TRUE(db_->Drop("wrap_b").ok());
}

TEST_F(CoreTest, FinishSegmentSplicesShortSegment) {
  // FinishSegment cuts the buffered partial segment immediately — the
  // ad-break splice: the catalog gains a short segment mid-stream and
  // capture continues on a fresh segment boundary.
  IngestOptions ingest;
  ingest.tile_rows = 1;
  ingest.tile_cols = 1;
  ingest.frames_per_segment = 4;
  ingest.fps = 4.0;
  ingest.ladder = {{"only", 30}};
  auto live = db_->StartLiveIngest("splice", 128, 64, ingest);
  ASSERT_TRUE(live.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*live)->AppendFrame(scene_->FrameAt(i)).ok());
  }
  EXPECT_EQ((*live)->segments_written(), 1);  // frame 4 is buffered
  ASSERT_TRUE((*live)->FinishSegment().ok());
  EXPECT_EQ((*live)->segments_written(), 2);
  ASSERT_TRUE((*live)->FinishSegment().ok());  // nothing buffered: no-op
  EXPECT_EQ((*live)->segments_written(), 2);
  for (int i = 5; i < 9; ++i) {
    ASSERT_TRUE((*live)->AppendFrame(scene_->FrameAt(i)).ok());
  }
  ASSERT_TRUE((*live)->Close().ok());
  auto metadata = db_->Describe("splice");
  ASSERT_TRUE(metadata.ok());
  ASSERT_EQ(metadata->segment_count(), 3);
  EXPECT_EQ(metadata->segments[0].frame_count, 4u);
  EXPECT_EQ(metadata->segments[1].frame_count, 1u);
  EXPECT_EQ(metadata->segments[2].frame_count, 4u);
  EXPECT_EQ(metadata->segments[2].start_frame, 5u);
  ASSERT_TRUE(db_->Drop("splice").ok());
}

TEST_F(CoreTest, PublishedLiveCatalogMatchesOfflineIngest) {
  // The append-only live path (publish a streaming checkpoint after every
  // segment) must converge, once caught up, to byte-identical cells as the
  // same video ingested offline in one shot — the live/archived equivalence
  // the catalog API promises.
  IngestOptions ingest;
  ingest.tile_rows = 2;
  ingest.tile_cols = 2;
  ingest.frames_per_segment = 8;
  ingest.fps = 8.0;
  ingest.ladder = {{"high", 14}, {"low", 42}};

  auto offline = db_->IngestScene("eq_offline", *scene_, 20, ingest);
  ASSERT_TRUE(offline.ok());

  LiveIngestOptions live_options;
  live_options.ingest = ingest;
  live_options.publish_segments = true;
  auto live = db_->StartLiveIngest("eq_live", 128, 64, live_options);
  ASSERT_TRUE(live.ok());
  uint32_t previous_version = 0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*live)->AppendFrame(scene_->FrameAt(i)).ok());
    // Every completed segment publishes automatically, and each publish is
    // a fresh catalog version over the shared data directory.
    if ((i + 1) % 8 == 0) {
      EXPECT_GT((*live)->last_published_version(), previous_version);
      previous_version = (*live)->last_published_version();
      auto checkpoint = db_->storage()->GetVideoVersion(
          "eq_live", (*live)->last_published_version());
      ASSERT_TRUE(checkpoint.ok());
      EXPECT_TRUE(checkpoint->streaming);
      EXPECT_EQ(checkpoint->segment_count(), (i + 1) / 8);
    }
  }
  auto final_version = (*live)->Close();
  ASSERT_TRUE(final_version.ok());

  auto offline_md = db_->Describe("eq_offline");
  auto live_md = db_->Describe("eq_live");
  ASSERT_TRUE(offline_md.ok() && live_md.ok());
  EXPECT_FALSE(live_md->streaming);
  ExpectSameCatalog(*offline_md, *live_md);

  // Not just the index: the cell payloads themselves are byte-identical.
  for (int tile = 0; tile < 4; ++tile) {
    auto a = db_->storage()->ReadCell(*offline_md, 1, tile, 0);
    auto b = db_->storage()->ReadCell(*live_md, 1, tile, 0);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(**a, **b);
  }
  ASSERT_TRUE(db_->Drop("eq_offline").ok());
  ASSERT_TRUE(db_->Drop("eq_live").ok());
}

// ------------------------------------------------------- Versioned reingest

TEST_F(CoreTest, ReingestCreatesNewVersion) {
  SceneOptions scene_options;
  scene_options.width = 128;
  scene_options.height = 64;
  auto scene = NewTimelapseScene(scene_options);
  IngestOptions ingest;
  ingest.tile_rows = 1;
  ingest.tile_cols = 1;
  ingest.frames_per_segment = 8;
  ingest.ladder = {{"only", 30}};
  auto v1 = db_->IngestScene("versioned", *scene, 8, ingest);
  ASSERT_TRUE(v1.ok());
  auto v2 = db_->IngestScene("versioned", *scene, 16, ingest);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, *v1 + 1);
  auto latest = db_->Describe("versioned");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->segment_count(), 2);
  ASSERT_TRUE(db_->Drop("versioned").ok());
  EXPECT_TRUE(db_->Describe("versioned").status().IsNotFound());
}

// -------------------------------------------------------------- Plan cache

TEST(PlanCacheTest, ExactMemoizationHitsAndMisses) {
  PlanCache cache;
  PlanKey key;
  key.segment = 3;
  key.approach = static_cast<int>(StreamingApproach::kVisualCloud);
  key.adaptive = true;
  key.high_quality = 0;
  key.yaw = 1.25;
  key.pitch = 0.5;
  key.budget_bytes = 123456.0;
  key.popular = {1, 5, 9};

  PlanCache::Entry entry;
  EXPECT_FALSE(cache.Lookup(key, &entry));
  entry.plan = {0, 1, 2, 0};
  entry.downgrades = 2;
  cache.Insert(key, entry);

  PlanCache::Entry out;
  ASSERT_TRUE(cache.Lookup(key, &out));
  EXPECT_EQ(out.plan, (TileQualityPlan{0, 1, 2, 0}));
  EXPECT_EQ(out.downgrades, 2);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_NEAR(cache.stats().HitRate(), 0.5, 1e-9);

  // Equality is exact: a hair of orientation difference is a different
  // key (quantization lives only in the hash, for bucketing).
  PlanKey near = key;
  near.yaw += 1e-9;
  EXPECT_FALSE(cache.Lookup(near, &out));
  PlanKey popular = key;
  popular.popular = {1, 5};
  EXPECT_FALSE(cache.Lookup(popular, &out));
}

TEST(PlanCacheTest, GenerationalFlushBoundsSize) {
  PlanCache cache(/*max_entries=*/4);
  for (int i = 0; i < 10; ++i) {
    PlanKey key;
    key.segment = i;
    cache.Insert(key, PlanCache::Entry{{0}, 0});
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_GT(cache.size(), 0u);
}

TEST_F(CoreTest, PlanCacheKeepsSessionsByteIdentical) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  HeadTrace trace = MakeTrace();

  // A constrained budget so adaptive fitting (the expensive, downgrade-
  // producing path) actually runs and must be replayed faithfully on hits.
  SessionOptions plain = BaseSession(StreamingApproach::kVisualCloud);
  plain.network.bandwidth_bps = 2e6;

  auto uncached = SimulateSession(db_->storage(), *metadata, trace, plain);
  ASSERT_TRUE(uncached.ok());

  PlanCache cache;
  SessionOptions cached_options = plain;
  cached_options.plan_cache = &cache;
  auto first = SimulateSession(db_->storage(), *metadata, trace,
                               cached_options);
  ASSERT_TRUE(first.ok());
  auto second = SimulateSession(db_->storage(), *metadata, trace,
                                cached_options);
  ASSERT_TRUE(second.ok());

  // Byte-identity: the cache is a pure memoizer.
  for (const SessionStats* stats : {&*first, &*second}) {
    EXPECT_EQ(stats->bytes_sent, uncached->bytes_sent);
    EXPECT_EQ(stats->segments, uncached->segments);
    EXPECT_EQ(stats->stall_events, uncached->stall_events);
    EXPECT_DOUBLE_EQ(stats->stall_seconds, uncached->stall_seconds);
    EXPECT_DOUBLE_EQ(stats->startup_delay, uncached->startup_delay);
    EXPECT_DOUBLE_EQ(stats->mean_inview_quality,
                     uncached->mean_inview_quality);
  }

  // The identical replica shares every plan: the second session's segments
  // are all hits.
  PlanCache::Stats stats = cache.stats();
  EXPECT_GE(stats.hits, static_cast<uint64_t>(metadata->segment_count()));
  EXPECT_GT(stats.misses, 0u);
}

TEST_F(CoreTest, PlanCacheServesUniformDash) {
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  HeadTrace trace = MakeTrace();

  // View-agnostic approach: even viewers with different gazes share plans
  // (the key zeroes the view fields).
  PlanCache cache;
  SessionOptions options = BaseSession(StreamingApproach::kUniformDash);
  options.plan_cache = &cache;
  auto a = SimulateSession(db_->storage(), *metadata, trace, options);
  ASSERT_TRUE(a.ok());
  auto b = SimulateSession(db_->storage(), *metadata, MakeTrace(0.7),
                           options);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->bytes_sent, b->bytes_sent) << "uniform plans are view-free";
  EXPECT_GE(cache.stats().hits,
            static_cast<uint64_t>(metadata->segment_count()));
}

TEST(LiveCatalogTest, CatalogReadsRaceLiveCheckpoints) {
  // Four readers hammer the in-memory version set while a live session
  // publishes a checkpoint per segment (CI runs this under ThreadSanitizer).
  std::unique_ptr<Env> env = NewMemEnv();
  VisualCloudOptions options;
  options.storage.env = env.get();
  options.storage.root = "/db";
  auto db = VisualCloud::Open(options);
  ASSERT_TRUE(db.ok());
  StorageManager* storage = (*db)->storage();
  SceneOptions scene_options;
  scene_options.width = 64;
  scene_options.height = 32;
  auto scene = NewVeniceScene(scene_options);
  LiveIngestOptions live_options;
  live_options.ingest.tile_rows = 1;
  live_options.ingest.tile_cols = 2;
  live_options.ingest.frames_per_segment = 4;
  live_options.ingest.fps = 8.0;
  live_options.ingest.ladder = {{"high", 14}, {"low", 42}};
  live_options.publish_segments = true;
  auto live = (*db)->StartLiveIngest("feed", 64, 32, live_options);
  ASSERT_TRUE(live.ok());

  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      uint32_t seen = 0;
      while (!done.load()) {
        EXPECT_TRUE(storage->ListVideos().ok());
        auto versions = storage->ListVersions("feed");
        if (versions.ok()) {
          EXPECT_TRUE(std::is_sorted(versions->begin(), versions->end()));
          EXPECT_GE(versions->back(), seen);
        }
        auto latest = storage->GetVideo("feed");
        if (latest.ok()) {
          EXPECT_TRUE(latest->Validate().ok());
          EXPECT_GE(latest->version, seen);
          seen = latest->version;
        } else {
          EXPECT_TRUE(latest.status().IsNotFound());
        }
        reads.fetch_add(1);
      }
    });
  }
  Status appended;
  for (int i = 0; i < 24 && appended.ok(); ++i) {
    appended = (*live)->AppendFrame(scene->FrameAt(i));
  }
  auto final_version = (*live)->Close();
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  ASSERT_TRUE(appended.ok()) << appended.ToString();
  ASSERT_TRUE(final_version.ok()) << final_version.status().ToString();
  EXPECT_EQ(*final_version, 7u);  // six checkpoints, then the archive
  EXPECT_GT(reads.load(), 0);
  auto versions = storage->ListVersions("feed");
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(*versions, (std::vector<uint32_t>{1, 2, 3, 4, 5, 6, 7}));
  auto latest = storage->GetVideo("feed");
  ASSERT_TRUE(latest.ok());
  EXPECT_FALSE(latest->streaming);
  EXPECT_EQ(latest->segment_count(), 6);
}

}  // namespace
}  // namespace vc
