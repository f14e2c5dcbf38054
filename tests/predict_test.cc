#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "predict/accuracy.h"
#include "predict/head_trace.h"
#include "predict/popularity.h"
#include "predict/predictor.h"
#include "predict/trace_synthesizer.h"
#include "test_digest.h"

namespace vc {
namespace {

// -------------------------------------------------------------- HeadTrace

TEST(HeadTraceTest, FromSamplesValidation) {
  EXPECT_FALSE(HeadTrace::FromSamples({}).ok());
  EXPECT_FALSE(
      HeadTrace::FromSamples({{-1.0, {}}, {0.0, {}}}).ok());
  EXPECT_FALSE(HeadTrace::FromSamples({{0.0, {}}, {0.0, {}}}).ok());
  EXPECT_TRUE(HeadTrace::FromSamples({{0.0, {}}, {1.0, {}}}).ok());
}

TEST(HeadTraceTest, InterpolationAndClamping) {
  auto trace = HeadTrace::FromSamples(
      {{0.0, {1.0, 1.0}}, {2.0, {2.0, 1.4}}});
  ASSERT_TRUE(trace.ok());
  Orientation mid = trace->At(1.0);
  EXPECT_NEAR(mid.yaw, 1.5, 1e-9);
  EXPECT_NEAR(mid.pitch, 1.2, 1e-9);
  // Clamped outside the range.
  EXPECT_NEAR(trace->At(-5.0).yaw, 1.0, 1e-9);
  EXPECT_NEAR(trace->At(99.0).yaw, 2.0, 1e-9);
}

TEST(HeadTraceTest, InterpolatesAcrossYawSeam) {
  auto trace = HeadTrace::FromSamples(
      {{0.0, {kTwoPi - 0.1, kPi / 2}}, {1.0, {0.1, kPi / 2}}});
  ASSERT_TRUE(trace.ok());
  // Midpoint is the seam itself, not yaw π.
  Orientation mid = trace->At(0.5);
  EXPECT_LT(std::min(mid.yaw, kTwoPi - mid.yaw), 0.01);
}

TEST(HeadTraceTest, CursorMatchesAtBitExactly) {
  // Irregular sample spacing, a first sample after t = 0, and orientations
  // drawn anew per sample (yaw jumps across the seam, pitch across the
  // sphere), so interpolating to a sample's own time from the pair below
  // it is not bit-exact: a cursor that picks a different bracket shows.
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> gap(0.005, 0.2);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<TraceSample> samples;
  double t = 0.5;
  for (int i = 0; i < 400; ++i) {
    samples.push_back({t, {unit(rng) * kTwoPi, unit(rng) * kPi}});
    t += gap(rng);
  }
  auto trace = HeadTrace::FromSamples(std::move(samples));
  ASSERT_TRUE(trace.ok());
  const double first = trace->samples().front().t;
  const double last = trace->duration();

  auto expect_same = [&](double at, size_t* cursor) {
    Orientation searched = trace->At(at);
    Orientation walked = trace->At(at, cursor);
    ASSERT_EQ(std::memcmp(&searched.yaw, &walked.yaw, sizeof(double)), 0)
        << "t=" << at;
    ASSERT_EQ(std::memcmp(&searched.pitch, &walked.pitch, sizeof(double)), 0)
        << "t=" << at;
  };

  // Monotone sweeps from before the first sample to past the last, at
  // rates finer and coarser than the sample spacing, plus exact sample
  // times.
  for (double dt : {1.0 / 90, 1.0 / 30, 1.0 / 7, 0.013, 1.7}) {
    size_t cursor = 0;
    for (double at = 0.0; at <= last + 1.0; at += dt) {
      expect_same(at, &cursor);
      expect_same(at, &cursor);  // the same t twice
    }
  }
  {
    size_t cursor = 0;
    for (const TraceSample& sample : trace->samples()) {
      expect_same(sample.t, &cursor);
      expect_same(std::nextafter(sample.t, last + 1), &cursor);
    }
  }
  // Backward jumps take the search fallback and leave a usable cursor.
  size_t cursor = 0;
  expect_same(last - 0.01, &cursor);
  expect_same(first + 0.01, &cursor);
  expect_same(first + 0.02, &cursor);
  expect_same(first - 1.0, &cursor);
  expect_same(last + 1.0, &cursor);
  expect_same((first + last) / 2, &cursor);
  expect_same(first, &cursor);
  expect_same(last, &cursor);
  // A stale cursor from past the end is clamped, not trusted.
  cursor = trace->size() + 10;
  expect_same((first + last) / 3, &cursor);
}

TEST(HeadTraceTest, CsvRoundTrip) {
  auto trace = HeadTrace::FromSamples(
      {{0.0, {0.5, 1.0}}, {0.5, {1.0, 1.5}}, {1.0, {6.0, 2.0}}});
  ASSERT_TRUE(trace.ok());
  std::string csv = trace->ToCsv();
  auto parsed = HeadTrace::FromCsv(Slice(csv));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(parsed->samples()[i].t, trace->samples()[i].t, 1e-6);
    EXPECT_NEAR(parsed->samples()[i].orientation.yaw,
                trace->samples()[i].orientation.yaw, 1e-6);
  }
}

TEST(HeadTraceTest, CsvRejectsGarbage) {
  std::string bad = "t,yaw,pitch\n0.0,nope\n";
  EXPECT_FALSE(HeadTrace::FromCsv(Slice(bad)).ok());
  std::string empty;
  EXPECT_FALSE(HeadTrace::FromCsv(Slice(empty)).ok());
}

// ------------------------------------------------------------ Synthesizer

TEST(TraceSynthesizerTest, ProducesRequestedShape) {
  TraceSynthOptions options;
  options.duration_seconds = 10;
  auto trace = SynthesizeTrace(options);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->size(), 301u);
  EXPECT_NEAR(trace->duration(), 10.0, 0.05);
  for (const TraceSample& s : trace->samples()) {
    EXPECT_GE(s.orientation.yaw, 0.0);
    EXPECT_LT(s.orientation.yaw, kTwoPi);
    EXPECT_GE(s.orientation.pitch, 0.0);
    EXPECT_LE(s.orientation.pitch, kPi);
  }
}

TEST(TraceSynthesizerTest, DeterministicPerSeed) {
  TraceSynthOptions options;
  options.duration_seconds = 5;
  auto a = SynthesizeTrace(options);
  auto b = SynthesizeTrace(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    ASSERT_DOUBLE_EQ(a->samples()[i].orientation.yaw,
                     b->samples()[i].orientation.yaw);
  }
  options.seed = 2;
  auto c = SynthesizeTrace(options);
  bool differs = false;
  for (size_t i = 0; i < a->size() && !differs; ++i) {
    differs = a->samples()[i].orientation.yaw !=
              c->samples()[i].orientation.yaw;
  }
  EXPECT_TRUE(differs);
}

TEST(TraceSynthesizerTest, ValidatesOptions) {
  TraceSynthOptions options;
  options.duration_seconds = -1;
  EXPECT_FALSE(SynthesizeTrace(options).ok());
}

TEST(TraceSynthesizerTest, ArchetypesOrderedByActivity) {
  // Frantic viewers cover more angular distance than calm viewers.
  auto total_motion = [](const std::string& archetype) {
    auto options = ArchetypeOptions(archetype, 5);
    EXPECT_TRUE(options.ok());
    options->duration_seconds = 30;
    auto trace = SynthesizeTrace(*options);
    EXPECT_TRUE(trace.ok());
    double sum = 0;
    for (size_t i = 1; i < trace->size(); ++i) {
      sum += AngularDistance(trace->samples()[i - 1].orientation,
                             trace->samples()[i].orientation);
    }
    return sum;
  };
  double calm = total_motion("calm");
  double frantic = total_motion("frantic");
  EXPECT_LT(calm, frantic);
  EXPECT_FALSE(ArchetypeOptions("zen", 1).ok());
}

TEST(TraceSynthesizerTest, SynthesizedTraceDigestIsPinned) {
  // Every sample of every archetype at a fixed seed: holds the model's
  // fixed parameters (content seed, ROI count, velocity damping, pitch
  // reversion) to their exact output.
  Fnv1a digest;
  for (const std::string& archetype : ViewerArchetypes()) {
    auto options = ArchetypeOptions(archetype, 11);
    ASSERT_TRUE(options.ok());
    options->duration_seconds = 60;
    auto trace = SynthesizeTrace(*options);
    ASSERT_TRUE(trace.ok());
    for (const TraceSample& sample : trace->samples()) {
      digest.Add(sample.t);
      digest.Add(sample.orientation.yaw);
      digest.Add(sample.orientation.pitch);
    }
  }
  EXPECT_EQ(digest.value(), 0x288aab0a80732d2aull)
      << std::hex << digest.value();
}

// -------------------------------------------------------------- Predictors

TEST(PredictorTest, FactoryAndNames) {
  TileGrid grid(4, 4);
  for (const char* name :
       {"static", "dead_reckoning", "linear_regression", "markov"}) {
    auto p = MakePredictor(name, grid);
    ASSERT_TRUE(p.ok()) << name;
    EXPECT_EQ((*p)->name(), name);
  }
  EXPECT_FALSE(MakePredictor("psychic", grid).ok());
  EXPECT_EQ(AllPredictors(grid).size(), 4u);
}

TEST(PredictorTest, UnobservedPredictorsReturnDefault) {
  TileGrid grid(4, 4);
  for (auto& p : AllPredictors(grid)) {
    Orientation o = p->Predict(1.0);
    EXPECT_NEAR(o.pitch, kPi / 2, 1e-9) << p->name();
  }
}

TEST(PredictorTest, StaticPredictsLastObservation) {
  auto p = NewStaticPredictor();
  p->Observe(0.0, {1.0, 1.0});
  p->Observe(0.5, {2.0, 1.2});
  Orientation o = p->Predict(3.0);
  EXPECT_NEAR(o.yaw, 2.0, 1e-9);
  EXPECT_NEAR(o.pitch, 1.2, 1e-9);
}

TEST(PredictorTest, DeadReckoningExtrapolatesConstantVelocity) {
  auto p = NewDeadReckoningPredictor(0.5);
  // yaw moves +0.2 rad per 0.1 s.
  for (int i = 0; i <= 5; ++i) {
    p->Observe(0.1 * i, {WrapYaw(0.2 * i), kPi / 2});
  }
  Orientation o = p->Predict(1.0);
  EXPECT_NEAR(o.yaw, WrapYaw(1.0 + 2.0), 0.05);
}

TEST(PredictorTest, DeadReckoningCrossesSeam) {
  auto p = NewDeadReckoningPredictor(0.5);
  // Moving toward the seam at +1 rad/s starting near 2π.
  for (int i = 0; i <= 5; ++i) {
    p->Observe(0.1 * i, {WrapYaw(kTwoPi - 0.3 + 0.1 * i), kPi / 2});
  }
  Orientation o = p->Predict(0.5);
  // Expected: 2π - 0.3 + 0.5 + 0.5 → wraps to ≈ 0.7.
  EXPECT_NEAR(o.yaw, 0.7, 0.05);
}

TEST(PredictorTest, LinearRegressionFitsNoisyLine) {
  auto p = NewLinearRegressionPredictor(1.0);
  // pitch declines at 0.1 rad/s with small deterministic wobble.
  for (int i = 0; i <= 30; ++i) {
    double t = 0.033 * i;
    double wobble = 0.005 * ((i % 3) - 1);
    p->Observe(t, {1.0, kPi / 2 - 0.1 * t + wobble});
  }
  Orientation o = p->Predict(1.0);
  double expected_pitch = kPi / 2 - 0.1 * (0.033 * 30 + 1.0);
  EXPECT_NEAR(o.pitch, expected_pitch, 0.02);
}

TEST(PredictorTest, MarkovLearnsDwellPattern) {
  TileGrid grid(2, 4);
  auto p = NewMarkovPredictor(grid, 0.25);
  // Viewer parks in one tile for a long time: prediction stays there.
  Orientation home = grid.CenterOf({1, 2});
  for (int i = 0; i < 200; ++i) {
    p->Observe(0.1 * i, home);
  }
  Orientation predicted = p->Predict(2.0);
  EXPECT_EQ(grid.TileFor(predicted), grid.TileFor(home));
}

TEST(PredictorTest, MarkovLearnsCyclicMotion) {
  TileGrid grid(1, 4);
  auto p = NewMarkovPredictor(grid, 0.5);
  // Viewer cycles col 0 → 1 → 2 → 3 → 0, moving every Markov step (0.5 s),
  // so the learned chain is an unambiguous cycle.
  for (int step = 0; step < 160; ++step) {
    p->Observe(step * 0.5, grid.CenterOf({0, step % 4}));
  }
  // Last observation is col 3 (step 159); one step ahead is col 0, two
  // steps ahead col 1.
  EXPECT_EQ(grid.TileFor(p->Predict(0.5)).col, 0);
  EXPECT_EQ(grid.TileFor(p->Predict(1.0)).col, 1);
}

// -------------------------------------------------------------- Popularity

TEST(PopularityTest, LearnsWhereViewersLook) {
  TileGrid grid(2, 4);
  PopularityModel model(grid, /*segment_seconds=*/1.0, /*segment_count=*/3);
  EXPECT_EQ(model.viewer_count(), 0);

  // Ten viewers: all stare at tile (1,2) in segment 0, split between
  // (0,0) and (1,2) in segment 1.
  Orientation hot = grid.CenterOf({1, 2});
  Orientation alt = grid.CenterOf({0, 0});
  for (int viewer = 0; viewer < 10; ++viewer) {
    std::vector<TraceSample> samples;
    for (int i = 0; i <= 90; ++i) {
      double t = i / 30.0;
      Orientation o = hot;
      if (t >= 1.0 && t < 2.0 && viewer % 2 == 0) o = alt;
      samples.push_back({t, o});
    }
    model.AddTrace(*HeadTrace::FromSamples(std::move(samples)));
  }
  EXPECT_EQ(model.viewer_count(), 10);
  EXPECT_GT(model.Probability(0, {1, 2}), 0.95);
  EXPECT_NEAR(model.Probability(1, {0, 0}), 0.5, 0.05);
  EXPECT_NEAR(model.Probability(1, {1, 2}), 0.5, 0.05);
  // (interpolation at the segment boundary may leak a sample or two)
  EXPECT_LT(model.Probability(0, {0, 0}), 0.05);

  // Coverage selection: 80% of segment 0 needs only the hot tile; segment 1
  // needs both.
  auto seg0 = model.PopularTiles(0, 0.8);
  ASSERT_EQ(seg0.size(), 1u);
  EXPECT_EQ(seg0[0], (TileId{1, 2}));
  auto seg1 = model.PopularTiles(1, 0.8);
  EXPECT_EQ(seg1.size(), 2u);
}

TEST(PopularityTest, EmptyModelBehaves) {
  TileGrid grid(2, 2);
  PopularityModel model(grid, 1.0, 2);
  EXPECT_EQ(model.Probability(0, {0, 0}), 0.0);
  EXPECT_TRUE(model.PopularTiles(0, 0.9).empty());
  EXPECT_TRUE(model.PopularTiles(-1, 0.9).empty());
  EXPECT_TRUE(model.PopularTiles(99, 0.9).empty());
}

TEST(PopularityTest, SerializeParseRoundTrip) {
  TileGrid grid(3, 5);
  PopularityModel model(grid, 0.5, 4);
  auto options = ArchetypeOptions("explorer", 3);
  options->duration_seconds = 2.0;
  model.AddTrace(*SynthesizeTrace(*options));
  model.AddTrace(*SynthesizeTrace(*options));

  auto bytes = model.Serialize();
  auto parsed = PopularityModel::Parse(Slice(bytes));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->viewer_count(), 2);
  EXPECT_EQ(parsed->segment_count(), 4);
  for (int segment = 0; segment < 4; ++segment) {
    for (int i = 0; i < grid.tile_count(); ++i) {
      EXPECT_DOUBLE_EQ(parsed->Probability(segment, grid.TileAt(i)),
                       model.Probability(segment, grid.TileAt(i)));
    }
  }
  // Truncated and trailing-byte corruption rejected.
  auto truncated = bytes;
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(PopularityModel::Parse(Slice(truncated)).ok());
  bytes.push_back(0);
  EXPECT_FALSE(PopularityModel::Parse(Slice(bytes)).ok());
}

TEST(PredictorTest, StaleObservationsIgnored) {
  auto p = NewStaticPredictor();
  p->Observe(1.0, {2.0, 1.5});
  p->Observe(0.5, {0.5, 0.5});  // stale: must not override
  Orientation o = p->Predict(0.0);
  EXPECT_NEAR(o.yaw, 2.0, 1e-9);
}

TEST(PredictorTest, ResetClearsState) {
  auto p = NewDeadReckoningPredictor();
  p->Observe(0.0, {1.0, 1.0});
  p->Observe(0.1, {1.5, 1.0});
  p->Reset();
  Orientation o = p->Predict(1.0);
  EXPECT_NEAR(o.pitch, kPi / 2, 1e-9);
  EXPECT_NEAR(o.yaw, 0.0, 1e-9);
}

// ---------------------------------------------------------------- Accuracy

TEST(AccuracyTest, PerfectPredictorOnConstantTrace) {
  std::vector<TraceSample> samples;
  for (int i = 0; i <= 300; ++i) {
    samples.push_back({i / 30.0, {1.5, kPi / 2}});
  }
  auto trace = HeadTrace::FromSamples(std::move(samples));
  ASSERT_TRUE(trace.ok());
  TileGrid grid(4, 4);
  auto p = NewStaticPredictor();
  AccuracyOptions options;
  PredictionAccuracy accuracy =
      EvaluatePredictor(p.get(), *trace, grid, options);
  EXPECT_GT(accuracy.evaluations, 0);
  EXPECT_NEAR(accuracy.mean_error_radians, 0.0, 1e-6);
  EXPECT_NEAR(accuracy.tile_hit_rate, 1.0, 1e-9);
}

TEST(AccuracyTest, MotionPredictorsBeatStaticOnSmoothMotion) {
  // Constant-velocity pan: extrapolation should beat persistence.
  std::vector<TraceSample> samples;
  for (int i = 0; i <= 900; ++i) {
    double t = i / 30.0;
    samples.push_back({t, {WrapYaw(0.5 * t), kPi / 2}});
  }
  auto trace = HeadTrace::FromSamples(std::move(samples));
  ASSERT_TRUE(trace.ok());
  TileGrid grid(4, 4);
  AccuracyOptions options;
  options.lookahead_seconds = 1.0;

  auto stat = NewStaticPredictor();
  auto dead = NewDeadReckoningPredictor();
  PredictionAccuracy static_acc =
      EvaluatePredictor(stat.get(), *trace, grid, options);
  PredictionAccuracy dead_acc =
      EvaluatePredictor(dead.get(), *trace, grid, options);
  EXPECT_LT(dead_acc.mean_error_radians, static_acc.mean_error_radians);
  EXPECT_NEAR(dead_acc.mean_error_radians, 0.0, 0.05);
  EXPECT_NEAR(static_acc.mean_error_radians, 0.5, 0.05);
}

TEST(AccuracyTest, ErrorGrowsWithLookahead) {
  auto options_r = ArchetypeOptions("explorer", 9);
  ASSERT_TRUE(options_r.ok());
  options_r->duration_seconds = 60;
  auto trace = SynthesizeTrace(*options_r);
  ASSERT_TRUE(trace.ok());
  TileGrid grid(4, 4);
  auto p = NewStaticPredictor();
  AccuracyOptions near_opts, far_opts;
  near_opts.lookahead_seconds = 0.25;
  far_opts.lookahead_seconds = 3.0;
  PredictionAccuracy near_acc =
      EvaluatePredictor(p.get(), *trace, grid, near_opts);
  PredictionAccuracy far_acc =
      EvaluatePredictor(p.get(), *trace, grid, far_opts);
  EXPECT_LT(near_acc.mean_error_radians, far_acc.mean_error_radians);
}

TEST(AccuracyTest, EmptyTraceYieldsZeroEvaluations) {
  TileGrid grid(2, 2);
  auto p = NewStaticPredictor();
  PredictionAccuracy accuracy =
      EvaluatePredictor(p.get(), HeadTrace(), grid, AccuracyOptions{});
  EXPECT_EQ(accuracy.evaluations, 0);
}

}  // namespace
}  // namespace vc
