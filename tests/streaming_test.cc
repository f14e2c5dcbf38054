#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "streaming/adaptation.h"
#include "streaming/manifest.h"
#include "streaming/network.h"
#include "streaming/qoe.h"
#include "test_digest.h"

namespace vc {
namespace {

// ---------------------------------------------------------------- Network

TEST(NetworkTest, OptionsValidation) {
  NetworkOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.bandwidth_bps = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = NetworkOptions{};
  options.latency_seconds = -1;
  EXPECT_FALSE(options.Validate().ok());
  options = NetworkOptions{};
  options.bandwidth_trace = {{5.0, 1e6}, {2.0, 2e6}};  // unsorted
  EXPECT_FALSE(options.Validate().ok());
}

TEST(NetworkTest, SteadyTransferTime) {
  NetworkOptions options;
  options.bandwidth_bps = 8e6;  // 1 MB/s
  options.latency_seconds = 0.05;
  auto net = NetworkSimulator::Create(options);
  ASSERT_TRUE(net.ok());
  TransferResult done = net->Transfer(0.0, 1'000'000);
  EXPECT_NEAR(done.completion_time, 0.05 + 1.0, 1e-9);
  EXPECT_EQ(done.delivered_bytes, 1'000'000u);
  EXPECT_FALSE(done.faulted);
  EXPECT_EQ(net->total_bytes(), 1'000'000u);
  EXPECT_EQ(net->request_count(), 1u);
}

TEST(NetworkTest, BandwidthTraceSteps) {
  NetworkOptions options;
  options.bandwidth_bps = 8e6;
  options.latency_seconds = 0.0;
  options.bandwidth_trace = {{1.0, 4e6}};  // halves after t=1
  auto net = NetworkSimulator::Create(options);
  ASSERT_TRUE(net.ok());
  EXPECT_DOUBLE_EQ(net->BandwidthAt(0.5), 8e6);
  EXPECT_DOUBLE_EQ(net->BandwidthAt(2.0), 4e6);
  // 2 MB starting at t=0: first 1 s moves 1 MB, remaining 1 MB at 0.5 MB/s.
  double done = net->Transfer(0.0, 2'000'000).completion_time;
  EXPECT_NEAR(done, 1.0 + 2.0, 1e-9);
}

TEST(NetworkTest, LongTraceIntegratesPastStepLimit) {
  // Regression: the integrator used to bail after a fixed step budget
  // (10k) and silently return the truncated time-so-far instead of the
  // completion time. A trace with more steps than the old budget must
  // still integrate exactly.
  NetworkOptions options;
  options.bandwidth_bps = 1e6;
  options.latency_seconds = 0.0;
  for (int i = 1; i <= 20'000; ++i) {
    options.bandwidth_trace.emplace_back(i * 1e-3, 1e6);  // constant rate
  }
  auto net = NetworkSimulator::Create(options);
  ASSERT_TRUE(net.ok());
  // 3.75 MB at 1 Mbps = 30 s, spanning all 20k trace steps. The pre-fix
  // code returned ~10 s (the time reached when the step budget ran out).
  double done = net->Transfer(0.0, 3'750'000).completion_time;
  EXPECT_NEAR(done, 30.0, 1e-6);
  // A transfer completing between trace steps still lands exactly.
  EXPECT_NEAR(net->Transfer(0.0, 1'000).completion_time, 0.008, 1e-9);
}

TEST(NetworkTest, TransferPastEndOfTraceUsesLastRate) {
  NetworkOptions options;
  options.bandwidth_bps = 8e6;
  options.latency_seconds = 0.0;
  options.bandwidth_trace = {{1.0, 4e6}, {2.0, 2e6}};
  auto net = NetworkSimulator::Create(options);
  ASSERT_TRUE(net.ok());
  // Starting after every trace step: the last rate applies analytically.
  EXPECT_NEAR(net->Transfer(10.0, 1'000'000).completion_time, 10.0 + 4.0,
              1e-9);
}

TEST(NetworkTest, ResetStatsKeepsModel) {
  auto net = NetworkSimulator::Create(NetworkOptions{});
  ASSERT_TRUE(net.ok());
  net->Transfer(0, 1000);
  net->ResetStats();
  EXPECT_EQ(net->total_bytes(), 0u);
  EXPECT_EQ(net->request_count(), 0u);
  EXPECT_EQ(net->fault_count(), 0u);
}

// ----------------------------------------------------------- Fault injection

TEST(NetworkTest, FaultOptionsValidation) {
  NetworkOptions options;
  options.faults.episodes_per_minute = 6;
  EXPECT_TRUE(options.Validate().ok());
  options.faults.timeout_seconds = -1;
  EXPECT_FALSE(options.Validate().ok());
  // Out-of-range values are ignored while injection is disabled.
  options.faults = FaultInjectionOptions{};
  options.faults.timeout_seconds = -1;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(NetworkTest, FaultScheduleIsDeterministicPerSeed) {
  NetworkOptions options;
  options.faults.episodes_per_minute = 30;
  options.faults.seed = 7;
  auto a = NetworkSimulator::Create(options);
  auto b = NetworkSimulator::Create(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  int faults = 0;
  for (int i = 0; i < 200; ++i) {
    TransferResult ra = a->Transfer(i * 1.0, 100'000);
    TransferResult rb = b->Transfer(i * 1.0, 100'000);
    EXPECT_DOUBLE_EQ(ra.completion_time, rb.completion_time);
    EXPECT_EQ(ra.faulted, rb.faulted);
    if (ra.faulted) ++faults;
  }
  EXPECT_GT(faults, 0) << "30 episodes/min over 200 s must hit something";
  EXPECT_EQ(a->fault_count(), static_cast<uint64_t>(faults));
}

TEST(NetworkTest, DroppedRequestTimesOutDeliveringNothing) {
  NetworkOptions options;
  options.latency_seconds = 0.0;
  options.faults.episodes_per_minute = 60;
  options.faults.timeout_seconds = 1.5;
  auto net = NetworkSimulator::Create(options);
  ASSERT_TRUE(net.ok());
  // Find a drop episode in the generated schedule and issue inside it.
  const FaultEpisode* drop = nullptr;
  for (double t = 0; t < 600 && drop == nullptr; t += 0.05) {
    const FaultEpisode* e = net->EpisodeAt(t);
    if (e != nullptr && e->kind == FaultKind::kDrop) drop = e;
  }
  ASSERT_NE(drop, nullptr) << "schedule has no drop episode in 600 s";
  TransferResult r = net->Transfer(drop->start, 1'000'000);
  EXPECT_TRUE(r.faulted);
  EXPECT_EQ(r.delivered_bytes, 0u);
  EXPECT_NEAR(r.completion_time, drop->start + 1.5, 1e-9);
  EXPECT_EQ(net->total_bytes(), 0u);  // nothing delivered
  EXPECT_EQ(net->fault_count(), 1u);
}

TEST(NetworkTest, StallEpisodeDelaysAndCollapseSlowsService) {
  NetworkOptions options;
  options.bandwidth_bps = 8e6;  // 1 MB/s
  options.latency_seconds = 0.0;
  options.faults.episodes_per_minute = 60;
  auto net = NetworkSimulator::Create(options);
  ASSERT_TRUE(net.ok());
  const FaultEpisode* stall = nullptr;
  const FaultEpisode* collapse = nullptr;
  for (double t = 0; t < 600; t += 0.05) {
    const FaultEpisode* e = net->EpisodeAt(t);
    if (e == nullptr) continue;
    if (e->kind == FaultKind::kStall) stall = e;
    if (e->kind == FaultKind::kCollapse) collapse = e;
    if (stall != nullptr && collapse != nullptr) break;
  }
  ASSERT_NE(stall, nullptr);
  ASSERT_NE(collapse, nullptr);
  // Stall: service begins at episode end, then runs at full rate.
  TransferResult rs = net->Transfer(stall->start, 1'000'000);
  EXPECT_FALSE(rs.faulted);
  EXPECT_NEAR(rs.completion_time, stall->end() + 1.0, 1e-9);
  // Collapse: the transfer runs at a tenth of the bandwidth.
  TransferResult rc = net->Transfer(collapse->start, 1'000'000);
  EXPECT_FALSE(rc.faulted);
  EXPECT_NEAR(rc.completion_time, collapse->start + 10.0, 1e-9);
}

// -------------------------------------------------------------- Adaptation

TEST(AdaptationTest, ThroughputEstimatorConverges) {
  ThroughputEstimator estimator(0.5, 1e6);
  for (int i = 0; i < 20; ++i) {
    estimator.AddSample(1'000'000, 1.0);  // 8 Mbps observed
  }
  EXPECT_NEAR(estimator.estimate_bps(), 8e6, 1e5);
  estimator.AddSample(0, 0.0);  // degenerate sample ignored
  EXPECT_NEAR(estimator.estimate_bps(), 8e6, 1e5);
}

TEST(AdaptationTest, PickQualityForBudget) {
  std::vector<uint64_t> sizes = {1000, 500, 100};  // best → worst
  EXPECT_EQ(PickQualityForBudget(sizes, 2000), 0);
  EXPECT_EQ(PickQualityForBudget(sizes, 600), 1);
  EXPECT_EQ(PickQualityForBudget(sizes, 150), 2);
  EXPECT_EQ(PickQualityForBudget(sizes, 10), 2);  // nothing fits: lowest
}

TEST(AdaptationTest, PickQualityForBudgetEmptyLadderIsIndexSafe) {
  // Regression: an empty ladder used to return -1, which callers then used
  // to index the quality ladder.
  EXPECT_EQ(PickQualityForBudget({}, 1000.0), 0);
  EXPECT_EQ(PickQualityForBudget({}, 0.0), 0);
}

TEST(AdaptationTest, ThroughputEstimatorClampsTinyDurations) {
  // Regression: near-zero-duration samples (cache-served segments) used to
  // be silently discarded; worse, slightly-larger-but-tiny durations were
  // trusted verbatim and biased the EWMA sky-high. Durations below the
  // floor now clamp to it and are counted.
  Counter* clamped =
      MetricRegistry::Global().GetCounter("adaptation.samples_clamped");
  Counter* discarded =
      MetricRegistry::Global().GetCounter("adaptation.samples_discarded");
  uint64_t clamped_before = clamped->Value();
  uint64_t discarded_before = discarded->Value();

  ThroughputEstimator estimator(0.5, 1e6);
  estimator.AddSample(1'000'000, 1e-7);  // clamped to the 1 ms floor
  // 1 MB over (clamped) 1 ms = 8e9 bps; the raw 1e-7 s sample would have
  // read as 8e13 bps.
  EXPECT_NEAR(estimator.estimate_bps(), 0.5 * 1e6 + 0.5 * 8e9, 1e3);
  EXPECT_EQ(clamped->Value(), clamped_before + 1);

  // Degenerate samples are discarded (estimate unchanged) and counted.
  double before_bps = estimator.estimate_bps();
  estimator.AddSample(0, 1.0);
  estimator.AddSample(1000, 0.0);
  estimator.AddSample(1000, -1.0);
  EXPECT_EQ(estimator.estimate_bps(), before_bps);
  EXPECT_EQ(discarded->Value(), discarded_before + 3);
}

TEST(AdaptationTest, SegmentByteBudget) {
  // 8 Mbps for 1 s at safety 0.85 = 850 KB.
  EXPECT_NEAR(SegmentByteBudget(8e6, 1.0, 0.85), 850'000, 1);
}

// ---------------------------------------------------------------- Manifest

VideoMetadata ManifestSample() {
  VideoMetadata m;
  m.name = "venice";
  m.version = 3;
  m.width = 256;
  m.height = 128;
  m.fps_times_100 = 1500;
  m.frames_per_segment = 15;
  m.tile_rows = 2;
  m.tile_cols = 4;
  m.spherical.stereo = StereoMode::kStereoTopBottom;
  m.ladder = {{"high", 14}, {"low", 42}};
  m.segments = {{0, 15}, {15, 15}, {30, 7}};
  m.cells.resize(3 * 8 * 2);
  for (size_t i = 0; i < m.cells.size(); ++i) {
    m.cells[i] = CellInfo{1000 + i * 13, static_cast<uint32_t>(0xAB00 + i)};
  }
  return m;
}

TEST(ManifestTest, RoundTripsAllFields) {
  VideoMetadata m = ManifestSample();
  std::string text = GenerateManifest(m);
  auto parsed = ParseManifest(Slice(text));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->name, m.name);
  EXPECT_EQ(parsed->version, m.version);
  EXPECT_EQ(parsed->width, m.width);
  EXPECT_EQ(parsed->height, m.height);
  EXPECT_EQ(parsed->fps_times_100, m.fps_times_100);
  EXPECT_EQ(parsed->frames_per_segment, m.frames_per_segment);
  EXPECT_EQ(parsed->tile_rows, m.tile_rows);
  EXPECT_EQ(parsed->tile_cols, m.tile_cols);
  EXPECT_EQ(parsed->spherical.stereo, m.spherical.stereo);
  EXPECT_EQ(parsed->ladder, m.ladder);
  ASSERT_EQ(parsed->segments.size(), m.segments.size());
  ASSERT_EQ(parsed->cells.size(), m.cells.size());
  for (size_t i = 0; i < m.cells.size(); ++i) {
    EXPECT_EQ(parsed->cells[i].byte_size, m.cells[i].byte_size);
    EXPECT_EQ(parsed->cells[i].crc32, m.cells[i].crc32);
  }
}

TEST(ManifestTest, OutputDigestIsPinned) {
  // The manifest text, byte for byte: the sample and its layout alone (a
  // live video before its first segment is published).
  VideoMetadata m = ManifestSample();
  VideoMetadata layout = m;
  layout.segments.clear();
  layout.cells.clear();
  Fnv1a digest;
  digest.Add(GenerateManifest(m));
  digest.Add(GenerateManifest(layout));
  EXPECT_EQ(digest.value(), 0xa9716337a5631f79ull) << std::hex << digest.value();
}

TEST(ManifestTest, IgnoresCommentsAndBlankLines) {
  std::string text = GenerateManifest(ManifestSample());
  text = "# a comment\n\n" + text + "# trailing comment\n";
  EXPECT_TRUE(ParseManifest(Slice(text)).ok());
}

TEST(ManifestTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseManifest(Slice(std::string(""))).ok());
  EXPECT_FALSE(ParseManifest(Slice(std::string("BOGUS 1\n"))).ok());
  std::string text = GenerateManifest(ManifestSample());
  // Drop one cell line → count mismatch.
  size_t last_cell = text.rfind("cell ");
  std::string missing = text.substr(0, last_cell);
  EXPECT_FALSE(ParseManifest(Slice(missing)).ok());
  // Duplicate a cell line.
  std::string duplicated = text + text.substr(last_cell);
  EXPECT_FALSE(ParseManifest(Slice(duplicated)).ok());
  // Unknown keywords, including the retired view overlay line.
  for (const char* extra :
       {"frobnicate 1\n", "view venice 3 scan(venice)\n"}) {
    EXPECT_FALSE(ParseManifest(Slice(text + extra)).ok()) << extra;
  }
}

TEST(ManifestTest, RejectsBadLiveOverlay) {
  // The live overlay is retired: live and publish lines are unknown
  // keywords, so every overlay is rejected, well-formed or not.
  std::string base = GenerateManifest(ManifestSample());
  EXPECT_FALSE(ParseManifest(Slice(base + "publish 0 100\n")).ok());
  EXPECT_FALSE(ParseManifest(Slice(base + "live 3 1\n")).ok());
  EXPECT_FALSE(
      ParseManifest(Slice(base + "live 1 0\npublish 0 100\n")).ok());
  std::string formerly_good =
      base + "live 3 1\npublish 0 100\npublish 1 200\npublish 2 300\n";
  EXPECT_FALSE(ParseManifest(Slice(formerly_good)).ok());
  EXPECT_FALSE(ParseManifest(Slice(formerly_good + "live 3 1\n")).ok());
  EXPECT_FALSE(ParseManifest(Slice(
      base + "live 3 1\npublish 1 100\npublish 0 100\npublish 2 100\n"))
          .ok());
  EXPECT_FALSE(ParseManifest(Slice(
      base + "live 3 0\npublish 0 -5\npublish 1 1\npublish 2 2\n"))
          .ok());
  EXPECT_FALSE(ParseManifest(Slice(
      base + "live 3 0\npublish 0 500\npublish 1 400\npublish 2 600\n"))
          .ok());
}

// -------------------------------------------------------------------- QoE

TEST(QoeTest, BandwidthSavings) {
  SessionStats baseline, candidate;
  baseline.bytes_sent = 1000;
  candidate.bytes_sent = 400;
  EXPECT_NEAR(BandwidthSavings(baseline, candidate), 0.6, 1e-9);
  baseline.bytes_sent = 0;
  EXPECT_EQ(BandwidthSavings(baseline, candidate), 0.0);
}

TEST(QoeTest, MeanBitrate) {
  SessionStats stats;
  stats.bytes_sent = 1'000'000;
  stats.duration_seconds = 10.0;
  EXPECT_NEAR(stats.MeanBitrateBps(), 800'000, 1e-6);
  stats.duration_seconds = 0;
  EXPECT_EQ(stats.MeanBitrateBps(), 0.0);
}

}  // namespace
}  // namespace vc
