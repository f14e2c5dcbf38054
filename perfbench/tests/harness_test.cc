// Tests of the benchmark's own code: the percentile statistics, the
// host-speed calibration and the seam decorators, which must pass every
// byte through unchanged.
//
//   cmake -S perfbench -B .bench_build
//   cmake --build .bench_build --target perfbench_tests
//   ctest --test-dir .bench_build

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "calibration.h"
#include "common/env.h"
#include "core/visualcloud.h"
#include "decorators.h"
#include "harness.h"
#include "image/scene.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesLinearlyBetweenRanks) {
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3}), 3.0);  // input order does not matter
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_NEAR(Percentile(hundred, 0.95), 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(Percentile(hundred, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(hundred, 1.0), 100.0);
}

TEST(PercentileTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.95), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({2, 2, 2}, 0.95), 2.0);
}

TEST(PercentileTest, CountsSamplesBeyondAPercentile) {
  std::vector<double> values;
  for (int i = 1; i <= 200; ++i) values.push_back(i);
  // p95 of 1..200 is 190.05: ten samples lie beyond it.
  EXPECT_EQ(CountAbove(values, 0.95), 10u);
  EXPECT_EQ(CountAbove({5, 5, 5}, 0.5), 0u);
}

TEST(CalibrationTest, LocalMediansUseAClippedWindow) {
  const std::vector<double> times = {1, 9, 2, 3, 100, 4, 5};
  // half window 1: medians of {1,9}, {1,9,2}, {9,2,3}, {2,3,100}, ...
  EXPECT_EQ(LocalMedians(times, 1),
            (std::vector<double>{5, 2, 3, 3, 4, 5, 4.5}));
  // half window 0 leaves every value as it is; a long window takes the
  // median of everything in reach, so one outlier does not move it.
  EXPECT_EQ(LocalMedians(times, 0), times);
  EXPECT_EQ(LocalMedians(times, 10), std::vector<double>(7, 4.0));
  EXPECT_TRUE(LocalMedians({}, 4).empty());
}

TEST(CalibrationTest, ReferenceKernelTakesMeasurableTime) {
  const double once = RunReferenceKernelMs();
  EXPECT_GT(once, 0.0);
  EXPECT_LT(once, 1000.0);
}

TEST(CalibrationTest, SamplerRunsTheKernelUntilStopped) {
  KernelSampler sampler(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const double median = sampler.StopMedianMs();
  EXPECT_GT(median, 0.0);
  EXPECT_EQ(sampler.StopMedianMs(), median);  // stopping twice is harmless
}

TEST(CalibrationTest, StolenShareOfBusyTime) {
  const CpuTicks from{100, 10};
  EXPECT_DOUBLE_EQ(StolenShare(from, {190, 20}), 0.1);  // 10 of 90 + 10
  EXPECT_DOUBLE_EQ(StolenShare(from, from), 0.0);       // nothing ran
  EXPECT_DOUBLE_EQ(StolenShare({}, {}), 0.0);           // unreadable
}

TEST(CountingEnvTest, PassesBytesThroughAndCountsThem) {
  CountingEnv env(vc::NewMemEnv());
  const std::string payload = "cell bytes \x01\x02\x03";
  const std::string meta = "metadata";
  ASSERT_TRUE(env.CreateDirs("/store/video/v1").ok());
  ASSERT_TRUE(env.WriteFile("/store/video/v1/s0.vcc", vc::Slice(payload)).ok());
  ASSERT_TRUE(
      env.WriteFile("/store/video/metadata.v1.vcmf", vc::Slice(meta)).ok());
  ASSERT_TRUE(env.AppendFile("/store/video/v1/s0.vcc", vc::Slice(meta)).ok());

  auto whole = env.ReadFile("/store/video/v1/s0.vcc");
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(std::string(whole->begin(), whole->end()), payload + meta);
  auto range = env.ReadFileRange("/store/video/v1/s0.vcc", 5, 5);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(std::string(range->begin(), range->end()), payload.substr(5, 5));
  EXPECT_FALSE(env.ReadFile("/store/missing").ok());  // errors pass through

  auto size = env.FileSize("/store/video/v1/s0.vcc");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, payload.size() + meta.size());
  EXPECT_TRUE(env.FileExists("/store/video/metadata.v1.vcmf"));
  auto listing = env.ListDir("/store/video");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 2u);

  const EnvTotals totals = env.totals();
  EXPECT_EQ(totals.writes, 3u);
  EXPECT_EQ(totals.write_bytes, payload.size() + 2 * meta.size());
  EXPECT_EQ(totals.metadata_writes, 1u);
  EXPECT_EQ(totals.metadata_bytes, meta.size());
  EXPECT_EQ(totals.reads, 3u);
  EXPECT_EQ(totals.read_bytes, payload.size() + meta.size() + 5);
  EXPECT_EQ(totals.write_ns, 0);  // timing only while tracing
}

class CellSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = vc::NewMemEnv();
    vc::VisualCloudOptions options;
    options.storage.env = env_.get();
    options.storage.root = "/db";
    options.encode_threads = 1;
    db_ = std::move(*vc::VisualCloud::Open(options));
    vc::SceneOptions scene_options;
    scene_options.width = 64;
    scene_options.height = 32;
    scene_options.fps = 4;
    auto scene = vc::MakeScene("venice", scene_options);
    ASSERT_TRUE(scene.ok());
    vc::IngestOptions ingest;
    ingest.tile_rows = 2;
    ingest.tile_cols = 2;
    ingest.frames_per_segment = 4;
    ingest.fps = 4;
    ASSERT_TRUE(db_->IngestScene("clip", **scene, 8, ingest).ok());
    metadata_ = *db_->Describe("clip");
  }

  std::unique_ptr<vc::Env> env_;
  std::unique_ptr<vc::VisualCloud> db_;
  vc::VideoMetadata metadata_;
};

TEST_F(CellSourceTest, DecoratorReturnsTheStoredBytes) {
  vc::StorageManager* storage = db_->storage();
  CountingCellSource source(storage);
  for (int s = 0; s < metadata_.segment_count(); ++s) {
    for (int t = 0; t < metadata_.tile_count(); ++t) {
      for (int q = 0; q < metadata_.quality_count(); ++q) {
        auto direct = storage->CellLoader(metadata_, s, t, q)();
        auto via = source.ReadCell(metadata_, s, t, q);
        ASSERT_TRUE(direct.ok());
        ASSERT_TRUE(via.ok());
        EXPECT_EQ(**direct, **via);
        auto async = source.ReadCellAsync(metadata_, s, t, q,
                                          vc::LoadKind::kDemand);
        ASSERT_TRUE(async.ok());
        auto waited = async->Wait();
        ASSERT_TRUE(waited.ok());
        EXPECT_EQ(**waited, **direct);
      }
    }
  }
  const int cells = metadata_.segment_count() * metadata_.tile_count() *
                    metadata_.quality_count();
  std::vector<int> plan(metadata_.tile_count(), 0);
  EXPECT_TRUE(source.ReadPlannedCells(metadata_, 0, plan).ok());
  EXPECT_FALSE(source.ReadCell(metadata_, 99, 0, 0).ok());

  const CellSourceTotals totals = source.totals();
  EXPECT_EQ(totals.calls, static_cast<uint64_t>(2 * cells + 2));
  EXPECT_EQ(totals.cells,
            static_cast<uint64_t>(2 * cells + metadata_.tile_count() + 1));
  EXPECT_EQ(source.io_pool(), storage->io_pool());
  EXPECT_EQ(source.cache_stats().hits, storage->cache_stats().hits);
}

TEST_F(CellSourceTest, ObserverDecoratorForwardsCommits) {
  struct Recorder : vc::CatalogObserver {
    void OnCommit(const std::string& name, uint32_t version,
                  bool final) override {
      seen.push_back(name + "@" + std::to_string(version) +
                     (final ? "!" : ""));
    }
    std::vector<std::string> seen;
  } inner;
  CountingObserver observer(&inner);
  db_->AddObserver(&observer);
  vc::LiveIngestOptions live;
  live.ingest.tile_rows = 2;
  live.ingest.tile_cols = 2;
  live.ingest.frames_per_segment = 4;
  live.ingest.fps = 4;
  live.publish_segments = true;
  auto session = db_->StartLiveIngest("live", 64, 32, live);
  ASSERT_TRUE(session.ok());
  vc::SceneOptions scene_options;
  scene_options.width = 64;
  scene_options.height = 32;
  auto scene = vc::MakeScene("coaster", scene_options);
  ASSERT_TRUE(scene.ok());
  ASSERT_TRUE(
      (*session)->AppendFrames(vc::RenderScene(**scene, 8)).ok());
  ASSERT_TRUE((*session)->Close().ok());
  db_->RemoveObserver(&observer);

  EXPECT_EQ(observer.commits(), 3u);  // two checkpoints + the archive
  EXPECT_EQ(observer.final_commits(), 1u);
  EXPECT_EQ(inner.seen,
            (std::vector<std::string>{"live@1", "live@2", "live@3!"}));
}

TEST(TracerTest, LinksSpansToTheirRequestAndParent) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable(true);
  tracer.BeginRequest(7, "request");
  {
    ScopedSpan outer("outer");
    ScopedSpan inner("inner");
  }
  std::thread pool_thread([] { ScopedSpan worker("worker"); });
  pool_thread.join();
  tracer.EndRequest();
  tracer.Enable(false);
  { ScopedSpan ignored("disabled"); }

  std::vector<Span> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 4u);  // inner, outer, worker, request
  const Span& inner = spans[0];
  const Span& outer = spans[1];
  const Span& worker = spans[2];
  const Span& root = spans[3];
  EXPECT_STREQ(root.name, "request");
  EXPECT_EQ(root.parent, 0u);
  EXPECT_EQ(outer.parent, root.id);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(worker.parent, root.id);  // pool threads attach to the request
  for (const Span& span : spans) {
    EXPECT_EQ(span.request, 7u);
    EXPECT_LE(span.start_ns, span.end_ns);
  }
  EXPECT_NE(worker.thread, outer.thread);

  const std::string path = ::testing::TempDir() + "/perfbench_trace.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path));
  std::ifstream file(path);
  std::stringstream text;
  text << file.rdbuf();
  EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.str().find("\"name\": \"worker\""), std::string::npos);
  std::remove(path.c_str());
  tracer.Clear();
}

}  // namespace
}  // namespace perfbench
