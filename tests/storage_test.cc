#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "codec/encoder.h"
#include "common/env.h"
#include "common/math_util.h"
#include "image/scene.h"
#include "obs/metrics.h"
#include "storage/cache.h"
#include "storage/cell_source.h"
#include "storage/metadata.h"
#include "storage/monolithic.h"
#include "storage/prefetcher.h"
#include "storage/shard_map.h"
#include "storage/sharded_store.h"
#include "storage/storage_manager.h"
#include "storage/tiered_cache.h"
#include "test_env.h"

namespace vc {
namespace {

// ------------------------------------------------------------------- Cache

std::shared_ptr<const std::vector<uint8_t>> Bytes(size_t n, uint8_t fill) {
  return std::make_shared<const std::vector<uint8_t>>(n, fill);
}

TEST(LruCacheTest, HitAndMiss) {
  LruCache cache(1024);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Put(1, Bytes(100, 1));
  auto v = cache.Get(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->size(), 100u);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bytes_cached, 100u);
  EXPECT_NEAR(stats.HitRate(), 0.5, 1e-9);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(250);
  cache.Put(1, Bytes(100, 1));
  cache.Put(2, Bytes(100, 2));
  EXPECT_NE(cache.Get(1), nullptr);  // refresh a
  cache.Put(3, Bytes(100, 3));       // evicts b
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, OversizedValueNotCached) {
  LruCache cache(50);
  cache.Put(5, Bytes(100, 1));
  EXPECT_EQ(cache.Get(5), nullptr);
  EXPECT_EQ(cache.stats().bytes_cached, 0u);
}

TEST(LruCacheTest, ReplaceUpdatesBytes) {
  LruCache cache(1000);
  cache.Put(4, Bytes(100, 1));
  cache.Put(4, Bytes(300, 2));
  EXPECT_EQ(cache.stats().bytes_cached, 300u);
  auto v = cache.Get(4);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ((*v)[0], 2);
}

TEST(LruCacheTest, ReplaceNearCapacityKeepsAccountingExact) {
  // Regression guard: replacing an existing key near capacity must account
  // bytes_cached exactly (old size out, new size in) and evict in strict
  // LRU order — never the just-replaced key.
  LruCache cache(300);
  cache.Put(1, Bytes(100, 1));
  cache.Put(2, Bytes(100, 2));
  cache.Put(1, Bytes(180, 3));  // grows a: 280 bytes, still under capacity
  EXPECT_EQ(cache.stats().bytes_cached, 280u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_NE(cache.Get(2), nullptr);

  // Replacing a again pushes the total over capacity; the LRU victim is a's
  // neighbour b (a was just touched), and the accounting lands exactly on
  // the new value's size.
  cache.Put(1, Bytes(250, 4));
  EXPECT_EQ(cache.stats().bytes_cached, 250u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Get(2), nullptr);
  auto v = cache.Get(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->size(), 250u);
  EXPECT_EQ((*v)[0], 4);

  // Shrinking replacement: bytes_cached falls, nothing evicted.
  cache.Put(1, Bytes(10, 5));
  EXPECT_EQ(cache.stats().bytes_cached, 10u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, GetOrComputeCachesAndServesHits) {
  LruCache cache(1024);
  int loads = 0;
  auto loader = [&loads]() -> Result<LruCache::Value> {
    ++loads;
    return Bytes(64, 7);
  };
  auto first = cache.GetOrCompute(4, loader);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(loads, 1);
  auto second = cache.GetOrCompute(4, loader);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(loads, 1) << "second call must be served from cache";
  EXPECT_EQ(*first, *second);  // same shared buffer
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(LruCacheTest, GetOrComputeErrorsAreNotCached) {
  LruCache cache(1024);
  int loads = 0;
  auto failing = [&loads]() -> Result<LruCache::Value> {
    ++loads;
    return Status::IOError("backing store down");
  };
  EXPECT_FALSE(cache.GetOrCompute(4, failing).ok());
  EXPECT_FALSE(cache.GetOrCompute(4, failing).ok());
  EXPECT_EQ(loads, 2) << "errors must not be cached";
  EXPECT_EQ(cache.stats().bytes_cached, 0u);
}

TEST(LruCacheTest, GetOrComputeSingleFlight) {
  // Thundering herd: many threads miss on one key at once; the loader must
  // run exactly once and every caller must receive the same buffer.
  LruCache cache(1 << 20);
  std::atomic<int> loads{0};
  std::atomic<int> in_loader{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<LruCache::Value> values(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto result = cache.GetOrCompute(
          8, [&]() -> Result<LruCache::Value> {
            in_loader.fetch_add(1);
            loads.fetch_add(1);
            // Hold the load open long enough for the herd to pile up.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            in_loader.fetch_sub(1);
            return Bytes(128, 9);
          });
      ASSERT_TRUE(result.ok());
      values[i] = *result;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(loads.load(), 1) << "concurrent misses must coalesce to one load";
  EXPECT_EQ(in_loader.load(), 0);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(values[i], values[0]) << "all callers share the loaded buffer";
  }
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kThreads));
  // Everyone but the winner either coalesced onto the flight or hit the
  // cache after the load landed.
  EXPECT_EQ(stats.coalesced + stats.hits + 1,
            static_cast<uint64_t>(kThreads));
}

TEST(LruCacheTest, EraseAndClear) {
  LruCache cache(1000);
  cache.Put(1, Bytes(10, 1));
  cache.Put(2, Bytes(10, 1));
  cache.Erase(1);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_EQ(cache.stats().bytes_cached, 0u);
}

// ------------------------------------------------------- Async cache loads

TEST(LruCacheAsyncTest, DemandLoadResolvesAndCaches) {
  LruCache cache(1 << 20);
  ThreadPool pool(2);
  auto loader = []() -> Result<LruCache::Value> { return Bytes(64, 7); };
  auto handle = cache.GetOrComputeAsync(4, loader, &pool, LoadKind::kDemand);
  ASSERT_TRUE(handle.valid());
  EXPECT_FALSE(handle.hit());
  auto value = handle.Wait();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ((*value)->size(), 64u);

  // Second request finds the value cached: already-resolved handle, no
  // second load dispatched.
  auto again = cache.GetOrComputeAsync(
      4,
      []() -> Result<LruCache::Value> {
        ADD_FAILURE() << "cached key must not reload";
        return Status::Internal("unexpected load");
      },
      &pool, LoadKind::kDemand);
  EXPECT_TRUE(again.hit());
  EXPECT_TRUE(again.ready());
  ASSERT_TRUE(again.Wait().ok());

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(LruCacheAsyncTest, NullPoolRunsInline) {
  LruCache cache(1 << 20);
  int loads = 0;
  auto handle = cache.GetOrComputeAsync(
      4,
      [&loads]() -> Result<LruCache::Value> {
        ++loads;
        return Bytes(32, 3);
      },
      /*pool=*/nullptr, LoadKind::kDemand);
  EXPECT_TRUE(handle.ready());
  EXPECT_EQ(loads, 1);
  ASSERT_TRUE(handle.Wait().ok());
  EXPECT_NE(cache.Get(4), nullptr);
}

TEST(LruCacheAsyncTest, PrefetchAttributionHitAndWasted) {
  LruCache cache(1 << 20);
  ThreadPool pool(2);
  auto loader = []() -> Result<LruCache::Value> { return Bytes(64, 1); };

  // A prefetch probe is invisible to demand statistics.
  ASSERT_TRUE(cache.GetOrComputeAsync(9, loader, &pool,
                                      LoadKind::kPrefetch)
                  .Wait()
                  .ok());
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);

  // Demand consumption of the prefetched value credits the prefetcher.
  bool was_hit = false;
  auto value = cache.GetOrCompute(
      9,
      []() -> Result<LruCache::Value> {
        ADD_FAILURE() << "prefetched key must not reload";
        return Status::Internal("unexpected load");
      },
      &was_hit);
  ASSERT_TRUE(value.ok());
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(cache.stats().prefetch_hits, 1u);

  // A prefetched value dropped without any demand touch is wasted work —
  // and the already-consumed one must not be double-counted.
  ASSERT_TRUE(cache.GetOrComputeAsync(10, loader, &pool,
                                      LoadKind::kPrefetch)
                  .Wait()
                  .ok());
  cache.Clear();
  stats = cache.stats();
  EXPECT_EQ(stats.prefetch_wasted, 1u);
  EXPECT_EQ(stats.prefetch_hits, 1u);
}

TEST(LruCacheAsyncTest, DemandCoalescesWithInflightPrefetch) {
  LruCache cache(1 << 20);
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  auto handle = cache.GetOrComputeAsync(
      4,
      [&]() -> Result<LruCache::Value> {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
        return Bytes(32, 5);
      },
      &pool, LoadKind::kPrefetch);

  // A demand read arriving while the prefetch is still loading must
  // coalesce onto it (crediting the prefetcher), not start a second load.
  std::thread demander([&cache] {
    auto value = cache.GetOrCompute(4, []() -> Result<LruCache::Value> {
      ADD_FAILURE() << "demand must coalesce with the in-flight prefetch";
      return Status::Internal("unexpected load");
    });
    EXPECT_TRUE(value.ok());
  });
  while (cache.stats().coalesced == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  demander.join();
  ASSERT_TRUE(handle.Wait().ok());

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.prefetch_hits, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.misses, 1u);  // the demand read missed, then waited
}

TEST(LruCacheAsyncTest, ErrorsResolveHandleAndAreNotCached) {
  LruCache cache(1 << 20);
  ThreadPool pool(2);
  auto handle = cache.GetOrComputeAsync(
      4,
      []() -> Result<LruCache::Value> {
        return Status::IOError("backing store down");
      },
      &pool, LoadKind::kDemand);
  EXPECT_TRUE(handle.Wait().status().IsIOError());

  // The failure poisoned nothing: the next load runs fresh and succeeds.
  auto retry =
      cache.GetOrCompute(4, []() -> Result<LruCache::Value> {
        return Bytes(64, 2);
      });
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(cache.stats().bytes_cached, 64u);
}

TEST(LruCacheAsyncTest, PoolShutdownResolvesHandles) {
  LruCache cache(1 << 20);
  ThreadPool pool(1);
  pool.Shutdown();
  auto handle = cache.GetOrComputeAsync(
      4, []() -> Result<LruCache::Value> { return Bytes(16, 1); }, &pool,
      LoadKind::kPrefetch);
  ASSERT_TRUE(handle.ready()) << "refused dispatch must resolve immediately";
  EXPECT_TRUE(handle.Wait().status().IsAborted());
  EXPECT_EQ(cache.stats().bytes_cached, 0u);

  // The key is not stuck in flight: a synchronous load still works.
  auto value = cache.GetOrCompute(
      4, []() -> Result<LruCache::Value> { return Bytes(16, 1); });
  EXPECT_TRUE(value.ok());
}

TEST(LruCacheAsyncTest, MixedDemandPrefetchHammer) {
  // Thread-sanitizer target: demand reads, prefetch probes, coalesced
  // waits, failing loaders, and cache clears all race over a small key
  // space. Every handle must resolve, values must match their key's
  // loader, and error loads must never land in the cache.
  LruCache cache(1 << 16);
  ThreadPool pool(4);
  constexpr int kKeys = 8;
  auto loader_for = [](int key) -> LruCache::Loader {
    if (key % 4 == 3) {
      return []() -> Result<LruCache::Value> {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        return Status::IOError("flaky backing store");
      };
    }
    return [key]() -> Result<LruCache::Value> {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      return Bytes(256, static_cast<uint8_t>(key));
    };
  };

  std::atomic<int> bad_values{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        int key = (t * 7 + i) % kKeys;
        PackedCellKey name = 900 + key;
        int op = (t + i) % 3;
        if (op == 0) {
          auto value = cache.GetOrCompute(name, loader_for(key));
          if (value.ok() && (**value)[0] != key) bad_values.fetch_add(1);
        } else if (op == 1) {
          auto handle = cache.GetOrComputeAsync(name, loader_for(key), &pool,
                                                LoadKind::kDemand);
          auto value = handle.Wait();
          if (value.ok() && (**value)[0] != key) bad_values.fetch_add(1);
        } else {
          // Fire-and-forget speculation, like the prefetcher's probes.
          cache.GetOrComputeAsync(name, loader_for(key), &pool,
                                  LoadKind::kPrefetch);
        }
        if (i % 64 == 63) cache.Clear();
        if (i % 97 == 96) cache.Erase(name);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  pool.WaitIdle();

  EXPECT_EQ(bad_values.load(), 0);
  for (int key = 3; key < kKeys; key += 4) {
    EXPECT_EQ(cache.Get(900 + key), nullptr)
        << "error loads must never be cached";
  }
  CacheStats stats = cache.stats();
  // Each issued prefetch ends as at most one of {hit, wasted}.
  EXPECT_LE(stats.prefetch_hits + stats.prefetch_wasted,
            stats.prefetch_issued);
}

// --------------------------------------------------------------- Metadata

VideoMetadata SampleMetadata() {
  VideoMetadata m;
  m.name = "venice";
  m.version = 2;
  m.width = 256;
  m.height = 128;
  m.fps_times_100 = 3000;
  m.frames_per_segment = 30;
  m.tile_rows = 2;
  m.tile_cols = 2;
  m.ladder = DefaultQualityLadder();
  m.segments = {{0, 30}, {30, 30}};
  m.cells.assign(2 * 4 * 3, CellInfo{100, 7});
  return m;
}

TEST(VideoMetadataTest, SerializeParseRoundTrip) {
  VideoMetadata m = SampleMetadata();
  auto bytes = m.Serialize();
  auto parsed = VideoMetadata::Parse(Slice(bytes));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->name, "venice");
  EXPECT_EQ(parsed->version, 2u);
  EXPECT_EQ(parsed->width, 256);
  EXPECT_EQ(parsed->tile_count(), 4);
  EXPECT_EQ(parsed->quality_count(), 3);
  EXPECT_EQ(parsed->segment_count(), 2);
  EXPECT_EQ(parsed->cells.size(), 24u);
  EXPECT_EQ(parsed->TotalBytes(), 2400u);
}

TEST(VideoMetadataTest, CellIndexLayout) {
  VideoMetadata m = SampleMetadata();
  // Segment-major, then tile, then quality.
  EXPECT_EQ(m.CellIndex(0, 0, 0), 0u);
  EXPECT_EQ(m.CellIndex(0, 0, 2), 2u);
  EXPECT_EQ(m.CellIndex(0, 1, 0), 3u);
  EXPECT_EQ(m.CellIndex(1, 0, 0), 12u);
  EXPECT_EQ(m.CellIndex(1, 3, 2), 23u);
}

TEST(VideoMetadataTest, ValidationCatchesInconsistencies) {
  VideoMetadata m = SampleMetadata();
  m.cells.pop_back();
  EXPECT_FALSE(m.Validate().ok());

  m = SampleMetadata();
  m.segments[1].start_frame = 31;  // gap
  EXPECT_FALSE(m.Validate().ok());

  m = SampleMetadata();
  m.name = "bad name!";
  EXPECT_FALSE(m.Validate().ok());

  m = SampleMetadata();
  m.ladder.clear();
  EXPECT_FALSE(m.Validate().ok());

  m = SampleMetadata();
  m.width = 100;  // not multiple of 16
  EXPECT_FALSE(m.Validate().ok());
}

TEST(VideoMetadataTest, SegmentBytesAtQuality) {
  VideoMetadata m = SampleMetadata();
  for (int tile = 0; tile < 4; ++tile) {
    m.cells[m.CellIndex(1, tile, 0)].byte_size = 1000;
  }
  EXPECT_EQ(m.SegmentBytesAtQuality(1, 0), 4000u);
  EXPECT_EQ(m.SegmentBytesAtQuality(0, 0), 400u);
}

// ---------------------------------------------------------- StorageManager

class StorageManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    StorageOptions options;
    options.env = env_.get();
    options.root = "/store";
    options.cache_capacity_bytes = 1 << 20;
    auto store = StorageManager::Open(options);
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }

  /// Stores a tiny synthetic video and returns its committed metadata.
  VideoMetadata StoreSample(const std::string& name, int segments = 2) {
    VideoMetadata layout;
    layout.name = name;
    layout.width = 64;
    layout.height = 32;
    layout.frames_per_segment = 4;
    layout.tile_rows = 1;
    layout.tile_cols = 2;
    layout.ladder = {{"high", 14}, {"low", 40}};
    auto writer = store_->NewVideoWriter(layout);
    EXPECT_TRUE(writer.ok());
    for (int s = 0; s < segments; ++s) {
      std::vector<std::vector<uint8_t>> cells;
      for (int i = 0; i < 4; ++i) {  // 2 tiles × 2 qualities
        cells.push_back(std::vector<uint8_t>(
            50 + 10 * s + i, static_cast<uint8_t>(s * 16 + i)));
      }
      EXPECT_TRUE((*writer)->AddSegment(4, cells).ok());
    }
    auto version = (*writer)->Commit();
    EXPECT_TRUE(version.ok());
    auto metadata = store_->GetVideoVersion(name, *version);
    EXPECT_TRUE(metadata.ok());
    return *metadata;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<StorageManager> store_;
};

TEST_F(StorageManagerTest, StoreAndList) {
  StoreSample("alpha");
  StoreSample("beta");
  auto videos = store_->ListVideos();
  ASSERT_TRUE(videos.ok());
  EXPECT_EQ(*videos, (std::vector<std::string>{"alpha", "beta"}));
}

TEST_F(StorageManagerTest, VersionsIncrease) {
  StoreSample("v");
  StoreSample("v");
  StoreSample("v");
  auto versions = store_->ListVersions("v");
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(*versions, (std::vector<uint32_t>{1, 2, 3}));
  auto latest = store_->GetVideo("v");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->version, 3u);
}

TEST(StorageCatalogTest, ListingErrorNeverReassignsVersionOne) {
  // Regression: every ListDir failure used to read as "no versions", so an
  // I/O error while listing an existing video made NewVideoWriter assign
  // version 1 again and rewrite committed v1 cells and metadata in place.
  // The version set is listed once, at Open: a listing error there must
  // fail the Open, never yield an empty catalog.
  std::unique_ptr<Env> mem = NewMemEnv();
  FailingListEnv env(mem.get());
  StorageOptions options;
  options.env = &env;
  options.root = "/store";
  options.cache_capacity_bytes = 0;  // every read below hits the files
  auto store = StorageManager::Open(options);
  ASSERT_TRUE(store.ok());
  VideoMetadata layout;
  layout.name = "video";
  layout.width = 64;
  layout.height = 32;
  layout.frames_per_segment = 4;
  layout.tile_rows = 1;
  layout.tile_cols = 2;
  layout.ladder = {{"high", 14}, {"low", 40}};
  auto first = (*store)->NewVideoWriter(layout);
  ASSERT_TRUE(first.ok());
  std::vector<std::vector<uint8_t>> cells;
  for (int i = 0; i < 4; ++i) cells.emplace_back(50 + i, uint8_t(i));
  ASSERT_TRUE((*first)->AddSegment(4, cells).ok());
  ASSERT_TRUE((*first)->Commit().ok());
  auto v1 = (*store)->GetVideoVersion("video", 1);
  ASSERT_TRUE(v1.ok());
  first->reset();
  store->reset();

  env.armed = true;
  auto failed = StorageManager::Open(options);
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  if (failed.ok()) {
    // The defect: an empty catalog hands out version 1 again, and the
    // writer overwrites it.
    env.armed = false;
    auto second = (*failed)->NewVideoWriter(layout);
    if (second.ok()) {
      std::vector<std::vector<uint8_t>> junk = cells;
      for (auto& cell : junk) cell.assign(cell.size() + 7, 0xee);
      (void)(*second)->AddSegment(4, junk);
      (void)(*second)->Commit();
    }
  }
  env.armed = false;

  auto reopened = StorageManager::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto next = (*reopened)->NewVideoWriter(layout);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*next)->metadata().version, 2u);
  auto reread = (*reopened)->GetVideoVersion("video", 1);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->Serialize(), v1->Serialize());
  for (int tile = 0; tile < v1->tile_count(); ++tile) {
    for (int quality = 0; quality < v1->quality_count(); ++quality) {
      auto cell = (*reopened)->ReadCell(*v1, 0, tile, quality);
      ASSERT_TRUE(cell.ok()) << cell.status().ToString();
      EXPECT_EQ(**cell, cells[tile * v1->quality_count() + quality]);
    }
  }
}

/// A 1x2-tile, two-rung layout for the catalog tests.
VideoMetadata CatalogLayout(const std::string& name) {
  VideoMetadata layout;
  layout.name = name;
  layout.width = 64;
  layout.height = 32;
  layout.frames_per_segment = 4;
  layout.tile_rows = 1;
  layout.tile_cols = 2;
  layout.ladder = {{"high", 14}, {"low", 40}};
  return layout;
}

/// One segment's cells for CatalogLayout, every byte `fill`.
std::vector<std::vector<uint8_t>> CatalogCells(uint8_t fill) {
  std::vector<std::vector<uint8_t>> cells;
  for (int i = 0; i < 4; ++i) cells.emplace_back(40 + i + fill % 8, fill);
  return cells;
}

/// Every committed version of `name` reads back as the metadata its writer
/// published, and its cells as the bytes that writer wrote.
void ExpectPublished(StorageManager* store, const std::string& name,
                     const std::map<uint32_t, VideoMetadata>& published,
                     const std::map<uint32_t, uint8_t>& fills) {
  auto versions = store->ListVersions(name);
  ASSERT_TRUE(versions.ok()) << versions.status().ToString();
  std::vector<uint32_t> expected;
  for (const auto& [version, metadata] : published) expected.push_back(version);
  EXPECT_EQ(*versions, expected);
  for (const auto& [version, metadata] : published) {
    SCOPED_TRACE("version " + std::to_string(version));
    auto stored = store->GetVideoVersion(name, version);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    EXPECT_EQ(stored->Serialize(), metadata.Serialize());
    const int last = stored->segment_count() - 1;
    for (int tile = 0; tile < stored->tile_count(); ++tile) {
      auto cell = store->ReadCell(*stored, last, tile, 0);
      ASSERT_TRUE(cell.ok()) << cell.status().ToString();
      EXPECT_EQ((**cell)[0], fills.at(version));
    }
  }
}

TEST(StorageCatalogTest, ConcurrentWritersNeverShareAVersion) {
  auto env = NewMemEnv();
  StorageOptions options;
  options.env = env.get();
  options.root = "/store";
  options.cache_capacity_bytes = 0;  // every read below hits the files
  auto store = StorageManager::Open(options);
  ASSERT_TRUE(store.ok());

  // A live writer publishes v1 and keeps going; an offline writer opened
  // meanwhile commits. The live writer's next checkpoint must not land on
  // the offline writer's version.
  std::map<uint32_t, VideoMetadata> published;
  std::map<uint32_t, uint8_t> fills;
  auto live = (*store)->NewVideoWriter(CatalogLayout("live"));
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE((*live)->AddSegment(4, CatalogCells(1)).ok());
  auto first = (*live)->CommitCheckpoint();
  ASSERT_TRUE(first.ok());
  published[*first] = (*live)->metadata();
  published[*first].version = *first;
  fills[*first] = 1;

  auto offline = (*store)->NewVideoWriter(CatalogLayout("live"));
  ASSERT_TRUE(offline.ok());
  ASSERT_TRUE((*offline)->AddSegment(4, CatalogCells(2)).ok());
  auto taken = (*offline)->Commit();
  ASSERT_TRUE(taken.ok());
  published[*taken] = (*offline)->metadata();
  fills[*taken] = 2;

  ASSERT_TRUE((*live)->AddSegment(4, CatalogCells(3)).ok());
  auto second = (*live)->CommitCheckpoint();
  ASSERT_TRUE(second.ok());
  EXPECT_NE(*second, *first);
  EXPECT_NE(*second, *taken);
  published[*second] = (*live)->metadata();
  published[*second].version = *second;
  fills[*second] = 3;
  EXPECT_EQ(published.size(), 3u);
  ExpectPublished(store->get(), "live", published, fills);

  // Two offline writers opened on a new name before either commits get
  // distinct versions and distinct cell directories.
  auto a = (*store)->NewVideoWriter(CatalogLayout("fresh"));
  auto b = (*store)->NewVideoWriter(CatalogLayout("fresh"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->metadata().version, (*b)->metadata().version);
  EXPECT_NE((*a)->metadata().DataDir(), (*b)->metadata().DataDir());
  ASSERT_TRUE((*a)->AddSegment(4, CatalogCells(4)).ok());
  ASSERT_TRUE((*b)->AddSegment(4, CatalogCells(5)).ok());
  // The later writer commits first.
  ASSERT_TRUE((*b)->Commit().ok());
  ASSERT_TRUE((*a)->Commit().ok());
  std::map<uint32_t, VideoMetadata> fresh = {
      {(*a)->metadata().version, (*a)->metadata()},
      {(*b)->metadata().version, (*b)->metadata()}};
  std::map<uint32_t, uint8_t> fresh_fills = {{(*a)->metadata().version, 4},
                                             {(*b)->metadata().version, 5}};
  ExpectPublished(store->get(), "fresh", fresh, fresh_fills);

  // The same holds for a store opened on the result.
  for (auto* writer : {&*live, &*offline, &*a, &*b}) writer->reset();
  store->reset();
  auto reopened = StorageManager::Open(options);
  ASSERT_TRUE(reopened.ok());
  ExpectPublished(reopened->get(), "live", published, fills);
  ExpectPublished(reopened->get(), "fresh", fresh, fresh_fills);
}

TEST(StorageCatalogTest, WriterMayBeDestroyedAfterItsStore) {
  // A view registration keeps a checkpointing writer open between
  // maintenance passes, so a store can go first. The writers' destructors
  // then give their reservations back to the version set they share with
  // the dead store (the ASan leg runs this suite).
  auto env = NewMemEnv();
  StorageOptions options;
  options.env = env.get();
  options.root = "/store";
  auto store = StorageManager::Open(options);
  ASSERT_TRUE(store.ok());
  auto live = (*store)->NewVideoWriter(CatalogLayout("live"));
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE((*live)->AddSegment(4, CatalogCells(1)).ok());
  auto checkpoint = (*live)->CommitCheckpoint();
  ASSERT_TRUE(checkpoint.ok());
  auto pending = (*store)->NewVideoWriter(CatalogLayout("pending"));
  ASSERT_TRUE(pending.ok());
  ASSERT_TRUE((*pending)->AddSegment(4, CatalogCells(2)).ok());

  store->reset();
  live->reset();
  pending->reset();

  auto reopened = StorageManager::Open(options);
  ASSERT_TRUE(reopened.ok());
  auto versions = (*reopened)->ListVersions("live");
  ASSERT_TRUE(versions.ok()) << versions.status().ToString();
  EXPECT_EQ(*versions, std::vector<uint32_t>{*checkpoint});
  EXPECT_TRUE((*reopened)->ListVersions("pending").status().IsNotFound());
}

TEST(StorageCatalogTest, FailedCommitLeavesTheSetUntouched) {
  auto mem = NewMemEnv();
  FailingMetadataWriteEnv env(mem.get());
  StorageOptions options;
  options.env = &env;
  options.root = "/store";
  auto store = StorageManager::Open(options);
  ASSERT_TRUE(store.ok());
  auto live = (*store)->NewVideoWriter(CatalogLayout("video"));
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE((*live)->AddSegment(4, CatalogCells(1)).ok());
  ASSERT_TRUE((*live)->CommitCheckpoint().ok());

  struct Snapshot {
    std::vector<std::string> videos;
    std::vector<uint32_t> versions;
    std::vector<uint8_t> latest;
  };
  auto snapshot = [](StorageManager* s) {
    Snapshot out;
    auto videos = s->ListVideos();
    auto versions = s->ListVersions("video");
    auto latest = s->GetVideo("video");
    EXPECT_TRUE(videos.ok() && versions.ok() && latest.ok());
    if (videos.ok()) out.videos = *videos;
    if (versions.ok()) out.versions = *versions;
    if (latest.ok()) out.latest = latest->Serialize();
    return out;
  };
  auto expect_same = [](const Snapshot& a, const Snapshot& b) {
    EXPECT_EQ(a.videos, b.videos);
    EXPECT_EQ(a.versions, b.versions);
    EXPECT_EQ(a.latest, b.latest);
  };
  const Snapshot before = snapshot(store->get());
  ASSERT_EQ(before.versions, std::vector<uint32_t>{1});

  env.armed = true;
  ASSERT_TRUE((*live)->AddSegment(4, CatalogCells(2)).ok());
  auto checkpoint = (*live)->CommitCheckpoint();
  EXPECT_TRUE(checkpoint.status().IsIOError()) << checkpoint.status().ToString();
  auto offline = (*store)->NewVideoWriter(CatalogLayout("video"));
  ASSERT_TRUE(offline.ok());
  ASSERT_TRUE((*offline)->AddSegment(4, CatalogCells(3)).ok());
  auto commit = (*offline)->Commit();
  EXPECT_TRUE(commit.status().IsIOError()) << commit.status().ToString();
  auto other = (*store)->NewVideoWriter(CatalogLayout("other"));
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE((*other)->AddSegment(4, CatalogCells(4)).ok());
  EXPECT_TRUE((*other)->Commit().status().IsIOError());

  expect_same(snapshot(store->get()), before);
  {
    auto reopened = StorageManager::Open(options);
    ASSERT_TRUE(reopened.ok());
    expect_same(snapshot(reopened->get()), before);
  }

  // Disarmed, the same writers commit.
  env.armed = false;
  checkpoint = (*live)->CommitCheckpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(*checkpoint, 2u);
  commit = (*offline)->Commit();
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(*commit, 3u);
  ASSERT_TRUE((*other)->Commit().ok());
  const Snapshot after = snapshot(store->get());
  EXPECT_EQ(after.versions, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(after.videos, (std::vector<std::string>{"other", "video"}));
  auto reopened = StorageManager::Open(options);
  ASSERT_TRUE(reopened.ok());
  expect_same(snapshot(reopened->get()), after);
}

TEST(StorageCatalogTest, OpenIgnoresNonCanonicalMetadataNames) {
  // The load at Open is where metadata file names are parsed: only the
  // names a commit writes list as versions.
  auto env = NewMemEnv();
  StorageOptions options;
  options.env = env.get();
  options.root = "/store";
  auto store = StorageManager::Open(options);
  ASSERT_TRUE(store.ok());
  auto writer = (*store)->NewVideoWriter(CatalogLayout("video"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AddSegment(4, CatalogCells(1)).ok());
  ASSERT_TRUE((*writer)->Commit().ok());
  for (const char* junk : {"metadata.v09.vcmf", "metadata.v4294967297.vcmf",
                           "metadata.v0.vcmf", "metadata.v2.vcmf.tmp",
                           "metadata.v-3.vcmf"}) {
    ASSERT_TRUE(
        env->WriteFile(std::string("/store/video/") + junk, Slice("x", 1))
            .ok());
  }
  ASSERT_TRUE(env->CreateDirs("/store/empty/v1").ok());
  auto reopened = StorageManager::Open(options);
  ASSERT_TRUE(reopened.ok());
  auto versions = (*reopened)->ListVersions("video");
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(*versions, std::vector<uint32_t>{1});
  auto videos = (*reopened)->ListVideos();
  ASSERT_TRUE(videos.ok());
  EXPECT_EQ(*videos, std::vector<std::string>{"video"});
  auto video = (*reopened)->GetVideo("video");
  ASSERT_TRUE(video.ok()) << video.status().ToString();
  EXPECT_EQ(video->Serialize(), (*writer)->metadata().Serialize());
  EXPECT_TRUE((*reopened)->ListVersions("empty").status().IsNotFound());
}

TEST_F(StorageManagerTest, NonCanonicalMetadataNamesAreIgnored) {
  // Regression: "metadata.v09.vcmf" listed as version 9 (GetVideo then
  // opened the missing metadata.v9.vcmf and the video failed to load), and
  // "metadata.v4294967297.vcmf" wrapped around to version 1.
  StoreSample("video", 1);
  VideoMetadata latest = StoreSample("video", 2);
  ASSERT_TRUE(
      env_->WriteFile("/store/video/metadata.v09.vcmf", Slice("x", 1)).ok());
  ASSERT_TRUE(env_->WriteFile("/store/video/metadata.v4294967297.vcmf",
                              Slice("x", 1))
                  .ok());
  auto versions = store_->ListVersions("video");
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(*versions, (std::vector<uint32_t>{1, 2}));
  auto video = store_->GetVideo("video");
  ASSERT_TRUE(video.ok()) << video.status().ToString();
  EXPECT_EQ(video->version, 2u);
  EXPECT_EQ(video->Serialize(), latest.Serialize());
}

TEST_F(StorageManagerTest, SnapshotIsolationAcrossVersions) {
  VideoMetadata v1 = StoreSample("video", 1);
  VideoMetadata v2 = StoreSample("video", 2);
  // The old version's cells remain readable after the new commit.
  auto old_cell = store_->ReadCell(v1, 0, 0, 0);
  ASSERT_TRUE(old_cell.ok());
  auto new_cell = store_->ReadCell(v2, 1, 0, 0);
  ASSERT_TRUE(new_cell.ok());
  EXPECT_EQ((*old_cell)->size(), 50u);
}

TEST_F(StorageManagerTest, ReadCellVerifiesChecksum) {
  VideoMetadata m = StoreSample("video", 1);
  // Corrupt the stored bytes behind the manager's back.
  std::string path =
      "/store/video/v1/" + m.CellFileName(0, 1, 1);
  auto bytes = env_->ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  auto corrupted = *bytes;
  corrupted[10] ^= 0xff;
  ASSERT_TRUE(env_->WriteFile(path, Slice(corrupted)).ok());
  auto cell = store_->ReadCell(m, 0, 1, 1);
  EXPECT_TRUE(cell.status().IsCorruption());
}

TEST_F(StorageManagerTest, ReadCellUsesCache) {
  VideoMetadata m = StoreSample("video", 1);
  ASSERT_TRUE(store_->ReadCell(m, 0, 0, 0).ok());
  ASSERT_TRUE(store_->ReadCell(m, 0, 0, 0).ok());
  CacheStats stats = store_->cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(StorageManagerTest, ReadCellRangeChecks) {
  VideoMetadata m = StoreSample("video", 1);
  EXPECT_TRUE(store_->ReadCell(m, 5, 0, 0).status().IsInvalidArgument());
  EXPECT_TRUE(store_->ReadCell(m, 0, 9, 0).status().IsInvalidArgument());
  EXPECT_TRUE(store_->ReadCell(m, 0, 0, 9).status().IsInvalidArgument());
}

TEST_F(StorageManagerTest, AsyncReadsMatchSyncReads) {
  VideoMetadata m = StoreSample("video", 2);

  // Reopen the same root with an I/O pool and a little simulated
  // backing-store latency, as a server would.
  StorageOptions options;
  options.env = env_.get();
  options.root = "/store";
  options.io_threads = 2;
  options.read_latency_seconds = 0.0005;
  auto async_store = StorageManager::Open(options);
  ASSERT_TRUE(async_store.ok());
  ASSERT_NE((*async_store)->io_pool(), nullptr);

  auto handle = (*async_store)->ReadCellAsync(m, 0, 1, 1);
  ASSERT_TRUE(handle.ok());
  auto async_value = handle->Wait();
  ASSERT_TRUE(async_value.ok());
  auto sync_value = store_->ReadCell(m, 0, 1, 1);
  ASSERT_TRUE(sync_value.ok());
  EXPECT_EQ(**async_value, **sync_value);

  // Coordinate validation happens before anything is dispatched.
  EXPECT_TRUE(
      (*async_store)->ReadCellAsync(m, 9, 0, 0).status().IsInvalidArgument());

  // A prefetch probe loads the cell without touching demand statistics.
  CacheStats before = (*async_store)->cache_stats();
  auto probe = (*async_store)->ReadCellAsync(m, 1, 0, 0, LoadKind::kPrefetch);
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(probe->Wait().ok());
  CacheStats after = (*async_store)->cache_stats();
  EXPECT_EQ(after.prefetch_issued, before.prefetch_issued + 1);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST_F(StorageManagerTest, ReadPlannedCellsLoadsEveryTile) {
  // CellSource's one ReadPlannedCells, through both topologies and both
  // I/O modes: tile-by-tile ReadCell without a pool, batched async handles
  // with one.
  VideoMetadata m = StoreSample("video", 2);
  std::vector<int> plan(m.tile_count(), 0);
  plan[1] = 1;

  // Corrupt segment 0's later tile behind every reader's back.
  std::string path = "/store/video/v1/" + m.CellFileName(0, 1, plan[1]);
  auto bytes = env_->ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[10] ^= 0xff;
  ASSERT_TRUE(env_->WriteFile(path, Slice(*bytes)).ok());

  for (bool sharded : {false, true}) {
    for (int io_threads : {0, 2}) {
      SCOPED_TRACE(std::string(sharded ? "ShardedStore::Node" :
                                         "StorageManager") +
                   " io_threads=" + std::to_string(io_threads));
      StorageOptions options;
      options.env = env_.get();
      options.root = "/store";
      options.io_threads = io_threads;
      std::unique_ptr<StorageManager> storage;
      std::unique_ptr<ShardedStore> store;
      std::unique_ptr<ShardedStore::Node> node;
      CellSource* source = nullptr;
      if (sharded) {
        ShardedStoreOptions store_options;
        store_options.backend = options;
        store_options.shards = 2;
        auto opened = ShardedStore::Open(store_options);
        ASSERT_TRUE(opened.ok());
        store = std::move(*opened);
        node = store->CreateNode(1 << 20);
        source = node.get();
      } else {
        auto opened = StorageManager::Open(options);
        ASSERT_TRUE(opened.ok());
        storage = std::move(*opened);
        source = storage.get();
      }

      ASSERT_TRUE(source->ReadPlannedCells(m, 1, plan).ok());
      EXPECT_EQ(source->cache_stats().misses, 2u);  // one cold load per tile

      // The batch warmed the cache: repeating it is all hits, and the cells
      // match what the synchronous path reads.
      ASSERT_TRUE(source->ReadPlannedCells(m, 1, plan).ok());
      EXPECT_EQ(source->cache_stats().hits, 2u);
      for (int tile = 0; tile < m.tile_count(); ++tile) {
        auto batched = source->ReadCell(m, 1, tile, plan[tile]);
        ASSERT_TRUE(batched.ok());
        auto direct = store_->ReadCell(m, 1, tile, plan[tile]);
        ASSERT_TRUE(direct.ok());
        EXPECT_EQ(**batched, **direct);
      }

      // A plan must cover every tile.
      EXPECT_TRUE(source->ReadPlannedCells(m, 1, {0}).IsInvalidArgument());

      // The corrupted later tile fails the read, but the earlier tile
      // still loaded: reading it again is a cache hit.
      Status corrupted = source->ReadPlannedCells(m, 0, plan);
      EXPECT_TRUE(corrupted.IsCorruption()) << corrupted.ToString();
      uint64_t hits = source->cache_stats().hits;
      ASSERT_TRUE(source->ReadCell(m, 0, 0, plan[0]).ok());
      EXPECT_EQ(source->cache_stats().hits, hits + 1);
    }
  }
}

TEST_F(StorageManagerTest, PrefetcherWarmsPredictedCells) {
  VideoMetadata m = StoreSample("video", 2);
  StorageOptions options;
  options.env = env_.get();
  options.root = "/store";
  options.io_threads = 2;
  auto store = StorageManager::Open(options);
  ASSERT_TRUE(store.ok());

  PredictivePrefetcher prefetcher(store->get(), PrefetchMode::kPredict);

  PrefetchHint hint;
  hint.valid = true;
  hint.segment = 0;
  hint.fov_yaw = 2 * kPi;  // whole panorama in view: every tile qualifies
  hint.fov_pitch = kPi;
  hint.high_quality = 0;
  prefetcher.EnqueueSegment(m, hint, /*popularity=*/nullptr,
                            /*deadline=*/10.0);
  // 2 viewport tiles at the high rung + 2 backfill tiles at the low rung.
  EXPECT_EQ(prefetcher.stats().enqueued, 4u);
  prefetcher.Pump(/*now=*/0.0);
  prefetcher.Drain();
  EXPECT_EQ(prefetcher.stats().dispatched, 4u);

  // The speculative loads landed: demand reads are now pure hits credited
  // to the prefetcher.
  CacheStats stats = (*store)->cache_stats();
  EXPECT_EQ(stats.prefetch_issued, 4u);
  ASSERT_TRUE((*store)->ReadCell(m, 0, 0, 0).ok());
  ASSERT_TRUE((*store)->ReadCell(m, 0, 1, 1).ok());
  stats = (*store)->cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.prefetch_hits, 2u);

  // Hints past their deadline are cancelled, not dispatched.
  hint.segment = 1;
  prefetcher.EnqueueSegment(m, hint, nullptr, /*deadline=*/1.0);
  prefetcher.Pump(/*now=*/2.0);
  EXPECT_EQ(prefetcher.stats().dispatched, 4u);
  EXPECT_EQ(prefetcher.stats().cancelled, 4u);
  prefetcher.Drain();
}

TEST_F(StorageManagerTest, DropRemovesVideo) {
  StoreSample("gone");
  ASSERT_TRUE(store_->DropVideo("gone").ok());
  EXPECT_TRUE(store_->GetVideo("gone").status().IsNotFound());
  EXPECT_TRUE(store_->DropVideo("gone").IsNotFound());
  auto videos = store_->ListVideos();
  ASSERT_TRUE(videos.ok());
  EXPECT_TRUE(videos->empty());
}

TEST_F(StorageManagerTest, UncommittedVersionInvisible) {
  VideoMetadata layout;
  layout.name = "wip";
  layout.width = 64;
  layout.height = 32;
  layout.frames_per_segment = 4;
  layout.ladder = {{"only", 30}};
  auto writer = store_->NewVideoWriter(layout);
  ASSERT_TRUE(writer.ok());
  std::vector<std::vector<uint8_t>> cells = {std::vector<uint8_t>(10, 1)};
  ASSERT_TRUE((*writer)->AddSegment(4, cells).ok());
  // Not committed: invisible.
  EXPECT_TRUE(store_->GetVideo("wip").status().IsNotFound());
  ASSERT_TRUE((*writer)->Commit().ok());
  EXPECT_TRUE(store_->GetVideo("wip").ok());
}

TEST_F(StorageManagerTest, WriterValidatesCellCount) {
  VideoMetadata layout;
  layout.name = "bad";
  layout.width = 64;
  layout.height = 32;
  layout.frames_per_segment = 4;
  layout.tile_cols = 2;
  layout.ladder = {{"only", 30}};
  auto writer = store_->NewVideoWriter(layout);
  ASSERT_TRUE(writer.ok());
  std::vector<std::vector<uint8_t>> too_few = {std::vector<uint8_t>(10, 1)};
  EXPECT_TRUE((*writer)->AddSegment(4, too_few).IsInvalidArgument());
}

TEST_F(StorageManagerTest, OpenValidatesOptions) {
  StorageOptions options;
  options.env = nullptr;
  options.root = "/x";
  EXPECT_FALSE(StorageManager::Open(options).ok());
  options.env = env_.get();
  options.root = "";
  EXPECT_FALSE(StorageManager::Open(options).ok());
}

// ---------------------------------------------------------- Monolithic/GOP

class MonolithicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    SceneOptions scene_options;
    scene_options.width = 64;
    scene_options.height = 32;
    auto scene = NewVeniceScene(scene_options);
    auto frames = RenderScene(*scene, 24);
    EncoderOptions options;
    options.width = 64;
    options.height = 32;
    options.gop_length = 8;
    options.qp = 30;
    auto video = EncodeVideo(frames, options);
    ASSERT_TRUE(video.ok());
    video_ = std::move(*video);
  }

  std::unique_ptr<Env> env_;
  EncodedVideo video_;
};

TEST_F(MonolithicTest, IndexCoversAllFrames) {
  auto index = WriteMonolithicStream(env_.get(), "/mono.vcc", video_);
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->entries.size(), 3u);  // 24 frames / 8-frame GOPs
  for (uint32_t f = 0; f < 24; ++f) {
    EXPECT_TRUE(index->Lookup(f).ok()) << "frame " << f;
  }
  EXPECT_TRUE(index->Lookup(24).status().IsNotFound());
}

TEST_F(MonolithicTest, IndexedReadMatchesLinearRead) {
  auto index = WriteMonolithicStream(env_.get(), "/mono.vcc", video_);
  ASSERT_TRUE(index.ok());
  auto indexed = ReadFrameRangeIndexed(env_.get(), "/mono.vcc", *index, 9, 12);
  auto linear = ReadFrameRangeLinear(env_.get(), "/mono.vcc", 9, 12);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(linear.ok());
  EXPECT_EQ(indexed->first_frame, 8u);
  EXPECT_EQ(linear->first_frame, 8u);
  ASSERT_EQ(indexed->frames.size(), linear->frames.size());
  for (size_t i = 0; i < indexed->frames.size(); ++i) {
    EXPECT_EQ(indexed->frames[i].payload, linear->frames[i].payload);
  }
}

TEST_F(MonolithicTest, IndexedReadTouchesFewerBytes) {
  auto index = WriteMonolithicStream(env_.get(), "/mono.vcc", video_);
  ASSERT_TRUE(index.ok());
  auto indexed = ReadFrameRangeIndexed(env_.get(), "/mono.vcc", *index, 20, 23);
  auto linear = ReadFrameRangeLinear(env_.get(), "/mono.vcc", 20, 23);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(linear.ok());
  EXPECT_LT(indexed->bytes_read, linear->bytes_read);
}

TEST(LruCacheTest, ConcurrentAccessIsSafe) {
  // Hammer one cache from several threads: no crashes, no lost entries
  // beyond capacity-driven eviction, consistent stats.
  LruCache cache(10'000);
  constexpr int kThreads = 4;
  constexpr int kOps = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        PackedCellKey key = 100 + (t * 7 + i) % 50;
        if (i % 3 == 0) {
          cache.Put(key, Bytes(100, static_cast<uint8_t>(i)));
        } else if (i % 7 == 0) {
          cache.Erase(key);
        } else {
          auto v = cache.Get(key);
          if (v) {
            // Values are immutable snapshots; size always intact.
            EXPECT_EQ(v->size(), 100u);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  CacheStats stats = cache.stats();
  EXPECT_LE(stats.bytes_cached, 10'000u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}


// ---------------------------------------------------- Sharding and tiering

TEST(ShardMapTest, DeterministicAndInRange) {
  ShardMap a(4), b(4);
  for (int i = 0; i < 1000; ++i) {
    std::string key = "cell" + std::to_string(i);
    int shard = a.ShardFor(key);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, b.ShardFor(key)) << "same config must map identically";
  }
  ShardMap one(1);
  EXPECT_EQ(one.ShardFor("anything"), 0);
}

TEST(ShardMapTest, SpreadsKeysAcrossShards) {
  constexpr int kShards = 8;
  ShardMap map(kShards);
  std::vector<int> counts(kShards, 0);
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    ++counts[map.ShardFor("video|dir|" + std::to_string(i))];
  }
  for (int shard = 0; shard < kShards; ++shard) {
    // Virtual nodes keep the split near uniform; allow a generous band.
    EXPECT_GT(counts[shard], kKeys / kShards / 3) << "shard " << shard;
    EXPECT_LT(counts[shard], kKeys / kShards * 3) << "shard " << shard;
  }
}

TEST(ShardMapTest, GrowingRemapsOnlyAFraction) {
  // The consistent-hash promise: adding a shard moves about 1/(N+1) of the
  // keys, not all of them — a scale-out keeps most of the L2 warm.
  ShardMap before(4), after(5);
  constexpr int kKeys = 20000;
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "video|dir|" + std::to_string(i);
    if (before.ShardFor(key) != after.ShardFor(key)) ++moved;
  }
  EXPECT_GT(moved, 0) << "the new shard must own something";
  EXPECT_LT(moved, kKeys / 2) << "growing 4->5 must not reshuffle the world";
}

TEST(LruCacheTest, OversizeRejectionCountsAndStillDeliversSync) {
  // Regression: a value larger than the whole cache used to be dropped
  // silently. It must be counted — and GetOrCompute must still hand the
  // loaded value to the caller even though it cannot be cached.
  LruCache cache(50);
  int loads = 0;
  auto loader = [&loads]() -> Result<LruCache::Value> {
    ++loads;
    return Bytes(100, 9);
  };
  auto value = cache.GetOrCompute(5, loader);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ((*value)->size(), 100u);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.rejected_oversize, 1u);
  EXPECT_EQ(stats.bytes_cached, 0u);

  // Not cached, so the demand path visibly re-loads (and re-counts).
  value = cache.GetOrCompute(5, loader);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(loads, 2);
  EXPECT_EQ(cache.stats().rejected_oversize, 2u);

  // Put() rejections count too.
  cache.Put(6, Bytes(200, 1));
  EXPECT_EQ(cache.stats().rejected_oversize, 3u);
}

TEST(LruCacheAsyncTest, OversizeRejectionStillDeliversToAsyncWaiters) {
  LruCache cache(50);
  ThreadPool pool(2);
  auto handle = cache.GetOrComputeAsync(
      5, []() -> Result<LruCache::Value> { return Bytes(100, 3); }, &pool,
      LoadKind::kDemand);
  auto value = handle.Wait();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ((*value)->size(), 100u);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.rejected_oversize, 1u);
  EXPECT_EQ(stats.bytes_cached, 0u);

  // An oversize *prefetch* is speculation that can never pay off from this
  // cache: it closes as wasted, keeping issued == hits + wasted honest.
  ASSERT_TRUE(cache
                  .GetOrComputeAsync(
                      7,
                      []() -> Result<LruCache::Value> { return Bytes(99, 1); },
                      &pool, LoadKind::kPrefetch)
                  .Wait()
                  .ok());
  stats = cache.stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.prefetch_wasted, 1u);
  EXPECT_EQ(stats.rejected_oversize, 2u);
}

TEST(LruCacheAsyncTest, FailedPrefetchCountsWasted) {
  LruCache cache(1 << 16);
  ThreadPool pool(1);
  ASSERT_FALSE(cache
                   .GetOrComputeAsync(
                       4,
                       []() -> Result<LruCache::Value> {
                         return Status::IOError("backing store down");
                       },
                       &pool, LoadKind::kPrefetch)
                   .Wait()
                   .ok());
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.prefetch_wasted, 1u);
  EXPECT_EQ(stats.prefetch_hits, 0u);
}

TEST(LruCacheAsyncTest, PutDisplacingPrefetchedEntryCountsWasted) {
  LruCache cache(1 << 16);
  // Null pool: the prefetch resolves inline, leaving a tagged entry.
  ASSERT_TRUE(cache
                  .GetOrComputeAsync(
                      4,
                      []() -> Result<LruCache::Value> { return Bytes(64, 1); },
                      nullptr, LoadKind::kPrefetch)
                  .Wait()
                  .ok());
  // A direct Put replaces the never-consumed speculation: wasted, once.
  cache.Put(4, Bytes(64, 2));
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetch_wasted, 1u);
  cache.Clear();
  EXPECT_EQ(cache.stats().prefetch_wasted, 1u) << "must not double-count";
  EXPECT_EQ(cache.stats().prefetch_issued, 1u);
}

TEST(LruCacheAsyncTest, PrefetchAttributionInvariantRandomized) {
  // Satellite audit: over a randomized mix of demand reads, prefetch
  // probes, failing loads, oversize values, erases, and clears, every
  // issued prefetch must end up as exactly one of {hit, wasted} once the
  // pipeline is drained and the cache cleared.
  std::mt19937 rng(20260808u);
  LruCache cache(2048);
  ThreadPool pool(3);
  constexpr int kKeys = 12;
  for (int i = 0; i < 4000; ++i) {
    int key = static_cast<int>(rng() % kKeys);
    PackedCellKey name = 900 + key;
    size_t size = key % 5 == 4 ? 4096 : 128 + (key * 37) % 512;  // some huge
    bool fail = key % 6 == 5;
    auto loader = [size, fail, key]() -> Result<LruCache::Value> {
      if (fail) return Status::IOError("flaky backing store");
      return Bytes(size, static_cast<uint8_t>(key));
    };
    switch (rng() % 6) {
      case 0:
        cache.GetOrCompute(name, loader);
        break;
      case 1:
        cache.GetOrComputeAsync(name, loader, &pool, LoadKind::kDemand);
        break;
      case 2:
      case 3:
        cache.GetOrComputeAsync(name, loader, &pool, LoadKind::kPrefetch);
        break;
      case 4:
        cache.Erase(name);
        break;
      default:
        if (rng() % 16 == 0) cache.Clear();
        break;
    }
  }
  pool.WaitIdle();
  cache.Clear();
  CacheStats stats = cache.stats();
  EXPECT_GT(stats.prefetch_issued, 0u);
  EXPECT_EQ(stats.prefetch_issued,
            stats.prefetch_hits + stats.prefetch_wasted);
}

TEST(TieredCacheTest, L1OverL2ServesAndAccountsBothTiers) {
  LruCache l2(1 << 20);
  TieredCache node_a(1 << 16, &l2);
  TieredCache node_b(1 << 16, &l2);
  int loads = 0;
  auto loader = [&loads]() -> Result<LruCache::Value> {
    ++loads;
    return Bytes(256, 7);
  };

  // Cold read on node A: misses both tiers, runs the loader once.
  bool was_hit = true;
  ASSERT_TRUE(node_a.GetOrCompute(11, loader, &was_hit).ok());
  EXPECT_FALSE(was_hit);
  EXPECT_EQ(loads, 1);

  // Warm on node A: pure L1 hit, the L2 is not consulted.
  ASSERT_TRUE(node_a.GetOrCompute(11, loader, &was_hit).ok());
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(node_a.l1_stats().hits, 1u);

  // Cold on node B: its private L1 misses, but the shared L2 has it — the
  // backend loader does not run again. Cross-node sharing via the L2.
  ASSERT_TRUE(node_b.GetOrCompute(11, loader, &was_hit).ok());
  EXPECT_FALSE(was_hit) << "hit means node-local L1";
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(node_b.l1_stats().misses, 1u);
  EXPECT_EQ(l2.stats().hits, 1u);
  EXPECT_EQ(l2.stats().misses, 1u);
}

TEST(TieredCacheTest, PromotionCreditsL2PrefetchNotWasted) {
  // Satellite audit target: a prefetch fills both tiers tagged; the demand
  // read consumes the L1 copy. Without the tier-promotion credit the L2
  // copy would stay tagged and its eventual eviction would count the same
  // (consumed!) speculation as wasted.
  LruCache l2(1 << 20);
  TieredCache node(1 << 16, &l2);
  auto handle = node.GetOrComputeAsync(
      11, []() -> Result<LruCache::Value> { return Bytes(128, 4); },
      /*pool=*/nullptr, LoadKind::kPrefetch);
  ASSERT_TRUE(handle.Wait().ok());
  EXPECT_EQ(node.l1_stats().prefetch_issued, 1u);
  EXPECT_EQ(l2.stats().prefetch_issued, 1u);

  bool was_hit = false;
  ASSERT_TRUE(node.GetOrCompute(
                      11,
                      []() -> Result<LruCache::Value> {
                        ADD_FAILURE() << "prefetched cell must not reload";
                        return Status::Internal("unexpected load");
                      },
                      &was_hit)
                  .ok());
  EXPECT_TRUE(was_hit);

  // Drop everything: neither tier may call the consumed speculation wasted.
  node.ClearL1();
  l2.Clear();
  EXPECT_EQ(node.l1_stats().prefetch_hits, 1u);
  EXPECT_EQ(node.l1_stats().prefetch_wasted, 0u);
  EXPECT_EQ(l2.stats().prefetch_hits, 1u);
  EXPECT_EQ(l2.stats().prefetch_wasted, 0u);
}

TEST_F(StorageManagerTest, ShardedStoreNodesShareL2AndMatchDirectReads) {
  VideoMetadata m = StoreSample("video", 2);

  ShardedStoreOptions options;
  options.backend.env = env_.get();
  options.backend.root = "/store";
  options.backend.io_threads = 2;
  options.shards = 3;
  options.l2_capacity_bytes = 1 << 20;
  auto store = ShardedStore::Open(options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->shard_count(), 3);

  auto node_a = (*store)->CreateNode(1 << 16);
  auto node_b = (*store)->CreateNode(1 << 16);

  // Every cell a node reads matches the direct single-store read.
  for (int segment = 0; segment < m.segment_count(); ++segment) {
    for (int tile = 0; tile < m.tile_count(); ++tile) {
      for (int quality = 0; quality < m.quality_count(); ++quality) {
        auto sharded = node_a->ReadCell(m, segment, tile, quality);
        ASSERT_TRUE(sharded.ok());
        auto direct = store_->ReadCell(m, segment, tile, quality);
        ASSERT_TRUE(direct.ok());
        EXPECT_EQ(**sharded, **direct);
      }
    }
  }

  // Node B reads one planned segment: its L1 is cold but node A warmed the
  // shared L2, so no backend read happens (L2 hits cover every tile).
  CacheStats l2_before = (*store)->l2_stats();
  std::vector<int> plan(m.tile_count(), 0);
  ASSERT_TRUE(node_b->ReadPlannedCells(m, 0, plan).ok());
  CacheStats l2_after = (*store)->l2_stats();
  EXPECT_EQ(l2_after.hits - l2_before.hits,
            static_cast<uint64_t>(m.tile_count()));
  EXPECT_EQ(l2_after.misses, l2_before.misses);
  EXPECT_EQ(node_b->cache_stats().misses,
            static_cast<uint64_t>(m.tile_count()));

  // Range validation still happens before any dispatch.
  EXPECT_TRUE(node_a->ReadCell(m, 9, 0, 0).status().IsInvalidArgument());
  EXPECT_TRUE(
      node_a->ReadCellAsync(m, 0, 9, 0).status().IsInvalidArgument());
}

// A CellSource that records dispatch order and resolves loads inline,
// for pinning the prefetcher's queue discipline.
class RecordingCellSource : public CellSource {
 public:
  Result<LruCache::Value> ReadCell(const VideoMetadata& metadata, int segment,
                                   int tile, int quality) override {
    loads.push_back(CellKey{segment, tile, quality});
    return Bytes(8, 0);
  }
  Result<LruCache::AsyncHandle> ReadCellAsync(const VideoMetadata& metadata,
                                              int segment, int tile,
                                              int quality,
                                              LoadKind kind) override {
    loads.push_back(CellKey{segment, tile, quality});
    return cache_.GetOrComputeAsync(
        CellKey{segment, tile, quality}.Packed(metadata),
        []() -> Result<LruCache::Value> { return Bytes(8, 0); },
        /*pool=*/nullptr, kind);
  }
  Status ReadPlannedCells(const VideoMetadata& metadata, int segment,
                          const std::vector<int>& tile_qualities) override {
    return Status::OK();
  }
  ThreadPool* io_pool() const override { return nullptr; }
  CacheStats cache_stats() const override { return cache_.stats(); }

  std::vector<CellKey> loads;

 private:
  LruCache cache_{0};  // uncached: every dispatch is observable
};

TEST_F(StorageManagerTest, PrefetcherDispatchesBestFirstIncludingLastElement) {
  VideoMetadata m = StoreSample("video", 1);

  // Teach the popularity model to love exactly one tile, so the two
  // viewport candidates get distinct scores and the dispatch order is
  // forced — regardless of the order they were enqueued in.
  PopularityModel popularity(m.tile_grid(), m.segment_duration_seconds(),
                             m.segment_count());
  popularity.Observe(0.05, Orientation{});
  popularity.EndViewer();
  std::vector<double> probs = popularity.TileProbabilities(0);
  ASSERT_EQ(probs.size(), 2u);
  int hot = probs[0] > probs[1] ? 0 : 1;
  int cold = 1 - hot;
  ASSERT_GT(probs[hot], probs[cold]);

  RecordingCellSource source;
  PredictivePrefetcher prefetcher(&source, PrefetchMode::kPredict);

  PrefetchHint hint;
  hint.valid = true;
  hint.segment = 0;
  hint.fov_yaw = 2 * kPi;  // whole panorama: both tiles are candidates
  hint.fov_pitch = kPi;
  hint.high_quality = 0;
  prefetcher.EnqueueSegment(m, hint, &popularity, /*deadline=*/10.0);
  ASSERT_EQ(prefetcher.stats().enqueued, 4u);  // 2 viewport + 2 backfill

  // Inline handles resolve immediately, so one Pump dispatches the whole
  // queue — including the selection where the best request is the last
  // element left (the old swap-with-back self-move spot).
  prefetcher.Pump(/*now=*/0.0);
  EXPECT_EQ(prefetcher.stats().dispatched, 4u);
  ASSERT_EQ(source.loads.size(), 4u);
  // Strictly score-descending: hot viewport tile, cold viewport tile, then
  // the backfill pair in the same popularity order.
  EXPECT_EQ(source.loads[0], (CellKey{0, hot, 0}));
  EXPECT_EQ(source.loads[1], (CellKey{0, cold, 0}));
  EXPECT_EQ(source.loads[2], (CellKey{0, hot, 1}));
  EXPECT_EQ(source.loads[3], (CellKey{0, cold, 1}));
  prefetcher.Drain();
}

TEST_F(StorageManagerTest, PrefetcherStaleCancelHandlesLastElement) {
  VideoMetadata m = StoreSample("video", 2);
  RecordingCellSource source;
  PredictivePrefetcher prefetcher(&source, PrefetchMode::kPredict);

  PrefetchHint hint;
  hint.valid = true;
  hint.segment = 0;
  hint.fov_yaw = 2 * kPi;
  hint.fov_pitch = kPi;
  hint.high_quality = 0;
  // Two batches with distinct deadlines; the stale sweep removes the first
  // batch, repeatedly compacting against the queue's back — including the
  // step where the victim *is* the back (the guarded self-move).
  prefetcher.EnqueueSegment(m, hint, nullptr, /*deadline=*/1.0);
  hint.segment = 1;
  prefetcher.EnqueueSegment(m, hint, nullptr, /*deadline=*/5.0);
  ASSERT_EQ(prefetcher.stats().enqueued, 8u);

  prefetcher.Pump(/*now=*/2.0);  // past batch 1's deadline, before batch 2's
  EXPECT_EQ(prefetcher.stats().cancelled, 4u);
  EXPECT_EQ(prefetcher.stats().dispatched, 4u);
  for (const CellKey& cell : source.loads) {
    EXPECT_EQ(cell.segment, 1) << "stale segment-0 requests must not load";
  }

  // Cancelling cleared the dedupe set: the same cells can be re-requested.
  hint.segment = 0;
  prefetcher.EnqueueSegment(m, hint, nullptr, /*deadline=*/5.0);
  EXPECT_EQ(prefetcher.stats().enqueued, 12u);
  prefetcher.Pump(/*now=*/3.0);
  EXPECT_EQ(prefetcher.stats().dispatched, 8u);
  prefetcher.Drain();
}

// ------------------------------------------------------- Live checkpoints

TEST_F(StorageManagerTest, CheckpointPublishesAndSharesDataDir) {
  VideoMetadata layout;
  layout.name = "live";
  layout.width = 64;
  layout.height = 32;
  layout.frames_per_segment = 4;
  layout.ladder = {{"only", 30}};
  auto writer = store_->NewVideoWriter(layout);
  ASSERT_TRUE(writer.ok());

  std::vector<std::vector<uint8_t>> cells = {std::vector<uint8_t>(20, 1)};
  ASSERT_TRUE((*writer)->AddSegment(4, cells).ok());
  auto v1 = (*writer)->CommitCheckpoint();
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1u);

  // Version 1 is visible, flagged streaming, and readable.
  auto m1 = store_->GetVideoVersion("live", 1);
  ASSERT_TRUE(m1.ok());
  EXPECT_TRUE(m1->streaming);
  EXPECT_EQ(m1->segment_count(), 1);
  EXPECT_TRUE(store_->ReadCell(*m1, 0, 0, 0).ok());

  // Append more and finish: version 2, same data dir, not streaming.
  cells[0] = std::vector<uint8_t>(30, 2);
  ASSERT_TRUE((*writer)->AddSegment(4, cells).ok());
  auto v2 = (*writer)->Commit();
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);
  auto m2 = store_->GetVideoVersion("live", 2);
  ASSERT_TRUE(m2.ok());
  EXPECT_FALSE(m2->streaming);
  EXPECT_EQ(m2->segment_count(), 2);
  EXPECT_EQ(m2->DataDir(), m1->DataDir()) << "checkpoints must share cells";

  // The old version still reads its snapshot; the new one reads both.
  EXPECT_TRUE(store_->ReadCell(*m1, 0, 0, 0).ok());
  EXPECT_TRUE(store_->ReadCell(*m2, 1, 0, 0).ok());
  // Segment 1 is not part of version 1's snapshot.
  EXPECT_TRUE(store_->ReadCell(*m1, 1, 0, 0).status().IsInvalidArgument());
}

TEST_F(StorageManagerTest, CheckpointRequiresASegment) {
  VideoMetadata layout;
  layout.name = "early";
  layout.width = 64;
  layout.height = 32;
  layout.frames_per_segment = 4;
  layout.ladder = {{"only", 30}};
  auto writer = store_->NewVideoWriter(layout);
  ASSERT_TRUE(writer.ok());
  // Zero segments fails metadata validation inside the checkpoint.
  EXPECT_FALSE((*writer)->CommitCheckpoint().ok());
}

TEST_F(StorageManagerTest, WriterUnusableAfterCommit) {
  VideoMetadata m = StoreSample("done", 1);
  (void)m;
  VideoMetadata layout;
  layout.name = "done2";
  layout.width = 64;
  layout.height = 32;
  layout.frames_per_segment = 4;
  layout.ladder = {{"only", 30}};
  auto writer = store_->NewVideoWriter(layout);
  std::vector<std::vector<uint8_t>> cells = {std::vector<uint8_t>(10, 1)};
  ASSERT_TRUE((*writer)->AddSegment(4, cells).ok());
  ASSERT_TRUE((*writer)->Commit().ok());
  EXPECT_TRUE((*writer)->AddSegment(4, cells).IsAborted());
  EXPECT_TRUE((*writer)->Commit().status().IsAborted());
  EXPECT_TRUE((*writer)->CommitCheckpoint().status().IsAborted());
}

TEST(VideoMetadataTest, DataDirDefaultsAndRoundTrips) {
  VideoMetadata m;
  m.version = 7;
  EXPECT_EQ(m.DataDir(), "v7");
  m.data_dir = "v3";
  EXPECT_EQ(m.DataDir(), "v3");
}

// ------------------------------------------------------------ Packed keys

TEST(PackedCellKeyTest, DistinctCoordinatesDistinctKeys) {
  VideoMetadata m = SampleMetadata();
  std::set<PackedCellKey> seen;
  for (int segment = 0; segment < m.segment_count(); ++segment) {
    for (int tile = 0; tile < m.tile_count(); ++tile) {
      for (int quality = 0; quality < m.quality_count(); ++quality) {
        PackedCellKey key = CellKey{segment, tile, quality}.Packed(m);
        EXPECT_TRUE(seen.insert(key).second)
            << CellKey{segment, tile, quality}.DebugString(m);
        // Stable: repacking the same coordinates gives the same key.
        EXPECT_EQ(key, (CellKey{segment, tile, quality}.Packed(m)));
      }
    }
  }
  // A different video never collides with this one's keys.
  VideoMetadata other = SampleMetadata();
  other.name = "rialto";
  EXPECT_EQ(seen.count(CellKey{0, 0, 0}.Packed(other)), 0u);
}

TEST(PackedCellKeyTest, KeyspaceSharedAcrossCheckpointVersions) {
  // Live checkpoints publish new versions over one data directory; their
  // cells are the same files, so their packed keys must coincide.
  VideoMetadata v1 = SampleMetadata();
  v1.data_dir = "v1";
  VideoMetadata v2 = v1;
  v2.version = 2;  // same data_dir
  EXPECT_EQ((CellKey{0, 1, 2}.Packed(v1)), (CellKey{0, 1, 2}.Packed(v2)));

  // Distinct data dirs are distinct keyspaces even under one name. (Built
  // fresh: copying carries the keyspace memo by design — identity fields
  // must not change after a metadata's cells are first addressed.)
  VideoMetadata forked = SampleMetadata();
  forked.data_dir = "v9";
  EXPECT_NE((CellKey{0, 1, 2}.Packed(v1)), (CellKey{0, 1, 2}.Packed(forked)));
}

TEST(PackedCellKeyTest, OverflowingCoordinatesUseExactEscapePath) {
  VideoMetadata m = SampleMetadata();
  m.name = "marathon";
  // A segment index past the 22-bit field cannot be packed positionally.
  CellKey huge{1 << 22, 0, 0};
  PackedCellKey escaped = huge.Packed(m);
  EXPECT_EQ(escaped, huge.Packed(m)) << "escape keys must be stable";
  EXPECT_NE(escaped, (CellKey{0, 0, 0}.Packed(m)));
  // Escape keys live below the fast-path range (keyspace bits all zero),
  // so the two regimes can never collide.
  EXPECT_EQ(escaped >> (64 - kPackedKeyspaceBits), 0u);
  EXPECT_NE((CellKey{0, 0, 0}.Packed(m)) >> (64 - kPackedKeyspaceBits), 0u);
  // Distinct overflowing coordinates stay distinct.
  EXPECT_NE(escaped, (CellKey{(1 << 22) + 1, 0, 0}.Packed(m)));
}

TEST(CellKeyHashTest, UnifiedIndexHashesOncePerHit) {
  // The point of collapsing the cache's dual string-keyed maps into one
  // integer-keyed slot table: a lookup — hit, coalesce, or miss-becomes-
  // loader — hashes the key exactly once.
  LruCache cache(1 << 16);
  cache.Put(42, Bytes(64, 1));

  uint64_t before = CellKeyHash::invocations.load();
  EXPECT_NE(cache.Get(42), nullptr);
  EXPECT_EQ(CellKeyHash::invocations.load() - before, 1u);

  before = CellKeyHash::invocations.load();
  auto hit = cache.GetOrCompute(42, []() -> Result<LruCache::Value> {
    ADD_FAILURE() << "cached key must not reload";
    return Status::Internal("unexpected");
  });
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(CellKeyHash::invocations.load() - before, 1u);

  // A miss hashes twice in total: the slot lookup and the completion that
  // publishes the loaded value back into the slot.
  before = CellKeyHash::invocations.load();
  auto miss = cache.GetOrCompute(
      43, []() -> Result<LruCache::Value> { return Bytes(64, 2); });
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(CellKeyHash::invocations.load() - before, 2u);
}

// ------------------------------------------------------- Prefetch churn

TEST_F(StorageManagerTest, PrefetcherDedupesRepeatHintsWithinTtl) {
  VideoMetadata m = StoreSample("video", 1);
  RecordingCellSource source;
  PredictivePrefetcher prefetcher(&source, PrefetchMode::kPredict);

  PrefetchHint hint;
  hint.valid = true;
  hint.segment = 0;
  hint.fov_yaw = 2 * kPi;
  hint.fov_pitch = kPi;
  hint.high_quality = 0;
  prefetcher.EnqueueSegment(m, hint, nullptr, /*deadline=*/10.0);
  uint64_t first = prefetcher.stats().enqueued;
  ASSERT_GT(first, 0u);

  // The same hint again (the 10k-viewer cohort case: many sessions aimed
  // at one segment) adds nothing — every cell is suppressed by the TTL.
  prefetcher.EnqueueSegment(m, hint, nullptr, /*deadline=*/10.0);
  EXPECT_EQ(prefetcher.stats().enqueued, first);
  EXPECT_EQ(prefetcher.stats().deduped, first);

  // Dispatch does not forget: within the TTL the hint stays suppressed
  // even though the queue is empty.
  prefetcher.Pump(/*now=*/0.5);
  EXPECT_EQ(prefetcher.stats().dispatched, first);
  prefetcher.EnqueueSegment(m, hint, nullptr, /*deadline=*/10.0);
  EXPECT_EQ(prefetcher.stats().enqueued, first);
  EXPECT_EQ(prefetcher.stats().deduped, 2 * first);

  // Past the 2 s TTL the same cells are fair game again.
  prefetcher.Pump(/*now=*/3.0);
  prefetcher.EnqueueSegment(m, hint, nullptr, /*deadline=*/10.0);
  EXPECT_EQ(prefetcher.stats().enqueued, 2 * first);
  prefetcher.Drain();
}

TEST_F(StorageManagerTest, PrefetcherSkipsHintsAlreadyPastDeadline) {
  VideoMetadata m = StoreSample("video", 1);
  RecordingCellSource source;
  PredictivePrefetcher prefetcher(&source, PrefetchMode::kPredict);

  PrefetchHint hint;
  hint.valid = true;
  hint.segment = 0;
  hint.fov_yaw = 2 * kPi;
  hint.fov_pitch = kPi;
  hint.high_quality = 0;

  // Time has moved past the deadline: enqueueing would only create work
  // for the stale sweep to cancel, so the hint is dropped at the door.
  prefetcher.Pump(/*now=*/5.0);
  prefetcher.EnqueueSegment(m, hint, nullptr, /*deadline=*/4.0);
  EXPECT_EQ(prefetcher.stats().enqueued, 0u);
  EXPECT_GT(prefetcher.stats().stale_skipped, 0u);
  EXPECT_EQ(prefetcher.stats().CancellationRatio(), 0.0);
  prefetcher.Drain();
  EXPECT_TRUE(source.loads.empty());
}

TEST(ShardMapTest, PackedOverloadDeterministicAndSpreads) {
  ShardMap a(8), b(8);
  std::vector<int> counts(8, 0);
  for (uint64_t i = 0; i < 20000; ++i) {
    PackedCellKey key = (i << 24) | (i * 2654435761u & 0xffffff);
    int shard = a.ShardFor(key);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 8);
    EXPECT_EQ(shard, b.ShardFor(key)) << "same config must map identically";
    ++counts[shard];
  }
  for (int shard = 0; shard < 8; ++shard) {
    EXPECT_GT(counts[shard], 20000 / 8 / 3) << "shard " << shard;
    EXPECT_LT(counts[shard], 20000 / 8 * 3) << "shard " << shard;
  }
  ShardMap one(1);
  EXPECT_EQ(one.ShardFor(PackedCellKey{12345}), 0);
}

// ------------------------------------------------- Planned-read hit runs

/// Forwards to MemEnv, logging every ReadFile path in order: the cold-read
/// sequence of a reader, which pins its miss and eviction order.
class ReadLogEnv : public ForwardingEnv {
 public:
  using ForwardingEnv::ForwardingEnv;

  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      reads_.push_back(path);
    }
    return ForwardingEnv::ReadFile(path);
  }

  std::vector<std::string> reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> reads_;
};

/// The process-wide counters a planned read moves.
struct ReadCounters {
  uint64_t cache_hits;
  uint64_t cell_reads;
  uint64_t cell_read_bytes;
  uint64_t read_seconds_count;

  static ReadCounters Now() {
    MetricRegistry& registry = MetricRegistry::Global();
    return ReadCounters{
        registry.GetCounter("cache.hits")->Value(),
        registry.GetCounter("storage.cell_reads")->Value(),
        registry.GetCounter("storage.cell_read_bytes")->Value(),
        registry.GetHistogram("storage.read_seconds")->Snapshot().count};
  }
  ReadCounters operator-(const ReadCounters& b) const {
    return ReadCounters{cache_hits - b.cache_hits, cell_reads - b.cell_reads,
                        cell_read_bytes - b.cell_read_bytes,
                        read_seconds_count - b.read_seconds_count};
  }
};

void ExpectSameStats(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.bytes_cached, b.bytes_cached);
  EXPECT_EQ(a.coalesced, b.coalesced);
  EXPECT_EQ(a.prefetch_issued, b.prefetch_issued);
  EXPECT_EQ(a.prefetch_hits, b.prefetch_hits);
  EXPECT_EQ(a.prefetch_wasted, b.prefetch_wasted);
}

/// Reads a planned segment the way ReadPlannedCells did before hit runs:
/// ReadCell tile by tile, stopping at the first error.
Status ReadCellByCell(CellSource* source, const VideoMetadata& metadata,
                      int segment, const std::vector<int>& plan) {
  for (int tile = 0; tile < metadata.tile_count(); ++tile) {
    auto cell = source->ReadCell(metadata, segment, tile, plan[tile]);
    if (!cell.ok()) return cell.status();
  }
  return Status::OK();
}

class PlannedReadTest : public ::testing::Test {
 protected:
  static constexpr int kSegments = 4;
  static constexpr int kQualities = 2;

  void SetUp() override {
    mem_ = NewMemEnv();
    env_ = std::make_unique<ReadLogEnv>(mem_.get());
    StorageOptions options;
    options.env = mem_.get();
    options.root = "/store";
    auto writer_store = StorageManager::Open(options);
    ASSERT_TRUE(writer_store.ok());
    VideoMetadata layout;
    layout.name = "video";
    layout.width = 96;
    layout.height = 64;
    layout.frames_per_segment = 4;
    layout.tile_rows = 2;
    layout.tile_cols = 3;
    layout.ladder = {{"high", 14}, {"low", 40}};
    auto writer = (*writer_store)->NewVideoWriter(layout);
    ASSERT_TRUE(writer.ok());
    for (int s = 0; s < kSegments; ++s) {
      std::vector<std::vector<uint8_t>> cells;
      for (int t = 0; t < layout.tile_count(); ++t) {
        for (int q = 0; q < kQualities; ++q) {
          cells.push_back(std::vector<uint8_t>(
              100 + (s * 37 + t * 11 + q * 53) % 90,
              static_cast<uint8_t>(s * 16 + t * 2 + q)));
        }
      }
      ASSERT_TRUE((*writer)->AddSegment(4, cells).ok());
    }
    auto version = (*writer)->Commit();
    ASSERT_TRUE(version.ok());
    auto metadata = (*writer_store)->GetVideoVersion("video", *version);
    ASSERT_TRUE(metadata.ok());
    metadata_ = *metadata;
  }

  StorageOptions ReaderOptions(size_t cache_bytes) const {
    StorageOptions options;
    options.env = env_.get();
    options.root = "/store";
    options.cache_capacity_bytes = cache_bytes;
    return options;
  }

  /// Bytes of every cell of the video.
  size_t WorkingSetBytes() const {
    size_t total = 0;
    for (const CellInfo& cell : metadata_.cells) total += cell.byte_size;
    return total;
  }

  std::unique_ptr<Env> mem_;
  std::unique_ptr<ReadLogEnv> env_;
  VideoMetadata metadata_;
};

TEST_F(PlannedReadTest, HitRunsMatchCellByCellReads) {
  // Drive a tight cache through a seeded mix of warm, cold and evicting
  // segments (plus a few synchronous prefetches) twice per topology: once
  // through ReadPlannedCells' hit runs, once through a per-tile ReadCell
  // loop. Statistics, process counters and the cold-read sequence (which
  // pins the eviction order) must agree exactly.
  const size_t tight = WorkingSetBytes() * 3 / 10;
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "ShardedStore::Node" : "StorageManager");
    struct Outcome {
      CacheStats nearest;
      CacheStats l2;
      ReadCounters counters{};
      std::vector<std::string> cold_reads;
    };
    Outcome outcomes[2];
    for (int batched = 0; batched < 2; ++batched) {
      std::unique_ptr<StorageManager> storage;
      std::unique_ptr<ShardedStore> store;
      std::unique_ptr<ShardedStore::Node> node;
      CellSource* source = nullptr;
      if (sharded) {
        ShardedStoreOptions options;
        options.backend = ReaderOptions(0);
        options.shards = 2;
        options.l2_capacity_bytes = tight * 2;
        auto opened = ShardedStore::Open(options);
        ASSERT_TRUE(opened.ok());
        store = std::move(*opened);
        node = store->CreateNode(tight);
        source = node.get();
      } else {
        auto opened = StorageManager::Open(ReaderOptions(tight));
        ASSERT_TRUE(opened.ok());
        storage = std::move(*opened);
        source = storage.get();
      }
      ASSERT_EQ(source->io_pool(), nullptr);
      const size_t log_start = env_->reads().size();
      const ReadCounters before = ReadCounters::Now();
      std::mt19937 rng(20171);
      for (int step = 0; step < 200; ++step) {
        // Mostly revisit segments 0-1 (warm runs), sometimes jump to 2-3
        // (cold tiles that evict).
        int segment = rng() % 10 < 7 ? rng() % 2 : 2 + rng() % 2;
        std::vector<int> plan(metadata_.tile_count());
        for (int& quality : plan) quality = rng() % 4 == 0 ? 1 : 0;
        if (step % 17 == 5) {
          int tile = rng() % metadata_.tile_count();
          auto handle = source->ReadCellAsync(metadata_, (segment + 1) % 4,
                                              tile, 0, LoadKind::kPrefetch);
          ASSERT_TRUE(handle.ok());
          ASSERT_TRUE(handle->Wait().ok());
        }
        Status status = batched
                            ? source->ReadPlannedCells(metadata_, segment, plan)
                            : ReadCellByCell(source, metadata_, segment, plan);
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
      Outcome& outcome = outcomes[batched];
      outcome.counters = ReadCounters::Now() - before;
      outcome.nearest = source->cache_stats();
      if (store != nullptr) outcome.l2 = store->l2_stats();
      std::vector<std::string> reads = env_->reads();
      outcome.cold_reads.assign(reads.begin() + log_start, reads.end());
    }
    const Outcome& per_tile = outcomes[0];
    const Outcome& runs = outcomes[1];
    // The workload really mixed hits, misses, evictions and prefetches.
    EXPECT_GT(per_tile.nearest.hits, 0u);
    EXPECT_GT(per_tile.nearest.misses, 0u);
    EXPECT_GT(per_tile.nearest.evictions, 0u);
    EXPECT_GT(per_tile.nearest.prefetch_hits, 0u);
    ExpectSameStats(runs.nearest, per_tile.nearest);
    ExpectSameStats(runs.l2, per_tile.l2);
    EXPECT_EQ(runs.counters.cache_hits, per_tile.counters.cache_hits);
    EXPECT_EQ(runs.counters.cell_reads, per_tile.counters.cell_reads);
    EXPECT_EQ(runs.counters.cell_reads, 200u * metadata_.tile_count());
    EXPECT_EQ(runs.counters.cell_read_bytes,
              per_tile.counters.cell_read_bytes);
    EXPECT_EQ(runs.cold_reads, per_tile.cold_reads);
    // Only misses of the nearest cache are timed.
    EXPECT_EQ(runs.counters.read_seconds_count,
              per_tile.counters.read_seconds_count);
    EXPECT_EQ(runs.counters.read_seconds_count, per_tile.nearest.misses);
  }
}

TEST_F(PlannedReadTest, WarmSegmentHashesOncePerTileAndIsNotTimed) {
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "ShardedStore::Node" : "StorageManager");
    std::unique_ptr<StorageManager> storage;
    std::unique_ptr<ShardedStore> store;
    std::unique_ptr<ShardedStore::Node> node;
    CellSource* source = nullptr;
    if (sharded) {
      ShardedStoreOptions options;
      options.backend = ReaderOptions(0);
      options.shards = 2;
      auto opened = ShardedStore::Open(options);
      ASSERT_TRUE(opened.ok());
      store = std::move(*opened);
      node = store->CreateNode(1 << 20);
      source = node.get();
    } else {
      auto opened = StorageManager::Open(ReaderOptions(1 << 20));
      ASSERT_TRUE(opened.ok());
      storage = std::move(*opened);
      source = storage.get();
    }
    std::vector<int> plan = {0, 1, 0, 1, 1, 0};
    ASSERT_TRUE(source->ReadPlannedCells(metadata_, 2, plan).ok());

    const uint64_t hashes = CellKeyHash::invocations.load();
    const ReadCounters before = ReadCounters::Now();
    ASSERT_TRUE(source->ReadPlannedCells(metadata_, 2, plan).ok());
    const ReadCounters delta = ReadCounters::Now() - before;
    EXPECT_EQ(CellKeyHash::invocations.load() - hashes,
              static_cast<uint64_t>(metadata_.tile_count()));
    EXPECT_EQ(delta.cache_hits, static_cast<uint64_t>(metadata_.tile_count()));
    EXPECT_EQ(delta.cell_reads, static_cast<uint64_t>(metadata_.tile_count()));
    uint64_t plan_bytes = 0;
    for (int tile = 0; tile < metadata_.tile_count(); ++tile) {
      plan_bytes += metadata_.cells[metadata_.CellIndex(2, tile, plan[tile])]
                        .byte_size;
    }
    EXPECT_EQ(delta.cell_read_bytes, plan_bytes);
    EXPECT_EQ(delta.read_seconds_count, 0u);  // hits are counted, not timed
    EXPECT_EQ(source->cache_stats().hits,
              static_cast<uint64_t>(metadata_.tile_count()));
  }
}

TEST_F(PlannedReadTest, PrefetchedL1EntryMidSegmentCreditsL2) {
  ShardedStoreOptions options;
  options.backend = ReaderOptions(0);
  options.shards = 2;
  auto store = ShardedStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto node = (*store)->CreateNode(1 << 20);
  std::vector<int> plan(metadata_.tile_count(), 0);
  const int middle = metadata_.tile_count() / 2;

  // The prefetch tags the middle tile in both tiers; the other tiles are
  // demand-read, so the next planned read is all L1 hits with one
  // prefetched entry in the middle of the run.
  auto prefetch = node->ReadCellAsync(metadata_, 1, middle, plan[middle],
                                      LoadKind::kPrefetch);
  ASSERT_TRUE(prefetch.ok());
  ASSERT_TRUE(prefetch->Wait().ok());
  for (int tile = 0; tile < metadata_.tile_count(); ++tile) {
    if (tile == middle) continue;
    ASSERT_TRUE(node->ReadCell(metadata_, 1, tile, 0).ok());
  }
  const CacheStats l1_before = node->cache_stats();
  const CacheStats l2_before = (*store)->l2_stats();
  EXPECT_EQ(l2_before.prefetch_issued, 1u);
  EXPECT_EQ(l2_before.prefetch_hits, 0u);

  ASSERT_TRUE(node->ReadPlannedCells(metadata_, 1, plan).ok());
  const CacheStats l1 = node->cache_stats();
  const CacheStats l2 = (*store)->l2_stats();
  EXPECT_EQ(l1.hits - l1_before.hits,
            static_cast<uint64_t>(metadata_.tile_count()));
  EXPECT_EQ(l1.misses, l1_before.misses);
  EXPECT_EQ(l1.prefetch_hits, l1_before.prefetch_hits + 1);
  // The L1 consumption was credited to the L2 copy, without a demand hit
  // there.
  EXPECT_EQ(l2.prefetch_hits, 1u);
  EXPECT_EQ(l2.hits, l2_before.hits);
}

TEST_F(PlannedReadTest, CorruptTileStopsTheSegment) {
  const int corrupt = 3;
  std::vector<int> plan(metadata_.tile_count(), 1);
  std::string path =
      "/store/video/v1/" + metadata_.CellFileName(0, corrupt, plan[corrupt]);
  auto bytes = mem_->ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[7] ^= 0x5a;
  ASSERT_TRUE(mem_->WriteFile(path, Slice(*bytes)).ok());

  auto store = StorageManager::Open(ReaderOptions(1 << 20));
  ASSERT_TRUE(store.ok());
  // Warm the first tile so the segment starts with a hit run.
  ASSERT_TRUE((*store)->ReadCell(metadata_, 0, 0, plan[0]).ok());

  const size_t log_start = env_->reads().size();
  const ReadCounters before = ReadCounters::Now();
  Status status = (*store)->ReadPlannedCells(metadata_, 0, plan);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_EQ((ReadCounters::Now() - before).cell_reads,
            static_cast<uint64_t>(corrupt + 1));
  // Tiles 1..corrupt were read from the store, nothing after them.
  std::vector<std::string> reads = env_->reads();
  std::vector<std::string> cold(reads.begin() + log_start, reads.end());
  ASSERT_EQ(cold.size(), static_cast<size_t>(corrupt));
  for (int tile = 1; tile <= corrupt; ++tile) {
    EXPECT_EQ(cold[tile - 1],
              "/store/video/v1/" + metadata_.CellFileName(0, tile, plan[tile]));
  }
  // The tiles before the corrupt one are cached.
  const uint64_t hits = (*store)->cache_stats().hits;
  for (int tile = 0; tile < corrupt; ++tile) {
    ASSERT_TRUE((*store)->ReadCell(metadata_, 0, tile, plan[tile]).ok());
  }
  EXPECT_EQ((*store)->cache_stats().hits, hits + corrupt);

  // An out-of-range quality ends a hit run the same way: ReadCell reports
  // it, in tile order.
  std::vector<int> bad = plan;
  bad[1] = kQualities;
  EXPECT_TRUE(
      (*store)->ReadPlannedCells(metadata_, 0, bad).IsInvalidArgument());
}

TEST_F(PlannedReadTest, ConcurrentPlannedReadsOverAHalfSizeCache) {
  // Run under TSan (scripts/ci.sh tsan): eight readers share one store
  // whose cache holds about half the working set, so hit runs, misses,
  // coalesced loads and evictions interleave under the one cache lock.
  auto store = StorageManager::Open(ReaderOptions(WorkingSetBytes() / 2));
  ASSERT_TRUE(store.ok());
  constexpr int kThreads = 8;
  constexpr int kSegmentsPerThread = 150;
  std::atomic<int> failures{0};
  const CacheStats before = (*store)->cache_stats();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(1000 + t);
      std::vector<int> plan(metadata_.tile_count());
      for (int i = 0; i < kSegmentsPerThread; ++i) {
        for (int& quality : plan) quality = rng() % kQualities;
        if (!(*store)->ReadPlannedCells(metadata_, rng() % kSegments, plan)
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const CacheStats after = (*store)->cache_stats();
  EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses),
            static_cast<uint64_t>(kThreads) * kSegmentsPerThread *
                metadata_.tile_count());
  EXPECT_GT(after.hits, before.hits);
  EXPECT_GT(after.evictions, before.evictions);
}

TEST_F(MonolithicTest, RangeValidation) {
  auto index = WriteMonolithicStream(env_.get(), "/mono.vcc", video_);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(ReadFrameRangeIndexed(env_.get(), "/mono.vcc", *index, 5, 2).ok());
  EXPECT_FALSE(
      ReadFrameRangeIndexed(env_.get(), "/mono.vcc", *index, 0, 99).ok());
  EXPECT_FALSE(ReadFrameRangeLinear(env_.get(), "/mono.vcc", 0, 99).ok());
}

}  // namespace
}  // namespace vc
