// Heap allocations made by live ingest per segment.
//
// This binary replaces the global operator new and delete with counting
// versions, which is why it is a test binary of its own: the count covers
// every thread of this process and no other test's.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/env.h"
#include "core/visualcloud.h"
#include "image/scene.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocations{0};

void* Allocate(std::size_t size, std::size_t alignment) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* block = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    block = std::malloc(size);
  } else {
    block = std::aligned_alloc(alignment,
                               (size + alignment - 1) / alignment * alignment);
  }
  if (block == nullptr) throw std::bad_alloc();
  return block;
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size, 0); }
void* operator new[](std::size_t size) { return Allocate(size, 0); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return Allocate(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return Allocate(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}

namespace vc {
namespace {

/// Allocations per cell the bound allows: the cell's own bytes, and the
/// in-memory Env's copy of them, its file-map node and the node's path key.
constexpr uint64_t kPerCell = 4;
/// Allocations per segment the bound allows whatever its frame count: the
/// cell, rect and status lists, the pool queue's blocks (one per 16 queued
/// tasks, more when workers drain it as it fills), the cells that outgrow
/// their reservation (about 30 here) and the catalog's growth. A per-frame
/// allocation anywhere on the cell path would add 144 per frame.
constexpr uint64_t kPerSegment = 128;

/// Heap allocations, on every thread, made while one more segment of the
/// canonical layout (6×8 tiles, three rungs, 256×128) of `frames_per_segment`
/// frames is appended to a live session that has written one already.
uint64_t SecondSegmentAllocations(int frames_per_segment, int encode_threads) {
  std::unique_ptr<Env> env = NewMemEnv();
  VisualCloudOptions options;
  options.storage.env = env.get();
  options.storage.root = "/alloc";
  options.encode_threads = encode_threads;
  auto db = VisualCloud::Open(options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return ~uint64_t{0};

  SceneOptions scene_options;
  scene_options.width = 256;
  scene_options.height = 128;
  scene_options.fps = 15;
  auto scene = NewCoasterScene(scene_options);
  const std::vector<Frame> frames =
      RenderScene(*scene, 2 * frames_per_segment);
  const std::vector<Frame> first(frames.begin(),
                                 frames.begin() + frames_per_segment);
  const std::vector<Frame> second(frames.begin() + frames_per_segment,
                                  frames.end());

  IngestOptions ingest;
  ingest.tile_rows = 6;
  ingest.tile_cols = 8;
  ingest.frames_per_segment = frames_per_segment;
  ingest.fps = 15;
  auto session = (*db)->StartLiveIngest("clip", 256, 128, ingest);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return ~uint64_t{0};
  EXPECT_TRUE((*session)->AppendFrames(first).ok());

  allocations.store(0);
  counting.store(true);
  const Status appended = (*session)->AppendFrames(second);
  counting.store(false);
  EXPECT_TRUE(appended.ok()) << appended.ToString();
  EXPECT_EQ((*session)->segments_written(), 2);
  return allocations.load();
}

TEST(IngestAllocationTest, SegmentAllocationsDoNotGrowWithFrames) {
  constexpr uint64_t kCells = 6 * 8 * 3;
  for (int frames : {15, 30}) {
    for (int threads : {1, 4}) {
      const uint64_t count = SecondSegmentAllocations(frames, threads);
      std::printf("%d frames per segment, %d encode threads: %llu "
                  "allocations\n",
                  frames, threads, static_cast<unsigned long long>(count));
      EXPECT_LE(count, kPerCell * kCells + kPerSegment)
          << frames << " frames per segment, " << threads
          << " encode threads: " << count << " allocations";
    }
  }
}

}  // namespace
}  // namespace vc
