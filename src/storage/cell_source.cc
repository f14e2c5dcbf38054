#include "storage/cell_source.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "storage/cell_key.h"

namespace vc {

const CellReadMetrics& CellReadMetrics::Get() {
  static const CellReadMetrics metrics = [] {
    MetricRegistry& registry = MetricRegistry::Global();
    return CellReadMetrics{registry.GetCounter("storage.cell_reads"),
                           registry.GetCounter("storage.cell_read_bytes"),
                           registry.GetHistogram("storage.read_seconds")};
  }();
  return metrics;
}

void CellReadMetrics::Record(const Result<LruCache::Value>& value,
                             double miss_seconds) const {
  if (miss_seconds >= 0) read_seconds->Observe(miss_seconds);
  if (value.ok()) read_bytes->Add((*value)->size());
}

Result<LruCache::Value> CellSource::ReadCell(const VideoMetadata& metadata,
                                             int segment, int tile,
                                             int quality) {
  Stopwatch stopwatch;
  Result<LruCache::AsyncHandle> handle =
      ReadCellAsync(metadata, segment, tile, quality, LoadKind::kDemand);
  if (!handle.ok()) return handle.status();
  Result<LruCache::Value> value = handle->Wait();
  CellReadMetrics::Get().Record(
      value, handle->hit() ? -1.0 : stopwatch.ElapsedSeconds());
  return value;
}

Status CellSource::ReadPlannedCells(const VideoMetadata& metadata,
                                    int segment,
                                    const std::vector<int>& tile_qualities) {
  if (static_cast<int>(tile_qualities.size()) != metadata.tile_count()) {
    return Status::InvalidArgument("one quality per tile required");
  }
  const CellReadMetrics& metrics = CellReadMetrics::Get();
  const int tiles = metadata.tile_count();
  LruCache* cache = nearest_cache();
  // With an I/O pool every load joins `pending`, whether or not it has
  // finished by the time its tile is issued: a failed load then never
  // stops the loop, so which later tiles are read does not depend on how
  // fast the pool ran it.
  const bool pooled = io_pool() != nullptr;
  // Loads awaited after the last tile is issued, in tile order: the pool's
  // loads, and without a pool only a load shared with another thread.
  std::vector<LruCache::AsyncHandle> pending;
  Status first_error = Status::OK();
  // Keys are packed a chunk at a time into a stack buffer, so a warm
  // segment of any size is read without allocating.
  constexpr int kChunk = 64;
  PackedCellKey keys[kChunk];
  for (int begin = 0; begin < tiles && first_error.ok();) {
    // Pack up to the first out-of-range cell: it ends every run, so
    // ReadCellAsync reports it in tile order. Without a cache nothing is
    // packed and every run is empty.
    const int limit = std::min(kChunk, tiles - begin);
    int packed = 0;
    for (; cache != nullptr && packed < limit; ++packed) {
      CellKey cell{segment, begin + packed, tile_qualities[begin + packed]};
      if (!cell.InRange(metadata)) break;
      keys[packed] = cell.Packed(metadata);
    }
    // Alternate a run of hits with one ReadCellAsync where the run stopped,
    // until the chunk's packed keys are used up. Tile `begin + packed`,
    // when inside the chunk, was never packed and is read last.
    int done = 0;
    for (;;) {
      if (done < packed) {
        uint64_t bytes = 0;
        size_t run = cache->TouchCachedRun(keys + done, packed - done,
                                           &bytes);
        if (run > 0) {
          metrics.reads->Add(run);
          metrics.read_bytes->Add(bytes);
          done += static_cast<int>(run);
        }
      }
      if (done == limit) break;
      const int tile = begin + done;
      Stopwatch stopwatch;
      auto handle = ReadCellAsync(metadata, segment, tile,
                                  tile_qualities[tile], LoadKind::kDemand);
      if (!handle.ok()) {
        first_error = handle.status();
        break;
      }
      if (!handle->ready() || (pooled && !handle->hit())) {
        pending.push_back(*std::move(handle));
      } else {
        // Resolved at issue: a hit (counted, not timed) or, without a pool,
        // a load that ran on this thread, timed from the request; only
        // such a load's failure stops the loop.
        Result<LruCache::Value> value = handle->Wait();
        metrics.Record(value,
                       handle->hit() ? -1.0 : stopwatch.ElapsedSeconds());
        if (!value.ok()) {
          first_error = value.status();
          break;
        }
      }
      if (done++ == packed) break;
    }
    begin += done;
  }
  // Every pending tile precedes the one that failed at issue, if any, so
  // its error comes first. A pending read is timed for the wait only.
  Status pending_error = Status::OK();
  for (const LruCache::AsyncHandle& handle : pending) {
    Stopwatch stopwatch;
    Result<LruCache::Value> value = handle.Wait();
    metrics.Record(value, stopwatch.ElapsedSeconds());
    if (!value.ok() && pending_error.ok()) pending_error = value.status();
  }
  return pending_error.ok() ? first_error : pending_error;
}

}  // namespace vc
