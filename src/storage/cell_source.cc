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

Status CellSource::ReadPlannedCells(const VideoMetadata& metadata,
                                    int segment,
                                    const std::vector<int>& tile_qualities) {
  if (static_cast<int>(tile_qualities.size()) != metadata.tile_count()) {
    return Status::InvalidArgument("one quality per tile required");
  }
  const CellReadMetrics& metrics = CellReadMetrics::Get();
  const int tiles = metadata.tile_count();
  if (io_pool() == nullptr) {
    LruCache* cache = nearest_cache();
    // Keys are packed a chunk at a time into a stack buffer, so a segment
    // of any size is read without allocating.
    constexpr int kChunk = 64;
    PackedCellKey keys[kChunk];
    for (int begin = 0; begin < tiles;) {
      // Pack up to the first out-of-range cell: it ends every run, so
      // ReadCell reports it in tile order. Without a cache nothing is
      // packed and every run is empty.
      const int limit = std::min(kChunk, tiles - begin);
      int packed = 0;
      for (; cache != nullptr && packed < limit; ++packed) {
        CellKey cell{segment, begin + packed, tile_qualities[begin + packed]};
        if (!cell.InRange(metadata)) break;
        keys[packed] = cell.Packed(metadata);
      }
      // Alternate a run of hits with one ReadCell where the run stopped,
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
        auto cell = ReadCell(metadata, segment, tile, tile_qualities[tile]);
        if (!cell.ok()) return cell.status();
        if (done++ == packed) break;
      }
      begin += done;
    }
    return Status::OK();
  }
  std::vector<LruCache::AsyncHandle> handles;
  handles.reserve(tile_qualities.size());
  for (int tile = 0; tile < tiles; ++tile) {
    auto handle = ReadCellAsync(metadata, segment, tile, tile_qualities[tile],
                                LoadKind::kDemand);
    if (!handle.ok()) return handle.status();
    handles.push_back(std::move(*handle));
  }
  Status first_error = Status::OK();
  for (const LruCache::AsyncHandle& handle : handles) {
    if (handle.hit()) {
      // Resolved from the cache at issue time: counted, not timed.
      metrics.Record(handle.Wait(), -1.0);
      continue;
    }
    Stopwatch stopwatch;
    Result<LruCache::Value> value = handle.Wait();
    metrics.Record(value, stopwatch.ElapsedSeconds());
    if (!value.ok() && first_error.ok()) first_error = value.status();
  }
  return first_error;
}

}  // namespace vc
