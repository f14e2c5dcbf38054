#include "storage/cell_source.h"

#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace vc {

const CellReadMetrics& CellReadMetrics::Get() {
  static const CellReadMetrics metrics = [] {
    MetricRegistry& registry = MetricRegistry::Global();
    return CellReadMetrics{registry.GetCounter("storage.cell_reads"),
                           registry.GetCounter("storage.cell_read_bytes"),
                           registry.GetHistogram("storage.read_seconds"),
                           registry.GetHistogram("storage.demand_miss_seconds")};
  }();
  return metrics;
}

void CellReadMetrics::Observe(const Result<LruCache::Value>& value,
                              double seconds, bool hit) const {
  read_seconds->Observe(seconds);
  if (!hit) demand_miss_seconds->Observe(seconds);
  if (value.ok()) read_bytes->Add((*value)->size());
}

Status CellSource::ReadPlannedCells(const VideoMetadata& metadata,
                                    int segment,
                                    const std::vector<int>& tile_qualities) {
  if (static_cast<int>(tile_qualities.size()) != metadata.tile_count()) {
    return Status::InvalidArgument("one quality per tile required");
  }
  if (io_pool() == nullptr) {
    for (int tile = 0; tile < metadata.tile_count(); ++tile) {
      auto cell = ReadCell(metadata, segment, tile, tile_qualities[tile]);
      if (!cell.ok()) return cell.status();
    }
    return Status::OK();
  }
  std::vector<LruCache::AsyncHandle> handles;
  handles.reserve(tile_qualities.size());
  for (int tile = 0; tile < metadata.tile_count(); ++tile) {
    auto handle = ReadCellAsync(metadata, segment, tile, tile_qualities[tile],
                                LoadKind::kDemand);
    if (!handle.ok()) return handle.status();
    handles.push_back(std::move(*handle));
  }
  const CellReadMetrics& metrics = CellReadMetrics::Get();
  Status first_error = Status::OK();
  for (const LruCache::AsyncHandle& handle : handles) {
    Stopwatch stopwatch;
    Result<LruCache::Value> value = handle.Wait();
    metrics.Observe(value, stopwatch.ElapsedSeconds(), handle.hit());
    if (!value.ok() && first_error.ok()) first_error = value.status();
  }
  return first_error;
}

}  // namespace vc
