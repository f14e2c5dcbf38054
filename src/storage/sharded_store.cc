#include "storage/sharded_store.h"

#include <utility>

#include "obs/metrics.h"
#include "storage/cell_key.h"

namespace vc {

Result<std::unique_ptr<ShardedStore>> ShardedStore::Open(
    const ShardedStoreOptions& options) {
  if (options.shards < 1) {
    return Status::InvalidArgument("ShardedStoreOptions.shards must be >= 1");
  }
  std::vector<std::unique_ptr<StorageManager>> shards;
  shards.reserve(options.shards);
  for (int i = 0; i < options.shards; ++i) {
    StorageOptions backend = options.backend;
    // The tiers own all caching; a backend cache under them would only
    // hide L2 miss costs and distort the hit-rate breakdown.
    backend.cache_capacity_bytes = 0;
    std::unique_ptr<StorageManager> shard;
    VC_ASSIGN_OR_RETURN(shard, StorageManager::Open(backend));
    shards.push_back(std::move(shard));
  }
  return std::unique_ptr<ShardedStore>(
      new ShardedStore(options, std::move(shards)));
}

ShardedStore::ShardedStore(const ShardedStoreOptions& options,
                           std::vector<std::unique_ptr<StorageManager>> shards)
    : options_(options),
      shard_map_(options.shards),
      l2_(options.l2_capacity_bytes),
      shards_(std::move(shards)) {}

std::unique_ptr<ShardedStore::Node> ShardedStore::CreateNode(
    size_t l1_capacity_bytes) {
  return std::unique_ptr<Node>(
      new Node(this, next_node_id_++, l1_capacity_bytes));
}

ShardedStore::Node::Node(ShardedStore* store, int node_id,
                         size_t l1_capacity_bytes)
    : store_(store), node_id_(node_id), tiers_(l1_capacity_bytes, store->l2()) {}

ThreadPool* ShardedStore::Node::io_pool() const {
  return store_->shards_[0]->io_pool();
}

Result<LruCache::Value> ShardedStore::Node::ReadCell(
    const VideoMetadata& metadata, int segment, int tile, int quality) {
  CellKey cell{segment, tile, quality};
  if (!cell.InRange(metadata)) {
    return Status::InvalidArgument("cell coordinates out of range");
  }
  const CellReadMetrics& metrics = CellReadMetrics::Get();
  metrics.reads->Add();
  PackedCellKey key = cell.Packed(metadata);
  StorageManager* backend = store_->shard(store_->shard_map_.ShardFor(key));
  CellLoad load{backend, metadata, segment, tile, quality};
  double miss_seconds = -1.0;
  Result<LruCache::Value> value = tiers_.GetOrCompute(
      key, [&load] { return load(); }, nullptr, &miss_seconds);
  metrics.Record(value, miss_seconds);
  return value;
}

Result<LruCache::AsyncHandle> ShardedStore::Node::ReadCellAsync(
    const VideoMetadata& metadata, int segment, int tile, int quality,
    LoadKind kind) {
  CellKey cell{segment, tile, quality};
  if (!cell.InRange(metadata)) {
    return Status::InvalidArgument("cell coordinates out of range");
  }
  if (kind == LoadKind::kDemand) CellReadMetrics::Get().reads->Add();
  PackedCellKey key = cell.Packed(metadata);
  StorageManager* backend = store_->shard(store_->shard_map_.ShardFor(key));
  // The load is dispatched on the *owning* backend's pool, so each shard's
  // cold-read concurrency is bounded by its own pool regardless of how many
  // nodes route to it.
  return tiers_.GetOrComputeAsync(
      key, backend->CellLoader(metadata, segment, tile, quality),
      backend->io_pool(), kind);
}

}  // namespace vc
