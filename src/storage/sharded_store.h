#ifndef VC_STORAGE_SHARDED_STORE_H_
#define VC_STORAGE_SHARDED_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/cell_source.h"
#include "storage/shard_map.h"
#include "storage/storage_manager.h"
#include "storage/tiered_cache.h"

namespace vc {

/// Configuration for a sharded, tiered-cache store.
struct ShardedStoreOptions {
  /// Template for every shard's backend StorageManager: env, root,
  /// io_threads, and read_latency_seconds apply per shard. The backend's
  /// own cache is forcibly disabled — caching happens in the tiers.
  StorageOptions backend;
  int shards = 1;
  /// Cluster-shared L2 cache over all backends.
  size_t l2_capacity_bytes = 256ull << 20;
};

/// \brief Cells consistent-hashed across N storage backends under a shared
/// L2 cache, read through per-node private L1s.
///
/// This is ROADMAP item 2's storage half: every backend is a full
/// StorageManager (own I/O pool, own simulated read latency) opened on the
/// common store root, and the ShardMap deterministically assigns each cell
/// key to the one backend whose pool serves its cold reads. Serving nodes
/// (`CreateNode`) see the whole catalog through the CellSource interface:
/// reads check the node's L1, then the shared L2, then run the owning
/// backend's loader — with single-flight at both tiers, so a scene hot
/// across many nodes hits the backing store once.
class ShardedStore {
 public:
  static Result<std::unique_ptr<ShardedStore>> Open(
      const ShardedStoreOptions& options);

  /// One serving node's read view: private L1 over the store's shared L2.
  /// Create one per simulated server node; destroy before the store.
  class Node : public CellSource {
   public:
    Result<LruCache::AsyncHandle> ReadCellAsync(
        const VideoMetadata& metadata, int segment, int tile, int quality,
        LoadKind kind = LoadKind::kDemand) override;
    /// A representative backend pool (the prefetcher sizes its in-flight
    /// cap from it); loads are actually dispatched on the owning shard's
    /// pool per cell. Null when backends run synchronous.
    ThreadPool* io_pool() const override;
    /// This node's private L1 statistics.
    CacheStats cache_stats() const override { return tiers_.l1_stats(); }
    /// The private L1. A hit there is complete unless the entry is still
    /// tagged as prefetched (its L2 copy must be credited), and
    /// LruCache::TouchCachedRun stops at exactly those.
    LruCache* nearest_cache() override { return tiers_.l1(); }

   private:
    friend class ShardedStore;
    Node(ShardedStore* store, size_t l1_capacity_bytes);

    ShardedStore* store_;
    TieredCache tiers_;
  };

  /// Creates a serving node with a private `l1_capacity_bytes` cache.
  std::unique_ptr<Node> CreateNode(size_t l1_capacity_bytes);

  int shard_count() const { return static_cast<int>(shards_.size()); }
  StorageManager* shard(int i) { return shards_[i].get(); }

  /// Shared-L2 statistics.
  CacheStats l2_stats() const { return l2_.stats(); }
  LruCache* l2() { return &l2_; }

  /// Catalog reads — every shard loaded the root's version set at Open,
  /// so any shard resolves them; shard 0 is the convention. Commits made
  /// after Open through another StorageManager are not seen.
  Result<VideoMetadata> GetVideo(const std::string& name) const {
    return shards_[0]->GetVideo(name);
  }
  Result<std::vector<std::string>> ListVideos() const {
    return shards_[0]->ListVideos();
  }

 private:
  ShardedStore(const ShardedStoreOptions& options,
               std::vector<std::unique_ptr<StorageManager>> shards);

  ShardedStoreOptions options_;
  ShardMap shard_map_;
  LruCache l2_;
  std::vector<std::unique_ptr<StorageManager>> shards_;
};

}  // namespace vc

#endif  // VC_STORAGE_SHARDED_STORE_H_
