#include "storage/tiered_cache.h"

#include <utility>

namespace vc {

TieredCache::TieredCache(size_t l1_capacity_bytes, LruCache* l2)
    : l1_(l1_capacity_bytes), l2_(l2) {}

LruCache::AsyncHandle TieredCache::GetOrComputeAsync(PackedCellKey key,
                                                     LruCache::Loader loader,
                                                     ThreadPool* pool,
                                                     LoadKind kind) {
  bool consumed_l1_prefetch = false;
  LruCache::AsyncHandle handle = l1_.GetOrComputeAsync(
      key,
      // Owning captures only: this runs on a pool thread after we return.
      // The null pool makes the L2 resolve on that same thread (no
      // double-dispatch), still coalescing with other nodes' loads.
      [l2 = l2_, key, loader = std::move(loader),
       kind]() -> Result<LruCache::Value> {
        return l2->GetOrComputeAsync(key, std::move(loader), nullptr, kind)
            .Wait();
      },
      pool, kind, &consumed_l1_prefetch);
  if (consumed_l1_prefetch) l2_->CreditPrefetchConsumption(key);
  return handle;
}

}  // namespace vc
