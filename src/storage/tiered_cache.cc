#include "storage/tiered_cache.h"

#include <utility>

namespace vc {

TieredCache::TieredCache(size_t l1_capacity_bytes, LruCache* l2)
    : l1_(l1_capacity_bytes), l2_(l2) {}

Result<LruCache::Value> TieredCache::GetOrCompute(
    PackedCellKey key, const LruCache::Loader& loader, bool* was_hit,
    double* miss_seconds) {
  bool consumed_l1_prefetch = false;
  // The reference capture is safe here: a synchronous loader runs inside
  // this call, on this thread. Capturing one reference to a stack struct
  // keeps the std::function inline, so an L1 hit allocates nothing.
  struct L2Load {
    LruCache* l2;
    PackedCellKey key;
    const LruCache::Loader& loader;
  } l2_load{l2_, key, loader};
  Result<LruCache::Value> value = l1_.GetOrCompute(
      key,
      [&l2_load] {
        return l2_load.l2->GetOrCompute(l2_load.key, l2_load.loader);
      },
      was_hit, &consumed_l1_prefetch, miss_seconds);
  if (consumed_l1_prefetch) l2_->CreditPrefetchConsumption(key);
  return value;
}

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
