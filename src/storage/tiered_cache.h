#ifndef VC_STORAGE_TIERED_CACHE_H_
#define VC_STORAGE_TIERED_CACHE_H_

#include "storage/cache.h"
#include "storage/cell_key.h"

namespace vc {

/// \brief A node-private L1 LruCache over a cluster-shared L2.
///
/// Every read goes through the L1 first; an L1 miss loads through the L2,
/// which in turn runs the backend loader on a miss. Both tiers keep their
/// single-flight behaviour, so N nodes missing on the same popular cell at
/// once still read it from the backing store exactly once — the L2 coalesces
/// the cross-node loads the way one LruCache coalesces cross-session loads.
///
/// Prefetch attribution stays honest across tiers: a prefetch fills both
/// tiers tagged, and when a demand read consumes the L1 copy the L2 copy is
/// credited too (LruCache::CreditPrefetchConsumption), so an eventual L2
/// eviction of the already-consumed value is not double-counted as wasted.
/// Known corner: a demand read that coalesces with a still-in-flight L1
/// prefetch credits only the L1 — the L2 copy's tag survives and its
/// eviction counts as wasted there. Each tier's own
/// `issued == hits + wasted` invariant still holds.
///
/// Thread-safe; `l2` is shared with other nodes and must outlive this.
class TieredCache {
 public:
  TieredCache(size_t l1_capacity_bytes, LruCache* l2);

  /// Tiered read: the L1 dispatches one task to `pool` (use the owning
  /// backend's I/O pool so load concurrency is bounded per backend; a null
  /// pool resolves inline); that task resolves through the L2, coalescing
  /// with any other node's load of the same key. `kind` propagates to both
  /// tiers. The handle's hit() reports an L1 hit (the cheap, node-local
  /// case).
  LruCache::AsyncHandle GetOrComputeAsync(PackedCellKey key,
                                          LruCache::Loader loader,
                                          ThreadPool* pool, LoadKind kind);

  CacheStats l1_stats() const { return l1_.stats(); }
  LruCache* l1() { return &l1_; }
  LruCache* l2() const { return l2_; }

 private:
  LruCache l1_;
  LruCache* l2_;
};

}  // namespace vc

#endif  // VC_STORAGE_TIERED_CACHE_H_
