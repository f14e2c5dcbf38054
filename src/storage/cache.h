#ifndef VC_STORAGE_CACHE_H_
#define VC_STORAGE_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "storage/cell_key.h"

namespace vc {

/// Why a load was requested. Demand loads update hit/miss statistics and run
/// on the I/O pool's high-priority lane; prefetch loads are speculative —
/// they leave the demand-facing statistics untouched and run on the low
/// lane so they can never delay a session.
enum class LoadKind { kDemand, kPrefetch };

/// Hit/miss/eviction counters for a cache instance.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t bytes_cached = 0;
  /// Demand requests that found another request already loading the same
  /// key and shared its result instead of loading again.
  uint64_t coalesced = 0;

  /// Values larger than the whole cache that PutLocked refused to admit.
  /// The value is still delivered to every waiter — only caching is
  /// skipped — so a demand path that keeps re-loading the same oversized
  /// cell shows up here instead of thrashing invisibly.
  uint64_t rejected_oversize = 0;

  /// Speculative loads actually dispatched (not already cached/in flight).
  uint64_t prefetch_issued = 0;
  /// Prefetched values later consumed by a demand read — including demand
  /// reads that coalesced with a still-running prefetch load, and tier
  /// promotions credited via CreditPrefetchConsumption.
  uint64_t prefetch_hits = 0;
  /// Prefetched values that never served a demand read: evicted, dropped
  /// by Clear, rejected as oversize, or failed to load. Every issued
  /// prefetch eventually lands in exactly one of hits/wasted (or is still
  /// cached/in flight), so
  ///   prefetch_issued == prefetch_hits + prefetch_wasted
  /// holds once the cache is drained and cleared.
  uint64_t prefetch_wasted = 0;

  /// Key searches of the cache's index: one per key an operation looks up
  /// (hit, miss or coalesce) and one per entry removed from the index (an
  /// eviction, or a load that failed or was refused). A hit, and a miss
  /// whose load is cached, therefore cost exactly one, and a warm planned
  /// segment one per tile — the single-lookup property, counted per cache
  /// under its lock.
  uint64_t lookups = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }

  /// Sums every field, bytes_cached included (the bytes held by a set of
  /// caches).
  CacheStats& operator+=(const CacheStats& other) {
    ForEachCounter(other, [](uint64_t& mine, uint64_t theirs) {
      mine += theirs;
    });
    bytes_cached += other.bytes_cached;
    return *this;
  }

  /// Counter deltas since `before`; bytes_cached is a level, so it keeps
  /// this (the later) value.
  CacheStats operator-(const CacheStats& before) const {
    CacheStats delta = *this;
    delta.ForEachCounter(before, [](uint64_t& mine, uint64_t theirs) {
      mine -= theirs;
    });
    return delta;
  }

 private:
  /// Applies `op(this field, other's field)` to every counter — the one
  /// list of fields the arithmetic above is written over.
  template <typename Op>
  void ForEachCounter(const CacheStats& other, Op op) {
    op(hits, other.hits);
    op(misses, other.misses);
    op(evictions, other.evictions);
    op(coalesced, other.coalesced);
    op(rejected_oversize, other.rejected_oversize);
    op(prefetch_issued, other.prefetch_issued);
    op(prefetch_hits, other.prefetch_hits);
    op(prefetch_wasted, other.prefetch_wasted);
    op(lookups, other.lookups);
  }
};

/// \brief Byte-bounded LRU cache from packed 64-bit cell keys to immutable
/// byte buffers.
///
/// This is VisualCloud's buffer pool: the storage manager caches encoded
/// segment cells at GOP granularity, which captures the temporal locality of
/// streaming sessions (clients re-request neighbouring qualities and replay
/// ranges). Keys are PackedCellKey (storage/cell_key.h). One flat structure
/// holds everything: a pool of entries — each a key's cached value and/or
/// in-flight load — linked into the recency list by 32-bit index, and an
/// open-addressed index of entry ids over it, so every lookup — hit,
/// coalesce, or miss-become-loader — is one key search (counted in
/// `CacheStats::lookups`). Thread-safe.
class LruCache {
 public:
  using Value = std::shared_ptr<const std::vector<uint8_t>>;
  using Loader = std::function<Result<Value>()>;

  /// One pending or resolved asynchronous load (see GetOrComputeAsync).
  /// Copyable handle over shared state; default-constructed handles are
  /// invalid. Wait() may be called from any thread, any number of times.
  class AsyncHandle {
   public:
    AsyncHandle() = default;

    bool valid() const { return state_ != nullptr; }
    /// True when the value was already cached at request time (no load was
    /// dispatched; Wait() returns without blocking).
    bool hit() const;
    /// True once the load has completed (value or error); Wait() will not
    /// block.
    bool ready() const;
    /// Blocks until the load completes and returns its outcome. Requires
    /// valid().
    Result<Value> Wait() const;

   private:
    friend class LruCache;
    struct State;
    explicit AsyncHandle(std::shared_ptr<State> state)
        : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  /// `capacity_bytes` of zero disables caching entirely.
  explicit LruCache(size_t capacity_bytes);

  /// The one read: returns a handle to `key`'s value, resolved at once when
  /// it is cached, otherwise the outcome of `loader`, dispatched to `pool`
  /// (demand loads on the high-priority lane, prefetch loads on the low
  /// lane). Single-flight: requests that miss on a key while its load runs
  /// share that load and its outcome (value or error), so a popular cell is
  /// read from the backing store once, not once per waiting session.
  /// Errors are not cached — the next request retries the load. If the
  /// pool refuses the task (shutdown), the handle resolves to an Aborted
  /// error and nothing is cached; a null `pool` runs the loader on the
  /// calling thread, without the cache lock, and returns a resolved handle
  /// (waiting on the same key from inside that loader deadlocks). `kind`
  /// selects statistics: kPrefetch loads never touch hit/miss counters and
  /// tag the cached value so later demand consumption (or eviction without
  /// it) is attributed to prefetching. When `consumed_prefetch` is non-null
  /// it is set to whether this request was the first demand touch of a
  /// prefetched value (tiered callers use this to credit the copy in the
  /// other tier via CreditPrefetchConsumption); only a demand `kind` ever
  /// sets it.
  AsyncHandle GetOrComputeAsync(PackedCellKey key, Loader loader,
                                ThreadPool* pool, LoadKind kind,
                                bool* consumed_prefetch = nullptr);

  /// Serves a run of demand hits under one lock: walks `keys[0..n)` in
  /// order and, for each key cached and not tagged as prefetched, gives it
  /// exactly the recency and statistics a demand GetOrComputeAsync hit
  /// would, adding its size to `*bytes`. Stops at the first key that is not
  /// such an entry (absent, in flight, or prefetched) and returns the run
  /// length; the caller reads that key through GetOrComputeAsync, which
  /// handles loading, coalescing and prefetch credit. One index search
  /// per key examined.
  size_t TouchCachedRun(const PackedCellKey* keys, size_t n, uint64_t* bytes);

  /// Tier-promotion credit: a demand read consumed `key`'s copy held by
  /// another cache tier (e.g. a node's private L1 over this shared L2). If
  /// this cache still holds `key` tagged as prefetched, the tag is cleared
  /// and the prefetch counted as a hit — the speculation paid off
  /// downstream, so its eventual eviction here must not be double-counted
  /// as wasted. Recency and the demand hit/miss counters are untouched.
  /// No-op when the key is absent or already consumed.
  void CreditPrefetchConsumption(PackedCellKey key);

  /// Drops everything cached (stats and in-flight loads are preserved).
  void Clear();

  CacheStats stats() const;

 private:
  friend class LruCacheTestPeer;

  static constexpr uint32_t kNil = 0xffffffffu;

  /// One key's pool entry: its cached value (when `cached`) or its
  /// in-flight load. A live entry holds exactly one of the two — a load
  /// starts only on a miss, and its completion clears the marker before
  /// caching the value — so a single key search learns everything about a
  /// key. A live entry keeps its id (an in-flight load's handle state
  /// records it); no `Entry&` is held across an insert, which may grow
  /// (and reallocate) the pool.
  struct Entry {
    PackedCellKey key = 0;
    Value value;
    std::shared_ptr<AsyncHandle::State> inflight;
    /// value->size() while cached, so a hit never touches the Value.
    uint64_t bytes = 0;
    /// Recency neighbours while cached (prev toward the most recent);
    /// `next` also links the free list while the entry is free.
    uint32_t prev = kNil;
    uint32_t next = kNil;
    bool cached = false;
    /// Inserted by a prefetch load and not yet touched by any demand read
    /// (read only while cached).
    bool prefetched = false;
  };

  /// Resolves `state` with the loader's outcome: clears its entry's
  /// in-flight marker, caches success, and wakes every waiter.
  void Complete(const std::shared_ptr<AsyncHandle::State>& state,
                Result<Value> loaded);
  /// Marks a demand touch of `entry`, crediting the prefetcher when it was
  /// the one that brought the value in. Returns whether this touch consumed
  /// a prefetched value (cleared its tag).
  bool TouchLocked(Entry* entry);

  /// Index position holding `key`'s entry id, or the empty position where
  /// it would go. Counts one lookup.
  size_t SearchLocked(PackedCellKey key);
  /// Id of `key`'s entry, inserting a fresh entry (neither cached nor in
  /// flight) when the key is absent. May grow the pool.
  uint32_t SearchOrInsertLocked(PackedCellKey key);
  /// Caches `value` in entry `id`, whose load just completed; frees the
  /// entry instead when `value` is null or larger than the whole cache.
  void PutLocked(uint32_t id, Value value, bool prefetched);
  void EvictIfNeededLocked();
  /// Finds entry `id`'s index position (one lookup), removes it
  /// (backward-shift deletion, so every probe sequence stays unbroken) and
  /// returns the entry to the free list.
  void RemoveLocked(uint32_t id);
  /// Doubles the index and re-places every live entry id.
  void GrowIndexLocked();
  /// Re-places entry `id` into the index (a key known to be absent).
  void PlaceLocked(uint32_t id);

  /// Recency list: unlink, and link at the most-recent end.
  void UnlinkLocked(uint32_t id);
  void PushFrontLocked(uint32_t id);
  void MoveToFrontLocked(uint32_t id);

  const size_t capacity_bytes_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;  ///< The pool; ids index it.
  uint32_t free_ = kNil;        ///< Free-list head.
  uint32_t live_ = 0;           ///< Entries cached and/or in flight.
  uint32_t head_ = kNil;        ///< Most recently used cached entry.
  uint32_t tail_ = kNil;        ///< Least recently used: the next victim.
  /// Power-of-two open-addressed table of entry ids (kNil = empty),
  /// linear probing from MixCellKey(key) & mask, load at most 1/2.
  std::vector<uint32_t> index_;
  CacheStats stats_;
};

}  // namespace vc

#endif  // VC_STORAGE_CACHE_H_
