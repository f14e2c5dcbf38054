#ifndef VC_STORAGE_CACHE_H_
#define VC_STORAGE_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
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
  /// GetOrCompute callers that found another caller already loading the
  /// same key and waited for its result instead of loading again.
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
  /// Prefetched values that never served a demand read: evicted, erased,
  /// dropped by Clear, displaced by a later Put, rejected as oversize, or
  /// failed to load. Every issued prefetch eventually lands in exactly one
  /// of hits/wasted (or is still cached/in flight), so
  ///   prefetch_issued == prefetch_hits + prefetch_wasted
  /// holds once the cache is drained and cleared.
  uint64_t prefetch_wasted = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// \brief Byte-bounded LRU cache from packed 64-bit cell keys to immutable
/// byte buffers.
///
/// This is VisualCloud's buffer pool: the storage manager caches encoded
/// segment cells at GOP granularity, which captures the temporal locality of
/// streaming sessions (clients re-request neighbouring qualities and replay
/// ranges). Keys are PackedCellKey (storage/cell_key.h); one unified slot
/// table holds both the cached entry and any in-flight load for a key, so
/// every lookup — hit, coalesce, or miss-become-loader — hashes exactly
/// once. Thread-safe.
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

  /// Returns the cached value or nullptr, updating recency and stats.
  Value Get(PackedCellKey key);

  /// Inserts (or replaces) a value, evicting LRU entries over capacity.
  /// Values larger than the whole capacity are not cached (counted in
  /// `rejected_oversize`).
  void Put(PackedCellKey key, Value value);

  /// Returns the cached value for `key`, or runs `loader` to produce (and
  /// cache) it. Single-flight: when several threads miss on the same key
  /// concurrently, exactly one runs the loader — the rest block and share
  /// its outcome (value or error), so a popular segment cell is read from
  /// the backing store once, not once per waiting session. The loader runs
  /// without the cache lock held; loading the same key recursively from
  /// inside a loader deadlocks. Errors are not cached — the next caller
  /// retries the load. Also coalesces with loads started by
  /// GetOrComputeAsync. When `was_hit` is non-null it is set to whether the
  /// value was served from cache without waiting on any load. When
  /// `consumed_prefetch` is non-null it is set to whether this call was the
  /// first demand touch of a prefetched value (tiered callers use this to
  /// credit the copy in the other tier via CreditPrefetchConsumption). When
  /// `miss_seconds` is non-null and the call was not a hit, it is set to
  /// the host time from the miss to the outcome (this caller's load, or its
  /// wait on another's); a hit leaves it untouched and reads no clock.
  Result<Value> GetOrCompute(PackedCellKey key, const Loader& loader,
                             bool* was_hit = nullptr,
                             bool* consumed_prefetch = nullptr,
                             double* miss_seconds = nullptr);

  /// Asynchronous GetOrCompute: the load is dispatched to `pool` (demand
  /// loads on the high-priority lane, prefetch loads on the low lane) and a
  /// handle to its eventual outcome is returned immediately. Single-flight
  /// is shared with GetOrCompute: concurrent sync and async requests for
  /// one key run a single loader. If the pool refuses the task (shutdown),
  /// the handle resolves to an Aborted error and nothing is cached; a null
  /// `pool` runs the loader synchronously on the calling thread and returns
  /// an already-resolved handle. `kind` selects statistics: kPrefetch loads
  /// never touch hit/miss counters and tag the cached value so later demand
  /// consumption (or eviction without it) is attributed to prefetching.
  /// `consumed_prefetch` is as in GetOrCompute (only a demand `kind` ever
  /// sets it).
  AsyncHandle GetOrComputeAsync(PackedCellKey key, Loader loader,
                                ThreadPool* pool, LoadKind kind,
                                bool* consumed_prefetch = nullptr);

  /// Serves a run of demand hits under one lock: walks `keys[0..n)` in
  /// order and, for each key cached and not tagged as prefetched, gives it
  /// exactly the recency and statistics a GetOrCompute hit would, adding
  /// its size to `*bytes`. Stops at the first key that is not such an entry
  /// (absent, in flight only, or prefetched) and returns the run length;
  /// the caller reads that key through the full GetOrCompute path, which
  /// handles loading, coalescing and prefetch credit. One hash per key.
  size_t TouchCachedRun(const PackedCellKey* keys, size_t n, uint64_t* bytes);

  /// Tier-promotion credit: a demand read consumed `key`'s copy held by
  /// another cache tier (e.g. a node's private L1 over this shared L2). If
  /// this cache still holds `key` tagged as prefetched, the tag is cleared
  /// and the prefetch counted as a hit — the speculation paid off
  /// downstream, so its eventual eviction here must not be double-counted
  /// as wasted. Recency and the demand hit/miss counters are untouched.
  /// No-op when the key is absent or already consumed.
  void CreditPrefetchConsumption(PackedCellKey key);

  /// Removes one key if present (in-flight loads are unaffected).
  void Erase(PackedCellKey key);

  /// Drops everything cached (stats and in-flight loads are preserved).
  void Clear();

  CacheStats stats() const;
  size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    PackedCellKey key = 0;
    Value value;
    /// Inserted by a prefetch load and not yet touched by any demand read.
    bool prefetched = false;
  };

  /// One key's slot in the unified table: the cached entry (when `cached`)
  /// and/or the in-flight load. A slot exists iff at least one of the two
  /// is live; lookups therefore hash the key exactly once to learn
  /// everything about it.
  struct Slot {
    std::list<Entry>::iterator entry;
    bool cached = false;
    std::shared_ptr<AsyncHandle::State> inflight;
  };
  using Table = std::unordered_map<PackedCellKey, Slot, CellKeyHash>;

  /// Resolves `state` with the loader's outcome: clears the slot's
  /// in-flight marker, caches success, and wakes every waiter.
  void Complete(PackedCellKey key,
                const std::shared_ptr<AsyncHandle::State>& state,
                Result<Value> loaded);
  /// Marks a demand touch of `entry`, crediting the prefetcher when it was
  /// the one that brought the value in. Returns whether this touch consumed
  /// a prefetched value (cleared its tag).
  bool TouchLocked(Entry* entry);

  /// Stores `value` into the slot at `it` (which must be in table_),
  /// refusing oversize values; erases the slot when it ends up neither
  /// cached nor in flight.
  void PutLocked(Table::iterator it, Value value, bool prefetched);
  void EvictIfNeededLocked();
  /// Erases the slot when it holds neither a cached entry nor an in-flight
  /// load.
  void EraseSlotIfEmptyLocked(Table::iterator it);

  const size_t capacity_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  Table table_;
  CacheStats stats_;
};

}  // namespace vc

#endif  // VC_STORAGE_CACHE_H_
