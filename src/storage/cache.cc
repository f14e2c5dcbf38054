#include "storage/cache.h"

#include <algorithm>

#include "obs/metrics.h"

namespace vc {

namespace {

// Process-wide mirrors of the per-instance CacheStats, so session-level
// observability sees every cache in the process without plumbing handles.
Counter* HitCounter() {
  static Counter* counter = MetricRegistry::Global().GetCounter("cache.hits");
  return counter;
}
Counter* MissCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("cache.misses");
  return counter;
}
Counter* EvictionCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("cache.evictions");
  return counter;
}
Counter* CoalescedCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("cache.coalesced_loads");
  return counter;
}
Counter* PrefetchIssuedCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("prefetch.issued");
  return counter;
}
Counter* PrefetchHitCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("prefetch.hit");
  return counter;
}
Counter* PrefetchWastedCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("prefetch.wasted");
  return counter;
}
Counter* RejectedOversizeCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("cache.rejected_oversize");
  return counter;
}

}  // namespace

/// Shared state of one load and of every request that shares it.
///
/// Lock order: when both are held, the cache-wide `LruCache::mu_` is
/// acquired before `mu`. Waiters never hold the cache lock while blocking
/// on `cv`.
struct LruCache::AsyncHandle::State {
  mutable std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool hit = false;              ///< Served from cache at request time.
  bool prefetch_origin = false;  ///< Load was started by a prefetch.
  bool demanded = false;         ///< A demand caller shares this load.
  /// The loading entry's id, held until Complete clears its marker.
  uint32_t entry = LruCache::kNil;
  Status status = Status::OK();
  Value value;
};

bool LruCache::AsyncHandle::hit() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->hit;
}

bool LruCache::AsyncHandle::ready() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

Result<LruCache::Value> LruCache::AsyncHandle::Wait() const {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  if (!state_->status.ok()) return state_->status;
  return state_->value;
}

namespace {
constexpr size_t kMinIndexSize = 16;
}  // namespace

LruCache::LruCache(size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes), index_(kMinIndexSize, kNil) {}

size_t LruCache::TouchCachedRun(const PackedCellKey* keys, size_t n,
                                uint64_t* bytes) {
  if (n == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  size_t run = 0;
  for (; run < n; ++run) {
    const uint32_t id = index_[SearchLocked(keys[run])];
    if (id == kNil || !entries_[id].cached || entries_[id].prefetched) break;
    MoveToFrontLocked(id);
    *bytes += entries_[id].bytes;
  }
  if (run > 0) {
    stats_.hits += run;
    HitCounter()->Add(run);
  }
  return run;
}

LruCache::AsyncHandle LruCache::GetOrComputeAsync(PackedCellKey key,
                                                  Loader loader,
                                                  ThreadPool* pool,
                                                  LoadKind kind,
                                                  bool* consumed_prefetch) {
  const bool demand = kind == LoadKind::kDemand;
  if (consumed_prefetch != nullptr) *consumed_prefetch = false;
  std::unique_lock<std::mutex> lock(mu_);
  // One search covers every case: a hit (entry cached), a coalesce (entry
  // in flight), or a miss that makes us the loader (entry freshly inserted
  // — it doubles as the in-flight marker).
  const uint32_t id = SearchOrInsertLocked(key);
  Entry& entry = entries_[id];
  if (entry.cached) {
    if (demand) {
      ++stats_.hits;
      HitCounter()->Add();
      bool consumed = TouchLocked(&entry);
      if (consumed_prefetch != nullptr) *consumed_prefetch = consumed;
      MoveToFrontLocked(id);
    }
    auto state = std::make_shared<AsyncHandle::State>();
    state->done = true;
    state->hit = true;
    state->value = entry.value;
    return AsyncHandle(std::move(state));
  }
  if (demand) {
    ++stats_.misses;
    MissCounter()->Add();
  }

  if (entry.inflight != nullptr) {
    std::shared_ptr<AsyncHandle::State> state = entry.inflight;
    if (demand) {
      ++stats_.coalesced;
      CoalescedCounter()->Add();
      std::lock_guard<std::mutex> state_lock(state->mu);
      if (state->prefetch_origin && !state->demanded) {
        ++stats_.prefetch_hits;
        PrefetchHitCounter()->Add();
        if (consumed_prefetch != nullptr) *consumed_prefetch = true;
      }
      state->demanded = true;
    }
    return AsyncHandle(std::move(state));
  }

  auto state = std::make_shared<AsyncHandle::State>();
  state->prefetch_origin = !demand;
  state->demanded = demand;
  state->entry = id;
  entry.inflight = state;
  if (!demand) {
    ++stats_.prefetch_issued;
    PrefetchIssuedCounter()->Add();
  }
  lock.unlock();

  if (pool == nullptr) {
    Complete(state, loader());
    return AsyncHandle(std::move(state));
  }
  bool accepted = pool->Submit(
      [this, loader = std::move(loader), state] {
        Complete(state, loader());
      },
      demand ? TaskPriority::kHigh : TaskPriority::kLow);
  if (!accepted) {
    // Pool shut down: resolve the handle so no waiter hangs, cache nothing.
    Complete(state, Status::Aborted("I/O pool shut down"));
  }
  return AsyncHandle(std::move(state));
}

void LruCache::Complete(const std::shared_ptr<AsyncHandle::State>& state,
                        Result<Value> loaded) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Only the load that registered `state` completes its entry, nothing
    // else clears an in-flight marker, and Clear keeps in-flight entries
    // under their ids: the entry is still live, holding `state`.
    entries_[state->entry].inflight = nullptr;
    std::lock_guard<std::mutex> state_lock(state->mu);
    state->done = true;
    if (loaded.ok()) {
      state->value = *loaded;
      // A prefetched value nobody demanded yet stays tagged so its eventual
      // consumption (or eviction) is attributed to the prefetcher.
      PutLocked(state->entry, std::move(*loaded),
                state->prefetch_origin && !state->demanded);
    } else {
      state->status = loaded.status();
      // A speculative load that failed before anyone wanted it produced
      // nothing a demand read could consume: close its attribution as
      // wasted so issued == hits + wasted still balances.
      if (state->prefetch_origin && !state->demanded) {
        ++stats_.prefetch_wasted;
        PrefetchWastedCounter()->Add();
      }
      RemoveLocked(state->entry);
    }
  }
  state->cv.notify_all();
}

bool LruCache::TouchLocked(Entry* entry) {
  if (!entry->prefetched) return false;
  entry->prefetched = false;
  ++stats_.prefetch_hits;
  PrefetchHitCounter()->Add();
  return true;
}

void LruCache::CreditPrefetchConsumption(PackedCellKey key) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t id = index_[SearchLocked(key)];
  if (id == kNil || !entries_[id].cached) return;
  TouchLocked(&entries_[id]);
}

void LruCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // Drop every cached value, most recent first, then rebuild the pool and
  // index around the entries still in flight.
  for (uint32_t id = head_; id != kNil; id = entries_[id].next) {
    Entry& entry = entries_[id];
    if (entry.prefetched) {
      ++stats_.prefetch_wasted;
      PrefetchWastedCounter()->Add();
    }
    entry.value = nullptr;
    entry.cached = false;
  }
  head_ = tail_ = kNil;
  stats_.bytes_cached = 0;
  std::fill(index_.begin(), index_.end(), kNil);
  free_ = kNil;
  live_ = 0;
  for (uint32_t id = static_cast<uint32_t>(entries_.size()); id-- > 0;) {
    Entry& entry = entries_[id];
    if (entry.inflight != nullptr) {
      PlaceLocked(id);
      ++live_;
    } else {
      entry.next = free_;
      free_ = id;
    }
  }
}

CacheStats LruCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void LruCache::PutLocked(uint32_t id, Value value, bool prefetched) {
  if (value == nullptr) {
    RemoveLocked(id);
    return;
  }
  if (value->size() > capacity_bytes_) {
    // Too big to ever fit: refuse to cache, but loudly. Waiters still get
    // the value (Complete resolves their state before calling us).
    ++stats_.rejected_oversize;
    RejectedOversizeCounter()->Add();
    if (prefetched) {
      // The speculation can never be consumed from this cache — wasted.
      ++stats_.prefetch_wasted;
      PrefetchWastedCounter()->Add();
    }
    RemoveLocked(id);
    return;
  }
  Entry& entry = entries_[id];
  entry.cached = true;
  entry.value = std::move(value);
  entry.bytes = entry.value->size();
  entry.prefetched = prefetched;
  stats_.bytes_cached += entry.bytes;
  PushFrontLocked(id);
  EvictIfNeededLocked();
}

void LruCache::EvictIfNeededLocked() {
  while (stats_.bytes_cached > capacity_bytes_ && tail_ != kNil) {
    const uint32_t id = tail_;
    Entry& victim = entries_[id];
    if (victim.prefetched) {
      ++stats_.prefetch_wasted;
      PrefetchWastedCounter()->Add();
    }
    stats_.bytes_cached -= victim.bytes;
    UnlinkLocked(id);
    victim.cached = false;
    victim.value = nullptr;
    RemoveLocked(id);
    ++stats_.evictions;
    EvictionCounter()->Add();
  }
}

size_t LruCache::SearchLocked(PackedCellKey key) {
  ++stats_.lookups;
  const size_t mask = index_.size() - 1;
  size_t pos = MixCellKey(key) & mask;
  while (index_[pos] != kNil && entries_[index_[pos]].key != key) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

uint32_t LruCache::SearchOrInsertLocked(PackedCellKey key) {
  // Grow first so the position found stays valid: load stays at most 1/2.
  if (2 * (static_cast<size_t>(live_) + 1) > index_.size()) GrowIndexLocked();
  const size_t pos = SearchLocked(key);
  if (index_[pos] != kNil) return index_[pos];
  uint32_t id = free_;
  if (id != kNil) {
    free_ = entries_[id].next;
  } else {
    id = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  entries_[id].key = key;
  index_[pos] = id;
  ++live_;
  return id;
}

void LruCache::RemoveLocked(uint32_t id) {
  const size_t pos = SearchLocked(entries_[id].key);
  const size_t mask = index_.size() - 1;
  // Backward shift: walk the cluster after the hole and move back into it
  // every id whose home position is not in (hole, where the id sits], so
  // no probe sequence ever crosses an empty position.
  size_t hole = pos;
  for (size_t next = (hole + 1) & mask; index_[next] != kNil;
       next = (next + 1) & mask) {
    const size_t home = MixCellKey(entries_[index_[next]].key) & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = kNil;
  entries_[id].next = free_;
  free_ = id;
  --live_;
}

void LruCache::GrowIndexLocked() {
  std::vector<uint32_t> old = std::move(index_);
  index_.assign(old.size() * 2, kNil);
  for (uint32_t id : old) {
    if (id != kNil) PlaceLocked(id);
  }
}

void LruCache::PlaceLocked(uint32_t id) {
  const size_t mask = index_.size() - 1;
  size_t pos = MixCellKey(entries_[id].key) & mask;
  while (index_[pos] != kNil) pos = (pos + 1) & mask;
  index_[pos] = id;
}

void LruCache::UnlinkLocked(uint32_t id) {
  Entry& entry = entries_[id];
  if (entry.prev != kNil) {
    entries_[entry.prev].next = entry.next;
  } else {
    head_ = entry.next;
  }
  if (entry.next != kNil) {
    entries_[entry.next].prev = entry.prev;
  } else {
    tail_ = entry.prev;
  }
  entry.prev = entry.next = kNil;
}

void LruCache::PushFrontLocked(uint32_t id) {
  Entry& entry = entries_[id];
  entry.prev = kNil;
  entry.next = head_;
  if (head_ != kNil) {
    entries_[head_].prev = id;
  } else {
    tail_ = id;
  }
  head_ = id;
}

void LruCache::MoveToFrontLocked(uint32_t id) {
  if (id == head_) return;
  UnlinkLocked(id);
  PushFrontLocked(id);
}

}  // namespace vc
