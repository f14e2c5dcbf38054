#include "storage/cache.h"

#include "common/stopwatch.h"
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

/// Shared state of one asynchronous (or coalesced synchronous) load.
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

LruCache::LruCache(size_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}

LruCache::Value LruCache::Get(PackedCellKey key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(key);
  if (it == table_.end() || !it->second.cached) {
    ++stats_.misses;
    MissCounter()->Add();
    return nullptr;
  }
  ++stats_.hits;
  HitCounter()->Add();
  TouchLocked(&*it->second.entry);
  lru_.splice(lru_.begin(), lru_, it->second.entry);
  return it->second.entry->value;
}

void LruCache::Put(PackedCellKey key, Value value) {
  if (value == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  PutLocked(table_.try_emplace(key).first, std::move(value),
            /*prefetched=*/false);
}

Result<LruCache::Value> LruCache::GetOrCompute(PackedCellKey key,
                                               const Loader& loader,
                                               bool* was_hit,
                                               bool* consumed_prefetch,
                                               double* miss_seconds) {
  if (was_hit != nullptr) *was_hit = false;
  if (consumed_prefetch != nullptr) *consumed_prefetch = false;
  std::unique_lock<std::mutex> lock(mu_);
  // One try_emplace covers every case with a single hash of the key: a hit
  // (slot cached), a coalesce (slot in flight), or a miss that makes us the
  // loader (slot freshly inserted — it doubles as the in-flight marker).
  auto it = table_.try_emplace(key).first;
  Slot& slot = it->second;
  if (slot.cached) {
    ++stats_.hits;
    HitCounter()->Add();
    bool consumed = TouchLocked(&*slot.entry);
    if (consumed_prefetch != nullptr) *consumed_prefetch = consumed;
    lru_.splice(lru_.begin(), lru_, slot.entry);
    if (was_hit != nullptr) *was_hit = true;
    return slot.entry->value;
  }
  ++stats_.misses;
  MissCounter()->Add();
  Stopwatch stopwatch;
  auto finish = [&](Result<Value> outcome) {
    if (miss_seconds != nullptr) *miss_seconds = stopwatch.ElapsedSeconds();
    return outcome;
  };

  if (slot.inflight != nullptr) {
    // Someone else is already loading this key: wait for their result.
    std::shared_ptr<AsyncHandle::State> state = slot.inflight;
    ++stats_.coalesced;
    CoalescedCounter()->Add();
    {
      std::lock_guard<std::mutex> state_lock(state->mu);
      if (state->prefetch_origin && !state->demanded) {
        ++stats_.prefetch_hits;
        PrefetchHitCounter()->Add();
        if (consumed_prefetch != nullptr) *consumed_prefetch = true;
      }
      state->demanded = true;
    }
    lock.unlock();
    std::unique_lock<std::mutex> state_lock(state->mu);
    state->cv.wait(state_lock, [&state] { return state->done; });
    if (!state->status.ok()) return finish(state->status);
    return finish(state->value);
  }

  // We are the loader for this key.
  auto state = std::make_shared<AsyncHandle::State>();
  state->demanded = true;
  slot.inflight = state;
  lock.unlock();
  Result<Value> loaded = loader();
  Complete(key, state, loaded);
  return finish(std::move(loaded));
}

size_t LruCache::TouchCachedRun(const PackedCellKey* keys, size_t n,
                                uint64_t* bytes) {
  if (n == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  size_t run = 0;
  for (; run < n; ++run) {
    auto it = table_.find(keys[run]);
    if (it == table_.end() || !it->second.cached ||
        it->second.entry->prefetched) {
      break;
    }
    lru_.splice(lru_.begin(), lru_, it->second.entry);
    *bytes += it->second.entry->value->size();
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
  auto it = table_.try_emplace(key).first;
  Slot& slot = it->second;
  if (slot.cached) {
    if (demand) {
      ++stats_.hits;
      HitCounter()->Add();
      bool consumed = TouchLocked(&*slot.entry);
      if (consumed_prefetch != nullptr) *consumed_prefetch = consumed;
      lru_.splice(lru_.begin(), lru_, slot.entry);
    }
    auto state = std::make_shared<AsyncHandle::State>();
    state->done = true;
    state->hit = true;
    state->value = slot.entry->value;
    return AsyncHandle(std::move(state));
  }
  if (demand) {
    ++stats_.misses;
    MissCounter()->Add();
  }

  if (slot.inflight != nullptr) {
    std::shared_ptr<AsyncHandle::State> state = slot.inflight;
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
  slot.inflight = state;
  if (!demand) {
    ++stats_.prefetch_issued;
    PrefetchIssuedCounter()->Add();
  }
  lock.unlock();

  if (pool == nullptr) {
    Complete(key, state, loader());
    return AsyncHandle(std::move(state));
  }
  bool accepted = pool->Submit(
      [this, key, loader = std::move(loader), state] {
        Complete(key, state, loader());
      },
      demand ? TaskPriority::kHigh : TaskPriority::kLow);
  if (!accepted) {
    // Pool shut down: resolve the handle so no waiter hangs, cache nothing.
    Complete(key, state, Status::Aborted("I/O pool shut down"));
  }
  return AsyncHandle(std::move(state));
}

void LruCache::Complete(PackedCellKey key,
                        const std::shared_ptr<AsyncHandle::State>& state,
                        Result<Value> loaded) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = table_.find(key);
    // Only the thread that registered `state` completes this key, and
    // nothing else clears an in-flight marker, so the slot must still be
    // here holding it.
    it->second.inflight = nullptr;
    std::lock_guard<std::mutex> state_lock(state->mu);
    state->done = true;
    if (loaded.ok()) {
      state->value = *loaded;
      // A prefetched value nobody demanded yet stays tagged so its eventual
      // consumption (or eviction) is attributed to the prefetcher.
      PutLocked(it, std::move(*loaded),
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
      EraseSlotIfEmptyLocked(it);
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
  auto it = table_.find(key);
  if (it == table_.end() || !it->second.cached) return;
  Entry& entry = *it->second.entry;
  if (!entry.prefetched) return;
  entry.prefetched = false;
  ++stats_.prefetch_hits;
  PrefetchHitCounter()->Add();
}

void LruCache::Erase(PackedCellKey key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(key);
  if (it == table_.end() || !it->second.cached) return;
  if (it->second.entry->prefetched) {
    ++stats_.prefetch_wasted;
    PrefetchWastedCounter()->Add();
  }
  stats_.bytes_cached -= it->second.entry->value->size();
  lru_.erase(it->second.entry);
  it->second.cached = false;
  EraseSlotIfEmptyLocked(it);
}

void LruCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& entry : lru_) {
    if (entry.prefetched) {
      ++stats_.prefetch_wasted;
      PrefetchWastedCounter()->Add();
    }
  }
  lru_.clear();
  for (auto it = table_.begin(); it != table_.end();) {
    it->second.cached = false;
    if (it->second.inflight == nullptr) {
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.bytes_cached = 0;
}

CacheStats LruCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void LruCache::PutLocked(Table::iterator it, Value value, bool prefetched) {
  if (value == nullptr) {
    EraseSlotIfEmptyLocked(it);
    return;
  }
  Slot& slot = it->second;
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
    EraseSlotIfEmptyLocked(it);
    return;
  }
  if (slot.cached) {
    // Displacing a still-unconsumed prefetched value closes its
    // attribution: nobody demanded it before it was overwritten.
    if (slot.entry->prefetched && !prefetched) {
      ++stats_.prefetch_wasted;
      PrefetchWastedCounter()->Add();
    }
    stats_.bytes_cached -= slot.entry->value->size();
    slot.entry->value = std::move(value);
    slot.entry->prefetched = prefetched;
    stats_.bytes_cached += slot.entry->value->size();
    lru_.splice(lru_.begin(), lru_, slot.entry);
  } else {
    lru_.push_front(Entry{it->first, std::move(value), prefetched});
    slot.entry = lru_.begin();
    slot.cached = true;
    stats_.bytes_cached += lru_.front().value->size();
  }
  EvictIfNeededLocked();
}

void LruCache::EvictIfNeededLocked() {
  while (stats_.bytes_cached > capacity_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    if (victim.prefetched) {
      ++stats_.prefetch_wasted;
      PrefetchWastedCounter()->Add();
    }
    auto it = table_.find(victim.key);
    stats_.bytes_cached -= victim.value->size();
    lru_.pop_back();
    it->second.cached = false;
    EraseSlotIfEmptyLocked(it);
    ++stats_.evictions;
    EvictionCounter()->Add();
  }
}

void LruCache::EraseSlotIfEmptyLocked(Table::iterator it) {
  if (!it->second.cached && it->second.inflight == nullptr) {
    table_.erase(it);
  }
}

}  // namespace vc
