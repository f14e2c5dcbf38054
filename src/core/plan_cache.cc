#include "core/plan_cache.h"

#include <cmath>

#include "obs/metrics.h"

namespace vc {

namespace {

Counter* PlanHitCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("plan.cache_hits");
  return counter;
}
Counter* PlanMissCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("plan.cache_misses");
  return counter;
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Quantize a continuous input to a hash bucket. llround is exact for equal
// inputs (equal keys must hash equally); the bucket width only shapes how
// often unequal keys share a bucket.
uint64_t Bucket(double value, double width) {
  return static_cast<uint64_t>(std::llround(value / width));
}

}  // namespace

size_t PlanKeyHash::operator()(const PlanKey& key) const {
  // ~0.008 rad orientation buckets; 4 KiB budget tiers.
  constexpr double kAngleBucket = 1.0 / 128.0;
  constexpr double kBudgetBucket = 4096.0;
  uint64_t h = Mix(static_cast<uint64_t>(key.segment) * 0x9e3779b97f4a7c15ULL +
                   static_cast<uint64_t>(key.approach));
  h = Mix(h ^ static_cast<uint64_t>(key.high_quality));
  h = Mix(h ^ Bucket(key.fov_yaw, kAngleBucket));
  h = Mix(h ^ Bucket(key.fov_pitch, kAngleBucket));
  h = Mix(h ^ Bucket(key.margin, kAngleBucket));
  h = Mix(h ^ Bucket(key.yaw, kAngleBucket));
  h = Mix(h ^ Bucket(key.pitch, kAngleBucket));
  h = Mix(h ^ Bucket(key.budget_bytes, kBudgetBucket));
  for (int tile : key.popular) {
    h = Mix(h ^ static_cast<uint64_t>(static_cast<uint32_t>(tile)));
  }
  return static_cast<size_t>(h);
}

PlanCache::PlanCache(size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

bool PlanCache::Lookup(const PlanKey& key, Entry* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    PlanMissCounter()->Add();
    return false;
  }
  ++stats_.hits;
  PlanHitCounter()->Add();
  *out = it->second;
  return true;
}

void PlanCache::Insert(const PlanKey& key, Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.size() >= max_entries_) {
    // Generational flush: plans are cheap relative to tracking per-entry
    // recency, and a flush only costs misses — it cannot change any plan.
    map_.clear();
  }
  map_[key] = std::move(entry);
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace vc
