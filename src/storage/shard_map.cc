#include "storage/shard_map.h"

#include <algorithm>
#include <cstdio>

namespace vc {

namespace {

/// Ring points per shard: enough that each shard's arc share stays near
/// 1/shard_count and a grow remaps close to the ideal 1/(N+1).
constexpr int kVnodesPerShard = 64;

}  // namespace

uint64_t ShardMap::Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

uint64_t ShardMap::Hash(const std::string& key) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;  // FNV-1a prime
  }
  // FNV-1a mixes short strings (like the ring's "<shard>#<vnode>" labels)
  // poorly in the high bits; a splitmix64-style finalizer avalanches them
  // so the ring points spread uniformly.
  return Mix(h);
}

ShardMap::ShardMap(int shard_count)
    : shard_count_(shard_count < 1 ? 1 : shard_count) {
  ring_.reserve(static_cast<size_t>(shard_count_) * kVnodesPerShard);
  char point[32];
  for (int shard = 0; shard < shard_count_; ++shard) {
    for (int vnode = 0; vnode < kVnodesPerShard; ++vnode) {
      std::snprintf(point, sizeof(point), "%d#%d", shard, vnode);
      ring_.emplace_back(Hash(point), shard);
    }
  }
  // Sort by position; break the (vanishingly rare) position collision by
  // shard id so the ring is identical on every node regardless of insert
  // order.
  std::sort(ring_.begin(), ring_.end());
}

int ShardMap::ShardFor(const std::string& key) const {
  if (shard_count_ == 1) return 0;
  return ShardForHash(Hash(key));
}

int ShardMap::ShardFor(uint64_t key) const {
  if (shard_count_ == 1) return 0;
  // Sequential packed keys differ only in low bits; the mix avalanches them
  // across the whole ring.
  return ShardForHash(Mix(key));
}

int ShardMap::ShardForHash(uint64_t h) const {
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(h, 0),
      [](const std::pair<uint64_t, int>& a, const std::pair<uint64_t, int>& b) {
        return a.first < b.first;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap past the last point
  return it->second;
}

}  // namespace vc
