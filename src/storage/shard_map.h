#ifndef VC_STORAGE_SHARD_MAP_H_
#define VC_STORAGE_SHARD_MAP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vc {

/// \brief Consistent-hash placement of cell keys onto storage shards.
///
/// Each shard owns 64 virtual-node points on a 64-bit hash ring; a key
/// belongs to the shard owning the first point at or after the key's hash
/// (wrapping). Growing from N to N+1 shards therefore remaps only the keys
/// whose ring arc the new shard's points capture — about 1/(N+1) of them —
/// instead of rehashing everything, so a scale-out mostly preserves warm L2
/// contents. The mapping is a pure function of (shard_count, key): every
/// node of a cluster computes the same owner with no coordination, and
/// reruns are byte-for-byte reproducible.
class ShardMap {
 public:
  explicit ShardMap(int shard_count);

  /// The shard owning `key`, in [0, shard_count).
  int ShardFor(const std::string& key) const;

  /// The shard owning a packed 64-bit cell key (storage/cell_key.h) — the
  /// hot-path overload: one splitmix64 mix + ring lookup, no string
  /// formatting or byte-wise hashing.
  int ShardFor(uint64_t key) const;

  int shard_count() const { return shard_count_; }

  /// Stable 64-bit FNV-1a, the ring's hash. Exposed for tests.
  static uint64_t Hash(const std::string& key);

  /// splitmix64-style finalizer used both by Hash and by the packed-key
  /// ShardFor. Exposed for tests.
  static uint64_t Mix(uint64_t x);

 private:
  /// Ring lookup for an already-mixed 64-bit position.
  int ShardForHash(uint64_t h) const;

  int shard_count_;
  /// (ring position, shard) sorted by position.
  std::vector<std::pair<uint64_t, int>> ring_;
};

}  // namespace vc

#endif  // VC_STORAGE_SHARD_MAP_H_
