#include "storage/cell_key.h"

#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace vc {

namespace {

// Identity string a video's keyspace id is interned under: name + data
// directory, NUL-separated so concatenations cannot collide.
std::string KeyspaceIdentity(const VideoMetadata& metadata) {
  std::string identity = metadata.name;
  identity.push_back('\0');
  identity += metadata.DataDir();
  return identity;
}

}  // namespace

uint32_t InternCellKeyspace(const std::string& identity) {
  static std::mutex mu;
  static std::unordered_map<std::string, uint32_t>* registry =
      new std::unordered_map<std::string, uint32_t>();
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = registry->try_emplace(
      identity, static_cast<uint32_t>(registry->size() + 1));
  return it->second;
}

PackedCellKey CellKey::Packed(const VideoMetadata& metadata) const {
  uint32_t keyspace = metadata.cell_keyspace.get();
  if (keyspace == 0) {
    keyspace = InternCellKeyspace(KeyspaceIdentity(metadata));
    metadata.cell_keyspace.set(keyspace);
  }
  if (keyspace < (1u << kPackedKeyspaceBits) && segment >= 0 &&
      segment < (1 << kPackedSegmentBits) && tile >= 0 &&
      tile < (1 << kPackedTileBits) && quality >= 0 &&
      quality < (1 << kPackedQualityBits)) {
    return (static_cast<uint64_t>(keyspace)
            << (kPackedSegmentBits + kPackedTileBits + kPackedQualityBits)) |
           (static_cast<uint64_t>(segment)
            << (kPackedTileBits + kPackedQualityBits)) |
           (static_cast<uint64_t>(tile) << kPackedQualityBits) |
           static_cast<uint64_t>(quality);
  }
  // Escape hatch for coordinates that overflow a bit-field (or a keyspace
  // registry past 2^18 videos): intern the full coordinate string and
  // return its id in the low bits. Fast-path keys always carry a nonzero
  // keyspace in the top 18 bits, so the two ranges cannot collide. Exact,
  // merely slower; never taken for any layout the catalog validates today.
  std::string identity = KeyspaceIdentity(metadata);
  identity.push_back('\0');
  identity += std::to_string(segment) + "." + std::to_string(tile) + "." +
              std::to_string(quality);
  return static_cast<uint64_t>(InternCellKeyspace(identity));
}

std::string CellKey::DebugString(const VideoMetadata& metadata) const {
  char buffer[160];
  int n;
  if (metadata.data_dir.empty()) {
    n = std::snprintf(buffer, sizeof(buffer), "%s|v%u|%d.%d.%d",
                      metadata.name.c_str(), metadata.version, segment, tile,
                      quality);
  } else {
    n = std::snprintf(buffer, sizeof(buffer), "%s|%s|%d.%d.%d",
                      metadata.name.c_str(), metadata.data_dir.c_str(),
                      segment, tile, quality);
  }
  if (n < 0 || n >= static_cast<int>(sizeof(buffer))) {
    // Pathologically long video name: fall back to allocating pieces.
    return metadata.name + "|" + metadata.DataDir() + "|" +
           std::to_string(segment) + "." + std::to_string(tile) + "." +
           std::to_string(quality);
  }
  return std::string(buffer, static_cast<size_t>(n));
}

}  // namespace vc
