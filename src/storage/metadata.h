#ifndef VC_STORAGE_METADATA_H_
#define VC_STORAGE_METADATA_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "codec/quality.h"
#include "container/boxes.h"
#include "geometry/tile_grid.h"

namespace vc {

/// \brief Memo slot for a video's process-wide packed-key namespace.
///
/// Packed cell keys (storage/cell_key.h) namespace the (segment, tile,
/// quality) bit-fields by video identity. Interning the identity string
/// costs a mutex + hash-map lookup, so the resulting id is memoized here on
/// first use. The id is a pure function of (name, DataDir()), which copies
/// carry along, so copies keep the memo; do not mutate those fields after
/// cells have been read through the cache. Copy operations are defined on
/// this member class (not on VideoMetadata) so VideoMetadata stays an
/// aggregate.
class CellKeyspaceId {
 public:
  CellKeyspaceId() = default;
  CellKeyspaceId(const CellKeyspaceId& o)
      : id_(o.id_.load(std::memory_order_relaxed)) {}
  CellKeyspaceId& operator=(const CellKeyspaceId& o) {
    id_.store(o.id_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
    return *this;
  }

  /// 0 = not yet interned.
  uint32_t get() const { return id_.load(std::memory_order_relaxed); }
  void set(uint32_t id) const {
    id_.store(id, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<uint32_t> id_{0};
};

/// \brief Complete description of one stored (versioned) VR video.
///
/// A video is spatiotemporally partitioned into *cells*: segment (time) ×
/// tile (space) × quality (ladder rung). Each cell is an independently
/// decodable encoded stream on disk; this metadata records the layout plus
/// the per-cell size/checksum index. Serialized as a VCMF box tree
/// (metadata.v<N>.vcmf), mirroring how VisualCloud keeps a small MP4
/// metadata file per TLF version.
struct VideoMetadata {
  std::string name;
  uint32_t version = 0;
  uint16_t width = 0;
  uint16_t height = 0;
  uint16_t fps_times_100 = 3000;
  uint16_t frames_per_segment = 30;
  uint8_t tile_rows = 1;
  uint8_t tile_cols = 1;
  bool streaming = false;  ///< Live: segment count still growing.
  /// Directory (relative to the video dir) holding the cell files. Defaults
  /// to "v<version>". Live checkpoints publish successive versions that
  /// share one data directory, so already-written cells are never copied —
  /// the "unmodified tracks are pointers, not copies" rule.
  std::string data_dir;
  SphericalMeta spherical;
  QualityLadder ladder;
  std::vector<SegmentInfo> segments;
  /// Segment-major, then tile (row-major), then quality (ladder order).
  std::vector<CellInfo> cells;
  /// Runtime-only memo of the packed-cell-key namespace; never serialized.
  CellKeyspaceId cell_keyspace;

  int tile_count() const { return tile_rows * tile_cols; }
  int quality_count() const { return static_cast<int>(ladder.size()); }
  int segment_count() const { return static_cast<int>(segments.size()); }
  double fps() const { return fps_times_100 / 100.0; }
  TileGrid tile_grid() const { return TileGrid(tile_rows, tile_cols); }
  double segment_duration_seconds() const {
    return frames_per_segment / fps();
  }

  /// Flat index into `cells` for (segment, tile, quality).
  size_t CellIndex(int segment, int tile, int quality) const {
    return (static_cast<size_t>(segment) * tile_count() + tile) *
               quality_count() +
           quality;
  }

  /// Relative file name of a cell within the data directory.
  std::string CellFileName(int segment, int tile, int quality) const;

  /// The effective data directory ("v<version>" when unset).
  std::string DataDir() const {
    if (!data_dir.empty()) return data_dir;
    std::string dir = "v";
    dir += std::to_string(version);
    return dir;
  }

  /// Total stored bytes across all cells.
  uint64_t TotalBytes() const;

  /// Bytes of one segment at a single quality across all tiles.
  uint64_t SegmentBytesAtQuality(int segment, int quality) const;

  /// Structural validation (counts consistent, ladder non-empty, ...).
  Status Validate() const;

  /// Serializes to a VCMF byte stream.
  std::vector<uint8_t> Serialize() const;

  /// Parses a stream produced by Serialize.
  static Result<VideoMetadata> Parse(Slice data);
};

}  // namespace vc

#endif  // VC_STORAGE_METADATA_H_
