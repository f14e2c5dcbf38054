#ifndef VC_CODEC_BITSTREAM_H_
#define VC_CODEC_BITSTREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "geometry/tile_grid.h"

namespace vc {

/// Frame coding types.
enum class FrameType : uint8_t {
  kIntra = 0,  ///< Keyframe: decodable in isolation.
  kInter = 1,  ///< Predicted from the previous reconstructed frame.
};

/// Intra prediction modes (per macroblock).
enum class IntraMode : uint8_t { kDc = 0, kHorizontal = 1, kVertical = 2 };

/// \brief Stream-level parameters, written once at the head of every encoded
/// video stream ("VCC1" bitstream). Everything a decoder needs to begin.
struct SequenceHeader {
  uint16_t width = 0;          ///< Luma width (multiple of 16).
  uint16_t height = 0;         ///< Luma height (multiple of 16).
  uint16_t fps_times_100 = 3000;  ///< Frame rate × 100.
  uint16_t gop_length = 30;    ///< Frames per GOP (first is intra).
  uint8_t qp = 28;             ///< Base quantization parameter.
  uint8_t tile_rows = 1;       ///< Spatial tiling inside the stream.
  uint8_t tile_cols = 1;
  uint8_t flags = 0;  ///< Bit 0: motion constrained to tiles.

  static constexpr uint8_t kFlagMotionConstrainedTiles = 0x1;

  bool motion_constrained_tiles() const {
    return (flags & kFlagMotionConstrainedTiles) != 0;
  }
  double fps() const { return fps_times_100 / 100.0; }
  TileGrid tile_grid() const { return TileGrid(tile_rows, tile_cols); }

  /// Serialized size in bytes (fixed).
  static constexpr size_t kSerializedSize = 4 + 2 * 4 + 4;

  /// Writes the 16-byte header (magic "VCC1" + fields).
  std::vector<uint8_t> Serialize() const;

  /// Parses and validates a header; `data` must start with the magic.
  static Result<SequenceHeader> Parse(Slice data);
};

/// \brief One encoded frame: its type plus the payload bytes.
///
/// Payload layout: `[type:u8][qp:u8][tile offsets: u32 × T][tile data]`.
/// The decoder dequantizes with the frame's own QP, not the sequence
/// header's; the embedded tile-offset table lets individual tiles be
/// located (and decoded, or byte-copied homomorphically) without parsing
/// the rest.
struct EncodedFrame {
  FrameType type = FrameType::kIntra;
  std::vector<uint8_t> payload;

  size_t size_bytes() const { return payload.size(); }
};

/// Locates the per-tile payload ranges inside an encoded frame.
/// Returns `tile_count` (offset, length) pairs relative to the payload start.
Result<std::vector<std::pair<uint32_t, uint32_t>>> ParseTileOffsets(
    Slice frame_payload, int tile_count);

/// Reads the frame type from an encoded frame payload.
Result<FrameType> ParseFrameType(Slice frame_payload);

/// Reads the per-frame quantization parameter.
Result<int> ParseFrameQp(Slice frame_payload);

/// \brief A fully encoded stream: header plus frames, with helpers to write
/// to / read from a flat byte vector (frames are length-prefixed).
struct EncodedVideo {
  SequenceHeader header;
  std::vector<EncodedFrame> frames;

  /// Total compressed size in bytes (header + length prefixes + payloads).
  size_t size_bytes() const;

  /// Flattens to a self-contained byte stream.
  std::vector<uint8_t> Serialize() const;

  /// Parses a stream produced by Serialize.
  static Result<EncodedVideo> Parse(Slice data);
};

}  // namespace vc

#endif  // VC_CODEC_BITSTREAM_H_
