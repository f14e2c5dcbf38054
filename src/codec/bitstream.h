#ifndef VC_CODEC_BITSTREAM_H_
#define VC_CODEC_BITSTREAM_H_

#include <array>
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
/// video stream ("VCC2" bitstream). Everything a decoder needs to begin.
/// The magic names the coefficient semantics: "VCC1" streams, coded for the
/// retired double-precision transform, are rejected.
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

  /// The 16-byte header (magic "VCC2" + fields).
  std::array<uint8_t, kSerializedSize> Bytes() const;

  /// Bytes() as a vector.
  std::vector<uint8_t> Serialize() const;

  /// Parses and validates a header; `data` must start with the magic.
  static Result<SequenceHeader> Parse(Slice data);
};

/// Frame-QP byte of a frame whose tiles carry their own QPs: each tile's
/// data then starts with that tile's QP byte. Only MergeTileStreams writes
/// it, for tiles stitched from cells stored at different rungs. It is no
/// legal QP (<= kMaxQp), and no single bit flip turns a legal QP into it.
inline constexpr uint8_t kPerTileQp = 0xFF;

/// \brief One encoded frame: its type plus the payload bytes.
///
/// Payload layout: `[type:u8][qp:u8][tile offsets: u32 × T][tile data]`.
/// The decoder dequantizes with the frame's own QP, not the sequence
/// header's; the embedded tile-offset table lets individual tiles be
/// located (and decoded, or byte-copied homomorphically) without parsing
/// the rest. When the QP byte is kPerTileQp, every tile's data is
/// `[qp:u8][tile bits]` and the offsets point at those QP bytes, so such a
/// frame is exactly one byte per tile larger than the uniform layout. The
/// marker lives in the frame, not the sequence header: stitched and
/// re-encoded pieces still concatenate under one header, and every
/// uniform-QP stream keeps its bytes.
struct EncodedFrame {
  FrameType type = FrameType::kIntra;
  std::vector<uint8_t> payload;

  size_t size_bytes() const { return payload.size(); }
};

/// One tile's data inside a frame payload: (offset, length) relative to
/// the payload start.
using TileRange = std::pair<uint32_t, uint32_t>;

/// Locates the per-tile payload ranges inside an encoded frame: replaces
/// `*ranges` with `tile_count` TileRanges. The caller owns the vector and
/// reuses it from frame to frame, so a frame loop allocates nothing here.
Status ParseTileOffsets(Slice frame_payload, int tile_count,
                        std::vector<TileRange>* ranges);

/// Reads the frame type from an encoded frame payload.
Result<FrameType> ParseFrameType(Slice frame_payload);

/// Reads the per-frame quantization parameter: a QP in [0, kMaxQp], or
/// kPerTileQp for a frame whose tiles carry their own.
Result<int> ParseFrameQp(Slice frame_payload);

/// Splits one tile's data of a kPerTileQp frame into its QP and its bits.
Result<int> SplitTileQp(Slice* tile_data);

/// \brief A parsed stream that borrows its bytes: the header plus one Slice
/// per frame payload, pointing into the buffer it was parsed from (or into
/// an EncodedVideo's payloads). It is valid only while those bytes live;
/// the query executor keeps the cache's shared value beside each view.
/// Every frame's type byte has been checked; the type is `frames[i][0]`.
struct EncodedVideoView {
  SequenceHeader header;
  std::vector<Slice> frames;

  /// The one stream parser: reads a stream produced by
  /// EncodedVideo::Serialize without copying a payload.
  static Result<EncodedVideoView> Parse(Slice data);
};

/// \brief A fully encoded stream: header plus frames, with helpers to write
/// to / read from a flat byte vector (frames are length-prefixed).
struct EncodedVideo {
  SequenceHeader header;
  std::vector<EncodedFrame> frames;

  /// Total compressed size in bytes (header + length prefixes + payloads).
  size_t size_bytes() const;

  /// Flattens to a self-contained byte stream.
  std::vector<uint8_t> Serialize() const;

  /// Parses a stream produced by Serialize: EncodedVideoView::Parse, then a
  /// copy of each payload.
  static Result<EncodedVideo> Parse(Slice data);
};

}  // namespace vc

#endif  // VC_CODEC_BITSTREAM_H_
