#ifndef VC_CODEC_DECODER_H_
#define VC_CODEC_DECODER_H_

#include <memory>
#include <vector>

#include "codec/bitstream.h"
#include "common/result.h"
#include "geometry/tile_grid.h"
#include "image/frame.h"

namespace vc {

/// \brief Single-stream video decoder.
///
/// Stateful: frames of a stream must be supplied in coding order. With
/// motion-constrained tiles, `DecodeTiles` decodes only a subset of tiles —
/// the mechanism VisualCloud's client uses to reconstruct just the visible
/// region of a monolithic tiled stream (and what the tile index makes cheap:
/// untouched tiles are never even entropy-parsed).
///
/// The decoder works in place, as the encoder does: it holds two frame
/// buffers and, per frame, swaps them, so the last frame becomes the
/// reference and the new one is reconstructed over the frame before it. No
/// frame is copied. The in-place calls leave the result in reconstructed();
/// Decode and DecodeTiles are the same calls plus a copy of it.
class Decoder {
 public:
  /// Validates the header and creates a decoder.
  static Result<std::unique_ptr<Decoder>> Create(const SequenceHeader& header);

  /// Decodes the next frame in full into reconstructed().
  Status DecodeInPlace(Slice frame_payload);

  /// Decodes only `tiles` of the next frame into reconstructed(). Every
  /// other tile keeps its content from the last decoded frame: the decoder
  /// copies those tile rects from it before decoding the subset. A tile id
  /// outside the grid is an InvalidArgument before anything is decoded.
  Status DecodeTilesInPlace(Slice frame_payload,
                            const std::vector<TileId>& tiles);

  /// DecodeInPlace, then a copy of reconstructed().
  Result<Frame> Decode(Slice frame_payload);

  /// DecodeTilesInPlace, then a copy of reconstructed().
  Result<Frame> DecodeTiles(Slice frame_payload,
                            const std::vector<TileId>& tiles);

  /// The last frame decoded without error: a failed decode leaves it as it
  /// was (the next frame still predicts from it).
  const Frame& reconstructed() const { return recon_; }

  const SequenceHeader& header() const { return header_; }

 private:
  Decoder(const SequenceHeader& header,
          std::vector<TileGrid::PixelRect> tile_rects);

  /// The one decode body: every tile in index order when `tiles` is null,
  /// otherwise `*tiles` in their order.
  Status DecodeFrame(Slice frame_payload, const std::vector<TileId>* tiles);

  /// Decodes one tile's data at `qp`, the frame's QP; a kPerTileQp frame's
  /// tile data starts with the tile's own.
  Status DecodeTilePayload(Slice payload, const TileGrid::PixelRect& rect,
                           FrameType type, int qp);

  const SequenceHeader header_;
  const TileGrid grid_;
  const std::vector<TileGrid::PixelRect> tile_rects_;
  Frame recon_;      ///< The frame being decoded; then the last one decoded.
  Frame reference_;  ///< The frame before it: what inter blocks predict from.
  /// Reused per frame: the tile offset table, and which tiles a subset
  /// decode touches.
  std::vector<TileRange> ranges_;
  std::vector<uint8_t> touched_;
};

/// Convenience: decodes an entire stream to frames.
Result<std::vector<Frame>> DecodeVideo(const EncodedVideo& video);

}  // namespace vc

#endif  // VC_CODEC_DECODER_H_
