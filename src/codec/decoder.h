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
class Decoder {
 public:
  /// Validates the header and creates a decoder.
  static Result<std::unique_ptr<Decoder>> Create(const SequenceHeader& header);

  /// Decodes the next frame in full and returns it.
  Result<Frame> Decode(Slice frame_payload);

  /// Decodes only `tiles` of the next frame into the internal reconstruction
  /// (other tiles keep their previous content). Returns a copy of the
  /// reconstruction.
  Result<Frame> DecodeTiles(Slice frame_payload,
                            const std::vector<TileId>& tiles);

  /// Last reconstructed frame.
  const Frame& reconstructed() const { return recon_; }

  const SequenceHeader& header() const { return header_; }

 private:
  Decoder(const SequenceHeader& header,
          std::vector<TileGrid::PixelRect> tile_rects);

  Status DecodeTilePayload(Slice payload, const TileGrid::PixelRect& rect,
                           FrameType type, int qp);

  const SequenceHeader header_;
  const std::vector<TileGrid::PixelRect> tile_rects_;
  Frame recon_;
  Frame reference_;
};

/// Convenience: decodes an entire stream to frames.
Result<std::vector<Frame>> DecodeVideo(const EncodedVideo& video);

}  // namespace vc

#endif  // VC_CODEC_DECODER_H_
