#ifndef VC_CODEC_MB_COMMON_H_
#define VC_CODEC_MB_COMMON_H_

// Internal shared helpers for the encoder and decoder. The two sides must
// produce bit-identical predictions and reconstructions; keeping the logic in
// one place is what guarantees no encoder/decoder drift.

#include <array>
#include <vector>

#include "codec/bitstream.h"
#include "codec/motion.h"
#include "codec/transform.h"
#include "common/bitio.h"
#include "common/result.h"
#include "image/frame.h"

namespace vc {
namespace codec_internal {

/// Luma macroblock edge (16×16 luma, 8×8 chroma).
inline constexpr int kMbSize = 16;

/// Computes the per-tile luma pixel rectangles for a stream configuration.
/// Fails when the tile grid is too fine for the frame (each tile must hold at
/// least one macroblock).
Result<std::vector<TileGrid::PixelRect>> ComputeTileRects(
    const SequenceHeader& header);

/// Which intra neighbors exist for a block at (x, y) given its tile
/// rectangle: prediction never crosses tile boundaries so tiles stay
/// independently decodable.
struct IntraNeighbors {
  bool top = false;
  bool left = false;
};
IntraNeighbors IntraAvailability(int x, int y, const MotionBounds& bounds);

/// Builds a `size`×`size` intra prediction from reconstructed neighbors.
/// `bounds` is in the plane's own coordinates. H requires `left`, V requires
/// `top` (callers must pick an available mode); DC uses whatever exists and
/// falls back to 128.
void IntraPredict(PlaneView plane, int x, int y, int size, IntraMode mode,
                  const MotionBounds& bounds, uint8_t* out);

/// Encodes the residual between `size`×`size` blocks `cur` (arbitrary
/// stride) and `pred` (contiguous), writing levels to `writer` and the
/// reconstruction (pred + dequantized residual, clamped) to `recon`
/// (contiguous). Handles any size that is a multiple of 8 by iterating 8×8
/// transform blocks in raster order.
void EncodeResidual(const uint8_t* cur, int cur_stride, const uint8_t* pred,
                    int size, double qstep, BitWriter* writer, uint8_t* recon);

/// Decoder mirror of EncodeResidual: reads levels and reconstructs.
Status DecodeResidual(BitReader* reader, const uint8_t* pred, int size,
                      double qstep, uint8_t* recon);

/// Writes a contiguous `size`×`size` block into a frame plane.
void StoreBlock(const uint8_t* block, int size, uint8_t* plane, int stride,
                int x, int y);

/// Chroma motion vector derived from a luma vector (half resolution).
inline MotionVector ChromaVector(MotionVector mv) {
  return MotionVector{mv.dx / 2, mv.dy / 2};
}

/// Halves a luma-space rectangle into chroma coordinates.
inline MotionBounds ChromaBounds(const MotionBounds& luma) {
  return MotionBounds{luma.x0 / 2, luma.y0 / 2, luma.x1 / 2, luma.y1 / 2};
}

/// Converts a tile pixel rect to motion bounds.
inline MotionBounds BoundsOf(const TileGrid::PixelRect& rect) {
  return MotionBounds{rect.x, rect.y, rect.x + rect.width,
                      rect.y + rect.height};
}

}  // namespace codec_internal
}  // namespace vc

#endif  // VC_CODEC_MB_COMMON_H_
