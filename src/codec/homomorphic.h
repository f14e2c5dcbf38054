#ifndef VC_CODEC_HOMOMORPHIC_H_
#define VC_CODEC_HOMOMORPHIC_H_

#include <vector>

#include "codec/bitstream.h"
#include "geometry/tile_grid.h"

namespace vc {

// Homomorphic bitstream operations: transformations performed directly on
// encoded bytes, with no decode/encode cycle. They are what make the tiled
// storage layout cheap to serve in other shapes — exporting a monolithic
// stream for download, or re-tiling — at byte-copy speed.
//
// All of them rely on two properties of the VCC bitstream: (a) tile
// payloads are self-contained bit strings located via the frame's tile
// offset table, and (b) with motion-constrained tile sets a tile's syntax
// is position-independent (macroblock order, intra availability, and MV
// bounds are all relative to the tile rectangle).

/// TILESELECT: extracts one tile of a tiled stream as a standalone
/// single-tile stream whose frames decode to exactly the same pixels as a
/// partial decode of that tile. Requires motion-constrained tiles. A tile
/// of a per-tile-QP frame gets its own QP back in the frame header, so
/// extracting a stitched tile returns the cell it was stitched from byte
/// for byte.
Result<EncodedVideo> ExtractTileStream(const EncodedVideo& tiled,
                                       TileId tile);

/// TILEUNION: merges single-tile streams (tile-index order, one per cell of
/// a `rows`×`cols` grid over a `width`×`height` frame) into one tiled
/// stream — the inverse of ExtractTileStream. All parts must agree on
/// frame count, per-frame type, GOP length, flags and fps, and their
/// dimensions must match the grid's 16-aligned partition of the frame. A
/// frame whose parts agree on its QP keeps the uniform layout; otherwise
/// it is written as a kPerTileQp frame (bitstream.h), one byte per tile
/// larger, so cells stored at different rungs stitch without a re-encode.
Result<EncodedVideo> MergeTileStreams(const std::vector<EncodedVideo>& parts,
                                      int rows, int cols, int width,
                                      int height);

/// GOPUNION: temporal concatenation of streams with identical coding
/// parameters, each starting with a keyframe (true of every stored segment
/// cell). The result plays the parts back to back.
Result<EncodedVideo> ConcatenateStreams(
    const std::vector<EncodedVideo>& parts);

}  // namespace vc

#endif  // VC_CODEC_HOMOMORPHIC_H_
