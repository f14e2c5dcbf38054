#ifndef VC_CODEC_ENTROPY_H_
#define VC_CODEC_ENTROPY_H_

#include "codec/transform.h"
#include "common/bitio.h"
#include "common/status.h"

namespace vc {

/// Entropy-codes one quantized 8×8 block: the number of nonzero levels
/// followed by (zero-run, level) pairs in zigzag order, all Exp-Golomb coded.
/// All-zero blocks cost a single UE(0) — typical for well-predicted inter
/// content, which is where the bitrate savings come from. `nonzero_mask` is
/// the raster nonzero mask Quantize returned for `levels` (bit i set iff
/// `levels[i]` is nonzero); the coder visits only those positions. Returns
/// the number of nonzero levels so callers can pick an inverse-transform
/// path without re-scanning the block.
int EncodeLevelBlock(const LevelBlock& levels, uint64_t nonzero_mask,
                     BitWriter* writer);

/// Decodes one block written by EncodeLevelBlock. If `nonzero_count` is
/// non-null it receives the number of nonzero levels (from the stream, so the
/// caller avoids a rescan).
Status DecodeLevelBlock(BitReader* reader, LevelBlock* levels,
                        int* nonzero_count = nullptr);

}  // namespace vc

#endif  // VC_CODEC_ENTROPY_H_
