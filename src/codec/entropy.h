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

/// Decodes one block written by EncodeLevelBlock into `levels`, which a
/// decoder keeps across blocks. On entry `*nonzero_mask` names the raster
/// positions where `levels` may be nonzero (all others must be zero; start
/// from a zeroed block and a zero mask): only those are cleared, so a block
/// costs its own levels, not a 64-level fill. On return, success or not,
/// `*nonzero_mask` again names every position written: for a decoded block
/// it is the raster nonzero mask, as Quantize returned it to the encoder.
Status DecodeLevelBlock(BitReader* reader, LevelBlock* levels,
                        uint64_t* nonzero_mask);

}  // namespace vc

#endif  // VC_CODEC_ENTROPY_H_
