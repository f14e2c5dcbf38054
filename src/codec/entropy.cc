#include "codec/entropy.h"

#include <bit>

namespace vc {

int EncodeLevelBlock(const LevelBlock& levels, uint64_t nonzero_mask,
                     BitWriter* writer) {
  // Move each raster bit to its zigzag rank, so the pairs below come out in
  // scan order by walking set bits instead of all 64 positions. The count
  // is taken in the same loop: without -mpopcnt, std::popcount is a libgcc
  // call.
  uint64_t ranks = 0;
  int nonzero = 0;
  for (uint64_t m = nonzero_mask; m != 0; m &= m - 1) {
    ranks |= uint64_t{1} << kZigzagRank[std::countr_zero(m)];
    ++nonzero;
  }
  // The pending bits stay in locals for the whole block; written through
  // the writer, each pair would store them back and reload them.
  BitWriter::ScopedAccumulator out(writer);
  out.WriteUE(static_cast<uint64_t>(nonzero));
  int next = 0;  // scan rank just past the previous nonzero level
  for (; ranks != 0; ranks &= ranks - 1) {
    const int rank = std::countr_zero(ranks);
    const int32_t level = levels[kZigzagOrder[rank]];
    // The UE codes of the run and of the SE-mapped level: value + 1 in a
    // field of 2·width − 1 bits. SE maps v > 0 to 2v − 1 and v ≤ 0 to −2v,
    // so the level's value + 1 is 2|v| plus the sign bit. |v| is taken in
    // uint32_t, where INT32_MIN's magnitude 2^31 is representable, and
    // without a branch on the sign. Both codes in one write when they fit
    // 32 bits.
    const uint32_t sign = 0u - static_cast<uint32_t>(level < 0);
    const uint32_t magnitude = (static_cast<uint32_t>(level) ^ sign) - sign;
    const uint64_t level_code = (uint64_t{magnitude} << 1) | (sign & 1);
    const uint64_t run_code = static_cast<uint64_t>(rank - next) + 1;
    const int run_bits = 2 * (64 - std::countl_zero(run_code)) - 1;
    const int level_bits = 2 * (64 - std::countl_zero(level_code)) - 1;
    if (run_bits + level_bits <= 32) {
      out.WriteBits((run_code << level_bits) | level_code,
                    run_bits + level_bits);
    } else {
      out.WriteUE(run_code - 1);
      out.WriteUE(level_code - 1);
    }
    next = rank + 1;
  }
  return nonzero;
}

Status DecodeLevelBlock(BitReader* reader, LevelBlock* levels,
                        uint64_t* nonzero_mask) {
  // Clear only what the previous block left: a handful of positions, where
  // a 256-byte fill costs a string store per block.
  for (uint64_t m = *nonzero_mask; m != 0; m &= m - 1) {
    (*levels)[std::countr_zero(m)] = 0;
  }
  *nonzero_mask = 0;
  uint64_t nonzero;
  VC_RETURN_IF_ERROR(reader->ReadUE(&nonzero));
  if (nonzero > kBlockPixels) {
    return Status::Corruption("level block claims too many coefficients");
  }
  int position = 0;
  for (uint64_t i = 0; i < nonzero; ++i) {
    // Both codes of a (run, level) pair usually fit one reader window.
    uint64_t run, mapped;
    if (!reader->ReadUEPair(&run, &mapped)) {
      VC_RETURN_IF_ERROR(reader->ReadUE(&run));
      VC_RETURN_IF_ERROR(reader->ReadUE(&mapped));
    }
    const int64_t level = BitReader::SignedFromUE(mapped);
    // Range-check the run against the space left before adding it: a
    // crafted run near INT_MAX would otherwise overflow `position`.
    if (run >= static_cast<uint64_t>(kBlockPixels - position) || level == 0) {
      return Status::Corruption("level block run past end");
    }
    position += static_cast<int>(run);
    if (level < INT32_MIN || level > INT32_MAX) {
      return Status::Corruption("level magnitude out of range");
    }
    const int raster = kZigzagOrder[position];
    (*levels)[raster] = static_cast<int32_t>(level);
    *nonzero_mask |= uint64_t{1} << raster;
    ++position;
  }
  return Status::OK();
}

}  // namespace vc
