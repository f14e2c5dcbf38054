#include "codec/entropy.h"

namespace vc {

int EncodeLevelBlock(const LevelBlock& levels, BitWriter* writer) {
  // The count is order-independent, so scan in raster order — no zigzag
  // indirection, and the loop vectorizes.
  int nonzero = 0;
#pragma omp simd reduction(+ : nonzero)
  for (int i = 0; i < kBlockPixels; ++i) {
    if (levels[i] != 0) ++nonzero;
  }
  writer->WriteUE(static_cast<uint64_t>(nonzero));
  const auto& zigzag = ZigzagOrder();
  int run = 0;
  int remaining = nonzero;
  for (int i = 0; i < kBlockPixels && remaining > 0; ++i) {
    int32_t level = levels[zigzag[i]];
    if (level == 0) {
      ++run;
      continue;
    }
    writer->WriteUE(static_cast<uint64_t>(run));
    writer->WriteSE(level);
    run = 0;
    --remaining;
  }
  return nonzero;
}

Status DecodeLevelBlock(BitReader* reader, LevelBlock* levels,
                        int* nonzero_count) {
  levels->fill(0);
  const auto& zigzag = ZigzagOrder();
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
    (*levels)[zigzag[position]] = static_cast<int32_t>(level);
    ++position;
  }
  if (nonzero_count != nullptr) *nonzero_count = static_cast<int>(nonzero);
  return Status::OK();
}

}  // namespace vc
