#include "codec/transform.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "codec/simd.h"
#include "common/math_util.h"

namespace vc {

namespace {

// HEVC's 8-point integer DCT: the orthonormal DCT-II basis scaled by 64·√8
// and rounded. Even output rows see only the symmetric half-sums of a line
// (rows 0 and 4 weigh them by 64, rows 2 and 6 by 83 and 36); odd rows see
// only the antisymmetric half-differences, weighed by kOdd[k] for row 2k+1.
constexpr int32_t kOdd[4][4] = {{89, 75, 50, 18},
                                {75, -18, -89, -50},
                                {50, -89, 18, 75},
                                {18, -50, 75, -89}};

inline int32_t Clip16(int32_t v) { return Clamp(v, -32768, 32767); }

// The kernel bodies below are plain C++ written once and compiled twice:
// inlined into the public functions for the build's baseline ISA and, on
// x86, into AVX2-targeted wrappers dispatched on the host CPU. Integer
// arithmetic has one result whatever instructions compute it, so the two
// compilations agree bit for bit by construction.
//
// A pass runs one 8-point butterfly on all eight lines of a block at once:
// `in[k * 8 + line]` is sample k of a line, so every step is one operation
// across a row of eight lanes, which the compiler vectorizes. A transpose
// between the passes turns the rows into columns.

template <typename From, typename To>
[[gnu::always_inline]] inline void Transpose(const From* in, To* out) {
  for (int i = 0; i < kBlockSize; ++i) {
    for (int j = 0; j < kBlockSize; ++j) {
      out[j * kBlockSize + i] = static_cast<To>(in[i * kBlockSize + j]);
    }
  }
}

template <int kShift>
[[gnu::always_inline]] inline void ForwardPass(const int32_t* in,
                                               int32_t* out) {
  constexpr int32_t kRound = 1 << (kShift - 1);
#pragma omp simd
  for (int j = 0; j < kBlockSize; ++j) {
    int32_t e[4], o[4];
    for (int k = 0; k < 4; ++k) {
      e[k] = in[k * kBlockSize + j] + in[(7 - k) * kBlockSize + j];
      o[k] = in[k * kBlockSize + j] - in[(7 - k) * kBlockSize + j];
    }
    const int32_t ee0 = e[0] + e[3], eo0 = e[0] - e[3];
    const int32_t ee1 = e[1] + e[2], eo1 = e[1] - e[2];
    out[0 * kBlockSize + j] = (64 * (ee0 + ee1) + kRound) >> kShift;
    out[4 * kBlockSize + j] = (64 * (ee0 - ee1) + kRound) >> kShift;
    out[2 * kBlockSize + j] = (83 * eo0 + 36 * eo1 + kRound) >> kShift;
    out[6 * kBlockSize + j] = (36 * eo0 - 83 * eo1 + kRound) >> kShift;
    for (int k = 0; k < 4; ++k) {
      out[(2 * k + 1) * kBlockSize + j] =
          (kOdd[k][0] * o[0] + kOdd[k][1] * o[1] + kOdd[k][2] * o[2] +
           kOdd[k][3] * o[3] + kRound) >>
          kShift;
    }
  }
}

template <int kShift>
[[gnu::always_inline]] inline void InversePass(const int32_t* in,
                                               int32_t* out) {
  constexpr int32_t kRound = 1 << (kShift - 1);
#pragma omp simd
  for (int j = 0; j < kBlockSize; ++j) {
    int32_t o[4];
    for (int k = 0; k < 4; ++k) {
      o[k] = kOdd[0][k] * in[1 * kBlockSize + j] +
             kOdd[1][k] * in[3 * kBlockSize + j] +
             kOdd[2][k] * in[5 * kBlockSize + j] +
             kOdd[3][k] * in[7 * kBlockSize + j];
    }
    const int32_t c2 = in[2 * kBlockSize + j], c6 = in[6 * kBlockSize + j];
    const int32_t eo0 = 83 * c2 + 36 * c6, eo1 = 36 * c2 - 83 * c6;
    const int32_t ee0 = 64 * (in[j] + in[4 * kBlockSize + j]);
    const int32_t ee1 = 64 * (in[j] - in[4 * kBlockSize + j]);
    const int32_t e[4] = {ee0 + eo0, ee1 + eo1, ee1 - eo1, ee0 - eo0};
    for (int k = 0; k < 4; ++k) {
      out[k * kBlockSize + j] = Clip16((e[k] + o[k] + kRound) >> kShift);
      out[(7 - k) * kBlockSize + j] =
          Clip16((e[k] - o[k] + kRound) >> kShift);
    }
  }
}

// HEVC's order and shifts for 8-bit video: rows, then columns, forward (shifts
// 2 and 9, leaving coefficients at 16× the orthonormal DCT); columns, then
// rows, inverse (shifts 7 and 12, clipping to int16 after each).

[[gnu::always_inline]] inline void ForwardDctBody(const ResidualBlock& input,
                                                  CoeffBlock* output) {
  int32_t a[kBlockPixels], b[kBlockPixels];
  Transpose(input.data(), a);
  ForwardPass<2>(a, b);
  Transpose(b, a);
  ForwardPass<9>(a, output->data());
}

[[gnu::always_inline]] inline void InverseDctBody(const CoeffBlock& input,
                                                  ResidualBlock* output) {
  int32_t a[kBlockPixels], b[kBlockPixels];
  InversePass<7>(input.data(), a);
  Transpose(a, b);
  InversePass<12>(b, a);
  Transpose(a, output->data());
}

// The quantizer realizes QStepForQp(qp) in the transform's 16× scale, i.e.
// a step of 10·2^(qp/6): kQuantScale[r] ≈ 2^18 / (10·2^(r/6)) with a shift of
// 18 + qp/6, and kDequantScale[r] ≈ 640·2^(r/6) with a shift of 6.
constexpr int32_t kQuantScale[6] = {26214, 23354, 20807, 18536, 16514, 14712};
constexpr int32_t kDequantScale[6] = {640, 718, 806, 905, 1016, 1140};

// Levels past this magnitude dequantize to a saturated coefficient at every
// QP (each level is worth at least 640/64 = 10), so clamping to it changes no
// result and keeps level · scale inside int32 (4096 · 1140 · 2^8 < 2^31).
constexpr int32_t kMaxDequantLevel = 4096;

/// Packs 64 byte flags, each 0 or 1, into a raster bit mask. One multiply
/// per 8 flags: it moves byte j's low bit to bit 56 + j, and no two partial
/// products overlap, so nothing carries.
inline uint64_t PackByteFlags(const uint8_t* flags) {
  uint64_t mask = 0;
  for (int i = 0; i < kBlockPixels; i += 8) {
    uint64_t word;
    std::memcpy(&word, flags + i, sizeof(word));
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    mask |= ((word * 0x0102040810204080ull) >> 56) << i;
  }
  return mask;
}

[[gnu::always_inline]] inline uint64_t QuantizeBody(const CoeffBlock& coeffs,
                                                    int qp,
                                                    LevelBlock* levels) {
  // Dead-zone quantizer: a magnitude rounds up only past 0.6 of a step,
  // which measurably improves rate at equal distortion for residual
  // statistics.
  const int shift = 18 + qp / 6;
  const int32_t scale = kQuantScale[qp % 6];
  const int32_t dead_zone = (2 << shift) / 5;
  uint8_t nonzero[kBlockPixels];
#pragma omp simd
  for (int i = 0; i < kBlockPixels; ++i) {
    const int32_t c = coeffs[i];
    const int32_t magnitude = ((c < 0 ? -c : c) * scale + dead_zone) >> shift;
    (*levels)[i] = c < 0 ? -magnitude : magnitude;
    nonzero[i] = magnitude != 0;
  }
  return PackByteFlags(nonzero);
}

[[gnu::always_inline]] inline void DequantizeBody(const LevelBlock& levels,
                                                  int qp, CoeffBlock* coeffs) {
  const int32_t scale = kDequantScale[qp % 6] << (qp / 6);
#pragma omp simd
  for (int i = 0; i < kBlockPixels; ++i) {
    const int32_t level =
        Clamp(levels[i], -kMaxDequantLevel, kMaxDequantLevel);
    (*coeffs)[i] = Clip16((level * scale + 32) >> 6);
  }
}

#if defined(VC_SIMD_X86)

VC_AVX2_FN void ForwardDctAvx2(const ResidualBlock& input,
                               CoeffBlock* output) {
  ForwardDctBody(input, output);
}

VC_AVX2_FN void InverseDctAvx2(const CoeffBlock& input,
                               ResidualBlock* output) {
  InverseDctBody(input, output);
}

VC_AVX2_FN uint64_t QuantizeAvx2(const CoeffBlock& coeffs, int qp,
                                 LevelBlock* levels) {
  return QuantizeBody(coeffs, qp, levels);
}

VC_AVX2_FN void DequantizeAvx2(const LevelBlock& levels, int qp,
                               CoeffBlock* coeffs) {
  DequantizeBody(levels, qp, coeffs);
}

/// Whether the transform kernels should take their AVX2 compilation.
inline bool UseAvx2() { return simd::ActiveLevel() == simd::Level::kAvx2; }

#endif  // VC_SIMD_X86

}  // namespace

void ForwardDct(const ResidualBlock& input, CoeffBlock* output) {
#if defined(VC_SIMD_X86)
  if (UseAvx2()) return ForwardDctAvx2(input, output);
#endif
  ForwardDctBody(input, output);
}

void InverseDct(const CoeffBlock& input, ResidualBlock* output) {
#if defined(VC_SIMD_X86)
  if (UseAvx2()) return InverseDctAvx2(input, output);
#endif
  InverseDctBody(input, output);
}

int16_t InverseDctDc(int32_t dc) {
  // InverseDct's two passes for a lone DC: every other input is zero, and
  // both butterflies reduce to 64·dc.
  const int32_t column = Clip16((64 * dc + 64) >> 7);
  return static_cast<int16_t>(Clip16((64 * column + 2048) >> 12));
}

double QStepForQp(int qp) {
  qp = Clamp(qp, 0, kMaxQp);
  return 0.625 * std::pow(2.0, qp / 6.0);
}

uint64_t Quantize(const CoeffBlock& coeffs, int qp, LevelBlock* levels) {
#if defined(VC_SIMD_X86)
  if (UseAvx2()) return QuantizeAvx2(coeffs, qp, levels);
#endif
  return QuantizeBody(coeffs, qp, levels);
}

void Dequantize(const LevelBlock& levels, int qp, CoeffBlock* coeffs) {
#if defined(VC_SIMD_X86)
  if (UseAvx2()) return DequantizeAvx2(levels, qp, coeffs);
#endif
  DequantizeBody(levels, qp, coeffs);
}

namespace {

constexpr std::array<int, kBlockPixels> MakeZigzagOrder() {
  std::array<int, kBlockPixels> o{};
  int index = 0;
  for (int s = 0; s < 2 * kBlockSize - 1; ++s) {
    if (s % 2 == 0) {
      // Walk up-right on even anti-diagonals.
      int y = s < kBlockSize ? s : kBlockSize - 1;
      int x = s - y;
      while (y >= 0 && x < kBlockSize) {
        o[index++] = y * kBlockSize + x;
        --y;
        ++x;
      }
    } else {
      int x = s < kBlockSize ? s : kBlockSize - 1;
      int y = s - x;
      while (x >= 0 && y < kBlockSize) {
        o[index++] = y * kBlockSize + x;
        --x;
        ++y;
      }
    }
  }
  return o;
}

constexpr std::array<int, kBlockPixels> kZigzagOrder = MakeZigzagOrder();

constexpr std::array<uint8_t, kBlockPixels> kZigzagRank = [] {
  std::array<uint8_t, kBlockPixels> rank{};
  for (int i = 0; i < kBlockPixels; ++i) {
    rank[kZigzagOrder[i]] = static_cast<uint8_t>(i);
  }
  return rank;
}();

}  // namespace

const std::array<int, kBlockPixels>& ZigzagOrder() { return kZigzagOrder; }

const std::array<uint8_t, kBlockPixels>& ZigzagRank() { return kZigzagRank; }

}  // namespace vc
