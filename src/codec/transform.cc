#include "codec/transform.h"

#include <algorithm>
#include <bit>
#include <cassert>
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

// The stage bodies below are plain C++: the scalar reference, and what a
// pre-AVX2 host or a VC_DISABLE_SIMD build runs. On x86 the two stage pairs
// also have AVX2 kernels (further down), dispatched on the host CPU; both
// are integer arithmetic whose intermediates never leave their lanes'
// range, so they agree bit for bit.
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

/// The dequantizer's step at `qp` ∈ [0, kMaxQp], in 1/64 coefficient units.
inline int32_t DequantScale(int qp) {
  return kDequantScale[qp % 6] << (qp / 6);
}

/// One level's reconstructed coefficient at a DequantScale step.
[[gnu::always_inline]] inline int32_t DequantizeLevel(int32_t level,
                                                      int32_t scale) {
  level = Clamp(level, -kMaxDequantLevel, kMaxDequantLevel);
  return Clip16((level * scale + 32) >> 6);
}

[[gnu::always_inline]] inline void DequantizeBody(const LevelBlock& levels,
                                                  int qp, CoeffBlock* coeffs) {
  const int32_t scale = DequantScale(qp);
#pragma omp simd
  for (int i = 0; i < kBlockPixels; ++i) {
    (*coeffs)[i] = DequantizeLevel(levels[i], scale);
  }
}

// The stage pairs the codec runs per block, each stage inlined from its
// body above: the scalar reference of the AVX2 kernels below.

[[gnu::always_inline]] inline uint64_t ForwardDctQuantizeBody(
    const ResidualBlock& residual, int qp, LevelBlock* levels) {
  CoeffBlock coeffs;
  ForwardDctBody(residual, &coeffs);
  return QuantizeBody(coeffs, qp, levels);
}

[[gnu::always_inline]] inline void DequantizeInverseDctBody(
    const LevelBlock& levels, int qp, ResidualBlock* residual) {
  CoeffBlock coeffs;
  DequantizeBody(levels, qp, &coeffs);
  InverseDctBody(coeffs, residual);
}

#if defined(VC_SIMD_X86)

// The AVX2 stage pairs compute the same integers in matrix form on 16-bit
// pairs, with no transpose: `_mm256_madd_epi16` returns a0·b0 + a1·b1 per
// int32 lane. Forward is X·Tᵀ, then T·Z; inverse is Tᵀ·D, then A·T. Every
// int16 operand is exact: residuals in [−255, 255] bound the forward row
// pass to (255·512 + 2) >> 2 = 32,640, the inverse clips both passes to
// int16, which is exactly the saturation of `_mm256_packs_epi32`, and no
// row sum exceeds 512·32,768 < 2³¹. The loops are unrolled at every
// optimization level, so their rows stay in registers.

// HEVC's basis as a matrix: T[u][k] weighs sample k in output u.
constexpr int16_t kBasis[kBlockSize][kBlockSize] = {
    {64, 64, 64, 64, 64, 64, 64, 64},
    {89, 75, 50, 18, -18, -50, -75, -89},
    {83, 36, -36, -83, -83, -36, 36, 83},
    {75, -18, -89, -50, 50, 89, 18, -75},
    {64, -64, -64, 64, 64, -64, -64, 64},
    {50, -89, 18, 75, -75, -18, 89, -50},
    {36, -83, 83, -36, -36, 83, -83, 36},
    {18, -50, 75, -89, 89, -75, 50, -18}};

/// M = T or Tᵀ in the two shapes the passes read: its rows, and for Y·Mᵀ
/// on two rows at once, half_columns[h][p] holding (M[4h+i][2p],
/// M[4h+i][2p+1]) in lane i of each 128-bit half.
struct PairMatrix {
  int16_t rows[kBlockSize][kBlockSize];
  alignas(32) int16_t half_columns[2][4][2 * kBlockSize];
};

constexpr PairMatrix MakePairMatrix(bool transpose) {
  PairMatrix m{};
  for (int i = 0; i < kBlockSize; ++i) {
    for (int k = 0; k < kBlockSize; ++k) {
      const int16_t w = transpose ? kBasis[k][i] : kBasis[i][k];
      m.rows[i][k] = w;
      for (int half = 0; half < 2; ++half) {
        m.half_columns[i / 4][k / 2][8 * half + 2 * (i % 4) + k % 2] = w;
      }
    }
  }
  return m;
}

constexpr PairMatrix kForwardMatrix = MakePairMatrix(false);
constexpr PairMatrix kInverseMatrix = MakePairMatrix(true);

template <int kShift>
[[gnu::always_inline]] VC_AVX2_FN inline __m256i RoundShift(__m256i v) {
  const __m256i round = _mm256_set1_epi32(1 << (kShift - 1));
  return _mm256_srai_epi32(_mm256_add_epi32(v, round), kShift);
}

/// Y·Mᵀ for rows n and n+1 of Y, held as int16 in the low and high half of
/// `rows`: the two output rows, rounded, shifted by kShift and saturated to
/// int16, in the same layout.
template <int kShift>
[[gnu::always_inline]] VC_AVX2_FN inline __m256i RowPairPass(
    __m256i rows, const PairMatrix& m) {
  const __m256i pairs[4] = {
      _mm256_shuffle_epi32(rows, 0x00), _mm256_shuffle_epi32(rows, 0x55),
      _mm256_shuffle_epi32(rows, 0xAA), _mm256_shuffle_epi32(rows, 0xFF)};
  const auto* columns = reinterpret_cast<const __m256i*>(m.half_columns);
  __m256i lo = _mm256_setzero_si256();  // outputs 0..3 of each row
  __m256i hi = _mm256_setzero_si256();  // outputs 4..7
#pragma GCC unroll 4
  for (int p = 0; p < 4; ++p) {
    lo = _mm256_add_epi32(lo, _mm256_madd_epi16(pairs[p], columns[p]));
    hi = _mm256_add_epi32(hi, _mm256_madd_epi16(pairs[p], columns[4 + p]));
  }
  return _mm256_packs_epi32(RoundShift<kShift>(lo), RoundShift<kShift>(hi));
}

/// Row v of M·Y, rounded and shifted by kShift; pairs[p] holds rows 2p and
/// 2p+1 of Y interleaved.
template <int kShift>
[[gnu::always_inline]] VC_AVX2_FN inline __m256i PairPass(
    const __m256i pairs[4], const int16_t* m_row) {
  __m256i sum = _mm256_setzero_si256();
#pragma GCC unroll 4
  for (int p = 0; p < 4; ++p) {
    int32_t weights;
    std::memcpy(&weights, m_row + 2 * p, sizeof(weights));
    sum = _mm256_add_epi32(
        sum, _mm256_madd_epi16(pairs[p], _mm256_set1_epi32(weights)));
  }
  return RoundShift<kShift>(sum);
}

/// Two rows as (a_i, b_i) pairs in lane i, from the int16 layout a
/// saturating pack of them leaves: (a0..a3, b0..b3 | a4..a7, b4..b7).
[[gnu::always_inline]] VC_AVX2_FN inline __m256i PairUp(__m256i packed) {
  const __m256i order = _mm256_setr_epi8(
      0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15,  //
      0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15);
  return _mm256_shuffle_epi8(packed, order);
}

VC_AVX2_FN uint64_t ForwardDctQuantizeAvx2(const ResidualBlock& residual,
                                           int qp, LevelBlock* levels) {
  __m256i pairs[4];  // Z = X·Tᵀ, rows 2p and 2p+1 paired up
#pragma GCC unroll 4
  for (int p = 0; p < 4; ++p) {
    const __m256i z = RowPairPass<2>(
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(&residual[2 * p * kBlockSize])),
        kForwardMatrix);
    pairs[p] = PairUp(_mm256_permute4x64_epi64(z, 0xD8));
  }
  // C = T·Z, quantized in registers: |c| ≤ 32,640 and the scale are both
  // below 2¹⁵, so one madd against (scale, 0) is |c|·scale.
  const int shift = 18 + qp / 6;
  const __m256i scale = _mm256_set1_epi32(kQuantScale[qp % 6]);
  const __m256i dead_zone = _mm256_set1_epi32((2 << shift) / 5);
  const __m128i shift_count = _mm_cvtsi32_si128(shift);
  uint64_t mask = 0;
#pragma GCC unroll 8
  for (int v = 0; v < kBlockSize; ++v) {
    const __m256i c = PairPass<9>(pairs, kForwardMatrix.rows[v]);
    const __m256i magnitude = _mm256_srl_epi32(
        _mm256_add_epi32(_mm256_madd_epi16(_mm256_abs_epi32(c), scale),
                         dead_zone),
        shift_count);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(&(*levels)[v * kBlockSize]),
        _mm256_sign_epi32(magnitude, c));
    const __m256i nonzero =
        _mm256_cmpgt_epi32(magnitude, _mm256_setzero_si256());
    mask |= static_cast<uint64_t>(
                _mm256_movemask_ps(_mm256_castsi256_ps(nonzero)))
            << (8 * v);
  }
  return mask;
}

VC_AVX2_FN void DequantizeInverseDctAvx2(const LevelBlock& levels, int qp,
                                         ResidualBlock* residual) {
  const __m256i scale = _mm256_set1_epi32(DequantScale(qp));
  const __m256i max_level = _mm256_set1_epi32(kMaxDequantLevel);
  const __m256i min_level = _mm256_set1_epi32(-kMaxDequantLevel);
  __m256i coeffs[kBlockSize];
#pragma GCC unroll 8
  for (int v = 0; v < kBlockSize; ++v) {
    const __m256i level = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(&levels[v * kBlockSize]));
    coeffs[v] = RoundShift<6>(_mm256_mullo_epi32(
        _mm256_max_epi32(_mm256_min_epi32(level, max_level), min_level),
        scale));
  }
  __m256i pairs[4];  // D, the pack being its Clip16
#pragma GCC unroll 4
  for (int p = 0; p < 4; ++p) {
    pairs[p] = PairUp(_mm256_packs_epi32(coeffs[2 * p], coeffs[2 * p + 1]));
  }
  // A = Tᵀ·D and R = A·T, two rows at a time; each pack is a Clip16.
#pragma GCC unroll 4
  for (int n = 0; n < kBlockSize; n += 2) {
    const __m256i a = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(PairPass<7>(pairs, kInverseMatrix.rows[n]),
                           PairPass<7>(pairs, kInverseMatrix.rows[n + 1])),
        0xD8);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(&(*residual)[n * kBlockSize]),
        RowPairPass<12>(a, kInverseMatrix));
  }
}

/// Whether the stage pairs should take their AVX2 kernels.
inline bool UseAvx2() { return simd::ActiveLevel() == simd::Level::kAvx2; }

#endif  // VC_SIMD_X86

}  // namespace

void ForwardDct(const ResidualBlock& input, CoeffBlock* output) {
  ForwardDctBody(input, output);
}

void InverseDct(const CoeffBlock& input, ResidualBlock* output) {
  InverseDctBody(input, output);
}

int16_t InverseDctDc(int32_t dc) {
  // InverseDct's two passes for a lone DC: every other input is zero, and
  // both butterflies reduce to 64·dc.
  const int32_t column = Clip16((64 * dc + 64) >> 7);
  return static_cast<int16_t>(Clip16((64 * column + 2048) >> 12));
}

double QStepForQp(int qp) {
  // Computed once by the expression the steps are defined by, so every
  // caller sees the same bits a per-call std::pow returns.
  static const std::array<double, kMaxQp + 1> kSteps = [] {
    std::array<double, kMaxQp + 1> steps{};
    for (int q = 0; q <= kMaxQp; ++q) {
      steps[q] = 0.625 * std::pow(2.0, q / 6.0);
    }
    return steps;
  }();
  return kSteps[Clamp(qp, 0, kMaxQp)];
}

uint64_t Quantize(const CoeffBlock& coeffs, int qp, LevelBlock* levels) {
  return QuantizeBody(coeffs, qp, levels);
}

void Dequantize(const LevelBlock& levels, int qp, CoeffBlock* coeffs) {
  DequantizeBody(levels, qp, coeffs);
}

uint64_t ForwardDctQuantize(const ResidualBlock& residual, int qp,
                            LevelBlock* levels) {
  assert(std::all_of(residual.begin(), residual.end(),
                     [](int16_t v) { return v >= -255 && v <= 255; }));
#if defined(VC_SIMD_X86)
  if (UseAvx2()) return ForwardDctQuantizeAvx2(residual, qp, levels);
#endif
  return ForwardDctQuantizeBody(residual, qp, levels);
}

void DequantizeInverseDct(const LevelBlock& levels, int qp,
                          ResidualBlock* residual) {
#if defined(VC_SIMD_X86)
  if (UseAvx2()) return DequantizeInverseDctAvx2(levels, qp, residual);
#endif
  DequantizeInverseDctBody(levels, qp, residual);
}

int16_t DequantizeInverseDctDc(int32_t level, int qp) {
  return InverseDctDc(DequantizeLevel(level, DequantScale(qp)));
}

}  // namespace vc
