#include "codec/transform.h"

#include <cmath>

#include "codec/simd.h"
#include "common/math_util.h"

namespace vc {

namespace {

constexpr int kHalf = kBlockSize / 2;

/// Precomputed DCT-II basis, folded by the cosine symmetry
/// cos((2(N−1−x)+1)uπ/2N) = (−1)ᵘ cos((2x+1)uπ/2N): even-frequency rows
/// see only the symmetric half-sums of the input, odd rows only the
/// antisymmetric half-differences. Folding first and multiplying 4×4
/// sub-matrices halves the multiply count of every 8-point transform.
struct DctBasis {
  double even[kHalf][kHalf];  // even[k][x] = c(2k)·cos((2x+1)(2k)π/16)
  double odd[kHalf][kHalf];   // odd[k][x]  = c(2k+1)·cos((2x+1)(2k+1)π/16)
  double full[kBlockSize][kBlockSize];  // full[u][x], for the sparse path
  DctBasis() {
    for (int u = 0; u < kBlockSize; ++u) {
      double cu = u == 0 ? std::sqrt(1.0 / kBlockSize)
                         : std::sqrt(2.0 / kBlockSize);
      for (int x = 0; x < kBlockSize; ++x) {
        double value = cu * std::cos((2 * x + 1) * u * kPi / (2 * kBlockSize));
        full[u][x] = value;
        if (x < kHalf) {
          if (u % 2 == 0) {
            even[u / 2][x] = value;
          } else {
            odd[u / 2][x] = value;
          }
        }
      }
    }
  }
};

const DctBasis& Basis() {
  static const DctBasis basis;
  return basis;
}

/// 8-point DCT-II of `in` into `out` (natural frequency order).
inline void ForwardDct8(const double* in, double* out, const DctBasis& b) {
  double e[kHalf], o[kHalf];
  for (int i = 0; i < kHalf; ++i) {
    e[i] = in[i] + in[kBlockSize - 1 - i];
    o[i] = in[i] - in[kBlockSize - 1 - i];
  }
  for (int k = 0; k < kHalf; ++k) {
    double sum_e = 0, sum_o = 0;
    for (int i = 0; i < kHalf; ++i) {
      sum_e += e[i] * b.even[k][i];
      sum_o += o[i] * b.odd[k][i];
    }
    out[2 * k] = sum_e;
    out[2 * k + 1] = sum_o;
  }
}

/// 8-point inverse of ForwardDct8.
inline void InverseDct8(const double* in, double* out, const DctBasis& b) {
  for (int i = 0; i < kHalf; ++i) {
    double e = 0, o = 0;
    for (int k = 0; k < kHalf; ++k) {
      e += in[2 * k] * b.even[k][i];
      o += in[2 * k + 1] * b.odd[k][i];
    }
    out[i] = e + o;
    out[kBlockSize - 1 - i] = e - o;
  }
}

void ForwardDctScalar(const ResidualBlock& input, CoeffBlock* output) {
  const auto& b = Basis();
  // Separable: rows, then columns of the (transposed) row results.
  double row[kBlockSize], freq[kBlockSize];
  double temp[kBlockSize][kBlockSize];  // temp[u][y]
  for (int y = 0; y < kBlockSize; ++y) {
    for (int x = 0; x < kBlockSize; ++x) row[x] = input[y * kBlockSize + x];
    ForwardDct8(row, freq, b);
    for (int u = 0; u < kBlockSize; ++u) temp[u][y] = freq[u];
  }
  for (int u = 0; u < kBlockSize; ++u) {
    ForwardDct8(temp[u], freq, b);
    for (int v = 0; v < kBlockSize; ++v) {
      (*output)[v * kBlockSize + u] = freq[v];
    }
  }
}

void InverseDctScalar(const CoeffBlock& input, ResidualBlock* output) {
  const auto& b = Basis();
  double spatial[kBlockSize];
  double temp[kBlockSize][kBlockSize];  // temp[x][v]
  for (int v = 0; v < kBlockSize; ++v) {
    InverseDct8(&input[v * kBlockSize], spatial, b);
    for (int x = 0; x < kBlockSize; ++x) temp[x][v] = spatial[x];
  }
  for (int x = 0; x < kBlockSize; ++x) {
    InverseDct8(temp[x], spatial, b);
    for (int y = 0; y < kBlockSize; ++y) {
      // Round half away from zero (as std::lround), without the libm call:
      // adding ±0.5 then truncating matches lround for every magnitude a
      // dequantized coefficient sum can reach.
      double rounded = spatial[y] + std::copysign(0.5, spatial[y]);
      (*output)[y * kBlockSize + x] =
          static_cast<int16_t>(Clamp(rounded, -32768.0, 32767.0));
    }
  }
}

void InverseDctSparseScalar(const CoeffBlock& input, int nonzero_count,
                            ResidualBlock* output) {
  const auto& b = Basis();
  double acc[kBlockPixels] = {};
  int remaining = nonzero_count;
  for (int v = 0; v < kBlockSize && remaining > 0; ++v) {
    for (int u = 0; u < kBlockSize && remaining > 0; ++u) {
      const double coeff = input[v * kBlockSize + u];
      if (coeff == 0.0) continue;
      --remaining;
      // One separable outer product: coeff · B[v][y] · B[u][x].
      const double* col = b.full[v];
      const double* row = b.full[u];
      for (int y = 0; y < kBlockSize; ++y) {
        const double weight = coeff * col[y];
        double* out_row = acc + y * kBlockSize;
        for (int x = 0; x < kBlockSize; ++x) out_row[x] += weight * row[x];
      }
    }
  }
  for (int i = 0; i < kBlockPixels; ++i) {
    double rounded = acc[i] + std::copysign(0.5, acc[i]);
    (*output)[i] = static_cast<int16_t>(Clamp(rounded, -32768.0, 32767.0));
  }
}

uint64_t QuantizeScalar(const CoeffBlock& coeffs, double inv_qstep,
                        double dead_zone, LevelBlock* levels) {
  uint64_t nonzero_mask = 0;
  for (int i = 0; i < kBlockPixels; ++i) {
    double scaled = coeffs[i] * inv_qstep;
    auto magnitude = static_cast<int32_t>(std::abs(scaled) + dead_zone);
    (*levels)[i] = scaled < 0 ? -magnitude : magnitude;
    nonzero_mask |= static_cast<uint64_t>(magnitude != 0) << i;
  }
  return nonzero_mask;
}

#if defined(VC_SIMD_X86)

// The vector DCT works "column-parallel": instead of an 8-point butterfly on
// one row at a time, each stage runs the butterfly on all 8 rows at once with
// the row index spread across vector lanes. Two 8×8 transposes put the data
// in lane order for each stage. With 4 lanes per register the 8×8 double
// working set is 8 rows × 2 __m256d, i.e. exactly the 16 ymm registers — no
// spills between stages. Per lane, the adds/multiplies happen in exactly the
// order ForwardDct8/InverseDct8 perform them (accumulators start at zero and
// fold terms in ascending i/k; the `target` attribute enables AVX2 only, not
// FMA, so nothing is contracted), so every output element is bit-identical
// to the scalar path — which the tests and the encoder/decoder bit-exactness
// contract rely on.

VC_AVX2_FN inline void LoadResidualRowsAvx2(const ResidualBlock& input,
                                            __m256d m[8][2]) {
  for (int y = 0; y < kBlockSize; ++y) {
    __m128i v16 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(&input[y * kBlockSize]));
    __m256i v32 = _mm256_cvtepi16_epi32(v16);
    m[y][0] = _mm256_cvtepi32_pd(_mm256_castsi256_si128(v32));
    m[y][1] = _mm256_cvtepi32_pd(_mm256_extracti128_si256(v32, 1));
  }
}

VC_AVX2_FN inline void ForwardStageAvx2(const __m256d in[8][2],
                                        __m256d out[8][2],
                                        const DctBasis& b) {
  __m256d e[kHalf][2], o[kHalf][2];
  for (int i = 0; i < kHalf; ++i) {
    for (int j = 0; j < 2; ++j) {
      e[i][j] = _mm256_add_pd(in[i][j], in[kBlockSize - 1 - i][j]);
      o[i][j] = _mm256_sub_pd(in[i][j], in[kBlockSize - 1 - i][j]);
    }
  }
  for (int k = 0; k < kHalf; ++k) {
    for (int j = 0; j < 2; ++j) {
      __m256d se = _mm256_setzero_pd();
      __m256d so = _mm256_setzero_pd();
      for (int i = 0; i < kHalf; ++i) {
        se = _mm256_add_pd(
            se, _mm256_mul_pd(e[i][j], _mm256_set1_pd(b.even[k][i])));
        so = _mm256_add_pd(
            so, _mm256_mul_pd(o[i][j], _mm256_set1_pd(b.odd[k][i])));
      }
      out[2 * k][j] = se;
      out[2 * k + 1][j] = so;
    }
  }
}

VC_AVX2_FN inline void InverseStageAvx2(const __m256d in[8][2],
                                        __m256d out[8][2],
                                        const DctBasis& b) {
  for (int i = 0; i < kHalf; ++i) {
    for (int j = 0; j < 2; ++j) {
      __m256d e = _mm256_setzero_pd();
      __m256d o = _mm256_setzero_pd();
      for (int k = 0; k < kHalf; ++k) {
        e = _mm256_add_pd(
            e, _mm256_mul_pd(in[2 * k][j], _mm256_set1_pd(b.even[k][i])));
        o = _mm256_add_pd(
            o, _mm256_mul_pd(in[2 * k + 1][j], _mm256_set1_pd(b.odd[k][i])));
      }
      out[i][j] = _mm256_add_pd(e, o);
      out[kBlockSize - 1 - i][j] = _mm256_sub_pd(e, o);
    }
  }
}

VC_AVX2_FN inline void StoreRoundedRowAvx2(const __m256d row[2],
                                           int16_t* out) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d lo = _mm256_set1_pd(-32768.0);
  const __m256d hi = _mm256_set1_pd(32767.0);
  __m128i quads[2];
  for (int j = 0; j < 2; ++j) {
    __m256d v = row[j];
    __m256d signed_half = _mm256_or_pd(_mm256_and_pd(v, sign_mask), half);
    __m256d rounded = _mm256_add_pd(v, signed_half);
    __m256d clamped = _mm256_max_pd(_mm256_min_pd(rounded, hi), lo);
    quads[j] = _mm256_cvttpd_epi32(clamped);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_packs_epi32(quads[0], quads[1]));
}

VC_AVX2_FN void ForwardDctAvx2(const ResidualBlock& input,
                               CoeffBlock* output) {
  const auto& b = Basis();
  __m256d m[8][2], t[8][2];
  LoadResidualRowsAvx2(input, m);
  simd::Transpose8x8(m);
  ForwardStageAvx2(m, t, b);
  simd::Transpose8x8(t);
  ForwardStageAvx2(t, m, b);
  for (int v = 0; v < kBlockSize; ++v) {
    for (int j = 0; j < 2; ++j) {
      _mm256_storeu_pd(&(*output)[v * kBlockSize + 4 * j], m[v][j]);
    }
  }
}

VC_AVX2_FN void InverseDctAvx2(const CoeffBlock& input,
                               ResidualBlock* output) {
  const auto& b = Basis();
  __m256d m[8][2], t[8][2];
  for (int v = 0; v < kBlockSize; ++v) {
    for (int j = 0; j < 2; ++j) {
      m[v][j] = _mm256_loadu_pd(&input[v * kBlockSize + 4 * j]);
    }
  }
  simd::Transpose8x8(m);
  InverseStageAvx2(m, t, b);
  simd::Transpose8x8(t);
  InverseStageAvx2(t, m, b);
  for (int y = 0; y < kBlockSize; ++y) {
    StoreRoundedRowAvx2(m[y], &(*output)[y * kBlockSize]);
  }
}

VC_AVX2_FN void InverseDctSparseAvx2(const CoeffBlock& input,
                                     int nonzero_count,
                                     ResidualBlock* output) {
  const auto& b = Basis();
  __m256d acc[kBlockSize][2];
  for (int y = 0; y < kBlockSize; ++y) {
    acc[y][0] = _mm256_setzero_pd();
    acc[y][1] = _mm256_setzero_pd();
  }
  int remaining = nonzero_count;
  for (int v = 0; v < kBlockSize && remaining > 0; ++v) {
    for (int u = 0; u < kBlockSize && remaining > 0; ++u) {
      const double coeff = input[v * kBlockSize + u];
      if (coeff == 0.0) continue;
      --remaining;
      const double* col = b.full[v];
      const __m256d row0 = _mm256_loadu_pd(&b.full[u][0]);
      const __m256d row1 = _mm256_loadu_pd(&b.full[u][4]);
      for (int y = 0; y < kBlockSize; ++y) {
        const __m256d weight = _mm256_set1_pd(coeff * col[y]);
        acc[y][0] = _mm256_add_pd(acc[y][0], _mm256_mul_pd(weight, row0));
        acc[y][1] = _mm256_add_pd(acc[y][1], _mm256_mul_pd(weight, row1));
      }
    }
  }
  for (int y = 0; y < kBlockSize; ++y) {
    StoreRoundedRowAvx2(acc[y], &(*output)[y * kBlockSize]);
  }
}

VC_AVX2_FN uint64_t QuantizeAvx2(const CoeffBlock& coeffs, double inv_qstep,
                                 double dead_zone, LevelBlock* levels) {
  const __m256d inv = _mm256_set1_pd(inv_qstep);
  const __m256d dz = _mm256_set1_pd(dead_zone);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_srli_epi64(_mm256_set1_epi32(-1), 1));
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  uint64_t nonzero_mask = 0;
  for (int i = 0; i < kBlockPixels; i += 4) {
    __m256d s = _mm256_mul_pd(_mm256_loadu_pd(&coeffs[i]), inv);
    __m256d m = _mm256_add_pd(_mm256_and_pd(s, abs_mask), dz);
    __m128i magnitude = _mm256_cvttpd_epi32(m);
    // Compact the four 64-bit `scaled < 0` masks into four 32-bit lanes,
    // then negate the flagged lanes via (x ^ m) - m.
    __m256d cmp = _mm256_cmp_pd(s, zero, _CMP_LT_OQ);
    __m128i neg = _mm_castps_si128(
        _mm_shuffle_ps(_mm_castpd_ps(_mm256_castpd256_pd128(cmp)),
                       _mm_castpd_ps(_mm256_extractf128_pd(cmp, 1)),
                       _MM_SHUFFLE(2, 0, 2, 0)));
    __m128i level = _mm_sub_epi32(_mm_xor_si128(magnitude, neg), neg);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&(*levels)[i]), level);
    // A level is nonzero iff its magnitude truncates to nonzero, i.e.
    // iff !(m < 1): one bit per lane, taken from the doubles so it does not
    // wait for the conversion.
    nonzero_mask |= static_cast<uint64_t>(_mm256_movemask_pd(
                        _mm256_cmp_pd(m, one, _CMP_NLT_UQ)))
                    << i;
  }
  return nonzero_mask;
}

/// Whether the transform kernels should take their AVX2 variant.
inline bool UseAvx2() { return simd::ActiveLevel() == simd::Level::kAvx2; }

#endif  // VC_SIMD_X86

}  // namespace

void ForwardDct(const ResidualBlock& input, CoeffBlock* output) {
#if defined(VC_SIMD_X86)
  if (UseAvx2()) {
    ForwardDctAvx2(input, output);
    return;
  }
#endif
  ForwardDctScalar(input, output);
}

void InverseDct(const CoeffBlock& input, ResidualBlock* output) {
#if defined(VC_SIMD_X86)
  if (UseAvx2()) {
    InverseDctAvx2(input, output);
    return;
  }
#endif
  InverseDctScalar(input, output);
}

void InverseDctSparse(const CoeffBlock& input, int nonzero_count,
                      ResidualBlock* output) {
  const auto& b = Basis();
  if (nonzero_count == 1 && input[0] != 0.0) {
    // DC-only block — the most common sparse case at medium/high QP. The
    // outer product is a constant fill; the arithmetic below matches the
    // general loop exactly (same multiply order), so the result is
    // bit-identical to taking the general path.
    const double weight = input[0] * b.full[0][0];
    const double value = weight * b.full[0][0];
    const double rounded = value + std::copysign(0.5, value);
    const auto pixel = static_cast<int16_t>(Clamp(rounded, -32768.0, 32767.0));
    output->fill(pixel);
    return;
  }
#if defined(VC_SIMD_X86)
  if (UseAvx2()) {
    InverseDctSparseAvx2(input, nonzero_count, output);
    return;
  }
#endif
  InverseDctSparseScalar(input, nonzero_count, output);
}

double QStepForQp(int qp) {
  qp = Clamp(qp, 0, kMaxQp);
  return 0.625 * std::pow(2.0, qp / 6.0);
}

uint64_t Quantize(const CoeffBlock& coeffs, double qstep,
                  LevelBlock* levels) {
  // Dead-zone quantizer: slightly biases toward zero, which measurably
  // improves rate at equal distortion for residual statistics. One
  // reciprocal up front instead of 64 divides; floor of a non-negative
  // value is a plain truncating cast, which vectorizes.
  constexpr double kDeadZone = 0.4;
  const double inv_qstep = 1.0 / qstep;
#if defined(VC_SIMD_X86)
  if (UseAvx2()) return QuantizeAvx2(coeffs, inv_qstep, kDeadZone, levels);
#endif
  return QuantizeScalar(coeffs, inv_qstep, kDeadZone, levels);
}

void Dequantize(const LevelBlock& levels, double qstep, CoeffBlock* coeffs) {
  // The compiler vectorizes this loop; hand-written SSE2/AVX2 versions
  // measured no faster, so it has no intrinsics path.
#pragma omp simd
  for (int i = 0; i < kBlockPixels; ++i) {
    (*coeffs)[i] = levels[i] * qstep;
  }
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
