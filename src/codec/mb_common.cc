#include "codec/mb_common.h"

#include <cstring>

#include "codec/entropy.h"
#include "codec/simd.h"
#include "common/math_util.h"

namespace vc {
namespace codec_internal {

Result<std::vector<TileGrid::PixelRect>> ComputeTileRects(
    const SequenceHeader& header) {
  TileGrid grid = header.tile_grid();
  std::vector<TileGrid::PixelRect> rects;
  rects.reserve(grid.tile_count());
  for (int i = 0; i < grid.tile_count(); ++i) {
    TileGrid::PixelRect rect;
    VC_ASSIGN_OR_RETURN(
        rect, grid.PixelRectOf(grid.TileAt(i), header.width, header.height,
                               kMbSize));
    if (rect.width < kMbSize || rect.height < kMbSize) {
      return Status::InvalidArgument("tile smaller than one macroblock");
    }
    rects.push_back(rect);
  }
  return rects;
}

IntraNeighbors IntraAvailability(int x, int y, const MotionBounds& bounds) {
  IntraNeighbors n;
  n.top = y > bounds.y0;
  n.left = x > bounds.x0;
  return n;
}

void IntraPredict(PlaneView plane, int x, int y, int size, IntraMode mode,
                  const MotionBounds& bounds, uint8_t* out) {
  IntraNeighbors n = IntraAvailability(x, y, bounds);
  const uint8_t* top_row =
      n.top ? plane.data + static_cast<size_t>(y - 1) * plane.stride + x
            : nullptr;
  switch (mode) {
    case IntraMode::kVertical: {
      for (int row = 0; row < size; ++row) {
        for (int col = 0; col < size; ++col) {
          out[row * size + col] = top_row[col];
        }
      }
      return;
    }
    case IntraMode::kHorizontal: {
      for (int row = 0; row < size; ++row) {
        uint8_t left =
            plane.data[static_cast<size_t>(y + row) * plane.stride + (x - 1)];
        for (int col = 0; col < size; ++col) {
          out[row * size + col] = left;
        }
      }
      return;
    }
    case IntraMode::kDc: {
      int sum = 0;
      int count = 0;
      if (n.top) {
        for (int col = 0; col < size; ++col) sum += top_row[col];
        count += size;
      }
      if (n.left) {
        for (int row = 0; row < size; ++row) {
          sum += plane.data[static_cast<size_t>(y + row) * plane.stride +
                            (x - 1)];
        }
        count += size;
      }
      uint8_t dc =
          count > 0 ? static_cast<uint8_t>((sum + count / 2) / count) : 128;
      for (int i = 0; i < size * size; ++i) out[i] = dc;
      return;
    }
  }
}

namespace {

/// Copies the prediction into the reconstruction for one transform block —
/// what an all-zero level block reconstructs to.
inline void CopyPredBlock(const uint8_t* pred, int size, int bx, int by,
                          uint8_t* recon) {
  for (int row = 0; row < kBlockSize; ++row) {
    const uint8_t* src = pred + (by + row) * size + bx;
    uint8_t* dst = recon + (by + row) * size + bx;
    std::memcpy(dst, src, kBlockSize);
  }
}

/// Computes one 8×8 residual block (cur − pred) and returns max|residual|.
inline int ComputeResidualBlock(const uint8_t* cur, int cur_stride,
                                const uint8_t* pred, int size, int bx, int by,
                                ResidualBlock* residual) {
#if defined(VC_SIMD_X86)
  if (simd::Enabled()) {
    const __m128i zero = _mm_setzero_si128();
    __m128i max_abs16 = zero;
    for (int row = 0; row < kBlockSize; ++row) {
      __m128i c = _mm_unpacklo_epi8(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
              cur + static_cast<size_t>(by + row) * cur_stride + bx)),
          zero);
      __m128i p = _mm_unpacklo_epi8(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
              pred + (by + row) * size + bx)),
          zero);
      __m128i d = _mm_sub_epi16(c, p);
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(&(*residual)[row * kBlockSize]), d);
      // |d| ≤ 255, so max(d, −d) cannot hit the int16 negation edge.
      max_abs16 =
          _mm_max_epi16(max_abs16, _mm_max_epi16(d, _mm_sub_epi16(zero, d)));
    }
    max_abs16 = _mm_max_epi16(max_abs16, _mm_srli_si128(max_abs16, 8));
    max_abs16 = _mm_max_epi16(max_abs16, _mm_srli_si128(max_abs16, 4));
    max_abs16 = _mm_max_epi16(max_abs16, _mm_srli_si128(max_abs16, 2));
    return static_cast<int16_t>(_mm_cvtsi128_si32(max_abs16));
  }
#endif
  int max_abs = 0;
  for (int row = 0; row < kBlockSize; ++row) {
    for (int col = 0; col < kBlockSize; ++col) {
      int c = cur[static_cast<size_t>(by + row) * cur_stride + bx + col];
      int p = pred[(by + row) * size + bx + col];
      int diff = c - p;
      (*residual)[row * kBlockSize + col] = static_cast<int16_t>(diff);
      int abs_diff = diff < 0 ? -diff : diff;
      if (abs_diff > max_abs) max_abs = abs_diff;
    }
  }
  return max_abs;
}

/// Sum of squared residuals. Exact in both paths: pmaddwd products fit in
/// int32 lanes (≤ 16·255² per lane) and the total in int64.
inline int64_t ResidualSsd(const ResidualBlock& residual) {
#if defined(VC_SIMD_X86)
  if (simd::Enabled()) {
    __m128i acc = _mm_setzero_si128();
    for (int i = 0; i < kBlockPixels; i += 8) {
      __m128i d = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(&residual[i]));
      acc = _mm_add_epi32(acc, _mm_madd_epi16(d, d));
    }
    acc = _mm_add_epi32(acc, _mm_srli_si128(acc, 8));
    acc = _mm_add_epi32(acc, _mm_srli_si128(acc, 4));
    return _mm_cvtsi128_si32(acc);
  }
#endif
  int64_t ssd = 0;
#pragma omp simd reduction(+ : ssd)
  for (int i = 0; i < kBlockPixels; ++i) {
    ssd += int{residual[i]} * int{residual[i]};
  }
  return ssd;
}

/// recon = ClampPixel(pred + residual) for one 8×8 block. The saturating
/// 16-bit add followed by the unsigned-saturating pack equals the scalar
/// int-domain clamp for every reachable input (pred ∈ [0,255] and residual ∈
/// [−32768,32767] can overshoot 32767 by at most 255, where both paths pin
/// to 255).
inline void ReconstructBlock(const uint8_t* pred, int size, int bx, int by,
                             const ResidualBlock& residual, uint8_t* recon) {
#if defined(VC_SIMD_X86)
  if (simd::Enabled()) {
    const __m128i zero = _mm_setzero_si128();
    for (int row = 0; row < kBlockSize; ++row) {
      __m128i p = _mm_unpacklo_epi8(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
              pred + (by + row) * size + bx)),
          zero);
      __m128i r = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(&residual[row * kBlockSize]));
      __m128i sum = _mm_adds_epi16(p, r);
      _mm_storel_epi64(
          reinterpret_cast<__m128i*>(recon + (by + row) * size + bx),
          _mm_packus_epi16(sum, sum));
    }
    return;
  }
#endif
  for (int row = 0; row < kBlockSize; ++row) {
    for (int col = 0; col < kBlockSize; ++col) {
      int p = pred[(by + row) * size + bx + col];
      recon[(by + row) * size + bx + col] =
          ClampPixel(p + residual[row * kBlockSize + col]);
    }
  }
}

}  // namespace

void EncodeResidual(const uint8_t* cur, int cur_stride, const uint8_t* pred,
                    int size, double qstep, BitWriter* writer,
                    uint8_t* recon) {
  ResidualBlock residual;
  CoeffBlock coeffs;
  LevelBlock levels;
  // Every DCT coefficient's magnitude is bounded by the residual's L2 norm
  // (Parseval; the basis is orthonormal), itself at most 8·max|residual|.
  // When the bound stays strictly inside the quantizer dead zone
  // (level = 0 iff |X| < 0.6·qstep), every level is provably zero: the
  // block costs one codeword and reconstructs to the prediction, so the
  // transform is skipped outright. A borderline disagreement with the
  // quantizer's own rounding is harmless — both sides of the codec see the
  // same all-zero block either way.
  const double zero_bound = 0.6 * qstep;
  for (int by = 0; by < size; by += kBlockSize) {
    for (int bx = 0; bx < size; bx += kBlockSize) {
      int max_abs =
          ComputeResidualBlock(cur, cur_stride, pred, size, bx, by, &residual);
      bool provably_zero = 8.0 * max_abs < zero_bound;
      if (!provably_zero && max_abs < zero_bound) {
        // Cheap bound failed but the exact L2 bound might not: 64 integer
        // multiplies against a 1024-flop transform.
        provably_zero =
            static_cast<double>(ResidualSsd(residual)) < zero_bound * zero_bound;
      }
      if (provably_zero) {
        // As EncodeLevelBlock writes an all-zero block.
        writer->WriteUE(0);
        CopyPredBlock(pred, size, bx, by, recon);
        continue;
      }

      ForwardDct(residual, &coeffs);
      const uint64_t nonzero_mask = Quantize(coeffs, qstep, &levels);
      const int nonzero = EncodeLevelBlock(levels, nonzero_mask, writer);
      // Reconstruct exactly as the decoder will, with the same all-zero /
      // sparse / dense inverse-transform dispatch so both reconstructions
      // stay bit-identical.
      if (nonzero == 0) {
        CopyPredBlock(pred, size, bx, by, recon);
        continue;
      }
      Dequantize(levels, qstep, &coeffs);
      if (nonzero <= kInverseDctSparseThreshold) {
        InverseDctSparse(coeffs, nonzero, &residual);
      } else {
        InverseDct(coeffs, &residual);
      }
      ReconstructBlock(pred, size, bx, by, residual, recon);
    }
  }
}

Status DecodeResidual(BitReader* reader, const uint8_t* pred, int size,
                      double qstep, uint8_t* recon) {
  ResidualBlock residual;
  CoeffBlock coeffs;
  LevelBlock levels;
  for (int by = 0; by < size; by += kBlockSize) {
    for (int bx = 0; bx < size; bx += kBlockSize) {
      // Mirror the encoder's all-zero / sparse / dense dispatch exactly so
      // both reconstructions stay bit-identical.
      int nonzero = 0;
      VC_RETURN_IF_ERROR(DecodeLevelBlock(reader, &levels, &nonzero));
      if (nonzero == 0) {
        CopyPredBlock(pred, size, bx, by, recon);
        continue;
      }
      Dequantize(levels, qstep, &coeffs);
      if (nonzero <= kInverseDctSparseThreshold) {
        InverseDctSparse(coeffs, nonzero, &residual);
      } else {
        InverseDct(coeffs, &residual);
      }
      ReconstructBlock(pred, size, bx, by, residual, recon);
    }
  }
  return Status::OK();
}

void StoreBlock(const uint8_t* block, int size, uint8_t* plane, int stride,
                int x, int y) {
  simd::CopyBlock(block, static_cast<size_t>(size),
                  plane + static_cast<size_t>(y) * stride + x,
                  static_cast<size_t>(stride), size);
}

}  // namespace codec_internal
}  // namespace vc
