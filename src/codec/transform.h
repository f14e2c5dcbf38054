#ifndef VC_CODEC_TRANSFORM_H_
#define VC_CODEC_TRANSFORM_H_

#include <array>
#include <cstdint>

namespace vc {

/// Residual/coefficient block edge length used throughout the codec.
inline constexpr int kBlockSize = 8;
inline constexpr int kBlockPixels = kBlockSize * kBlockSize;

/// A spatial-domain residual block (row-major).
using ResidualBlock = std::array<int16_t, kBlockPixels>;
/// A frequency-domain coefficient block (row-major before zigzag). The
/// integer transform keeps every coefficient in int16 range.
using CoeffBlock = std::array<int32_t, kBlockPixels>;
/// A quantized-level block (what the entropy coder sees).
using LevelBlock = std::array<int32_t, kBlockPixels>;

/// Forward 8×8 integer DCT (the HEVC partial butterfly) of a residual block.
/// Requires every sample in [−255, 255], the difference of two 8-bit
/// planes: it bounds the first pass's outputs to int16, which the AVX2
/// ForwardDctQuantize holds in 16-bit lanes. Coefficients come out at 16×
/// the orthonormal DCT-II: a constant block of value v has DC 128·v and no
/// AC.
void ForwardDct(const ResidualBlock& input, CoeffBlock* output);

/// Inverse 8×8 integer DCT of coefficients in int16 range. Integer
/// arithmetic throughout, so every build and ISA produces the same residual.
/// The HEVC basis is not exactly orthogonal: a round trip through
/// ForwardDct returns each sample within ±2.
void InverseDct(const CoeffBlock& input, ResidualBlock* output);

/// The constant sample InverseDct produces for a block whose only nonzero
/// coefficient is the DC `dc` (in int16 range): the same integer arithmetic,
/// without the other 63 coefficients.
int16_t InverseDctDc(int32_t dc);

/// Quantizer step size for quantization parameter `qp` in orthonormal-DCT
/// units, 0.625 · 2^(qp/6) read from a 52-entry table; doubles every 6 QP
/// steps, as in H.264/HEVC. `qp` is clamped to [0, kMaxQp].
/// Quantize/Dequantize realize this step in integer arithmetic; the encoder
/// uses it for its Lagrangian and its zero-block bound.
double QStepForQp(int qp);

/// Maximum supported quantization parameter.
inline constexpr int kMaxQp = 51;

/// Quantizes ForwardDct coefficients at `qp` ∈ [0, kMaxQp] to integer levels
/// with a dead-zone. Returns the raster nonzero mask of the levels: bit i is
/// set iff `(*levels)[i]` is nonzero.
uint64_t Quantize(const CoeffBlock& coeffs, int qp, LevelBlock* levels);

/// Reconstructs coefficients from levels of any magnitude at `qp` ∈
/// [0, kMaxQp], saturated to int16 range.
void Dequantize(const LevelBlock& levels, int qp, CoeffBlock* coeffs);

/// Quantize(ForwardDct(residual)) in one dispatched call, the coefficients
/// never leaving it: the encoder's forward path for one block. Requires
/// every sample in [−255, 255] like ForwardDct: the AVX2 kernel holds the
/// first pass in int16 lanes, so a sample outside that range would make it
/// disagree with the scalar reference. Debug builds assert the range.
uint64_t ForwardDctQuantize(const ResidualBlock& residual, int qp,
                            LevelBlock* levels);

/// InverseDct(Dequantize(levels)) in one dispatched call: the encoder's and
/// decoder's reconstruction of one block.
void DequantizeInverseDct(const LevelBlock& levels, int qp,
                          ResidualBlock* residual);

/// The constant sample DequantizeInverseDct produces for a block whose only
/// nonzero level is the DC `level`: that one level dequantized, then
/// InverseDctDc.
int16_t DequantizeInverseDctDc(int32_t level, int qp);

/// Zigzag scan order for an 8×8 block (index i gives the raster position of
/// the i-th scanned coefficient). A header constant, so the level coders
/// index it inline.
inline constexpr std::array<uint8_t, kBlockPixels> kZigzagOrder = [] {
  std::array<uint8_t, kBlockPixels> order{};
  int index = 0;
  for (int s = 0; s < 2 * kBlockSize - 1; ++s) {
    // Walk up-right on even anti-diagonals, down-left on odd ones.
    const int major = s < kBlockSize ? s : kBlockSize - 1;
    for (int a = major, b = s - major; a >= 0 && b < kBlockSize; --a, ++b) {
      const int y = s % 2 == 0 ? a : b;
      const int x = s % 2 == 0 ? b : a;
      order[index++] = static_cast<uint8_t>(y * kBlockSize + x);
    }
  }
  return order;
}();

/// Inverse of kZigzagOrder: index p gives the scan rank of raster position p.
inline constexpr std::array<uint8_t, kBlockPixels> kZigzagRank = [] {
  std::array<uint8_t, kBlockPixels> rank{};
  for (int i = 0; i < kBlockPixels; ++i) {
    rank[kZigzagOrder[i]] = static_cast<uint8_t>(i);
  }
  return rank;
}();

}  // namespace vc

#endif  // VC_CODEC_TRANSFORM_H_
