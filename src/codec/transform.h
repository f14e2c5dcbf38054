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

/// Forward 8×8 integer DCT (the HEVC partial butterfly) of a residual block
/// whose samples lie in [−255, 255]. Coefficients come out at 16× the
/// orthonormal DCT-II: a constant block of value v has DC 128·v and no AC.
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

/// Quantizer step size for quantization parameter `qp` ∈ [0, 51] in
/// orthonormal-DCT units; doubles every 6 QP steps, as in H.264/HEVC.
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

/// Zigzag scan order for an 8×8 block (index i gives the raster position of
/// the i-th scanned coefficient).
const std::array<int, kBlockPixels>& ZigzagOrder();

/// Inverse of ZigzagOrder: index p gives the scan rank of raster position p.
const std::array<uint8_t, kBlockPixels>& ZigzagRank();

}  // namespace vc

#endif  // VC_CODEC_TRANSFORM_H_
