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
/// A frequency-domain coefficient block (row-major before zigzag).
using CoeffBlock = std::array<double, kBlockPixels>;
/// A quantized-level block (what the entropy coder sees).
using LevelBlock = std::array<int32_t, kBlockPixels>;

/// Forward 8×8 orthonormal DCT-II of a residual block.
void ForwardDct(const ResidualBlock& input, CoeffBlock* output);

/// Inverse 8×8 DCT (exact inverse of ForwardDct up to float rounding).
void InverseDct(const CoeffBlock& input, ResidualBlock* output);

/// Inverse 8×8 DCT specialized for sparse blocks: sums one basis outer
/// product per nonzero coefficient, which beats the separable transform up
/// to roughly six nonzeros (the common case for inter residuals at medium
/// and high QP). Deterministic but not bit-identical to InverseDct (different
/// float summation order), so encoder and decoder must agree on when to use
/// it — both switch on `InverseDctSparseThreshold`.
void InverseDctSparse(const CoeffBlock& input, int nonzero_count,
                      ResidualBlock* output);

/// Nonzero-coefficient count at or below which both codec sides use
/// InverseDctSparse.
inline constexpr int kInverseDctSparseThreshold = 4;

/// Quantizer step size for quantization parameter `qp` ∈ [0, 51]; doubles
/// every 6 QP steps, as in H.264/HEVC.
double QStepForQp(int qp);

/// Maximum supported quantization parameter.
inline constexpr int kMaxQp = 51;

/// Quantizes DCT coefficients to integer levels with a dead-zone. Returns
/// the raster nonzero mask of the levels: bit i is set iff `(*levels)[i]`
/// is nonzero.
uint64_t Quantize(const CoeffBlock& coeffs, double qstep, LevelBlock* levels);

/// Reconstructs coefficients from levels. Bit-exact mirror of the decoder.
void Dequantize(const LevelBlock& levels, double qstep, CoeffBlock* coeffs);

/// Zigzag scan order for an 8×8 block (index i gives the raster position of
/// the i-th scanned coefficient).
const std::array<int, kBlockPixels>& ZigzagOrder();

/// Inverse of ZigzagOrder: index p gives the scan rank of raster position p.
const std::array<uint8_t, kBlockPixels>& ZigzagRank();

}  // namespace vc

#endif  // VC_CODEC_TRANSFORM_H_
