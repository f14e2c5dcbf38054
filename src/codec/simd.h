#ifndef VC_CODEC_SIMD_H_
#define VC_CODEC_SIMD_H_

// Portable-intrinsics layer for the codec hot kernels.
//
// Each kernel has one scalar reference and at most one vector path:
//  - The transform family (ForwardDct, InverseDct, Quantize, Dequantize) is
//    integer code written once in plain C++, without intrinsics. x86 builds
//    compile it a second time inside per-function `target("avx2")` wrappers
//    (VC_AVX2_FN), dispatched only when the host CPU reports AVX2; any other
//    host runs the baseline compilation.
//  - The SAD and residual/reconstruction kernels have an SSE2 path on x86
//    (architectural on x86-64) and a NEON path on aarch64.
//
// Building with -DVC_DISABLE_SIMD removes every intrinsics path and the AVX2
// compilation outright, leaving the scalar references — the configuration
// the CI `simd` leg uses to prove both paths bit-identical. At run time the
// kill-switch `SetEnabled(false)` lets one binary run either path, which is
// how the bit-exactness tests and the scalar-vs-SIMD micro-benchmarks
// compare them.
//
// Every vector kernel is *bit-identical* to its scalar reference: all of
// them are integer code, whose results do not depend on the instructions
// that compute them. Tests enforce this; see codec_test.cc (SimdTest.*).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(VC_DISABLE_SIMD)
#if defined(__x86_64__) || defined(__SSE2__)
#define VC_SIMD_X86 1
#define VC_AVX2_FN __attribute__((target("avx2")))
#include <immintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define VC_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !VC_DISABLE_SIMD

#if defined(VC_SIMD_X86) || defined(VC_SIMD_NEON)
#define VC_SIMD_ANY 1
#endif

namespace vc {
namespace simd {

/// Instruction-set tiers the codec kernels run at, in strength order.
enum class Level { kScalar = 0, kSse2 = 1, kAvx2 = 2, kNeon = 3 };

/// The best tier with code compiled into this binary: kAvx2 on x86 (the
/// AVX2 compilation of the transform kernels is always compiled in and only
/// dispatched to when the host CPU passes the capability probe), kNeon on
/// aarch64.
Level CompiledLevel();

/// The tier kernels actually run at: `CompiledLevel()` clamped by the
/// runtime capability guard (an x86 CPU without AVX2 runs at kSse2 rather
/// than fault) and by the `SetEnabled` kill-switch.
Level ActiveLevel();

/// Human-readable tier name ("scalar", "sse2", "avx2", "neon").
const char* LevelName(Level level);

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// Whether vector kernels are active. Inline and branch-predictable: the
/// codec checks it once per kernel invocation.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Runtime kill-switch. Enabling is a no-op when the binary has no vector
/// paths or the CPU fails the capability guard. Returns the resulting state.
bool SetEnabled(bool enabled);

/// Copies `rows` rows of N bytes; a fixed-size memcpy compiles to one
/// register move per row instead of a libc call.
template <int N>
inline void CopyRows(const uint8_t* src, size_t src_stride, uint8_t* dst,
                     size_t dst_stride, int rows) {
  for (int row = 0; row < rows; ++row) {
    std::memcpy(dst + row * dst_stride, src + row * src_stride, N);
  }
}

/// Copies a `size`×`size` block between planes of the given strides. The
/// codec's 16×16 luma and 8×8 chroma blocks take fixed-size row copies.
inline void CopyBlock(const uint8_t* src, size_t src_stride, uint8_t* dst,
                      size_t dst_stride, int size) {
  if (size == 16) {
    CopyRows<16>(src, src_stride, dst, dst_stride, 16);
  } else if (size == 8) {
    CopyRows<8>(src, src_stride, dst, dst_stride, 8);
  } else {
    for (int row = 0; row < size; ++row) {
      std::memcpy(dst + row * dst_stride, src + row * src_stride,
                  static_cast<size_t>(size));
    }
  }
}

#if defined(VC_SIMD_X86)

/// Horizontal sum of the two 64-bit SAD accumulators psadbw produces.
inline uint32_t HorizontalSadSum(__m128i sad) {
  return static_cast<uint32_t>(
      _mm_cvtsi128_si32(_mm_add_epi32(sad, _mm_srli_si128(sad, 8))));
}

#endif  // VC_SIMD_X86

}  // namespace simd
}  // namespace vc

#endif  // VC_CODEC_SIMD_H_
