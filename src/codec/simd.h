#ifndef VC_CODEC_SIMD_H_
#define VC_CODEC_SIMD_H_

// Portable-intrinsics layer for the codec hot kernels.
//
// Each kernel has one scalar reference and at most one vector path:
//  - The transform family (ForwardDct, InverseDct, InverseDctSparse,
//    Quantize) has an AVX2 path, compiled into every x86 build through
//    per-function `target("avx2")` attributes and dispatched only when the
//    host CPU reports AVX2. Any other host runs the scalar transforms.
//  - The SAD and residual/reconstruction kernels have an SSE2 path on x86
//    (architectural on x86-64) and a NEON path on aarch64.
//
// Building with -DVC_DISABLE_SIMD removes every intrinsics path outright,
// leaving the scalar references — the configuration the CI `simd` leg uses
// to prove both paths bit-identical. At run time the kill-switch
// (`SetEnabled(false)`, or VC_SIMD=off in the environment) lets one binary
// run either path, which is how the bit-exactness tests and the
// scalar-vs-SIMD micro-benchmarks compare them.
//
// Every vector kernel is *bit-identical* to its scalar reference: integer
// kernels trivially so, floating-point kernels by performing the same
// operations in the same per-element order (no FMA contraction, no
// reassociation). Tests enforce this; see codec_test.cc (SimdTest.*).

#include <atomic>

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
/// AVX2 transform variants are always compiled in and only dispatched to
/// when the host CPU passes the capability probe), kNeon on aarch64.
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

#if defined(VC_SIMD_X86)

/// Horizontal sum of the two 64-bit SAD accumulators psadbw produces.
inline uint32_t HorizontalSadSum(__m128i sad) {
  return static_cast<uint32_t>(
      _mm_cvtsi128_si32(_mm_add_epi32(sad, _mm_srli_si128(sad, 8))));
}

/// Transposes a 4x4 block of doubles held in four __m256d registers.
VC_AVX2_FN inline void Transpose4x4(__m256d* r0, __m256d* r1, __m256d* r2,
                                    __m256d* r3) {
  __m256d t0 = _mm256_unpacklo_pd(*r0, *r1);
  __m256d t1 = _mm256_unpackhi_pd(*r0, *r1);
  __m256d t2 = _mm256_unpacklo_pd(*r2, *r3);
  __m256d t3 = _mm256_unpackhi_pd(*r2, *r3);
  *r0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  *r1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  *r2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  *r3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// Transposes an 8x8 block of doubles held as 8 rows x 2 __m256d registers
/// (`m[r][c]` covers columns 4c..4c+3 of row r): transpose the two diagonal
/// 4x4 tiles in place, swap-and-transpose the off-diagonal pair. Pure data
/// movement, so it cannot perturb bit-exactness.
VC_AVX2_FN inline void Transpose8x8(__m256d m[8][2]) {
  Transpose4x4(&m[0][0], &m[1][0], &m[2][0], &m[3][0]);
  Transpose4x4(&m[4][1], &m[5][1], &m[6][1], &m[7][1]);
  __m256d b0 = m[0][1], b1 = m[1][1], b2 = m[2][1], b3 = m[3][1];
  Transpose4x4(&b0, &b1, &b2, &b3);
  m[0][1] = m[4][0];
  m[1][1] = m[5][0];
  m[2][1] = m[6][0];
  m[3][1] = m[7][0];
  Transpose4x4(&m[0][1], &m[1][1], &m[2][1], &m[3][1]);
  m[4][0] = b0;
  m[5][0] = b1;
  m[6][0] = b2;
  m[7][0] = b3;
}

#endif  // VC_SIMD_X86

}  // namespace simd
}  // namespace vc

#endif  // VC_CODEC_SIMD_H_
