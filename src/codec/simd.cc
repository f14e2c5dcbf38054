#include "codec/simd.h"

namespace vc {
namespace simd {
namespace {

Level DetectCompiledLevel() {
#if defined(VC_SIMD_NEON)
  return Level::kNeon;
#elif defined(VC_SIMD_X86)
  // AVX2 kernel variants are compiled in via per-function `target`
  // attributes even when the baseline ISA is SSE2; the capability probe
  // below decides whether they may actually run.
  return Level::kAvx2;
#else
  return Level::kScalar;
#endif
}

/// The strongest compiled-in tier this host can execute. The baseline tier
/// (SSE2/NEON) is architectural; only AVX2 needs a probe, so a binary
/// carrying AVX2 code falls back to SSE2 on an older CPU instead of faulting
/// on an illegal instruction.
Level DetectHostLevel() {
#if defined(VC_SIMD_X86)
  return __builtin_cpu_supports("avx2") != 0 ? Level::kAvx2 : Level::kSse2;
#else
  return DetectCompiledLevel();
#endif
}

}  // namespace

namespace internal {
// Evaluated once; SetEnabled(true) may not exceed this.
const Level g_host_level = DetectHostLevel();
std::atomic<bool> g_enabled{g_host_level > Level::kScalar};
}  // namespace internal

Level CompiledLevel() { return DetectCompiledLevel(); }

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "unknown";
}

bool SetEnabled(bool enabled) {
  const bool value = enabled && internal::g_host_level > Level::kScalar;
  internal::g_enabled.store(value, std::memory_order_relaxed);
  return value;
}

}  // namespace simd
}  // namespace vc
