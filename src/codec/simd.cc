#include "codec/simd.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

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

/// Whether VC_SIMD leaves the vector paths on. Unset means on; `off` (or its
/// alias `scalar`) is the kill switch. Any other value fails safe: a user
/// setting VC_SIMD is trying to disable SIMD, so a typo must not silently
/// run the vector paths.
bool EnvAllowsSimd() {
  const char* env = std::getenv("VC_SIMD");
  if (env == nullptr) return true;
  if (std::strcmp(env, "off") != 0 && std::strcmp(env, "scalar") != 0) {
    std::fprintf(stderr,
                 "vc: unrecognized VC_SIMD value '%s' (expected off or "
                 "scalar); forcing scalar\n",
                 env);
  }
  return false;
}

// Evaluated once; SetEnabled(true) may not exceed this. VC_SIMD=off is a
// hard kill that SetEnabled(true) cannot override.
const Level g_host_level = DetectHostLevel();
const bool g_usable = EnvAllowsSimd() && g_host_level > Level::kScalar;

}  // namespace

namespace internal {
std::atomic<bool> g_enabled{g_usable};
}  // namespace internal

Level CompiledLevel() { return DetectCompiledLevel(); }

Level ActiveLevel() { return Enabled() ? g_host_level : Level::kScalar; }

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
  const bool value = enabled && g_usable;
  internal::g_enabled.store(value, std::memory_order_relaxed);
  return value;
}

}  // namespace simd
}  // namespace vc
