#ifndef VC_COMMON_RANDOM_H_
#define VC_COMMON_RANDOM_H_

#include <cmath>
#include <cstdint>

namespace vc {

/// \brief Deterministic, seedable PRNG (xorshift128+).
///
/// All randomness in VisualCloud (synthetic scenes, head-trace synthesis,
/// network fault schedules) flows through explicitly-seeded `Random`
/// instances so that every experiment is bit-reproducible.
class Random {
 public:
  explicit Random(uint64_t seed) {
    // SplitMix64 seeding to avoid poor low-entropy seeds.
    state_[0] = SplitMix(&seed);
    state_[1] = SplitMix(&seed);
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    uint64_t x = state_[0];
    const uint64_t y = state_[1];
    state_[0] = y;
    x ^= x << 23;
    state_[1] = x ^ y ^ (x >> 17) ^ (y >> 26);
    return state_[1] + y;
  }

  /// Uniform value in [0, n). `n` must be > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Standard normal via Box-Muller.
  double NextGaussian() {
    if (have_cached_) {
      have_cached_ = false;
      return cached_;
    }
    double u1, u2;
    do {
      u1 = NextDouble();
    } while (u1 <= 1e-12);
    u2 = NextDouble();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_ = r * std::sin(theta);
    have_cached_ = true;
    return r * std::cos(theta);
  }

  /// True with probability `p`.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t SplitMix(uint64_t* s) {
    uint64_t z = (*s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  uint64_t state_[2];
  bool have_cached_ = false;
  double cached_ = 0.0;
};

}  // namespace vc

#endif  // VC_COMMON_RANDOM_H_
