#include "codec/motion.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "codec/simd.h"

namespace vc {

namespace {

/// Fixed-width row SAD. The constant trip count lets the compiler unroll and
/// auto-vectorize (16 lanes map directly onto psadbw-style reductions).
template <int N>
inline uint32_t RowSad(const uint8_t* pa, const uint8_t* pb) {
  uint32_t sad = 0;
  for (int col = 0; col < N; ++col) {
    int diff = int{pa[col]} - int{pb[col]};
    sad += static_cast<uint32_t>(diff < 0 ? -diff : diff);
  }
  return sad;
}

#if defined(VC_SIMD_X86)
/// One 16-pixel row in a single psadbw: |a-b| over 16 unsigned lanes, summed
/// into two 16-bit-safe accumulators, then folded. Exact — SAD is pure
/// integer arithmetic, so this equals RowSad<16> bit for bit.
inline uint32_t RowSad16Simd(const uint8_t* pa, const uint8_t* pb) {
  __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa));
  __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb));
  return simd::HorizontalSadSum(_mm_sad_epu8(a, b));
}

inline uint32_t RowSad8Simd(const uint8_t* pa, const uint8_t* pb) {
  __m128i a = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(pa));
  __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(pb));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_sad_epu8(a, b)));
}
#elif defined(VC_SIMD_NEON)
inline uint32_t RowSad16Simd(const uint8_t* pa, const uint8_t* pb) {
  uint8x16_t a = vld1q_u8(pa);
  uint8x16_t b = vld1q_u8(pb);
  return vaddvq_u16(vpaddlq_u8(vabdq_u8(a, b)));
}

inline uint32_t RowSad8Simd(const uint8_t* pa, const uint8_t* pb) {
  uint8x8_t a = vld1_u8(pa);
  uint8x8_t b = vld1_u8(pb);
  return vaddv_u16(vpaddl_u8(vabd_u8(a, b)));
}
#endif

inline uint32_t RowSadGeneric(const uint8_t* pa, const uint8_t* pb, int n) {
  uint32_t sad = 0;
  for (int col = 0; col < n; ++col) {
    int diff = int{pa[col]} - int{pb[col]};
    sad += static_cast<uint32_t>(diff < 0 ? -diff : diff);
  }
  return sad;
}

bool InBounds(int x, int y, int size, const MotionBounds& bounds) {
  return x >= bounds.x0 && y >= bounds.y0 && x + size <= bounds.x1 &&
         y + size <= bounds.y1;
}

/// Shared mechanics of the diamond walk and the seeded refine: candidate
/// bounds/range checks, visited-candidate memoization, early-exit SAD, and
/// eval accounting. Results are identical to evaluating every candidate with
/// a plain BlockSad: a revisited candidate was measured against an equal or
/// larger best cost, and the walk only accepts strict improvements, so
/// skipping the re-evaluation can never change the outcome.
class CandidateWalker {
 public:
  CandidateWalker(PlaneView current, PlaneView reference, int x, int y,
                  int size, int range, const MotionBounds& bounds,
                  MotionSearchScratch* scratch)
      : current_(current),
        reference_(reference),
        x_(x),
        y_(y),
        size_(size),
        range_(range),
        side_(2 * range + 1),
        bounds_(bounds),
        scratch_(scratch) {
    if (scratch_ != nullptr) {
      size_t cells = static_cast<size_t>(side_) * side_;
      if (scratch_->stamps.size() < cells) {
        scratch_->stamps.assign(cells, 0);
        scratch_->generation = 0;
      }
      if (++scratch_->generation == 0) {
        // Generation counter wrapped: stale stamps could alias, so clear.
        std::fill(scratch_->stamps.begin(), scratch_->stamps.end(), 0u);
        scratch_->generation = 1;
      }
    }
  }

  /// Evaluates one candidate displacement (if legal and not yet visited).
  void Try(MotionVector candidate) {
    if (std::abs(candidate.dx) > range_ || std::abs(candidate.dy) > range_) {
      return;
    }
    int rx = x_ + candidate.dx, ry = y_ + candidate.dy;
    if (!InBounds(rx, ry, size_, bounds_)) return;
    if (scratch_ != nullptr) {
      size_t cell = static_cast<size_t>(candidate.dy + range_) * side_ +
                    (candidate.dx + range_);
      if (scratch_->stamps[cell] == scratch_->generation) return;
      scratch_->stamps[cell] = scratch_->generation;
      ++scratch_->sad_evals;
    }
    uint32_t cost = BlockSadBounded(current_, x_, y_, reference_, rx, ry,
                                    size_, best_cost_);
    if (cost < best_cost_) {
      best_cost_ = cost;
      best_ = candidate;
    }
  }

  MotionVector best() const { return best_; }
  uint32_t best_cost() const { return best_cost_; }

 private:
  const PlaneView current_;
  const PlaneView reference_;
  const int x_, y_, size_, range_, side_;
  const MotionBounds bounds_;
  MotionSearchScratch* const scratch_;
  MotionVector best_{0, 0};
  uint32_t best_cost_ = std::numeric_limits<uint32_t>::max();
};

constexpr int kLargeDiamond[8][2] = {{0, -2}, {1, -1}, {2, 0},  {1, 1},
                                     {0, 2},  {-1, 1}, {-2, 0}, {-1, -1}};
constexpr int kSmallDiamond[4][2] = {{0, -1}, {1, 0}, {0, 1}, {-1, 0}};

MotionVector Finish(const CandidateWalker& walker, uint32_t* best_sad) {
  *best_sad = walker.best_cost();
  if (walker.best_cost() == std::numeric_limits<uint32_t>::max()) {
    // No candidate fit in bounds (can't happen for sane tile sizes, but stay
    // safe): fall back to zero motion with a huge SAD so intra wins.
    return MotionVector{0, 0};
  }
  return walker.best();
}

}  // namespace

uint32_t BlockSad(PlaneView a, int ax, int ay, PlaneView b, int bx, int by,
                  int size) {
  uint32_t sad = 0;
  const uint8_t* pa = a.data + static_cast<size_t>(ay) * a.stride + ax;
  const uint8_t* pb = b.data + static_cast<size_t>(by) * b.stride + bx;
#if defined(VC_SIMD_ANY)
  if (simd::Enabled()) {
    if (size == 16) {
      for (int row = 0; row < 16; ++row) {
        sad += RowSad16Simd(pa, pb);
        pa += a.stride;
        pb += b.stride;
      }
      return sad;
    }
    if (size == 8) {
      for (int row = 0; row < 8; ++row) {
        sad += RowSad8Simd(pa, pb);
        pa += a.stride;
        pb += b.stride;
      }
      return sad;
    }
  }
#endif
  for (int row = 0; row < size; ++row) {
    if (size == 16) {
      sad += RowSad<16>(pa, pb);
    } else if (size == 8) {
      sad += RowSad<8>(pa, pb);
    } else {
      sad += RowSadGeneric(pa, pb, size);
    }
    pa += a.stride;
    pb += b.stride;
  }
  return sad;
}

uint32_t BlockSadBounded(PlaneView a, int ax, int ay, PlaneView b, int bx,
                         int by, int size, uint32_t limit) {
  uint32_t sad = 0;
  const uint8_t* pa = a.data + static_cast<size_t>(ay) * a.stride + ax;
  const uint8_t* pb = b.data + static_cast<size_t>(by) * b.stride + bx;
  // The row-granularity early exit survives vectorization: each psadbw folds
  // one whole row, so the running sum (and therefore the partial value
  // returned on abandonment) is identical to the scalar path's.
#if defined(VC_SIMD_ANY)
  if (simd::Enabled()) {
    if (size == 16) {
      for (int row = 0; row < 16; ++row) {
        sad += RowSad16Simd(pa, pb);
        if (sad >= limit) return sad;
        pa += a.stride;
        pb += b.stride;
      }
      return sad;
    }
    if (size == 8) {
      for (int row = 0; row < 8; ++row) {
        sad += RowSad8Simd(pa, pb);
        if (sad >= limit) return sad;
        pa += a.stride;
        pb += b.stride;
      }
      return sad;
    }
  }
#endif
  for (int row = 0; row < size; ++row) {
    if (size == 16) {
      sad += RowSad<16>(pa, pb);
    } else if (size == 8) {
      sad += RowSad<8>(pa, pb);
    } else {
      sad += RowSadGeneric(pa, pb, size);
    }
    if (sad >= limit) return sad;
    pa += a.stride;
    pb += b.stride;
  }
  return sad;
}

MotionVector SearchMotion(PlaneView current, PlaneView reference, int x, int y,
                          int size, int range, const MotionBounds& bounds,
                          uint32_t* best_sad, MotionSearchScratch* scratch) {
  CandidateWalker walker(current, reference, x, y, size, range, bounds,
                         scratch);
  walker.Try(MotionVector{0, 0});

  // Large diamond pattern until the center wins, then a small-diamond refine.
  MotionVector center{0, 0};
  bool improved = true;
  int iterations = 0;
  while (improved && iterations++ < 4 * range) {
    improved = false;
    for (const auto& step : kLargeDiamond) {
      MotionVector before = walker.best();
      walker.Try(MotionVector{center.dx + step[0], center.dy + step[1]});
      if (!(walker.best() == before)) improved = true;
    }
    center = walker.best();
  }
  for (const auto& step : kSmallDiamond) {
    walker.Try(MotionVector{center.dx + step[0], center.dy + step[1]});
  }
  return Finish(walker, best_sad);
}

MotionVector RefineMotion(PlaneView current, PlaneView reference, int x, int y,
                          int size, int range, const MotionBounds& bounds,
                          MotionVector seed, uint32_t good_enough_sad,
                          uint32_t* best_sad, MotionSearchScratch* scratch) {
  CandidateWalker walker(current, reference, x, y, size, range, bounds,
                         scratch);
  // Seed first: a hint from a sibling rung of the same content is usually
  // already at (or one step from) the optimum, so most refines stop after
  // this single evaluation.
  walker.Try(seed);
  if (walker.best_cost() <= good_enough_sad) return Finish(walker, best_sad);
  walker.Try(MotionVector{0, 0});

  // Small-diamond descent from the better of {seed, zero}.
  bool improved = true;
  int iterations = 0;
  while (improved && iterations++ < range) {
    if (walker.best_cost() <= good_enough_sad) break;
    improved = false;
    MotionVector center = walker.best();
    for (const auto& step : kSmallDiamond) {
      MotionVector before = walker.best();
      walker.Try(MotionVector{center.dx + step[0], center.dy + step[1]});
      if (!(walker.best() == before)) improved = true;
    }
  }
  return Finish(walker, best_sad);
}

void CompensateBlock(PlaneView reference, int x, int y, MotionVector mv,
                     int size, uint8_t* out) {
  simd::CopyBlock(reference.data +
                      static_cast<size_t>(y + mv.dy) * reference.stride +
                      (x + mv.dx),
                  static_cast<size_t>(reference.stride), out,
                  static_cast<size_t>(size), size);
}

}  // namespace vc
