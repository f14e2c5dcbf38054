#ifndef VC_GEOMETRY_ORIENTATION_H_
#define VC_GEOMETRY_ORIENTATION_H_

#include <cmath>

#include "common/math_util.h"

namespace vc {

/// \brief A 3D direction vector.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  double Dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
  Vec3 Cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  double Norm() const { return std::sqrt(Dot(*this)); }
  Vec3 Normalized() const {
    double n = Norm();
    return n > 0 ? Vec3{x / n, y / n, z / n} : Vec3{1, 0, 0};
  }
};

/// Wraps a yaw angle into [0, 2π).
///
/// std::fmod(x, 2π) is exact and returns x itself when |x| < 2π, so the
/// common within-one-turn inputs skip the call; the result is bit-identical
/// to the fmod form for every input, ±0 and NaN included.
inline double WrapYaw(double yaw) {
  if (yaw >= 0 && yaw < kTwoPi) return yaw;
  if (yaw < 0 && yaw > -kTwoPi) return yaw + kTwoPi;
  yaw = std::fmod(yaw, kTwoPi);
  if (yaw < 0) yaw += kTwoPi;
  return yaw;
}

/// Clamps a pitch (colatitude) into [0, π]: 0 is straight up (top pole of the
/// equirectangular frame), π/2 the equator, π straight down.
inline double ClampPitch(double pitch) { return Clamp(pitch, 0.0, kPi); }

/// Signed shortest angular difference a − b for yaw angles, in (−π, π].
/// Like WrapYaw, calls fmod only when the difference is a turn or more.
inline double YawDifference(double a, double b) {
  double d = a - b;
  if (!(std::fabs(d) < kTwoPi)) d = std::fmod(d, kTwoPi);
  if (d > kPi) d -= kTwoPi;
  if (d <= -kPi) d += kTwoPi;
  return d;
}

/// \brief A viewer's gaze direction: yaw θ ∈ [0, 2π) (periodic) and pitch
/// (colatitude) φ ∈ [0, π]. These are exactly the angular dimensions of the
/// equirectangular projection, so column x maps to θ and row y to φ.
struct Orientation {
  double yaw = 0.0;
  double pitch = kPi / 2.0;  // equator

  /// Returns the orientation with yaw wrapped and pitch clamped.
  Orientation Normalized() const { return {WrapYaw(yaw), ClampPitch(pitch)}; }

  /// Unit direction vector (z up).
  Vec3 ToVector() const {
    return {std::sin(pitch) * std::cos(yaw), std::sin(pitch) * std::sin(yaw),
            std::cos(pitch)};
  }

  /// Builds an orientation from a (not necessarily unit) direction vector.
  static Orientation FromVector(const Vec3& v) {
    Vec3 u = v.Normalized();
    double pitch = std::acos(Clamp(u.z, -1.0, 1.0));
    double yaw = std::atan2(u.y, u.x);
    return Orientation{WrapYaw(yaw), pitch};
  }
};

/// Great-circle (angular) distance between two orientations, in [0, π].
inline double AngularDistance(const Orientation& a, const Orientation& b) {
  double dot = Clamp(a.ToVector().Dot(b.ToVector()), -1.0, 1.0);
  return std::acos(dot);
}

}  // namespace vc

#endif  // VC_GEOMETRY_ORIENTATION_H_
