#include "predict/trace_synthesizer.h"

#include <cmath>

#include "common/math_util.h"
#include "common/random.h"

namespace vc {

namespace {

/// Seed placing the regions of interest (the content-driven part of the
/// model, shared by every viewer).
constexpr uint64_t kContentSeed = 1234;
/// Regions of interest saccades aim at.
constexpr int kRoiCount = 3;
/// OU mean-reversion rate of the yaw and pitch velocities (1/s).
constexpr double kVelocityDamping = 2.0;
/// Pull of pitch toward the equator (1/s).
constexpr double kPitchReversion = 0.8;
/// Trace sample rate (Hz).
constexpr double kSampleRateHz = 30.0;

}  // namespace

Status TraceSynthOptions::Validate() const {
  if (duration_seconds <= 0 || duration_seconds > 86400) {
    return Status::InvalidArgument("trace duration out of range");
  }
  if (yaw_volatility < 0 || pitch_volatility < 0 || saccade_rate_hz < 0 ||
      saccade_speed < 0) {
    return Status::InvalidArgument("trace model parameters must be >= 0");
  }
  return Status::OK();
}

Result<HeadTrace> SynthesizeTrace(const TraceSynthOptions& options) {
  VC_RETURN_IF_ERROR(options.Validate());
  Random rng(options.seed);

  // Fixed regions of interest distributed on the equator band. Placed from
  // the content seed: every viewer sees the same ROIs.
  Random roi_rng(kContentSeed);
  std::vector<Orientation> rois;
  for (int i = 0; i < kRoiCount; ++i) {
    rois.push_back(Orientation{roi_rng.UniformDouble(0, kTwoPi),
                               kPi / 2 + roi_rng.UniformDouble(-0.4, 0.4)});
  }

  const double dt = 1.0 / kSampleRateHz;
  const int count =
      static_cast<int>(options.duration_seconds * kSampleRateHz) + 1;

  double yaw = rng.UniformDouble(0, kTwoPi);
  double pitch = kPi / 2;
  double vyaw = 0.0, vpitch = 0.0;
  // Saccade state: remaining duration and target.
  double saccade_left = 0.0;
  Orientation saccade_target;

  std::vector<TraceSample> samples;
  samples.reserve(count);
  for (int i = 0; i < count; ++i) {
    double t = i * dt;
    samples.push_back(TraceSample{t, Orientation{yaw, pitch}});

    // Saccade arrivals (Poisson).
    if (saccade_left <= 0.0 &&
        rng.Bernoulli(options.saccade_rate_hz * dt)) {
      saccade_left = rng.UniformDouble(0.15, 0.5);
      saccade_target = rois[rng.Uniform(rois.size())];
    }

    if (saccade_left > 0.0) {
      // Rapid reorientation toward the target at saccade_speed.
      double dyaw = YawDifference(saccade_target.yaw, yaw);
      double dpitch = saccade_target.pitch - pitch;
      double dist = std::sqrt(dyaw * dyaw + dpitch * dpitch);
      if (dist < options.saccade_speed * dt || dist < 1e-6) {
        yaw = saccade_target.yaw;
        pitch = saccade_target.pitch;
        saccade_left = 0.0;
        vyaw = vpitch = 0.0;
      } else {
        yaw = WrapYaw(yaw + options.saccade_speed * dt * dyaw / dist);
        pitch = ClampPitch(pitch + options.saccade_speed * dt * dpitch / dist);
        saccade_left -= dt;
      }
      continue;
    }

    // Smooth pursuit: OU velocities.
    double sqrt_dt = std::sqrt(dt);
    vyaw += -kVelocityDamping * vyaw * dt +
            options.yaw_volatility * sqrt_dt * rng.NextGaussian();
    vpitch += -kVelocityDamping * vpitch * dt +
              options.pitch_volatility * sqrt_dt * rng.NextGaussian();
    // Equator reversion on pitch.
    vpitch += kPitchReversion * (kPi / 2 - pitch) * dt;
    yaw = WrapYaw(yaw + vyaw * dt);
    pitch = ClampPitch(pitch + vpitch * dt);
  }
  return HeadTrace::FromSamples(std::move(samples));
}

const std::vector<std::string>& ViewerArchetypes() {
  static const std::vector<std::string> names = {"calm", "explorer",
                                                 "frantic"};
  return names;
}

Result<TraceSynthOptions> ArchetypeOptions(const std::string& archetype,
                                           uint64_t seed) {
  TraceSynthOptions options;
  options.seed = seed;
  if (archetype == "calm") {
    options.yaw_volatility = 0.35;
    options.pitch_volatility = 0.12;
    options.saccade_rate_hz = 0.04;
    options.saccade_speed = 2.5;
  } else if (archetype == "explorer") {
    options.yaw_volatility = 0.8;
    options.pitch_volatility = 0.3;
    options.saccade_rate_hz = 0.15;
    options.saccade_speed = 3.5;
  } else if (archetype == "frantic") {
    options.yaw_volatility = 1.8;
    options.pitch_volatility = 0.6;
    options.saccade_rate_hz = 0.5;
    options.saccade_speed = 5.0;
  } else {
    return Status::InvalidArgument("unknown archetype '" + archetype + "'");
  }
  return options;
}

}  // namespace vc
