#ifndef VC_PREDICT_TRACE_SYNTHESIZER_H_
#define VC_PREDICT_TRACE_SYNTHESIZER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "predict/head_trace.h"

namespace vc {

/// \brief Parameters of the synthetic head-movement model.
///
/// The model reproduces the two regimes real HMD traces show:
/// *smooth pursuit* — yaw/pitch angular velocities follow mean-reverting
/// Ornstein–Uhlenbeck processes, giving strongly autocorrelated motion that
/// short-horizon predictors can exploit — punctuated by Poisson-arriving
/// *saccades*, rapid reorientations toward a region of interest that defeat
/// extrapolation. Pitch additionally reverts toward the equator (viewers
/// rarely stare at the poles for long).
///
/// Saccades aim at three fixed regions of interest whose positions depend
/// on the content, not the viewer: every synthesized trace shares them, and
/// that correlation is what cross-user popularity prediction exploits.
struct TraceSynthOptions {
  double duration_seconds = 90.0;  ///< Sampled at 30 Hz.
  uint64_t seed = 1;  ///< Per-viewer randomness (pursuit noise, saccades).

  double yaw_volatility = 0.8;     ///< OU noise σ for yaw velocity (rad/s/√s).
  double pitch_volatility = 0.3;   ///< OU noise σ for pitch velocity.
  double saccade_rate_hz = 0.15;   ///< Poisson rate of saccades.
  double saccade_speed = 3.5;      ///< Peak angular speed during a saccade.

  Status Validate() const;
};

/// Synthesizes one head trace.
Result<HeadTrace> SynthesizeTrace(const TraceSynthOptions& options);

/// Viewer archetypes used throughout the benchmarks: "calm" (mostly smooth
/// pursuit), "explorer" (moderate movement, occasional saccades), "frantic"
/// (fast, saccade-heavy). `seed` perturbs the individual trace.
Result<TraceSynthOptions> ArchetypeOptions(const std::string& archetype,
                                           uint64_t seed);

/// The archetype names understood by ArchetypeOptions.
const std::vector<std::string>& ViewerArchetypes();

}  // namespace vc

#endif  // VC_PREDICT_TRACE_SYNTHESIZER_H_
