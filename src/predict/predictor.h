#ifndef VC_PREDICT_PREDICTOR_H_
#define VC_PREDICT_PREDICTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "geometry/orientation.h"
#include "geometry/tile_grid.h"

namespace vc {

/// Cadence (Hz) of the orientation reports a viewer's predictor observes,
/// both in a streaming session and in offline accuracy evaluation.
inline constexpr double kOrientationFeedHz = 30.0;

/// \brief Online head-orientation predictor.
///
/// The streaming server feeds every client orientation report through
/// `Observe` (strictly increasing timestamps) and, before committing a
/// segment's per-tile qualities, asks where the viewer will look one
/// segment-duration ahead via `Predict`. Implementations are deterministic
/// functions of the observation history.
class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Stable implementation name ("dead_reckoning", ...).
  virtual const std::string& name() const = 0;

  /// Records one orientation observation at time `t` (seconds). Timestamps
  /// must be non-decreasing; older reports are ignored.
  virtual void Observe(double t, const Orientation& orientation) = 0;

  /// Predicts the orientation `lookahead` seconds after the latest
  /// observation. With no observations yet, returns the equator at yaw 0.
  virtual Orientation Predict(double lookahead) const = 0;

  /// Clears all state (used between sessions).
  virtual void Reset() = 0;
};

/// Persistence: predicts the most recent orientation (the baseline every
/// tiled-streaming paper compares against).
std::unique_ptr<Predictor> NewStaticPredictor();

/// Dead reckoning: extrapolates the instantaneous angular velocity computed
/// over the last `velocity_window` seconds of observations.
std::unique_ptr<Predictor> NewDeadReckoningPredictor(
    double velocity_window = 0.3);

/// Least-squares linear fit of yaw/pitch over a `window` of history,
/// extrapolated. Yaw is unwrapped before fitting so seam crossings do not
/// corrupt the fit.
std::unique_ptr<Predictor> NewLinearRegressionPredictor(double window = 1.0);

/// First-order Markov model over the cells of `grid`: learns cell-to-cell
/// transition counts at `step` second granularity from the observation
/// stream and predicts by walking the maximum-likelihood chain. Falls back
/// to persistence for unseen cells.
std::unique_ptr<Predictor> NewMarkovPredictor(const TileGrid& grid,
                                              double step = 0.25);

/// All standard predictors (one of each), for sweeps.
std::vector<std::unique_ptr<Predictor>> AllPredictors(const TileGrid& grid);

/// Builds a predictor by name; Status for unknown names.
Result<std::unique_ptr<Predictor>> MakePredictor(const std::string& name,
                                                 const TileGrid& grid);

}  // namespace vc

#endif  // VC_PREDICT_PREDICTOR_H_
