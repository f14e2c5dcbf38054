#ifndef VC_PREDICT_ACCURACY_H_
#define VC_PREDICT_ACCURACY_H_

#include "geometry/tile_grid.h"
#include "predict/head_trace.h"
#include "predict/predictor.h"

namespace vc {

/// Aggregate accuracy of a predictor over one trace.
struct PredictionAccuracy {
  double mean_error_radians = 0.0;  ///< Mean great-circle error.
  double p95_error_radians = 0.0;   ///< 95th percentile error.
  double tile_hit_rate = 0.0;  ///< Fraction of predictions whose predicted
                               ///< viewport covered the actual gaze tile.
  int evaluations = 0;
};

/// Options for the accuracy evaluation loop.
struct AccuracyOptions {
  double lookahead_seconds = 1.0;  ///< Prediction horizon (≈ segment length).
  double fov_yaw = DegToRad(100.0);
  double fov_pitch = DegToRad(90.0);
};

/// Replays `trace` into `predictor` at `kOrientationFeedHz` and, every
/// second, compares Predict(lookahead) against the trace's actual
/// orientation at that future time. The predictor is Reset() first.
PredictionAccuracy EvaluatePredictor(Predictor* predictor,
                                     const HeadTrace& trace,
                                     const TileGrid& grid,
                                     const AccuracyOptions& options);

}  // namespace vc

#endif  // VC_PREDICT_ACCURACY_H_
