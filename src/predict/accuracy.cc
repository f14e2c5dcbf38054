#include "predict/accuracy.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"

namespace vc {

namespace {

/// Seconds of trace between two accuracy evaluations.
constexpr double kEvalInterval = 1.0;

}  // namespace

PredictionAccuracy EvaluatePredictor(Predictor* predictor,
                                     const HeadTrace& trace,
                                     const TileGrid& grid,
                                     const AccuracyOptions& options) {
  predictor->Reset();
  PredictionAccuracy accuracy;
  if (trace.empty()) return accuracy;

  std::vector<double> errors;
  double hits = 0;
  const double dt = 1.0 / kOrientationFeedHz;
  double next_eval = kEvalInterval;
  const double end = trace.duration() - options.lookahead_seconds;

  size_t cursor = 0;
  for (double t = 0.0; t <= trace.duration() + 1e-9; t += dt) {
    predictor->Observe(t, trace.At(t, &cursor));
    if (t >= next_eval && t <= end) {
      next_eval += kEvalInterval;
      Orientation predicted = predictor->Predict(options.lookahead_seconds);
      Orientation actual = trace.At(t + options.lookahead_seconds);
      errors.push_back(AngularDistance(predicted, actual));
      // Tile hit: would the viewport streamed for the prediction contain
      // the tile the user actually looks at?
      bool hit = grid.ViewportContains(predicted, options.fov_yaw,
                                       options.fov_pitch, grid.TileFor(actual));
      if (hit) hits += 1;
      // Per-model accuracy counters, so sweeps over many traces accumulate
      // an aggregate hit/miss tally in the metrics registry.
      MetricRegistry::Global()
          .GetCounter("predict." + predictor->name() +
                      (hit ? ".eval_hits" : ".eval_misses"))
          ->Add();
    }
  }

  if (errors.empty()) return accuracy;
  accuracy.evaluations = static_cast<int>(errors.size());
  double sum = 0;
  for (double e : errors) sum += e;
  accuracy.mean_error_radians = sum / errors.size();
  std::sort(errors.begin(), errors.end());
  size_t p95 = static_cast<size_t>(0.95 * (errors.size() - 1));
  accuracy.p95_error_radians = errors[p95];
  accuracy.tile_hit_rate = hits / errors.size();
  return accuracy;
}

}  // namespace vc
