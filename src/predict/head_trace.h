#ifndef VC_PREDICT_HEAD_TRACE_H_
#define VC_PREDICT_HEAD_TRACE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "geometry/orientation.h"

namespace vc {

/// One orientation observation from a head-mounted display.
struct TraceSample {
  double t = 0.0;  ///< Seconds since playback start.
  Orientation orientation;
};

/// \brief A viewer's head-movement trace: timestamped gaze orientations.
///
/// Stands in for the public 360° head-movement datasets the paper's
/// demonstration drew on; traces are either synthesized (see
/// trace_synthesizer.h) or loaded from CSV (`t,yaw,pitch` rows, radians),
/// the format those datasets are commonly distributed in.
class HeadTrace {
 public:
  HeadTrace() = default;

  /// Builds a trace from samples; they must be in strictly increasing time
  /// order starting at t ≥ 0.
  static Result<HeadTrace> FromSamples(std::vector<TraceSample> samples);

  /// Orientation at time `t`, interpolating between samples (shortest-path
  /// in yaw, linear in pitch) and clamping outside the sampled range.
  Orientation At(double t) const;

  /// Returns exactly At(t), walking forward from the bracket remembered in
  /// `*cursor` (start it at 0) instead of searching the whole trace, and
  /// updates `*cursor`. Built for monotone sweeps such as a feedback loop;
  /// a `t` below the remembered bracket falls back to the search.
  Orientation At(double t, size_t* cursor) const;

  double duration() const {
    return samples_.empty() ? 0.0 : samples_.back().t;
  }
  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const std::vector<TraceSample>& samples() const { return samples_; }

  /// Serializes to "t,yaw,pitch\n" CSV (with a header row).
  std::string ToCsv() const;

  /// Parses the CSV format written by ToCsv (header row optional).
  static Result<HeadTrace> FromCsv(Slice csv);

 private:
  /// Interpolates between samples_[hi - 1] and samples_[hi], the pair
  /// bracketing `t` (shortest-path in yaw, linear in pitch).
  Orientation Interpolate(size_t hi, double t) const;

  std::vector<TraceSample> samples_;
};

}  // namespace vc

#endif  // VC_PREDICT_HEAD_TRACE_H_
