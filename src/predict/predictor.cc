#include "predict/predictor.h"

#include <cmath>
#include <deque>

#include "common/math_util.h"

namespace vc {

namespace {

/// Shared history bookkeeping: keeps (t, unwrapped yaw, pitch) observations
/// so extrapolation can cross the yaw seam safely.
class HistoryBase : public Predictor {
 public:
  explicit HistoryBase(std::string name, double window)
      : name_(std::move(name)), window_(window) {}

  const std::string& name() const override { return name_; }

  void Observe(double t, const Orientation& orientation) override {
    Orientation o = orientation.Normalized();
    if (!history_.empty() && t < history_.back().t) return;  // stale report
    double unwrapped;
    if (history_.empty()) {
      unwrapped = o.yaw;
    } else {
      unwrapped =
          history_.back().yaw + YawDifference(o.yaw, WrapYaw(history_.back().yaw));
    }
    history_.push_back(Obs{t, unwrapped, o.pitch});
    while (history_.size() > 2 && history_.front().t < t - window_) {
      history_.pop_front();
    }
  }

  void Reset() override { history_.clear(); }

 protected:
  struct Obs {
    double t;
    double yaw;  ///< unwrapped
    double pitch;
  };

  static Orientation Wrapped(double yaw, double pitch) {
    return Orientation{WrapYaw(yaw), ClampPitch(pitch)};
  }

  const std::string name_;
  const double window_;
  std::deque<Obs> history_;
};

class StaticPredictor final : public HistoryBase {
 public:
  StaticPredictor() : HistoryBase("static", 0.5) {}

  Orientation Predict(double) const override {
    if (history_.empty()) return Orientation{};
    return Wrapped(history_.back().yaw, history_.back().pitch);
  }
};

class DeadReckoningPredictor final : public HistoryBase {
 public:
  explicit DeadReckoningPredictor(double velocity_window)
      : HistoryBase("dead_reckoning", velocity_window) {}

  Orientation Predict(double lookahead) const override {
    if (history_.empty()) return Orientation{};
    const Obs& last = history_.back();
    if (history_.size() < 2) return Wrapped(last.yaw, last.pitch);
    const Obs& first = history_.front();
    double dt = last.t - first.t;
    if (dt <= 1e-9) return Wrapped(last.yaw, last.pitch);
    double vyaw = (last.yaw - first.yaw) / dt;
    double vpitch = (last.pitch - first.pitch) / dt;
    return Wrapped(last.yaw + vyaw * lookahead,
                   last.pitch + vpitch * lookahead);
  }
};

class LinearRegressionPredictor final : public HistoryBase {
 public:
  explicit LinearRegressionPredictor(double window)
      : HistoryBase("linear_regression", window) {}

  Orientation Predict(double lookahead) const override {
    if (history_.empty()) return Orientation{};
    const Obs& last = history_.back();
    if (history_.size() < 3) return Wrapped(last.yaw, last.pitch);
    // Least-squares slope/intercept for yaw(t) and pitch(t).
    double n = 0, sum_t = 0, sum_tt = 0;
    double sum_yaw = 0, sum_tyaw = 0, sum_pitch = 0, sum_tpitch = 0;
    for (const Obs& o : history_) {
      double t = o.t - last.t;  // center for conditioning
      n += 1;
      sum_t += t;
      sum_tt += t * t;
      sum_yaw += o.yaw;
      sum_tyaw += t * o.yaw;
      sum_pitch += o.pitch;
      sum_tpitch += t * o.pitch;
    }
    double denom = n * sum_tt - sum_t * sum_t;
    if (std::abs(denom) < 1e-12) return Wrapped(last.yaw, last.pitch);
    double yaw_slope = (n * sum_tyaw - sum_t * sum_yaw) / denom;
    double yaw_icept = (sum_yaw - yaw_slope * sum_t) / n;
    double pitch_slope = (n * sum_tpitch - sum_t * sum_pitch) / denom;
    double pitch_icept = (sum_pitch - pitch_slope * sum_t) / n;
    return Wrapped(yaw_icept + yaw_slope * lookahead,
                   pitch_icept + pitch_slope * lookahead);
  }
};

class MarkovPredictor final : public Predictor {
 public:
  MarkovPredictor(const TileGrid& grid, double step)
      : name_("markov"),
        grid_(grid),
        step_(step > 0 ? step : 0.25),
        counts_(static_cast<size_t>(grid.tile_count()) * grid.tile_count(),
                0) {}

  const std::string& name() const override { return name_; }

  void Observe(double t, const Orientation& orientation) override {
    Orientation o = orientation.Normalized();
    int cell = grid_.IndexOf(grid_.TileFor(o));
    if (!has_state_) {
      has_state_ = true;
      cell_ = cell;
      last_ = o;
      last_t_ = t;
      next_step_t_ = t + step_;
      return;
    }
    if (t < last_t_) return;
    last_ = o;
    last_t_ = t;
    // Record one transition per elapsed step boundary (self-transitions
    // included: dwell probability matters as much as movement).
    while (t >= next_step_t_) {
      counts_[static_cast<size_t>(cell_) * grid_.tile_count() + cell] += 1;
      cell_ = cell;
      next_step_t_ += step_;
    }
  }

  Orientation Predict(double lookahead) const override {
    if (!has_state_) return Orientation{};
    int steps = static_cast<int>(std::lround(lookahead / step_));
    int cell = grid_.IndexOf(grid_.TileFor(last_));
    for (int i = 0; i < steps; ++i) {
      const uint32_t* row =
          counts_.data() + static_cast<size_t>(cell) * grid_.tile_count();
      int best = cell;
      uint32_t best_count = 0;
      for (int next = 0; next < grid_.tile_count(); ++next) {
        if (row[next] > best_count) {
          best_count = row[next];
          best = next;
        }
      }
      if (best_count == 0) break;  // unseen state: persist
      cell = best;
    }
    if (cell == grid_.IndexOf(grid_.TileFor(last_))) {
      // Staying in the same cell: the precise last orientation is a better
      // estimate than the cell center.
      return last_;
    }
    return grid_.CenterOf(grid_.TileAt(cell));
  }

  void Reset() override {
    has_state_ = false;
    std::fill(counts_.begin(), counts_.end(), 0);
  }

 private:
  const std::string name_;
  const TileGrid grid_;
  const double step_;
  std::vector<uint32_t> counts_;
  bool has_state_ = false;
  int cell_ = 0;
  Orientation last_;
  double last_t_ = 0;
  double next_step_t_ = 0;
};

}  // namespace

std::unique_ptr<Predictor> NewStaticPredictor() {
  return std::make_unique<StaticPredictor>();
}

std::unique_ptr<Predictor> NewDeadReckoningPredictor(double velocity_window) {
  return std::make_unique<DeadReckoningPredictor>(velocity_window);
}

std::unique_ptr<Predictor> NewLinearRegressionPredictor(double window) {
  return std::make_unique<LinearRegressionPredictor>(window);
}

std::unique_ptr<Predictor> NewMarkovPredictor(const TileGrid& grid,
                                              double step) {
  return std::make_unique<MarkovPredictor>(grid, step);
}

std::vector<std::unique_ptr<Predictor>> AllPredictors(const TileGrid& grid) {
  std::vector<std::unique_ptr<Predictor>> predictors;
  predictors.push_back(NewStaticPredictor());
  predictors.push_back(NewDeadReckoningPredictor());
  predictors.push_back(NewLinearRegressionPredictor());
  predictors.push_back(NewMarkovPredictor(grid));
  return predictors;
}

Result<std::unique_ptr<Predictor>> MakePredictor(const std::string& name,
                                                 const TileGrid& grid) {
  if (name == "static") return NewStaticPredictor();
  if (name == "dead_reckoning") return NewDeadReckoningPredictor();
  if (name == "linear_regression") return NewLinearRegressionPredictor();
  if (name == "markov") return NewMarkovPredictor(grid);
  return Status::InvalidArgument("unknown predictor '" + name + "'");
}

}  // namespace vc
