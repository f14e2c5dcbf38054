#include "streaming/network.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "obs/metrics.h"

namespace vc {

namespace {

/// Fault episodes are generated over [0, this) seconds of simulated time.
constexpr double kFaultHorizonSeconds = 600.0;
/// Bandwidth multiplier in effect for a transfer issued under a collapse.
constexpr double kCollapseFactor = 0.1;

}  // namespace

Status FaultInjectionOptions::Validate() const {
  if (episodes_per_minute < 0 || episodes_per_minute > 600) {
    return Status::InvalidArgument("fault rate out of range [0, 600]/min");
  }
  if (!enabled()) return Status::OK();
  if (episode_seconds <= 0 || episode_seconds > 60) {
    return Status::InvalidArgument("fault episode length out of (0, 60s]");
  }
  if (timeout_seconds <= 0 || timeout_seconds > 60) {
    return Status::InvalidArgument("fault timeout out of (0, 60s]");
  }
  return Status::OK();
}

Status NetworkOptions::Validate() const {
  if (bandwidth_bps <= 0) {
    return Status::InvalidArgument("bandwidth must be positive");
  }
  if (latency_seconds < 0 || latency_seconds > 10) {
    return Status::InvalidArgument("latency out of range [0, 10s]");
  }
  double last_t = -1;
  for (const auto& [t, bps] : bandwidth_trace) {
    if (t < 0 || bps <= 0 || t <= last_t) {
      return Status::InvalidArgument("bandwidth trace must be sorted, positive");
    }
    last_t = t;
  }
  return faults.Validate();
}

namespace {

/// Builds the deterministic episode schedule: exponential gaps at the
/// configured mean rate, episode durations uniform in [0.5, 1.5]× the mean,
/// kinds cycling through the RNG.
std::vector<FaultEpisode> GenerateEpisodes(const FaultInjectionOptions& f) {
  std::vector<FaultEpisode> episodes;
  if (!f.enabled()) return episodes;
  Random rng(f.seed);
  const double mean_gap = 60.0 / f.episodes_per_minute;
  double t = 0.0;
  for (;;) {
    // Exponential inter-arrival; guard the log argument away from 0.
    double u = std::max(1e-12, 1.0 - rng.NextDouble());
    t += -mean_gap * std::log(u);
    if (t >= kFaultHorizonSeconds) break;
    FaultEpisode episode;
    episode.start = t;
    episode.duration = f.episode_seconds * rng.UniformDouble(0.5, 1.5);
    switch (rng.Uniform(3)) {
      case 0:
        episode.kind = FaultKind::kDrop;
        break;
      case 1:
        episode.kind = FaultKind::kStall;
        break;
      default:
        episode.kind = FaultKind::kCollapse;
        break;
    }
    episodes.push_back(episode);
    t = episode.end();
  }
  return episodes;
}

}  // namespace

Result<NetworkSimulator> NetworkSimulator::Create(
    const NetworkOptions& options) {
  VC_RETURN_IF_ERROR(options.Validate());
  return NetworkSimulator(options);
}

NetworkSimulator::NetworkSimulator(const NetworkOptions& options)
    : options_(options),
      episodes_(GenerateEpisodes(options.faults)) {}

double NetworkSimulator::BandwidthAt(double t) const {
  double bps = options_.bandwidth_bps;
  for (const auto& [start, rate] : options_.bandwidth_trace) {
    if (t >= start) {
      bps = rate;
    } else {
      break;
    }
  }
  return bps;
}

const FaultEpisode* NetworkSimulator::EpisodeAt(double t) const {
  // Episodes are sorted and non-overlapping: binary-search the last one
  // starting at or before t.
  auto it = std::upper_bound(
      episodes_.begin(), episodes_.end(), t,
      [](double time, const FaultEpisode& e) { return time < e.start; });
  if (it == episodes_.begin()) return nullptr;
  const FaultEpisode& episode = *std::prev(it);
  return t < episode.end() ? &episode : nullptr;
}

TransferResult NetworkSimulator::Transfer(double start, uint64_t bytes) {
  static Counter* transfers =
      MetricRegistry::Global().GetCounter("net.transfers");
  static Counter* bytes_sent =
      MetricRegistry::Global().GetCounter("net.bytes_sent");
  static Histogram* transfer_seconds =
      MetricRegistry::Global().GetHistogram("net.transfer_seconds");
  static Gauge* goodput =
      MetricRegistry::Global().GetGauge("net.goodput_bps");
  static Counter* fault_drops =
      MetricRegistry::Global().GetCounter("net.fault_drops");
  static Counter* fault_stalls =
      MetricRegistry::Global().GetCounter("net.fault_stalls");
  static Counter* fault_collapses =
      MetricRegistry::Global().GetCounter("net.fault_collapses");

  ++request_count_;
  transfers->Add();

  // Classify the request against the fault schedule by its issue time.
  const FaultEpisode* episode = EpisodeAt(start);
  if (episode != nullptr && episode->kind == FaultKind::kDrop) {
    ++fault_count_;
    fault_drops->Add();
    TransferResult result;
    result.completion_time = start + options_.faults.timeout_seconds;
    result.delivered_bytes = 0;
    result.faulted = true;
    return result;
  }

  double t = start + options_.latency_seconds;
  if (episode != nullptr && episode->kind == FaultKind::kStall) {
    fault_stalls->Add();
    t = std::max(t, episode->end());  // frozen until the episode clears
  }
  double remaining_bits = static_cast<double>(bytes) * 8.0;

  double rate_factor = 1.0;
  if (episode != nullptr && episode->kind == FaultKind::kCollapse) {
    fault_collapses->Add();
    rate_factor = kCollapseFactor;
  }

  // Integrate across stepwise bandwidth changes: walk each remaining trace
  // step at most once, then finish analytically on the final (constant)
  // plateau. No step budget — a transfer spanning an arbitrarily long trace
  // still completes exactly.
  const auto& trace = options_.bandwidth_trace;
  auto next = std::upper_bound(
      trace.begin(), trace.end(), t,
      [](double time, const std::pair<double, double>& step) {
        return time < step.first;
      });
  double bps = (next == trace.begin() ? options_.bandwidth_bps
                                      : std::prev(next)->second) *
               rate_factor;
  for (; next != trace.end() && remaining_bits > 1e-9; ++next) {
    double finish = t + remaining_bits / bps;
    if (finish <= next->first) {
      remaining_bits = 0;
      t = finish;
      break;
    }
    remaining_bits -= (next->first - t) * bps;
    t = next->first;
    bps = next->second * rate_factor;
  }
  if (remaining_bits > 1e-9) t += remaining_bits / bps;

  total_bytes_ += bytes;
  bytes_sent->Add(bytes);
  transfer_seconds->Observe(t - start);
  if (t > start) {
    goodput->Set(static_cast<double>(bytes) * 8.0 / (t - start));
  }
  TransferResult result;
  result.completion_time = t;
  result.delivered_bytes = bytes;
  result.faulted = false;
  return result;
}

void NetworkSimulator::ResetStats() {
  total_bytes_ = 0;
  request_count_ = 0;
  fault_count_ = 0;
}

}  // namespace vc
