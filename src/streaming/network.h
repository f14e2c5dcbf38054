#ifndef VC_STREAMING_NETWORK_H_
#define VC_STREAMING_NETWORK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"

namespace vc {

/// What goes wrong during a fault episode on the network path.
enum class FaultKind {
  kDrop,      ///< Requests issued during the episode time out undelivered.
  kStall,     ///< Requests freeze until the episode ends, then proceed.
  kCollapse,  ///< Bandwidth collapses to a fraction for the whole transfer.
};

/// One scheduled fault episode (see FaultInjectionOptions).
struct FaultEpisode {
  double start = 0.0;
  double duration = 0.0;
  FaultKind kind = FaultKind::kDrop;

  double end() const { return start + duration; }
};

/// \brief Seeded fault-injection model for the network path.
///
/// Episodes (drop / stall / bandwidth-collapse) are pre-generated from the
/// seed over the first 600 s with exponentially distributed gaps, so
/// a given seed always produces the same fault schedule — degraded runs are
/// as reproducible as clean ones. A request is classified by its issue
/// time; episodes starting mid-transfer are ignored (the transfer was
/// already in flight).
struct FaultInjectionOptions {
  double episodes_per_minute = 0.0;  ///< Mean episode rate; 0 disables.
  double episode_seconds = 1.0;      ///< Mean episode duration.
  double timeout_seconds = 2.0;      ///< Dropped requests fail after this.
  uint64_t seed = 41;                ///< Episode-schedule RNG seed.

  bool enabled() const { return episodes_per_minute > 0.0; }
  Status Validate() const;
};

/// \brief Parameters of the simulated client↔server network path.
///
/// Replaces the HTTP/DASH path of the live demonstration with a
/// deterministic model: a (possibly time-varying) bandwidth and a fixed
/// per-request latency. Determinism makes every bandwidth number in
/// EXPERIMENTS.md exactly reproducible.
struct NetworkOptions {
  double bandwidth_bps = 8e6;      ///< Steady-state bandwidth (bits/second).
  double latency_seconds = 0.030;  ///< Per-request one-way latency.
  /// Names the path for callers that derive per-viewer seeds (for example
  /// `faults.seed`) from it; the simulator itself draws nothing from it.
  uint64_t seed = 7;
  /// Optional stepwise bandwidth trace: (start_time, bps) pairs sorted by
  /// time; overrides `bandwidth_bps` from each start time onward.
  std::vector<std::pair<double, double>> bandwidth_trace;
  /// Optional fault injection (disabled by default).
  FaultInjectionOptions faults;

  Status Validate() const;
};

/// Outcome of one simulated request.
struct TransferResult {
  double completion_time = 0.0;  ///< When the request resolved (seconds).
  uint64_t delivered_bytes = 0;  ///< Bytes that actually arrived (0 on fault).
  bool faulted = false;          ///< True when the request timed out (drop).
};

/// \brief Deterministic network path simulator.
///
/// The streaming session calls `Transfer` once per segment request; the
/// simulator integrates the byte count over the (stepwise) bandwidth curve
/// and returns the completion time, delivered bytes, and whether the
/// request faulted, so retries and fault accounting compose without
/// out-params.
class NetworkSimulator {
 public:
  static Result<NetworkSimulator> Create(const NetworkOptions& options);

  /// Bandwidth in effect at simulation time `t` (bits/second).
  double BandwidthAt(double t) const;

  /// Fault episode (if any) covering simulation time `t`.
  const FaultEpisode* EpisodeAt(double t) const;

  /// Simulates a request for `bytes` issued at time `start` and accumulates
  /// transfer statistics. A request issued inside a drop episode times out
  /// after `faults.timeout_seconds` with nothing delivered; a stall episode
  /// delays service until the episode ends; a collapse episode multiplies
  /// the effective bandwidth by 0.1.
  TransferResult Transfer(double start, uint64_t bytes);

  /// Total bytes delivered so far (faulted requests deliver nothing).
  uint64_t total_bytes() const { return total_bytes_; }

  /// Number of Transfer calls.
  uint64_t request_count() const { return request_count_; }

  /// Number of faulted (timed-out) requests.
  uint64_t fault_count() const { return fault_count_; }

  /// Clears statistics (the bandwidth and fault models are unchanged).
  void ResetStats();

 private:
  explicit NetworkSimulator(const NetworkOptions& options);

  NetworkOptions options_;
  std::vector<FaultEpisode> episodes_;
  uint64_t total_bytes_ = 0;
  uint64_t request_count_ = 0;
  uint64_t fault_count_ = 0;
};

}  // namespace vc

#endif  // VC_STREAMING_NETWORK_H_
