#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// The benchmark's request loop and result model, shared by all workloads.
//
// A run is: set-up (repeated; the median is `setup_s`), an untimed
// check pass inside set-up, then a closed loop of requests issued one at a
// time from this thread for the requested number of seconds. Every request
// is timed from outside (wall and process CPU); after it, the workload
// verifies its output untimed and the reference kernel runs, which
// calibrates the request's timings for the host's speed (calibration.h).
// In a traced run whole passes over the input cycle alternate between
// traced and untraced, which gives the tracing overhead from the same
// process.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace perfbench {

/// Linear-interpolation percentile (numpy's default, R type 7) of `values`
/// for `p` in [0, 1]; 0 for an empty input.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Number of samples strictly greater than the `p`-percentile.
size_t CountAbove(const std::vector<double>& values, double p);

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;  ///< Observations behind the value (0: not a timing).
};

/// Named metrics, reported in name order.
using MetricMap = std::map<std::string, Metric>;

/// What a workload reports once its timed loop is over.
struct WorkloadReport {
  /// End-to-end metrics the workload computes itself (deterministic ones:
  /// data_ratio, quality_db, ...). The loop adds the timing metrics.
  MetricMap end_to_end;
  /// Per-layer metrics, averaged over the traced requests.
  MetricMap per_layer;
  /// Values that must repeat exactly for the same seed, as exact strings.
  std::map<std::string, std::string> deterministic;
  /// Free-form notes printed with the result (findings, sizes).
  std::vector<std::string> notes;
};

/// \brief One benchmark workload.
///
/// Set-up builds inputs from the seed, the store and catalog, and runs the
/// untimed check pass that records each cycle position's expected outputs.
/// Requests are addressed by a running index; `index % CycleLength()` is
/// the position in the input cycle.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Unit of work `throughput_per_cpu_s` counts ("segment", ...).
  virtual const char* work_unit() const = 0;

  /// Builds everything from `seed`. Called more than once per process; each
  /// call replaces the previous state.
  virtual vc::Status Setup(uint64_t seed) = 0;

  /// Requests in one pass over the input cycle.
  virtual int CycleLength() const = 0;

  /// Runs one request (timed from outside). Returns the units of work done.
  /// `traced` says whether layer accounting should be taken for it.
  virtual vc::Result<double> Request(uint64_t index, bool traced) = 0;

  /// Untimed: checks the request's outputs against the check pass.
  virtual vc::Status Verify(uint64_t index) = 0;

  /// Untimed end-of-run checks and metrics. `traced_requests` is how many
  /// requests took layer accounting (per-request averages divide by it).
  virtual vc::Status Finish(int64_t traced_requests,
                            WorkloadReport* report) = 0;

  /// Stamp fields of this workload's configuration.
  virtual std::map<std::string, std::string> Config() const = 0;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace output (traced runs).
  /// NowNs() at process start; the first set-up is timed from it.
  int64_t process_start_ns = 0;
  std::map<std::string, std::string> stamp;
};

/// Runs `workload` and prints the final one-line JSON result to stdout.
/// Returns the process exit code.
int RunWorkload(Workload* workload, const RunOptions& options);

/// Exact text of a double (17 significant digits) for determinism records.
std::string Exact(double value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
