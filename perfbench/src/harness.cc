#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "calibration.h"
#include "trace.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

size_t CountAbove(const std::vector<double>& values, double p) {
  const double cut = Percentile(values, p);
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

std::string Exact(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// How often the reference kernel samples the host during a set-up.
constexpr int kSetupSampleMs = 20;
/// Each request's kernel time is the median over this many requests on
/// either side of it, so one disturbed kernel run does not skew it.
constexpr int kKernelHalfWindow = 4;
/// Each request's stolen share is taken over this many requests on either
/// side of it: /proc/stat counts in 10 ms ticks, too coarse for one request.
constexpr int kStealHalfWindow = 25;
/// Untraced runs keep issuing requests past `seconds` until this many
/// succeeded, so p95 has at least ten samples beyond it (up to 3 × seconds).
constexpr int kMinRequests = 200;

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += Quote(name) + ": {\"value\": " + Exact(metric.value) +
           ", \"unit\": " + Quote(metric.unit) +
           ", \"samples\": " + std::to_string(metric.samples) + "}";
  }
  return out + "}";
}

std::string StringsJson(const std::map<std::string, std::string>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ", ";
    out += Quote(key) + ": " + Quote(value);
  }
  return out + "}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Sample {
  uint64_t position;  ///< Index in the input cycle.
  bool traced;
  double wall_ms;
  double cpu_s;
  double work;
  double kernel_ms;   ///< Reference kernel run right after the request.
  CpuTicks ticks;     ///< Machine CPU ticks after the kernel.
  double scale = 1.0; ///< kReferenceKernelMs / local kernel time.
  double unstolen = 1.0;  ///< 1 − local stolen share (wall times only).

  double CalibratedWallMs() const { return wall_ms * unstolen * scale; }
};

/// Each sample's calibrated wall time replaced by the median over its cycle
/// position. Every position does the same deterministic work each time it
/// comes round, so its repetitions differ only by host noise (a request
/// the hypervisor stole from, a burst of interference); the percentiles
/// over this list are those of the request mix without that noise.
std::vector<double> PositionMedianWallMs(const std::vector<Sample>& samples,
                                         uint64_t cycle) {
  std::vector<std::vector<double>> wall(cycle);
  for (const Sample& s : samples) {
    wall[s.position].push_back(s.CalibratedWallMs());
  }
  std::vector<double> median(cycle);
  for (uint64_t p = 0; p < cycle; ++p) median[p] = Median(wall[p]);
  std::vector<double> out;
  for (const Sample& s : samples) out.push_back(median[s.position]);
  return out;
}

/// Work per process-CPU second over one pass of the input cycle: the
/// cycle's work divided by the sum over cycle positions of each position's
/// median CPU time. Per-position medians keep a burst of interference from
/// other processes out of the figure while every request type keeps its
/// weight. `calibrated` scales each CPU time by its sample's host speed.
double ThroughputPerCpuSecond(const std::vector<Sample>& samples,
                              uint64_t cycle, bool calibrated) {
  std::vector<std::vector<double>> cpu(cycle), work(cycle);
  for (const Sample& s : samples) {
    cpu[s.position].push_back(s.cpu_s * (calibrated ? s.scale : 1.0));
    work[s.position].push_back(s.work);
  }
  double cpu_total = 0.0, work_total = 0.0;
  for (uint64_t p = 0; p < cycle; ++p) {
    if (cpu[p].empty()) continue;
    cpu_total += Median(cpu[p]);
    work_total += Median(work[p]);
  }
  return cpu_total > 0 ? work_total / cpu_total : 0.0;
}

void PrintTable(const char* title, const MetricMap& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : metrics) {
    if (metric.samples > 0) {
      std::printf("  %-32s %14.6g %-8s (n=%lld)\n", name.c_str(),
                  metric.value, metric.unit.c_str(),
                  static_cast<long long>(metric.samples));
    } else {
      std::printf("  %-32s %14.6g %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
}

}  // namespace

int RunWorkload(Workload* workload, const RunOptions& options) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(false);

  // Set-up, repeated: each repetition rebuilds inputs, store and catalog
  // from the seed and reruns the check pass. The first one is timed from
  // process start.
  std::vector<double> setup_seconds, setup_calibrated;
  CpuTicks ticks = ReadCpuTicks();
  for (int r = 0; r < kSetupRepeats; ++r) {
    KernelSampler sampler(kSetupSampleMs);
    const int64_t start =
        r == 0 && options.process_start_ns > 0 ? options.process_start_ns
                                               : NowNs();
    vc::Status status = workload->Setup(options.seed);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: %s set-up failed: %s\n",
                   workload->name(), status.ToString().c_str());
      return 1;
    }
    setup_seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    const CpuTicks after = ReadCpuTicks();
    const double kernel = sampler.StopMedianMs();
    setup_calibrated.push_back(
        setup_seconds.back() * (1.0 - StolenShare(ticks, after)) *
        (kernel > 0 ? kReferenceKernelMs / kernel : 1.0));
    ticks = after;
  }

  // Timed closed loop. In a traced run, passes over the input cycle
  // alternate traced / untraced so both see the same request mix.
  const uint64_t cycle = static_cast<uint64_t>(workload->CycleLength());
  std::vector<Sample> samples;
  size_t untraced_count = 0;
  int64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const CpuTicks phase_start_ticks = ReadCpuTicks();
  const int64_t phase_start = NowNs();
  const int64_t soft_end =
      phase_start + static_cast<int64_t>(options.seconds * 1e9);
  const int64_t hard_end =
      phase_start + static_cast<int64_t>(3 * options.seconds * 1e9);
  for (uint64_t index = 0;; ++index) {
    const int64_t now = NowNs();
    const bool enough =
        options.trace ||
        static_cast<int>(untraced_count) >= kMinRequests;
    if (now >= hard_end || (now >= soft_end && enough)) break;

    const bool trace_this = options.trace && (index / cycle) % 2 == 0;
    tracer.Enable(trace_this);
    if (trace_this) tracer.BeginRequest(index + 1, workload->name());
    const int64_t wall0 = NowNs();
    const int64_t cpu0 = ProcessCpuNs();
    vc::Result<double> work = workload->Request(index, trace_this);
    const int64_t cpu1 = ProcessCpuNs();
    const int64_t wall1 = NowNs();
    if (trace_this) tracer.EndRequest();
    tracer.Enable(false);

    ++attempted;
    vc::Status status = work.ok() ? workload->Verify(index) : work.status();
    if (!status.ok()) {
      ++failed;
      if (failures.size() < 5) {
        failures.push_back("request " + std::to_string(index) + ": " +
                           status.ToString());
      }
      continue;
    }
    const double kernel = RunReferenceKernelMs();
    samples.push_back({index % cycle, trace_this,
                       static_cast<double>(wall1 - wall0) / 1e6,
                       static_cast<double>(cpu1 - cpu0) / 1e9, *work, kernel,
                       ReadCpuTicks()});
    if (!trace_this) ++untraced_count;
  }
  std::vector<double> kernel_ms;
  for (const Sample& s : samples) kernel_ms.push_back(s.kernel_ms);
  const std::vector<double> local = LocalMedians(kernel_ms, kKernelHalfWindow);
  const int count = static_cast<int>(samples.size());
  for (int i = 0; i < count; ++i) {
    samples[i].scale = kReferenceKernelMs / local[i];
    const int from = i - kStealHalfWindow - 1;
    const int to = std::min(count - 1, i + kStealHalfWindow);
    samples[i].unstolen =
        1.0 - StolenShare(from < 0 ? phase_start_ticks : samples[from].ticks,
                          samples[to].ticks);
  }
  std::vector<Sample> untraced, traced;
  for (const Sample& s : samples) (s.traced ? traced : untraced).push_back(s);
  const double phase_seconds = static_cast<double>(NowNs() - phase_start) / 1e9;

  WorkloadReport report;
  vc::Status finish =
      workload->Finish(static_cast<int64_t>(traced.size()), &report);
  bool correct = finish.ok() && failed == 0;
  if (!finish.ok()) failures.push_back("end checks: " + finish.ToString());

  // The timings are reported calibrated (the benchmark's metrics) and as
  // measured on this host (measured.*).
  const std::vector<double> latencies = PositionMedianWallMs(untraced, cycle);
  std::vector<double> measured_latencies;
  for (const Sample& s : untraced) measured_latencies.push_back(s.wall_ms);
  const int64_t n = static_cast<int64_t>(latencies.size());
  const int64_t setups = static_cast<int64_t>(setup_seconds.size());
  const std::string work_unit = std::string(workload->work_unit()) + "/cpu_s";
  MetricMap& e2e = report.end_to_end;
  const double kernel_median_ms = Median(kernel_ms);
  e2e["setup_s"] = {Median(setup_calibrated), "s", setups};
  e2e["latency_ms_p50"] = {Percentile(latencies, 0.5), "ms", n};
  e2e["latency_ms_p95"] = {Percentile(latencies, 0.95), "ms", n};
  e2e["throughput_per_cpu_s"] = {
      ThroughputPerCpuSecond(untraced, cycle, true), work_unit, n};
  e2e["measured.setup_s"] = {Median(setup_seconds), "s", setups};
  e2e["measured.latency_ms_p50"] = {Percentile(measured_latencies, 0.5), "ms",
                                    n};
  e2e["measured.latency_ms_p95"] = {Percentile(measured_latencies, 0.95),
                                    "ms", n};
  e2e["measured.throughput_per_cpu_s"] = {
      ThroughputPerCpuSecond(untraced, cycle, false), work_unit, n};
  e2e["host.reference_kernel_ms"] = {kernel_median_ms, "ms",
                                     static_cast<int64_t>(kernel_ms.size())};
  e2e["host.stolen_share"] = {
      StolenShare(phase_start_ticks,
                  samples.empty() ? phase_start_ticks : samples.back().ticks),
      "ratio", 0};
  e2e["peak_rss_mb"] = {PeakRssMb(), "MB", 0};
  const size_t beyond_p95 = CountAbove(measured_latencies, 0.95);
  if (beyond_p95 < 10) {
    report.notes.push_back("fewer than ten requests beyond p95 (" +
                           std::to_string(beyond_p95) + ")");
  }

  if (options.trace) {
    const std::vector<double> traced_ms = PositionMedianWallMs(traced, cycle);
    const double untraced_p50 = Median(latencies);
    report.per_layer["trace.overhead_pct"] = {
        untraced_p50 > 0 ? 100.0 * (Median(traced_ms) / untraced_p50 - 1.0)
                         : 0.0,
        "%", static_cast<int64_t>(traced_ms.size())};
    report.per_layer["trace.requests"] = {static_cast<double>(traced.size()),
                                          "count", 0};
    report.per_layer["trace.spans"] = {
        static_cast<double>(tracer.Spans().size()), "count", 0};
    report.per_layer["trace.spans_dropped"] = {
        static_cast<double>(tracer.dropped()), "count", 0};
    if (!options.trace_path.empty() &&
        !tracer.WriteChromeTrace(options.trace_path)) {
      failures.push_back("cannot write " + options.trace_path);
      correct = false;
    }
  }

  std::printf("workload %s: %lld requests (%lld failed) in %.2f s, "
              "%zu traced\n",
              workload->name(), static_cast<long long>(attempted),
              static_cast<long long>(failed), phase_seconds, traced.size());
  PrintTable("end-to-end (untraced requests):", e2e);
  if (options.trace) PrintTable("per-layer (traced requests):", report.per_layer);
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& failure : failures) {
    std::printf("FAILED %s\n", failure.c_str());
  }

  std::map<std::string, std::string> stamp = options.stamp;
  for (const auto& [key, value] : workload->Config()) stamp[key] = value;
  std::vector<std::string> notes = report.notes;
  notes.insert(notes.end(), failures.begin(), failures.end());
  std::string notes_json = "[";
  for (const std::string& note : notes) {
    if (notes_json.size() > 1) notes_json += ", ";
    notes_json += Quote(note);
  }
  notes_json += "]";
  std::printf(
      "RESULT {\"workload\": %s, \"seed\": %llu, \"trace\": %s, "
      "\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"phase_seconds\": %s, \"stamp\": %s, \"end_to_end\": %s, "
      "\"per_layer\": %s, \"deterministic\": %s, \"notes\": %s}\n",
      Quote(workload->name()).c_str(),
      static_cast<unsigned long long>(options.seed),
      options.trace ? "true" : "false", correct ? "true" : "false",
      static_cast<long long>(attempted), static_cast<long long>(failed),
      Exact(phase_seconds).c_str(), StringsJson(stamp).c_str(),
      MetricsJson(e2e).c_str(), MetricsJson(report.per_layer).c_str(),
      StringsJson(report.deterministic).c_str(), notes_json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
