#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

// Host-speed calibration for the benchmark's timings.
//
// Small cloud VMs switch between speed modes that last minutes (a whole
// benchmark run can land in a mode ~1.35x slower than the next one). A
// fixed reference kernel, owned by the benchmark and independent of the
// library, is run next to every timed request; each request's time is
// scaled by how long the kernel took around it:
//
//   calibrated = measured × kReferenceKernelMs / local kernel time
//
// so every timing reads as on a host where the kernel takes exactly
// kReferenceKernelMs. A change to the library moves the request times but
// not the kernel's, so it still shows in full.
//
// Wall times have a second host effect that CPU times lack: time the
// hypervisor ran something else on the VM's CPU ("steal"). The guest kernel
// counts it per CPU in /proc/stat; wall timings are scaled by one minus the
// share of busy CPU time that was stolen around them.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

/// The kernel's nominal time, the unit calibrated timings are scaled to:
/// about what it takes on the 4-vCPU VM the benchmark was written on, so
/// calibrated timings there read close to measured ones.
inline constexpr double kReferenceKernelMs = 0.6;

/// Runs the reference kernel on this thread and returns the thread CPU time
/// of one warm pass, in milliseconds. The kernel sorts a fixed set of 4096
/// random keys twice: branchy comparisons on a cache-resident working set.
/// Of the kernels tried on a 4-vCPU VM (block SADs, a pointer chase over
/// 1 MiB, hash-table lookups, a register-only integer loop, sorting), this
/// is the one whose time follows the workloads' own CPU time through the
/// host's speed modes; see perfbench/README.md.
double RunReferenceKernelMs();

/// \brief Runs the reference kernel on a thread of its own every
/// `period_ms` until stopped: calibrates a stretch of work (a set-up) that
/// no kernel run can be put between.
class KernelSampler {
 public:
  explicit KernelSampler(int period_ms);
  ~KernelSampler();
  /// Stops the thread; returns the median kernel time (0 if none ran).
  double StopMedianMs();

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> times_;
  std::thread thread_;
};

/// Cumulative busy and stolen CPU time of the whole machine, in clock ticks
/// (the aggregate `cpu` line of /proc/stat); zeros where it is unreadable.
struct CpuTicks {
  uint64_t busy = 0;   ///< user + nice + system + irq + softirq
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Share of the CPU time the machine wanted between `from` and `to` that
/// the hypervisor stole: steal ÷ (busy + steal), 0 when nothing ran.
double StolenShare(const CpuTicks& from, const CpuTicks& to);

/// For each i, the median of `values` over [i - half_window, i +
/// half_window] clipped to the vector: each request's local kernel time.
std::vector<double> LocalMedians(const std::vector<double>& values,
                                 int half_window);

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
