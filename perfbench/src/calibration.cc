#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

constexpr int kSortKeys = 4096;
constexpr int kSortRounds = 2;

double ThreadCpuMs() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

/// The kernel's input: fixed keys from an xorshift stream.
const std::vector<uint32_t>& Keys() {
  static const std::vector<uint32_t> keys = [] {
    std::vector<uint32_t> out(kSortKeys);
    uint64_t x = 88172645463325252ull;
    for (uint32_t& k : out) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = static_cast<uint32_t>(x);
    }
    return out;
  }();
  return keys;
}

volatile uint32_t kernel_sink;

/// One pass of the kernel: sort the keys, scramble them, sort again.
void KernelPass() {
  std::vector<uint32_t> keys = Keys();
  for (int round = 0; round < kSortRounds; ++round) {
    std::sort(keys.begin(), keys.end());
    for (uint32_t& k : keys) k = k * 2654435761u + round;
  }
  kernel_sink = keys[kSortKeys / 3];
}

}  // namespace

double RunReferenceKernelMs() {
  // The first pass brings the keys back into the caches after the request
  // that ran before it, so the timed pass does not depend on how much
  // memory the library touched.
  KernelPass();
  const double start = ThreadCpuMs();
  KernelPass();
  return ThreadCpuMs() - start;
}

KernelSampler::KernelSampler(int period_ms)
    : thread_([this, period_ms] {
        while (!stop_.load(std::memory_order_relaxed)) {
          times_.push_back(RunReferenceKernelMs());
          std::this_thread::sleep_for(std::chrono::milliseconds(period_ms));
        }
      }) {}

KernelSampler::~KernelSampler() { StopMedianMs(); }

double KernelSampler::StopMedianMs() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return Median(times_);
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
  if (!(stat >> label >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      label != "cpu") {
    return {};
  }
  return {user + nice + system + irq + softirq, steal};
}

double StolenShare(const CpuTicks& from, const CpuTicks& to) {
  const double busy = static_cast<double>(to.busy - from.busy);
  const double steal = static_cast<double>(to.steal - from.steal);
  return busy + steal > 0 ? steal / (busy + steal) : 0.0;
}

std::vector<double> LocalMedians(const std::vector<double>& values,
                                 int half_window) {
  std::vector<double> out;
  out.reserve(values.size());
  const int n = static_cast<int>(values.size());
  for (int i = 0; i < n; ++i) {
    const int lo = std::max(0, i - half_window);
    const int hi = std::min(n, i + half_window + 1);
    out.push_back(Median(std::vector<double>(values.begin() + lo,
                                             values.begin() + hi)));
  }
  return out;
}

}  // namespace perfbench
