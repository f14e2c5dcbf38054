// vcbench: runs one benchmark workload and prints its result.
//
//   vcbench --workload ingest|serve|query --seed N --seconds S
//           [--trace 0|1] [--trace-out PATH] [--commit SHA]
//
// The last stdout line is `RESULT {...}` with every metric, the stamp and
// the deterministic values; perfbench/run.py turns it into the benchmark's
// one-line result.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "codec/simd.h"
#include "harness.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ingest|serve|query --seed N "
               "--seconds S [--trace 0|1] [--trace-out PATH] "
               "[--commit SHA]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start_ns = perfbench::NowNs();
  std::string workload_name, commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.seconds <= 0) return Usage(argv[0]);

  const unsigned nproc = std::thread::hardware_concurrency();
  std::unique_ptr<perfbench::Workload> workload;
  if (workload_name == "ingest") {
    workload = perfbench::NewIngestWorkload();
  } else if (workload_name == "serve") {
    workload = perfbench::NewServeWorkload();
  } else if (workload_name == "query") {
    workload = perfbench::NewQueryWorkload();
  } else {
    return Usage(argv[0]);
  }

  options.stamp = {
      {"commit", commit},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"simd", vc::simd::LevelName(vc::simd::ActiveLevel())},
      {"nproc", std::to_string(nproc)},
  };
  return perfbench::RunWorkload(workload.get(), options);
}
