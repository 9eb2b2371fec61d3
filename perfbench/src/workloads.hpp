// The benchmark's workloads.  Each one generates its inputs from the seed,
// then repeats its main phase on a fresh omen::Simulator until the time
// budget is spent, checking every result as it goes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  long long attempted = 0;
  long long failed = 0;
  /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
  std::map<std::string, Metric> metrics;
};

const std::vector<std::string>& workload_names();

/// Runs one workload; human-readable lines go to stdout as it runs.
/// Throws std::invalid_argument for an unknown workload name.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
