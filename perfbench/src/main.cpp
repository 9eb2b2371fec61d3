// omenx repository benchmark.
//
//   omenx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (inputs generated from the seed; see workloads.cpp):
//   spectrum_cold      ballistic T(E) + density, Sn/O anode, FEAST + SplitSolve
//   iv_scf             self-consistent Id-Vgs x Vds, chain FET, contour charge
//   dissipative_kgrid  Buettiker-probe terminal currents over a k grid, 4 ranks
//
// --trace 0 prints the end-to-end metrics (untraced); --trace 1 prints the
// per-layer metrics of a traced run, including the tracing overhead.  The
// last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero when any operation failed its correctness check.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "parallel/thread_pool.hpp"
#include "perf/machine.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "omenx_perfbench: %s\nusage: omenx_perfbench --workload "
               "<spectrum_cold|iv_scf|dissipative_kgrid> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  // Provenance: results from different machines must never be compared
  // blindly.  MachineSpec::host() measures once per process — do it before
  // any timing starts.
  const auto& host = omenx::perf::MachineSpec::host();
  std::printf("provenance: {\"nproc\": %u, \"pool_threads\": %zu, "
              "\"host_batched_gemm_gflops\": %.4g, "
              "\"host_lane_gflops\": %.4g}\n",
              std::thread::hardware_concurrency(),
              omenx::parallel::ThreadPool::global().num_threads(),
              host.batched_gemm_gflops, host.host_lane_gflops);
  std::printf("workload %s, seed %llu, %.3g s, trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omenx_perfbench: %s\n", e.what());
    return 2;
  }

  const bool correct = res.failed == 0 && res.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : res.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
            value + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
