// Traced-run instrumentation that works from outside the library, through
// the public registries only:
//   * SpanLog    — spans recorded around the calls the benchmark (and the
//                  forwarding taps below) make into each layer, with
//                  per-layer self time (span minus the part its children
//                  cover);
//   * solver tap — solvers::register_solver override of a built-in name that
//                  forwards every call to an original instance of it;
//   * backend tap — a forwarding numeric::Backend registered under its own
//                  name and selected through SimulationConfig::backend;
//   * quadrature tap — charge::register_quadrature override forwarding to
//                  an original (stateless) instance.
// Every tap forwards unchanged while tracing is off, so the workload's
// numbers are identical with the hooks installed; only the traced process
// installs them at all.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "numeric/backend.hpp"
#include "parallel/device.hpp"
#include "solvers/solver.hpp"

namespace perfbench {

double now_seconds();

// ---------------------------------------------------------------- spans --

struct Span {
  const char* layer;
  int parent;  ///< index into the log, -1 for a root
  double start_s;
  double end_s;
};

/// Process-wide span log.  A span's parent is the innermost span open on
/// the same thread; a span opened on a worker thread with nothing open
/// there is parented to the innermost span open on the main thread
/// (the call that caused the work).
class SpanLog {
 public:
  static SpanLog& get();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  /// Mark the calling thread as the main thread (the one issuing the calls).
  void set_main_thread();

  int open(const char* layer);
  void close(int id);
  void clear();
  std::size_t size() const;

  /// Seconds of self time per layer over every recorded span.
  std::map<std::string, double> self_seconds() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int> main_top_{-1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op while the log is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* layer)
      : id_(SpanLog::get().enabled() ? SpanLog::get().open(layer) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) SpanLog::get().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// ------------------------------------------------------------- counters --

/// Thread-safe accumulated seconds.
class Seconds {
 public:
  void add(double s) noexcept {
    ns_.fetch_add(static_cast<std::int64_t>(s * 1e9),
                  std::memory_order_relaxed);
  }
  double get() const noexcept {
    return 1e-9 * static_cast<double>(ns_.load(std::memory_order_relaxed));
  }
  void reset() noexcept { ns_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> ns_{0};
};

struct TapCounters {
  // solvers
  std::atomic<std::int64_t> solver_calls{0};
  Seconds solver_factor_s;    ///< factor + prepare + prepare_batched
  Seconds solver_solve_s;     ///< solve, solve_boundary(_batched), diagonal
  Seconds solver_attached_s;  ///< solve_attached (N-terminal path)
  // numeric
  std::atomic<std::int64_t> gemm_batched_calls{0};
  Seconds gemm_batched_s;
  Seconds lu_factor_batched_s;
  std::atomic<std::int64_t> dispatch_calls{0};
  Seconds dispatch_s;
  // charge
  std::atomic<std::int64_t> quadrature_builds{0};
  Seconds quadrature_build_s;

  void reset();
};

TapCounters& counters();

// ----------------------------------------------------------------- taps --

/// Replace the registry entries `names` with forwarding wrappers around
/// original instances.  The registry cannot hand back a built-in factory
/// once it is replaced, so originals are made up front: `stock` instances
/// per name, bound to a benchmark-owned device pool of `num_devices`.
/// Each solver the library later creates under one of these names takes
/// one original from the stock (the library caches solvers per thread and
/// per batched sweep, so a repetition needs up to about one per sweep and
/// thread).  An empty stock throws std::runtime_error: a loud failure,
/// never a silent substitute.
void install_solver_tap(const std::vector<std::string>& names, int partitions,
                        int num_devices, int stock);

/// Originals the solver tap has handed out so far.
std::int64_t solver_tap_taken();

/// Register a forwarding backend under `name` around `inner`.  Registry
/// names are unique, so call this once per name.
void install_backend_tap(const std::string& name, omenx::numeric::Backend* inner);

/// Replace the registry entry `name` of charge::Quadrature with a
/// forwarding wrapper around an original instance made before the swap.
void install_quadrature_tap(const std::string& name);

/// Every point (complex nodes, then real-axis energies) of the most recent
/// node set the quadrature tap built — the workload's own (k = 0, E) list
/// for the OBC replay.
std::vector<omenx::numeric::cplx> last_quadrature_points();

/// The backend SimulationConfig::backend = "auto" resolves to for batches
/// of `nb` blocks of size `s`, replicated from the engine's documented
/// crossover (host lanes vs device streams by perf::estimate_batch_seconds).
/// Returns nullptr for the host; otherwise a benchmark-owned device backend
/// over its own pool of `num_devices`.
omenx::numeric::Backend* auto_offload_backend(long long nb, long long s,
                                              int max_batch, int num_devices);

}  // namespace perfbench
