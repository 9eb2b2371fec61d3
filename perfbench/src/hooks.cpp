#include "hooks.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "charge/quadrature.hpp"
#include "numeric/device_backend.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/machine.hpp"

namespace perfbench {

using omenx::numeric::Backend;
using omenx::numeric::cplx;
using omenx::numeric::idx;
using omenx::solvers::BlockTridiag;
using omenx::solvers::CMatrix;
using omenx::solvers::Solver;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans --

namespace {
thread_local std::vector<int> t_stack;
thread_local bool t_is_main = false;
}  // namespace

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

void SpanLog::set_main_thread() { t_is_main = true; }

int SpanLog::open(const char* layer) {
  const int parent =
      t_stack.empty() ? main_top_.load(std::memory_order_relaxed)
                      : t_stack.back();
  const double t = now_seconds();
  int id;
  {
    std::lock_guard lock(mutex_);
    id = static_cast<int>(spans_.size());
    spans_.push_back({layer, parent, t, t});
  }
  t_stack.push_back(id);
  if (t_is_main) main_top_.store(id, std::memory_order_relaxed);
  return id;
}

void SpanLog::close(int id) {
  const double t = now_seconds();
  {
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_s = t;
  }
  if (!t_stack.empty()) t_stack.pop_back();
  if (t_is_main)
    main_top_.store(t_stack.empty() ? -1 : t_stack.back(),
                      std::memory_order_relaxed);
}

void SpanLog::clear() {
  std::lock_guard lock(mutex_);
  spans_.clear();
}

std::size_t SpanLog::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::lock_guard lock(mutex_);
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
  std::map<std::string, double> out;
  std::vector<std::pair<double, double>> iv;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent: children
    // on several worker threads overlap one another.
    iv.clear();
    for (const int c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      const double a = std::max(k.start_s, s.start_s);
      const double b = std::min(k.end_s, s.end_s);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    out[s.layer] += std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return out;
}

// ------------------------------------------------------------- counters --

void TapCounters::reset() {
  solver_calls = 0;
  solver_factor_s.reset();
  solver_solve_s.reset();
  solver_attached_s.reset();
  gemm_batched_calls = 0;
  gemm_batched_s.reset();
  lu_factor_batched_s.reset();
  dispatch_calls = 0;
  dispatch_s.reset();
  quadrature_builds = 0;
  quadrature_build_s.reset();
}

TapCounters& counters() {
  static TapCounters c;
  return c;
}

namespace {

/// Times one forwarded call into `sink` and records its span — only while
/// tracing is on.
class Timed {
 public:
  Timed(const char* layer, Seconds* sink)
      : on_(SpanLog::get().enabled()), span_(layer), sink_(sink),
        start_(on_ ? now_seconds() : 0.0) {}
  ~Timed() {
    if (on_ && sink_ != nullptr) sink_->add(now_seconds() - start_);
  }

 private:
  bool on_;
  ScopedSpan span_;
  Seconds* sink_;
  double start_;
};

// --------------------------------------------------------- solver tap --

class TappedSolver final : public Solver {
 public:
  explicit TappedSolver(std::unique_ptr<Solver> inner)
      : inner_(std::move(inner)) {}

  const char* name() const noexcept override { return inner_->name(); }
  unsigned capabilities() const noexcept override {
    return inner_->capabilities();
  }
  void prepare(const BlockTridiag& a) override {
    const Timed t = begin(&counters().solver_factor_s);
    inner_->prepare(a);
  }
  void factor(const BlockTridiag& t) override {
    const Timed tm = begin(&counters().solver_factor_s);
    inner_->factor(t);
  }
  CMatrix solve(const CMatrix& b) override {
    const Timed t = begin(&counters().solver_solve_s);
    return inner_->solve(b);
  }
  CMatrix solve_boundary(const BlockTridiag& a, const CMatrix& sigma_l,
                         const CMatrix& sigma_r, const CMatrix& b_top,
                         const CMatrix& b_bot) override {
    const Timed t = begin(&counters().solver_solve_s);
    return inner_->solve_boundary(a, sigma_l, sigma_r, b_top, b_bot);
  }
  void prepare_batched(const std::vector<const BlockTridiag*>& systems,
                       Backend& backend) override {
    const Timed t = begin(&counters().solver_factor_s);
    inner_->prepare_batched(systems, backend);
  }
  std::vector<CMatrix> solve_boundary_batched(
      const std::vector<omenx::solvers::BoundaryProblem>& problems,
      Backend& backend) override {
    const Timed t = begin(&counters().solver_solve_s);
    return inner_->solve_boundary_batched(problems, backend);
  }
  CMatrix solve_attached(
      const BlockTridiag& a,
      const std::vector<omenx::solvers::Attachment>& attachments,
      const std::vector<omenx::solvers::RhsBlock>& rhs) override {
    const Timed t = begin(&counters().solver_attached_s);
    return inner_->solve_attached(a, attachments, rhs);
  }
  std::vector<CMatrix> diagonal_blocks(const BlockTridiag& t) override {
    const Timed tm = begin(&counters().solver_solve_s);
    return inner_->diagonal_blocks(t);
  }
  void discard() override { inner_->discard(); }

 private:
  static Timed begin(Seconds* sink) {
    if (SpanLog::get().enabled()) ++counters().solver_calls;
    return Timed("solvers", sink);
  }

  std::unique_ptr<Solver> inner_;
};

struct SolverStock {
  std::mutex mutex;
  std::map<std::string, std::vector<std::unique_ptr<Solver>>> originals;
  std::unique_ptr<omenx::parallel::DevicePool> pool;
  std::int64_t taken = 0;
};

SolverStock& solver_stock() {
  static SolverStock s;
  return s;
}

// -------------------------------------------------------- backend tap --

class TappedBackend final : public Backend {
 public:
  explicit TappedBackend(Backend* inner) : inner_(inner) {}

  const char* name() const noexcept override { return "perfbench_traced"; }
  int lanes() const noexcept override { return inner_->lanes(); }
  void dispatch(const char* label, std::size_t n,
                const std::function<void(std::size_t)>& fn) override {
    if (SpanLog::get().enabled()) ++counters().dispatch_calls;
    const Timed t("numeric", &counters().dispatch_s);
    inner_->dispatch(label, n, fn);
  }
  void gemm_batched(char op_a, char op_b, idx m, idx n, idx k, cplx alpha,
                    cplx beta,
                    const std::vector<omenx::numeric::GemmBatchItem>& items)
      override {
    if (SpanLog::get().enabled()) ++counters().gemm_batched_calls;
    const Timed t("numeric", &counters().gemm_batched_s);
    inner_->gemm_batched(op_a, op_b, m, n, k, alpha, beta, items);
  }
  std::vector<omenx::numeric::LUFactor> lu_factor_batched(
      const std::vector<const omenx::numeric::CMatrix*>& as,
      omenx::numeric::Pivoting pivoting) override {
    const Timed t("numeric", &counters().lu_factor_batched_s);
    return inner_->lu_factor_batched(as, pivoting);
  }
  void lu_solve_batched(
      const std::vector<const omenx::numeric::LUFactor*>& factors,
      const std::vector<const omenx::numeric::CMatrix*>& bs,
      std::vector<omenx::numeric::CMatrix>& xs) override {
    const Timed t("numeric", nullptr);
    inner_->lu_solve_batched(factors, bs, xs);
  }
  void lu_solve_left_batched(
      const std::vector<const omenx::numeric::LUFactor*>& factors,
      const std::vector<const omenx::numeric::CMatrix*>& bs,
      std::vector<omenx::numeric::CMatrix>& xs) override {
    const Timed t("numeric", nullptr);
    inner_->lu_solve_left_batched(factors, bs, xs);
  }
  bool offloads() const noexcept override { return inner_->offloads(); }
  bool stage_operand(std::uint64_t stable_id, std::uint64_t bytes) override {
    return inner_->stage_operand(stable_id, bytes);
  }
  void invalidate_residency() override { inner_->invalidate_residency(); }

 private:
  Backend* const inner_;
};

// ----------------------------------------------------- quadrature tap --

std::mutex& last_points_mutex() {
  static std::mutex m;
  return m;
}

std::vector<omenx::numeric::cplx>& last_points() {
  static std::vector<omenx::numeric::cplx> points;
  return points;
}

class TappedQuadrature final : public omenx::charge::Quadrature {
 public:
  explicit TappedQuadrature(std::shared_ptr<const Quadrature> inner)
      : inner_(std::move(inner)) {}
  const char* name() const noexcept override { return inner_->name(); }
  unsigned capabilities() const noexcept override {
    return inner_->capabilities();
  }
  omenx::charge::NodeSet build(
      const omenx::charge::ChargeWindow& window,
      const omenx::charge::QuadratureOptions& options) const override {
    if (SpanLog::get().enabled()) ++counters().quadrature_builds;
    omenx::charge::NodeSet nodes;
    {
      const Timed t("charge", &counters().quadrature_build_s);
      nodes = inner_->build(window, options);
    }
    std::vector<omenx::numeric::cplx> points = nodes.gf_nodes;
    for (const double e : nodes.energies) points.emplace_back(e, 0.0);
    const std::lock_guard lock(last_points_mutex());
    last_points() = std::move(points);
    return nodes;
  }

 private:
  std::shared_ptr<const Quadrature> inner_;
};

}  // namespace

void install_solver_tap(const std::vector<std::string>& names, int partitions,
                        int num_devices, int stock) {
  SolverStock& st = solver_stock();
  {
    std::lock_guard lock(st.mutex);
    if (st.pool == nullptr)
      st.pool = std::make_unique<omenx::parallel::DevicePool>(
          std::max(1, num_devices));
  }
  omenx::solvers::SolverContext ctx;
  ctx.pool = st.pool.get();
  ctx.partitions = std::max(1, partitions);
  for (const std::string& name : names) {
    std::vector<std::unique_ptr<Solver>> made;
    made.reserve(static_cast<std::size_t>(stock));
    for (int i = 0; i < stock; ++i)
      made.push_back(omenx::solvers::make_solver(name, ctx));
    {
      std::lock_guard lock(st.mutex);
      st.originals[name] = std::move(made);
    }
    omenx::solvers::register_solver(
        name, [name](const omenx::solvers::SolverContext&) {
          SolverStock& s = solver_stock();
          std::unique_ptr<Solver> inner;
          {
            std::lock_guard lock(s.mutex);
            auto& v = s.originals[name];
            if (v.empty())
              throw std::runtime_error("perfbench: solver tap stock of '" +
                                       name + "' exhausted");
            inner = std::move(v.back());
            v.pop_back();
            ++s.taken;
          }
          return std::make_unique<TappedSolver>(std::move(inner));
        });
  }
}

std::int64_t solver_tap_taken() {
  SolverStock& st = solver_stock();
  std::lock_guard lock(st.mutex);
  return st.taken;
}

void install_backend_tap(const std::string& name, Backend* inner) {
  // The registry keeps the raw pointer for the rest of the process.
  static TappedBackend tap(inner);
  omenx::numeric::register_backend(name, &tap);
}

void install_quadrature_tap(const std::string& name) {
  std::shared_ptr<const omenx::charge::Quadrature> original =
      omenx::charge::make_quadrature(name);
  omenx::charge::register_quadrature(name, [original] {
    return std::make_unique<TappedQuadrature>(original);
  });
}

std::vector<omenx::numeric::cplx> last_quadrature_points() {
  const std::lock_guard lock(last_points_mutex());
  return last_points();
}

Backend* auto_offload_backend(long long nb, long long s, int max_batch,
                              int num_devices) {
  if (num_devices <= 0) return nullptr;
  const int lanes = static_cast<int>(
      omenx::parallel::ThreadPool::global().num_threads());
  const omenx::perf::BatchEstimate est = omenx::perf::estimate_batch_seconds(
      omenx::perf::MachineSpec::host(), {nb, s, 2 * s}, std::max(1, max_batch),
      lanes, num_devices);
  if (!est.device_wins()) return nullptr;
  static omenx::parallel::DevicePool pool(num_devices);
  static omenx::numeric::DeviceBackend device(pool);
  return &device;
}

}  // namespace perfbench
