#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "charge/quadrature.hpp"
#include "dft/hamiltonian.hpp"
#include "hooks.hpp"
#include "numeric/flops.hpp"
#include "obc/strategy.hpp"
#include "omen/simulator.hpp"
#include "parallel/tracer.hpp"
#include "poisson/scf.hpp"
#include "scattering/self_energy.hpp"
#include "transport/bands.hpp"
#include "transport/transmission.hpp"

namespace perfbench {
namespace {

using namespace omenx;
using numeric::cplx;
using numeric::idx;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 100;
constexpr const char* kTracedBackend = "perfbench_traced";

// ------------------------------------------------------------ statistics --

/// Linear-interpolation quantile (Python's statistics.quantiles "inclusive"
/// convention for q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// "median, and the highest percentile with >= 10 samples beyond it".
void print_timing(const std::string& name, const std::string& unit,
                  const std::vector<double>& samples) {
  const std::size_t n = samples.size();
  std::printf("  %-16s median %.6g %s", name.c_str(), median(samples),
              unit.c_str());
  if (n >= 20) {
    const int pct = static_cast<int>(
        std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))));
    std::printf(", p%d %.6g %s", pct, quantile(samples, pct / 100.0),
                unit.c_str());
  } else {
    std::printf(", max %.6g %s (no percentile has 10 samples beyond it)",
                *std::max_element(samples.begin(), samples.end()),
                unit.c_str());
  }
  std::printf(", n = %zu\n", n);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double bounded(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Wall and process CPU seconds (all threads) of one interval.  CPU time
/// is the steady figure on a shared machine: a vCPU taken away by the
/// hypervisor stretches wall time (several-fold for iv_scf's thousands of
/// tiny tasks) but not the work the process does.
struct Cost {
  double wall = 0.0;
  double cpu = 0.0;
};

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Starts timing at construction; elapsed() is the cost since then.
class Stopwatch {
 public:
  Stopwatch() : wall_(now_seconds()), cpu_(process_cpu_seconds()) {}
  Cost elapsed() const {
    return {now_seconds() - wall_, process_cpu_seconds() - cpu_};
  }

 private:
  double wall_;
  double cpu_;
};

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3e", v);
  return buf;
}

// ---------------------------------------------------------------- ledger --

/// Operations attempted and failed; the first few failures are reported.
struct Ledger {
  long long attempted = 0;
  long long failed = 0;
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 10)
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
};

/// Run `fn` as one operation: a throw counts as a failure.
template <typename Fn>
void guarded(Ledger& ledger, const std::string& what, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    ledger.op(false, what + " threw: " + e.what());
  }
}

// ------------------------------------------------------ engine counters --

/// Engine statistics summed over every sweep of one repetition.
struct Tally {
  double sweeps = 0, tasks = 0, greens = 0, stolen = 0;
  double busy = 0, rank_wall = 0;
  double batches = 0, batched_tasks = 0;
  double device_batches = 0, h2d_bytes = 0, residency_hits = 0,
         residency_misses = 0;

  void add(const omen::EngineStats& s) {
    sweeps += 1;
    tasks += static_cast<double>(s.tasks_total);
    greens += static_cast<double>(s.tasks_greens);
    stolen += static_cast<double>(s.tasks_stolen);
    for (const double b : s.busy_seconds_per_rank) busy += b;
    rank_wall += static_cast<double>(s.ranks) * s.wall_seconds;
    batches += static_cast<double>(s.batches_issued);
    batched_tasks += s.mean_batch_size * static_cast<double>(s.batches_issued);
    device_batches += static_cast<double>(s.device_batches);
    h2d_bytes += s.h2d_bytes;
    residency_hits += static_cast<double>(s.residency_hits);
    residency_misses += static_cast<double>(s.residency_misses);
  }
};

/// One repetition: a fresh Simulator (set-up) plus the main phase.
struct Rep {
  bool traced = false;
  bool warmup = false;  ///< checked, but kept out of the statistics
  std::vector<Cost> setup;  ///< one per Simulator construction
  Cost solve;
  double tasks = 0.0;
  std::vector<Cost> points;  ///< per completed operating point
  std::map<std::string, double> layer;
};

// Hook-derived per-layer metrics: measured on traced repetitions only.
const std::set<std::string>& traced_keys() {
  static const std::set<std::string> keys{
      "dft.lead_build_s",    "dft.fold_s",
      "transport.band_min_s", "numeric.gemm_batched_calls",
      "numeric.gemm_batched_s", "numeric.lu_factor_batched_s",
      "numeric.dispatch_calls", "numeric.dispatch_s",
      "solvers.calls",       "solvers.factor_s",
      "solvers.solve_s",     "solvers.attached_s",
      "charge.quadrature_s", "scattering.tune_s",
      "self.omen_s",         "self.solvers_s",
      "self.numeric_s",      "self.charge_s",
      "self.poisson_s",      "self.scattering_s",
      "self.transport_s",    "trace.spans",
      "obc.prefetch_span_s", "transport.device_phase_span_s"};
  return keys;
}

const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> units{
      {"dft.lead_build_s", "s"},
      {"dft.fold_s", "s"},
      {"transport.band_min_s", "s"},
      {"numeric.gemm_batched_calls", "count"},
      {"numeric.gemm_batched_s", "s"},
      {"numeric.lu_factor_batched_s", "s"},
      {"numeric.dispatch_calls", "count"},
      {"numeric.dispatch_s", "s"},
      {"numeric.computed_gflops", "GFLOP"},
      {"obc.lead_solves", "count"},
      {"obc.cache_hit_rate", "frac"},
      {"obc.solve_s", "s"},
      {"obc.prefetch_span_s", "s"},
      {"transport.device_phase_span_s", "s"},
      {"solvers.calls", "count"},
      {"solvers.factor_s", "s"},
      {"solvers.solve_s", "s"},
      {"solvers.attached_s", "s"},
      {"transport.batches", "count"},
      {"transport.mean_batch_size", "count"},
      {"charge.gf_nodes", "count"},
      {"charge.quadrature_s", "s"},
      {"poisson.scf_iterations", "count"},
      {"poisson.self_s", "s"},
      {"scattering.newton_iterations", "count"},
      {"scattering.tune_s", "s"},
      {"engine.sweeps", "count"},
      {"engine.busy_frac", "frac"},
      {"engine.tasks_stolen", "count"},
      {"engine.device_batches", "count"},
      {"engine.h2d_bytes", "bytes"},
      {"engine.residency_hit_rate", "frac"},
      {"parallel.tracer_events", "count"},
      {"self.omen_s", "s"},
      {"self.solvers_s", "s"},
      {"self.numeric_s", "s"},
      {"self.charge_s", "s"},
      {"self.poisson_s", "s"},
      {"self.scattering_s", "s"},
      {"self.transport_s", "s"},
      {"trace.spans", "count"},
      {"trace.solve_cpu_s", "s"},
      {"trace.overhead_frac", "frac"},
      {"wall.setup_s", "s"},
      {"wall.solve_s", "s"},
      {"wall.points_per_s", "1/s"},
      {"wall.bias_point_s", "s"},
  };
  return units;
}

// --------------------------------------------------------------- inputs --

/// Lead blocks and folds per k point, built the way the Simulator
/// constructor builds them (uniform k grid over [0, pi]).
struct Leads {
  std::vector<dft::LeadBlocks> blocks;
  std::vector<dft::FoldedLead> folded;
};

Leads build_leads(const omen::SimulationConfig& cfg, Rep* rep) {
  const dft::BasisLibrary basis(cfg.functional);
  const bool periodic = cfg.structure.periodicity == lattice::Periodicity::kZ;
  const idx nk = periodic ? std::max<idx>(1, cfg.num_k) : 1;
  Leads out;
  double build_s = 0.0, fold_s = 0.0;
  for (idx ik = 0; ik < nk; ++ik) {
    dft::BuildOptions opts = cfg.build;
    opts.k_transverse = nk == 1 ? 0.0
                                : numeric::kPi * static_cast<double>(ik) /
                                      static_cast<double>(nk - 1);
    double t = now_seconds();
    {
      const ScopedSpan span("dft");
      out.blocks.push_back(
          dft::build_lead_blocks(cfg.structure, basis, opts));
    }
    build_s += now_seconds() - t;
    t = now_seconds();
    {
      const ScopedSpan span("dft");
      out.folded.push_back(dft::fold_lead(out.blocks.back()));
    }
    fold_s += now_seconds() - t;
  }
  if (rep != nullptr) {
    rep->layer["dft.lead_build_s"] = build_s;
    rep->layer["dft.fold_s"] = fold_s;
  }
  return out;
}

/// Spectral window of the k = 0 lead.
transport::BandWindow lead_window(const omen::SimulationConfig& cfg) {
  const Leads leads = build_leads(cfg, nullptr);
  return transport::band_window(
      transport::lead_band_structure(leads.folded.front()));
}

/// `n` equally spaced energies over [lo, lo + span) shifted by a seeded
/// fraction of one step: every seed sees the same amount of work.
std::vector<double> seeded_grid(double lo, double span, int n,
                                std::mt19937_64& rng) {
  const double h = span / n;
  const double off = std::uniform_real_distribution<double>(0.0, h)(rng);
  std::vector<double> e(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) e[static_cast<std::size_t>(i)] = lo + off + i * h;
  return e;
}

double jitter(std::mt19937_64& rng, double half_width) {
  return std::uniform_real_distribution<double>(-half_width, half_width)(rng);
}

// ------------------------------------------------------------ workloads --

class Workload {
 public:
  virtual ~Workload() = default;
  virtual omen::SimulationConfig config() const = 0;
  /// The main phase, timed as solve_s.  Engine statistics of every sweep
  /// go into `tally`.
  virtual void solve(omen::Simulator& sim, Rep& rep, Ledger& ledger,
                     Tally& tally) = 0;
  /// Extra correctness checks that issue their own solves (untimed).
  virtual void verify(omen::Simulator& sim, Ledger& ledger) {
    (void)sim;
    (void)ledger;
  }
  /// Registry names of the solvers the workload resolves to.
  virtual std::vector<std::string> solver_names() const = 0;
  virtual bool uses_contour() const { return false; }
  /// (k index, E) points of the workload for the OBC replay.
  virtual std::vector<std::pair<idx, cplx>> obc_points() const = 0;
  /// Simulator constructions per repetition: cheap set-ups are repeated
  /// so that setup_s is a median over enough samples to be steady.
  virtual int setup_samples() const { return 1; }
};

// spectrum_cold: ballistic T(E) plus density on the long Sn/O anode.
class SpectrumCold final : public Workload {
 public:
  explicit SpectrumCold(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    const auto win = lead_window(config());
    // T(E) on one grid, density on the interleaved midpoints: every lead
    // solve of the repetition is a distinct (k, E), so every one misses
    // the boundary cache (the insert path).
    t_grid_ = seeded_grid(win.emin + kWindowStart, kWindowWidth, kEnergies,
                          rng);
    const double h = t_grid_[1] - t_grid_[0];
    for (const double e : t_grid_) rho_grid_.push_back(e + 0.5 * h);
    mu_ = win.emin + kWindowStart + 0.5 * kWindowWidth + jitter(rng, 0.2);
    std::printf("inputs: %d T(E) + %d density energies in [%.4f, %.4f] eV, "
                "mu = %.4f eV (lead window [%.4f, %.4f] eV)\n",
                kEnergies, kEnergies, t_grid_.front(), rho_grid_.back(), mu_,
                win.emin, win.emax);
  }

  omen::SimulationConfig config() const override {
    omen::SimulationConfig cfg;
    cfg.structure = lattice::make_sno_anode(kCells, 0, 0.0);
    cfg.functional = dft::Functional::kPBE;
    cfg.build.cutoff_nm = 0.8;  // NBW = 3: three cells per folded block
    cfg.point.obc = transport::ObcAlgorithm::kFeast;
    cfg.point.solver = transport::SolverAlgorithm::kSplitSolve;
    cfg.num_ranks = 1;
    return cfg;
  }

  void solve(omen::Simulator& sim, Rep& rep, Ledger& ledger,
             Tally& tally) override {
    const Stopwatch point;
    const long long failed_before = ledger.failed;
    spectrum_ = {};
    guarded(ledger, "spectrum_cold T(E) sweep", [&] {
      omen::Spectrum sp;
      {
        const ScopedSpan span("omen");
        sp = sim.transmission_spectrum(t_grid_);
      }
      tally.add(sim.last_sweep_stats());
      // Pristine device: every propagating channel transmits perfectly.
      double worst = 0.0;
      idx channels = 0;
      for (std::size_t i = 0; i < sp.transmission.size(); ++i) {
        worst = std::max(worst, std::abs(sp.transmission[i] -
                                         static_cast<double>(sp.propagating[i])));
        channels += sp.propagating[i];
      }
      spectrum_ = sp;
      std::printf("  T(E): %lld channel-energies, max |T - N_prop| = %.3e\n",
                  static_cast<long long>(channels), worst);
      ledger.op(worst <= kTransmissionTol && channels > 0,
                "spectrum_cold: max |T - N_prop| = " + sci(worst) +
                    ", channels = " + std::to_string(channels));
    });
    guarded(ledger, "spectrum_cold density sweep", [&] {
      std::vector<double> rho;
      {
        const ScopedSpan span("omen");
        rho = sim.charge_density(rho_grid_, mu_, mu_, nullptr);
      }
      tally.add(sim.last_sweep_stats());
      double total = 0.0;
      bool finite = true;
      for (const double r : rho) {
        finite = finite && std::isfinite(r) && r >= 0.0;
        total += r;
      }
      ledger.op(finite && total > 0.0 && rho.size() == kCells,
                "spectrum_cold: density not finite/positive (sum " +
                    std::to_string(total) + ")");
    });
    if (ledger.failed == failed_before) rep.points.push_back(point.elapsed());
  }

  void verify(omen::Simulator& sim, Ledger& ledger) override {
    // Bond current is conserved through every interface, at a low and a
    // high conducting energy of the sweep.
    std::vector<double> picks;
    for (std::size_t i = 0; i < spectrum_.propagating.size(); ++i)
      if (spectrum_.propagating[i] > 0) picks.push_back(t_grid_[i]);
    if (picks.empty()) return;  // the T(E) op already failed
    for (const double e : {picks.front(), picks.back()}) {
      guarded(ledger, "spectrum_cold bond current", [&] {
        const auto res = sim.solve_point(e);
        const auto& ic = res.interface_current;
        double lo = 1e300, hi = -1e300;
        for (const double c : ic) {
          lo = std::min(lo, c);
          hi = std::max(hi, c);
        }
        const double scale = std::max(std::abs(hi), std::abs(lo));
        const bool ok = !ic.empty() && scale > 0.0 &&
                        (hi - lo) <= kBondCurrentTol * scale;
        ledger.op(ok, "spectrum_cold: bond current spread " + sci(hi - lo) +
                          " of " + sci(scale) + " at E = " + sci(e));
      });
    }
  }

  std::vector<std::string> solver_names() const override {
    return {"splitsolve"};
  }

  std::vector<std::pair<idx, cplx>> obc_points() const override {
    std::vector<std::pair<idx, cplx>> pts;
    for (std::size_t i = 0; i < t_grid_.size(); i += 8) {
      pts.emplace_back(0, cplx{t_grid_[i], 0.0});
      pts.emplace_back(0, cplx{rho_grid_[i], 0.0});
    }
    return pts;
  }

 private:
  static constexpr idx kCells = 48;  // 48 cells x 16 orbitals: N = 768
  static constexpr int kEnergies = 96;
  /// Energies sweep [E_min + start, E_min + start + width) eV of the lead.
  static constexpr double kWindowStart = 0.2;
  static constexpr double kWindowWidth = 4.0;
  static constexpr double kTransmissionTol = 1e-6;
  static constexpr double kBondCurrentTol = 1e-6;
  std::vector<double> t_grid_, rho_grid_;
  double mu_ = 0.0;
  omen::Spectrum spectrum_;
};

// iv_scf: self-consistent Id-Vgs x Vds on the 1-orbital chain FET.
class IvScf final : public Workload {
 public:
  explicit IvScf(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    const auto win = lead_window(config());
    mu_s_ = win.emin + 0.1;
    const double step = 0.01;
    const double start = win.emin - 0.05 +
                         std::uniform_real_distribution<double>(0.0, step)(rng);
    for (double e = start; e <= mu_s_ + 0.3; e += step) grid_.push_back(e);
    for (const double v : {0.05, 0.15}) vds_.push_back(v + jitter(rng, 0.01));
    // Gate biases stay below ~0.1 V: between about 0.10 and 0.16 V (at
    // Vds ~0.05 V) the SCF loop fails to converge on some grids — Anderson
    // stalls, the plain damped steps it falls back to diverge, and the
    // residual oscillates around 1e-3 until max_iter.  Every bias point
    // of 130 seeds in this range converges.
    for (const double v : {-0.2, -0.12, -0.04, 0.04})
      vgs_.push_back(v + jitter(rng, 0.02));
    std::sort(vgs_.begin(), vgs_.end());
    std::printf("inputs: Vds {%.4f, %.4f} V x Vgs {%.4f, %.4f, %.4f, %.4f} V, "
                "mu_s = %.4f eV, %zu-point real grid from %.4f eV\n",
                vds_[0], vds_[1], vgs_[0], vgs_[1], vgs_[2], vgs_[3], mu_s_,
                grid_.size(), grid_.front());
  }

  omen::SimulationConfig config() const override {
    omen::SimulationConfig cfg;
    lattice::Structure chain;
    chain.cell_atoms = {{lattice::Species::kLi, {0.0, 0.0, 0.0}}};
    chain.cell_length = 0.5;
    chain.num_cells = kRegions.total();
    chain.name = "chain FET";
    cfg.structure = chain;
    cfg.build.cutoff_nm = 1.0;  // NBW = 2
    cfg.point.obc = transport::ObcAlgorithm::kShiftInvert;
    cfg.point.solver = transport::SolverAlgorithm::kBlockLU;
    cfg.num_ranks = 1;
    return cfg;
  }

  void solve(omen::Simulator& sim, Rep& rep, Ledger& ledger,
             Tally& tally) override {
    poisson::ScfOptions scf;
    scf.poisson.screening_length_cells = 3.0;
    scf.poisson.charge_coupling = 0.02;
    scf.tol = kTol;
    scf.charge_tol = 1e-5;
    scf.anderson_depth = 3;
    scf.max_iter = 40;
    scf.quadrature = charge::QuadratureAlgorithm::kContour;

    double scf_wall = 0.0, charge_wall = 0.0, iterations = 0.0;
    for (const double vds : vds_) {
      const double mu_d = mu_s_ - vds;
      std::vector<double> warm, warm_charge;
      for (const double vgs : vgs_) {
        const std::string what = "iv_scf bias point (Vgs " +
                                 std::to_string(vgs) + ", Vds " +
                                 std::to_string(vds) + ")";
        const Stopwatch point;
        guarded(ledger, what, [&] {
          const poisson::ChargeModel charge = [&](const std::vector<double>& v) {
            const double c0 = now_seconds();
            std::vector<double> rho;
            {
              const ScopedSpan span("omen");
              rho = sim.charge_density(grid_, mu_s_, mu_d, &v, scf.quadrature,
                                       scf.quadrature_options);
            }
            charge_wall += now_seconds() - c0;
            tally.add(sim.last_sweep_stats());
            return rho;
          };
          const double s0 = now_seconds();
          poisson::ScfResult res;
          {
            const ScopedSpan span("poisson");
            res = poisson::self_consistent_potential(
                kRegions, vgs, vds, charge, scf, warm.empty() ? nullptr : &warm,
                warm_charge.empty() ? nullptr : &warm_charge);
          }
          scf_wall += now_seconds() - s0;
          iterations += res.iterations;
          warm = res.potential;
          warm_charge = res.charge;
          std::vector<double> currents;
          {
            const ScopedSpan span("omen");
            currents =
                sim.terminal_currents(grid_, {mu_s_, mu_d}, &res.potential);
          }
          tally.add(sim.last_sweep_stats());
          const double balance = std::abs(currents.at(0) + currents.at(1));
          const bool ok = res.converged && res.residual <= kTol &&
                          std::isfinite(currents[0]) &&
                          balance <= 1e-12 * std::max(1.0, std::abs(currents[0]));
          ledger.op(ok, what + ": converged " + std::to_string(res.converged) +
                            ", residual " + sci(res.residual) + ", sum I " +
                            sci(balance));
          if (ok) rep.points.push_back(point.elapsed());
        });
      }
    }
    rep.layer["poisson.scf_iterations"] = iterations;
    rep.layer["poisson.self_s"] = scf_wall - charge_wall;
  }

  std::vector<std::string> solver_names() const override {
    return {"block_lu", "rgf"};  // rgf: the contour nodes' diagonal of G
  }
  bool uses_contour() const override { return true; }
  int setup_samples() const override { return 32; }

  std::vector<std::pair<idx, cplx>> obc_points() const override {
    std::vector<std::pair<idx, cplx>> pts;
    const std::vector<cplx> nodes = last_quadrature_points();
    const std::size_t stride = std::max<std::size_t>(1, nodes.size() / 24);
    for (std::size_t i = 0; i < nodes.size(); i += stride)
      pts.emplace_back(0, nodes[i]);
    return pts;
  }

 private:
  static constexpr lattice::DeviceRegions kRegions{10, 12, 10};
  static constexpr double kTol = 1e-6;
  std::vector<double> grid_, vds_, vgs_;
  double mu_s_ = 0.0;
};

// dissipative_kgrid: Buettiker-probe terminal currents on a z-periodic
// anode over a k grid, on an engine world of up to 4 ranks.
class DissipativeKgrid final : public Workload {
 public:
  explicit DissipativeKgrid(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    ranks_ = static_cast<int>(
        std::clamp<unsigned>(std::thread::hardware_concurrency(), 1u, 4u));
    const auto win = lead_window(config());
    energies_ = seeded_grid(win.emin + 0.2, 4.0, kEnergies, rng);
    const double mid = 0.5 * (energies_.front() + energies_.back());
    for (const double bias : {0.04, 0.08}) {
      const double b = bias + jitter(rng, 0.01);
      bias_.emplace_back(mid + 0.5 * b, mid - 0.5 * b);
    }
    eta_ = 0.05 + jitter(rng, 0.01);
    // Probe blocks: kProbes distinct interior blocks of the folded device.
    std::vector<idx> interior;
    for (idx b = 1; b + 1 < kBlocks; ++b) interior.push_back(b);
    std::shuffle(interior.begin(), interior.end(), rng);
    probes_.assign(interior.begin(), interior.begin() + kProbes);
    std::sort(probes_.begin(), probes_.end());
    std::printf("inputs: %d energies in [%.4f, %.4f] eV x %d k, eta = %.4f "
                "eV, probes on blocks {%lld, %lld, %lld, %lld}, biases "
                "%.4f / %.4f V, %d ranks\n",
                kEnergies, energies_.front(), energies_.back(), kNumK, eta_,
                static_cast<long long>(probes_[0]),
                static_cast<long long>(probes_[1]),
                static_cast<long long>(probes_[2]),
                static_cast<long long>(probes_[3]),
                bias_[0].first - bias_[0].second,
                bias_[1].first - bias_[1].second, ranks_);
  }

  omen::SimulationConfig config() const override {
    omen::SimulationConfig cfg;
    cfg.structure = lattice::make_sno_anode(kCells, 0, 0.0);
    cfg.structure.periodicity = lattice::Periodicity::kZ;
    cfg.structure.z_period = cfg.structure.cell_length;
    cfg.functional = dft::Functional::kPBE;
    cfg.build.cutoff_nm = 0.8;  // NBW = 3
    cfg.point.obc = transport::ObcAlgorithm::kShiftInvert;
    cfg.point.solver = transport::SolverAlgorithm::kRgf;
    cfg.num_k = kNumK;
    cfg.num_ranks = ranks_;
    cfg.work_stealing = true;
    cfg.point.scattering.algorithm =
        scattering::ScatteringAlgorithm::kButtikerProbe;
    cfg.point.scattering.options.buttiker.eta = eta_;
    cfg.point.scattering.options.buttiker.blocks = probes_;
    // Relative probe-current leak of the Newton loop.  The default 1e-13
    // sits below the rounding floor of this device's T matrix; the check
    // in solve() still demands a leak <= 1e-10.
    cfg.probe_tune.tol = 1e-11;
    return cfg;
  }

  void solve(omen::Simulator& sim, Rep& rep, Ledger& ledger,
             Tally& tally) override {
    const double kt = 8.617e-5 * sim.config().temperature_k;
    double newton = 0.0, tune_s = 0.0;
    // One operating-point sample per repetition, the mean over its bias
    // points: the first pays every lead solve, the second reuses them, and
    // a median over that two-mode mix would sit between the modes.
    const Stopwatch points;
    int done = 0;
    for (const auto& [mu_l, mu_r] : bias_) {
      const std::string what = "dissipative_kgrid terminal currents (bias " +
                               std::to_string(mu_l - mu_r) + ")";
      guarded(ledger, what, [&] {
        std::vector<double> currents;
        scattering::ProbeTuneResult tune;
        if (!rep.traced) {
          currents = sim.terminal_currents(energies_, {mu_l, mu_r}, nullptr);
          tune = sim.last_probe_tune();
          tally.add(sim.last_sweep_stats());
        } else {
          // The same three steps terminal_currents takes, each in its own
          // span: the T-matrix sweep, the probe tuning, the Buettiker sum.
          omen::Spectrum sp;
          {
            const ScopedSpan span("omen");
            sp = sim.transmission_spectrum(energies_, nullptr);
          }
          tally.add(sim.last_sweep_stats());
          const std::size_t nc = 2 + sim.probe_sites().size();
          std::vector<double> mu(nc, 0.5 * (mu_l + mu_r));
          std::vector<bool> is_probe(nc, true);
          mu[0] = mu_l;
          mu[1] = mu_r;
          is_probe[0] = is_probe[1] = false;
          const double s0 = now_seconds();
          {
            const ScopedSpan span("scattering");
            tune = scattering::tune_probe_potentials(
                sp.energies, sp.t_matrix, std::move(mu), is_probe, kt,
                sim.config().probe_tune);
          }
          tune_s += now_seconds() - s0;
          {
            const ScopedSpan span("transport");
            currents = transport::buttiker_currents(sp.energies, sp.t_matrix,
                                                    tune.mu, kt);
          }
          currents.resize(2);
        }
        newton += tune.iterations;
        const double scale =
            std::max(std::abs(currents.at(0)), std::abs(currents.at(1)));
        const double balance =
            std::abs(currents[0] + currents[1]) / std::max(1.0, scale);
        const bool ok = tune.converged && tune.max_residual <= 1e-10 &&
                        balance <= 1e-10 && scale > 0.0 &&
                        std::isfinite(scale);
        ledger.op(ok, what + ": leak " + sci(tune.max_residual) +
                          ", balance " + sci(balance) + ", converged " +
                          std::to_string(tune.converged) + " after " +
                          std::to_string(tune.iterations) + " iterations");
        done += ok ? 1 : 0;
      });
    }
    if (done == static_cast<int>(bias_.size())) {
      const Cost c = points.elapsed();
      rep.points.push_back({c.wall / done, c.cpu / done});
    }
    rep.layer["scattering.newton_iterations"] = newton;
    if (rep.traced) rep.layer["scattering.tune_s"] = tune_s;
  }

  std::vector<std::string> solver_names() const override { return {"rgf"}; }

  std::vector<std::pair<idx, cplx>> obc_points() const override {
    std::vector<std::pair<idx, cplx>> pts;
    for (idx ik = 0; ik < kNumK; ++ik)
      for (std::size_t i = 0; i < energies_.size(); i += 8)
        pts.emplace_back(ik, cplx{energies_[i], 0.0});
    return pts;
  }

 private:
  static constexpr idx kCells = 24;   // 8 folded blocks of 3 cells
  static constexpr idx kBlocks = 8;
  static constexpr int kProbes = 4;
  static constexpr int kEnergies = 32;
  static constexpr idx kNumK = 4;
  std::vector<double> energies_;
  std::vector<std::pair<double, double>> bias_;
  std::vector<idx> probes_;
  double eta_ = 0.05;
  int ranks_ = 1;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "spectrum_cold") return std::make_unique<SpectrumCold>(seed);
  if (name == "iv_scf") return std::make_unique<IvScf>(seed);
  if (name == "dissipative_kgrid")
    return std::make_unique<DissipativeKgrid>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --------------------------------------------------------- repetitions --

/// Metrics of one repetition read from library counters (no hooks needed).
void record_engine_layers(const Tally& t, const obc::BoundaryCache::Stats& c0,
                          const obc::BoundaryCache::Stats& c1,
                          std::uint64_t solves, std::uint64_t flops,
                          Rep& rep) {
  auto& m = rep.layer;
  m["numeric.computed_gflops"] = 1e-9 * static_cast<double>(flops);
  m["obc.lead_solves"] = static_cast<double>(solves);
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double misses = static_cast<double>(c1.misses - c0.misses);
  m["obc.cache_hit_rate"] = bounded(hits, hits + misses);
  m["transport.batches"] = t.batches;
  m["transport.mean_batch_size"] = bounded(t.batched_tasks, t.batches);
  m["charge.gf_nodes"] = t.greens;
  m["engine.sweeps"] = t.sweeps;
  m["engine.busy_frac"] = bounded(t.busy, t.rank_wall);
  m["engine.tasks_stolen"] = t.stolen;
  m["engine.device_batches"] = t.device_batches;
  m["engine.h2d_bytes"] = t.h2d_bytes;
  m["engine.residency_hit_rate"] =
      bounded(t.residency_hits, t.residency_hits + t.residency_misses);
}

/// Metrics of one traced repetition read from the taps and the span log.
/// `tracer_mark` is the library tracer's event count before the repetition:
/// its obc_prefetch / batch_device_phase events cross-check the OBC and
/// device-phase figures.
void record_traced_layers(std::size_t tracer_mark, Rep& rep) {
  auto& m = rep.layer;
  double prefetch = 0.0, device_phase = 0.0;
  const auto events = parallel::Tracer::global().events();
  for (std::size_t i = tracer_mark; i < events.size(); ++i) {
    const double d = events[i].end_s - events[i].start_s;
    if (events[i].name == "obc_prefetch") prefetch += d;
    if (events[i].name == "batch_device_phase") device_phase += d;
  }
  m["obc.prefetch_span_s"] = prefetch;
  m["transport.device_phase_span_s"] = device_phase;
  const TapCounters& c = counters();
  m["numeric.gemm_batched_calls"] = static_cast<double>(c.gemm_batched_calls);
  m["numeric.gemm_batched_s"] = c.gemm_batched_s.get();
  m["numeric.lu_factor_batched_s"] = c.lu_factor_batched_s.get();
  m["numeric.dispatch_calls"] = static_cast<double>(c.dispatch_calls);
  m["numeric.dispatch_s"] = c.dispatch_s.get();
  m["solvers.calls"] = static_cast<double>(c.solver_calls);
  m["solvers.factor_s"] = c.solver_factor_s.get();
  m["solvers.solve_s"] = c.solver_solve_s.get();
  m["solvers.attached_s"] = c.solver_attached_s.get();
  m["charge.quadrature_s"] = c.quadrature_build_s.get();
  const auto self = SpanLog::get().self_seconds();
  for (const char* layer : {"omen", "solvers", "numeric", "charge", "poisson",
                            "scattering", "transport"}) {
    const auto it = self.find(layer);
    m[std::string("self.") + layer + "_s"] =
        it == self.end() ? 0.0 : it->second;
  }
  m["trace.spans"] = static_cast<double>(SpanLog::get().size());
}

Rep run_rep(Workload& w, bool traced, Ledger& ledger) {
  // Hand the previous repetition's freed heap back to the system, so peak
  // memory follows live data rather than how many malloc arenas the
  // thread interleaving happened to leave populated.
  malloc_trim(0);
  Rep rep;
  rep.traced = traced;
  omen::SimulationConfig cfg = w.config();
  if (traced) {
    cfg.backend = kTracedBackend;
    counters().reset();
    SpanLog::get().clear();
    SpanLog::get().set_enabled(true);
    // Set-up attribution: the constructor's lead build, fold, and band
    // sampling, replayed call for call.
    const Leads leads = build_leads(cfg, &rep);
    const double t = now_seconds();
    {
      const ScopedSpan span("transport");
      transport::lead_band_structure(leads.folded.front());
    }
    rep.layer["transport.band_min_s"] = now_seconds() - t;
  }
  std::unique_ptr<omen::Simulator> sim;
  for (int i = 0; i < w.setup_samples(); ++i) {
    sim.reset();
    const Stopwatch setup;
    {
      const ScopedSpan span("omen");
      sim = std::make_unique<omen::Simulator>(cfg);
    }
    rep.setup.push_back(setup.elapsed());
  }

  const auto cache0 = sim->boundary_cache_stats();
  const std::uint64_t solves0 = obc::boundary_solve_count();
  const std::uint64_t flops0 = numeric::FlopCounter::total();
  const std::size_t tracer_mark =
      traced ? parallel::Tracer::global().events().size() : 0;
  Tally tally;
  const Stopwatch solve;
  w.solve(*sim, rep, ledger, tally);
  rep.solve = solve.elapsed();

  rep.tasks = static_cast<double>(sim->total_tasks_issued());
  SpanLog::get().set_enabled(false);
  record_engine_layers(tally, cache0, sim->boundary_cache_stats(),
                       obc::boundary_solve_count() - solves0,
                       numeric::FlopCounter::total() - flops0, rep);
  if (traced) record_traced_layers(tracer_mark, rep);
  w.verify(*sim, ledger);
  return rep;
}

/// Seconds per boundary evaluation, replayed through obc::Strategy on the
/// workload's own (k, E) points (the strategy's compute hook is protected,
/// so the library's own OBC time cannot be tapped directly).
double replay_obc_seconds(Workload& w) {
  const omen::SimulationConfig cfg = w.config();
  const Leads leads = build_leads(cfg, nullptr);
  const auto strategy = obc::make_obc_strategy(cfg.point.obc);
  const auto pts = w.obc_points();
  if (pts.empty()) return 0.0;
  const double t0 = now_seconds();
  for (const auto& [ik, e] : pts) {
    const auto k = static_cast<std::size_t>(ik);
    const auto b = strategy->boundary(leads.blocks[k], leads.folded[k], e,
                                      cfg.point.obc_opts);
    (void)b;
  }
  return (now_seconds() - t0) / static_cast<double>(pts.size());
}

/// Wall and CPU samples of one timing.
/// Wall and CPU samples of one timing.
struct Samples {
  std::vector<double> wall, cpu;
  void add(const Cost& c) {
    wall.push_back(c.wall);
    cpu.push_back(c.cpu);
  }
  void print(const std::string& name) const {
    print_timing(name + " cpu", "s", cpu);
    print_timing(name + " wall", "s", wall);
  }
};

/// Timings of the measured (non-warm-up) repetitions, traced or not.
struct Timings {
  Samples setup, solve, points;
  Samples rate;  ///< (k,E) solves per wall / CPU second
};

Timings timings(const std::vector<Rep>& reps, bool traced) {
  Timings t;
  for (const Rep& r : reps) {
    if (r.warmup || r.traced != traced) continue;
    for (const Cost& c : r.setup) t.setup.add(c);
    t.solve.add(r.solve);
    for (const Cost& c : r.points) t.points.add(c);
    t.rate.add({bounded(r.tasks, r.solve.wall), bounded(r.tasks, r.solve.cpu)});
  }
  return t;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"spectrum_cold", "iv_scf",
                                              "dissipative_kgrid"};
  return names;
}

RunResult run_workload(const RunOptions& opt) {
  SpanLog::get().set_main_thread();
  std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed);

  if (opt.trace) {
    const omen::SimulationConfig cfg = w->config();
    install_solver_tap(w->solver_names(), cfg.point.partitions,
                       cfg.num_devices, 16384);
    // The traced backend wraps what "auto" resolves to for this device.
    const Leads leads = build_leads(cfg, nullptr);
    const auto dm = dft::assemble_device(
        leads.blocks.front(), cfg.structure.num_cells,
        std::vector<double>(static_cast<std::size_t>(cfg.structure.num_cells),
                            0.0));
    numeric::Backend* offload =
        auto_offload_backend(dm.h.num_blocks(), dm.h.block_size(),
                             cfg.max_batch, cfg.num_devices);
    install_backend_tap(kTracedBackend,
                        offload != nullptr ? offload : &numeric::host_backend());
    if (w->uses_contour())
      install_quadrature_tap(charge::quadrature_algorithm_name(
          charge::QuadratureAlgorithm::kContour));
  }

  Ledger ledger;
  std::vector<Rep> reps;
  // Peak memory is read after a fixed amount of work (the warm-up and the
  // first kMinReps repetitions): the library's global tracer is never
  // cleared, so memory keeps growing with the number of repetitions a
  // time-bounded run happens to fit.
  double peak_mb = 0.0;
  const double begin = now_seconds();
  while (true) {
    // The first repetition warms the process (thread pools, per-thread
    // workspaces) and is kept out of the statistics.  Traced runs then
    // alternate traced and untraced repetitions, so the tracing overhead
    // is measured under the same conditions.
    const bool warmup = reps.empty();
    const bool traced = opt.trace && !warmup && reps.size() % 2 == 1;
    reps.push_back(run_rep(*w, traced, ledger));
    Rep& r = reps.back();
    r.warmup = warmup;
    std::printf("rep %zu%s: setup %.4f s cpu (first of %zu), solve %.4f s "
                "cpu / %.4f s wall, %.0f solves\n",
                reps.size(), warmup ? " (warm-up)" : traced ? " (traced)" : "",
                r.setup.empty() ? 0.0 : r.setup.front().cpu, r.setup.size(),
                r.solve.cpu, r.solve.wall, r.tasks);
    std::fflush(stdout);
    if (reps.size() == 1 + kMinReps) peak_mb = peak_rss_mb();
    const int min_reps = 1 + (opt.trace ? 2 * kMinReps : kMinReps);
    if (static_cast<int>(reps.size()) >= min_reps &&
        now_seconds() - begin >= opt.seconds)
      break;
    if (static_cast<int>(reps.size()) >= kMaxReps) break;
  }

  RunResult out;
  out.attempted = ledger.attempted;
  out.failed = ledger.failed;
  const Timings e2e = timings(reps, false);
  std::printf("end-to-end (%zu untraced repetitions):\n", e2e.solve.cpu.size());
  e2e.setup.print("setup_s");
  e2e.solve.print("solve_s");
  e2e.points.print("bias_point_s");
  std::printf("  points_per_s     median %.6g per cpu s, %.6g per wall s\n",
              median(e2e.rate.cpu), median(e2e.rate.wall));

  if (!opt.trace) {
    out.metrics["setup_s"] = {median(e2e.setup.cpu), "s"};
    out.metrics["solve_cpu_s"] = {median(e2e.solve.cpu), "s"};
    out.metrics["points_per_cpu_s"] = {median(e2e.rate.cpu), "1/s"};
    out.metrics["bias_point_cpu_s"] = {median(e2e.points.cpu), "s"};
    out.metrics["peak_rss_mb"] = {peak_mb, "MB"};
    out.metrics["ok_ops_frac"] = {
        1.0 - bounded(static_cast<double>(ledger.failed),
                      static_cast<double>(ledger.attempted)),
        "frac"};
    return out;
  }

  // Per-layer metrics: hook-derived ones from the traced repetitions,
  // counter-derived ones from the untraced repetitions.
  for (const auto& [name, unit] : layer_units()) {
    const bool from_traced = traced_keys().count(name) > 0;
    std::vector<double> v;
    for (const Rep& r : reps) {
      if (r.warmup || r.traced != from_traced) continue;
      const auto it = r.layer.find(name);
      v.push_back(it == r.layer.end() ? 0.0 : it->second);
    }
    out.metrics[name] = {v.empty() ? 0.0 : median(v), unit};
  }
  const double obc_call_s = replay_obc_seconds(*w);
  out.metrics["obc.solve_s"].value =
      obc_call_s * out.metrics["obc.lead_solves"].value;
  out.metrics["parallel.tracer_events"].value =
      static_cast<double>(parallel::Tracer::global().events().size());
  out.metrics["wall.setup_s"].value = median(e2e.setup.wall);
  out.metrics["wall.solve_s"].value = median(e2e.solve.wall);
  out.metrics["wall.points_per_s"].value = median(e2e.rate.wall);
  out.metrics["wall.bias_point_s"].value = median(e2e.points.wall);
  const Timings traced = timings(reps, true);
  out.metrics["trace.solve_cpu_s"].value = median(traced.solve.cpu);
  out.metrics["trace.overhead_frac"].value =
      bounded(median(traced.solve.cpu), median(e2e.solve.cpu)) - 1.0;
  std::printf("per-layer (medians over %zu traced repetitions; OBC replay "
              "%.6g s per boundary; %lld tapped solver instances):\n",
              traced.solve.cpu.size(), obc_call_s,
              static_cast<long long>(solver_tap_taken()));
  for (const auto& [name, m] : out.metrics)
    std::printf("  %-30s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  return out;
}

}  // namespace perfbench
