// Batched (k, E) pipeline bench and CI gate.
//
// The paper's two-phase SplitSolve pipeline keeps the boundary (OBC) stage
// of upcoming energy points running while the device phase of the current
// batch executes.  This bench measures that pipeline end to end through the
// distribution engine:
//   * throughput — the same hot-k sweep solved point by point (the rank
//     protocol with batch_tasks off: one (k, E) task at a time, exactly the
//     pre-batching leader loop) versus batched (same-shape tasks fused into
//     numeric::Backend calls behind an asynchronous OBC prefetch).  Gate:
//     batched >= 1.5x single-point throughput (expected >= 2x on any
//     multi-core host — the README quotes the 2x figure).  The pipeline's
//     concurrency comes from the process thread pool, so on a host with a
//     single hardware thread the lanes time-slice one core and a parallel
//     speedup gate is vacuous: there the gate degrades to "fusion costs
//     <= ~15% overhead" (speedup >= 0.85) and the JSON records the thread
//     count so the reader can tell which gate applied;
//   * determinism — batching must be invisible to the physics: bitwise
//     max|dT| == 0 against the unbatched reference at world sizes 1 / 2 / 4
//     and under work stealing (hot-k request on 4 ranks), and bit-identical
//     two-contact ballistic charge through the full simulator stack.
// BENCH_batch.json records the throughputs, batch shape statistics, and
// deltas; nonzero exit if any gate fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "numeric/blas.hpp"
#include "omen/engine.hpp"
#include "omen/simulator.hpp"
#include "parallel/thread_pool.hpp"
#include "transport/bands.hpp"

using namespace omenx;
using numeric::idx;

namespace {

dft::LeadBlocks synthetic_lead(idx s, unsigned seed) {
  dft::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  numeric::CMatrix h0 = numeric::random_cmatrix(s, s, seed);
  lead.h[0] = (h0 + numeric::dagger(h0)) * numeric::cplx{0.25};
  lead.h[1] = numeric::random_cmatrix(s, s, seed + 1) * numeric::cplx{0.4};
  lead.s[0] = numeric::CMatrix::identity(s);
  lead.s[1] = numeric::CMatrix(s, s);
  return lead;
}

/// One hot momentum carrying a long energy grid: every task shares the same
/// block structure, so the whole sweep fuses into full batches.
omen::SweepRequest throughput_request(const std::vector<dft::LeadBlocks>& leads,
                                      idx cells, int energies) {
  omen::SweepRequest req;
  req.leads = &leads;
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point.obc = transport::ObcAlgorithm::kDecimation;
  req.point.solver = transport::SolverAlgorithm::kBlockLU;
  req.point.want_density = false;
  req.point.want_current = false;
  req.energies.resize(leads.size());
  for (int ie = 0; ie < energies; ++ie)
    req.energies[0].push_back(-2.0 + 4.0 * ie / energies);
  return req;
}

/// Hot-k request on 4 momenta: k0 carries most of the grid so a 4-rank
/// world must steal, landing foreign tasks in thieves' batches.
omen::SweepRequest hot_k_request(const std::vector<dft::LeadBlocks>& leads,
                                 idx cells) {
  omen::SweepRequest req;
  req.leads = &leads;
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point.obc = transport::ObcAlgorithm::kDecimation;
  req.point.solver = transport::SolverAlgorithm::kBlockLU;
  req.point.want_density = false;
  req.point.want_current = false;
  req.energies.resize(leads.size());
  for (int ie = 0; ie < 32; ++ie)
    req.energies[0].push_back(-2.0 + 0.12 * ie);
  for (std::size_t k = 1; k < leads.size(); ++k)
    for (int ie = 0; ie < 4; ++ie)
      req.energies[k].push_back(-1.0 + 0.5 * ie);
  return req;
}

double max_abs_delta(const std::vector<double>& a,
                     const std::vector<double>& b) {
  double out = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
    out = std::max(out, std::abs(a[i] - b[i]));
  return out;
}

/// Bitwise spectral distance over every k and observable (0 expected).
double sweep_delta(const omen::SweepResult& a, const omen::SweepResult& b) {
  double out = 0.0;
  for (std::size_t k = 0; k < a.caroli.size() && k < b.caroli.size(); ++k) {
    out = std::max(out, max_abs_delta(a.caroli[k], b.caroli[k]));
    out = std::max(out, max_abs_delta(a.transmission[k], b.transmission[k]));
  }
  return out;
}

/// Minimum wall time over `reps` runs of the sweep (after one warmup).
double timed_sweep(omen::Engine& engine, const omen::SweepRequest& req,
                   int reps, omen::SweepResult* last) {
  engine.run(req);  // warmup: thread pool spun up, allocators primed
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    benchutil::WallTimer timer;
    *last = engine.run(req);
    const double t = timer.seconds();
    if (r == 0 || t < best) best = t;
  }
  return best;
}

/// Minimum wall time over `reps` runs of the pre-batching leader: one
/// solve_energy_point per task of k = 0 on the calling thread, no fusion,
/// no prefetch, no cache (after one warmup).
double timed_serial_sweep(const omen::SweepRequest& req, int reps,
                          omen::SweepResult* last) {
  const dft::LeadBlocks& lead = (*req.leads)[0];
  const dft::FoldedLead folded = dft::fold_lead(lead);
  const dft::DeviceMatrices dm =
      dft::assemble_device(lead, req.cells, req.potential);
  const std::vector<double>& grid = req.energies[0];
  const auto sweep = [&]() {
    omen::SweepResult out;
    out.transmission.assign(1, std::vector<double>(grid.size(), 0.0));
    out.caroli = out.transmission;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto res = transport::solve_energy_point(dm, lead, folded,
                                                     grid[i], req.point);
      out.transmission[0][i] = res.transmission;
      out.caroli[0][i] = res.transmission_caroli;
    }
    return out;
  };
  sweep();
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    benchutil::WallTimer timer;
    *last = sweep();
    const double t = timer.seconds();
    if (r == 0 || t < best) best = t;
  }
  return best;
}

omen::SimulationConfig chain_config(bool batch, int ranks) {
  omen::SimulationConfig cfg;
  lattice::Structure chain;
  chain.cell_atoms = {{lattice::Species::kLi, {0.0, 0.0, 0.0}}};
  chain.cell_length = 0.5;
  chain.num_cells = 12;
  chain.name = "batch sweep chain";
  cfg.structure = chain;
  cfg.build.cutoff_nm = 1.0;
  cfg.point.obc = transport::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = transport::SolverAlgorithm::kBlockLU;
  cfg.batch_tasks = batch;
  cfg.max_batch = 8;
  cfg.num_ranks = ranks;
  return cfg;
}

}  // namespace

int main() {
  benchutil::header(
      "Batched (k, E) pipeline: fused Backend calls + async OBC prefetch");

  // --- gate 1: batched vs single-point throughput ------------------------
  // Caching off on both sides: the baseline is the pre-batching leader —
  // one solve_energy_point per task on one thread, no fusion, no prefetch
  // (an engine with batch_tasks off fans the tasks over the pool instead).
  const idx s = 16, cells = 24;
  const int n_energy = 64;
  std::vector<dft::LeadBlocks> tleads{synthetic_lead(s, 137)};
  const omen::SweepRequest treq = throughput_request(tleads, cells, n_energy);

  omen::SweepResult single_res;
  const double t_single = timed_serial_sweep(treq, 3, &single_res);

  omen::EngineConfig bcfg;
  bcfg.cache_boundaries = false;
  bcfg.batch_tasks = true;
  bcfg.max_batch = 16;
  omen::Engine batched(bcfg);
  omen::SweepResult batched_res;
  const double t_batched = timed_sweep(batched, treq, 3, &batched_res);

  const double thr_single = n_energy / t_single;
  const double thr_batched = n_energy / t_batched;
  const double speedup = t_single / t_batched;
  const unsigned hw_threads = parallel::ThreadPool::global().num_threads();
  const double required_speedup = hw_threads >= 2 ? 1.5 : 0.85;
  const bool speed_gate = speedup >= required_speedup;
  const double max_dt_thr = sweep_delta(batched_res, single_res);
  const bool thr_dt_gate = max_dt_thr == 0.0;

  std::printf("%-28s %10s %14s %10s %12s\n", "configuration", "wall (s)",
              "tasks/s", "batches", "mean batch");
  benchutil::rule();
  std::printf("%-28s %10.3f %14.1f %10s %12s\n", "single-point leader",
              t_single, thr_single, "-", "-");
  std::printf("%-28s %10.3f %14.1f %10lld %12.1f\n", "batched pipeline",
              t_batched, thr_batched,
              static_cast<long long>(batched_res.stats.batches_issued),
              batched_res.stats.mean_batch_size);
  benchutil::rule();
  std::printf("speedup: %.2fx on %u pool threads (gate >= %.2fx: %s), "
              "max|dT| = %.3g (gate == 0: %s), prefetch %lld hit / %lld "
              "miss\n",
              speedup, hw_threads, required_speedup,
              speed_gate ? "yes" : "NO", max_dt_thr,
              thr_dt_gate ? "yes" : "NO",
              static_cast<long long>(batched_res.stats.prefetch_hits),
              static_cast<long long>(batched_res.stats.prefetch_misses));

  // --- gate 2: bitwise-identical spectra, worlds 1 / 2 / 4 + stealing ----
  const idx hs = 5, hcells = 10;
  std::vector<dft::LeadBlocks> hleads;
  for (unsigned k = 0; k < 4; ++k)
    hleads.push_back(synthetic_lead(hs, 211 + 3 * k));
  const omen::SweepRequest hreq = hot_k_request(hleads, hcells);

  omen::EngineConfig rcfg;
  rcfg.batch_tasks = false;
  rcfg.cache_boundaries = false;
  omen::Engine reference(rcfg);
  const auto ref = reference.run(hreq);

  bool world_gate = true;
  std::vector<double> world_dt;
  idx tasks_stolen = 0;
  for (const int ranks : {1, 2, 4}) {
    omen::EngineConfig wcfg;
    wcfg.num_ranks = ranks;
    wcfg.batch_tasks = true;
    wcfg.max_batch = 6;
    wcfg.cache_boundaries = false;
    omen::Engine engine(wcfg);
    const auto got = engine.run(hreq);
    const double d = sweep_delta(got, ref);
    world_dt.push_back(d);
    world_gate = world_gate && d == 0.0 && got.stats.batches_issued > 0;
    if (ranks == 4) tasks_stolen = got.stats.tasks_stolen;
    std::printf("world size %d: max|dT| vs unbatched = %.3g, "
                "%lld batches (mean %.1f)\n",
                ranks, d, static_cast<long long>(got.stats.batches_issued),
                got.stats.mean_batch_size);
  }
  const bool steal_gate = tasks_stolen > 0 && world_gate;
  std::printf("work stealing (4 ranks): %lld stolen tasks in foreign "
              "batches (gate > 0: %s)\n",
              static_cast<long long>(tasks_stolen),
              tasks_stolen > 0 ? "yes" : "NO");

  // --- gate 3: bit-identical charge through the simulator ----------------
  // The SCF observable: two-contact ballistic charge, batched worlds
  // 1 / 2 / 4 against the unbatched reference.
  omen::Simulator charge_ref(chain_config(false, 1));
  const auto win = transport::band_window(charge_ref.bands(9));
  std::vector<double> grid;
  for (double e = win.emin + 0.02; e < win.emax; e += 0.25)
    grid.push_back(e);
  const double mu = 0.5 * (win.emin + win.emax);
  const auto qref = charge_ref.charge_density(grid, mu, mu - 0.2, nullptr);

  bool charge_gate = true;
  std::vector<double> charge_dq;
  for (const int ranks : {1, 2, 4}) {
    omen::Simulator sim(chain_config(true, ranks));
    const auto q = sim.charge_density(grid, mu, mu - 0.2, nullptr);
    const double d = max_abs_delta(q, qref);
    charge_dq.push_back(d);
    charge_gate = charge_gate && q.size() == qref.size() && d == 0.0;
    std::printf("charge, world size %d: max|dq| vs unbatched = %.3g\n", ranks,
                d);
  }

  // --- JSON record -------------------------------------------------------
  std::string json = "{\n";
  {
    benchutil::JsonWriter w;
    w.field("tasks", static_cast<double>(n_energy));
    w.field("wall_single_s", t_single);
    w.field("wall_batched_s", t_batched);
    w.field("tasks_per_s_single", thr_single);
    w.field("tasks_per_s_batched", thr_batched);
    w.field("speedup", speedup);
    w.field("pool_threads", static_cast<double>(hw_threads));
    w.field("required_speedup", required_speedup);
    w.field("batches_issued",
            static_cast<double>(batched_res.stats.batches_issued));
    w.field("mean_batch_size", batched_res.stats.mean_batch_size);
    w.field("prefetch_hits",
            static_cast<double>(batched_res.stats.prefetch_hits));
    w.field("prefetch_misses",
            static_cast<double>(batched_res.stats.prefetch_misses), true);
    json += "  \"throughput\": {" + w.body + "},\n";
  }
  {
    benchutil::JsonWriter w;
    w.field("max_dt_throughput", max_dt_thr);
    w.field("max_dt_world_1", world_dt[0]);
    w.field("max_dt_world_2", world_dt[1]);
    w.field("max_dt_world_4", world_dt[2]);
    w.field("tasks_stolen", static_cast<double>(tasks_stolen));
    w.field("max_dq_world_1", charge_dq[0]);
    w.field("max_dq_world_2", charge_dq[1]);
    w.field("max_dq_world_4", charge_dq[2], true);
    json += "  \"determinism\": {" + w.body + "},\n";
  }
  {
    benchutil::JsonWriter w;
    w.field("speedup_gate", speed_gate ? 1.0 : 0.0);
    w.field("throughput_bit_identical", thr_dt_gate ? 1.0 : 0.0);
    w.field("world_sizes_bit_identical", world_gate ? 1.0 : 0.0);
    w.field("stealing_batched", steal_gate ? 1.0 : 0.0);
    w.field("charge_bit_identical", charge_gate ? 1.0 : 0.0, true);
    json += "  \"gates\": {" + w.body + "}\n}\n";
  }
  std::FILE* f = std::fopen("BENCH_batch.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_batch.json\n");
  }
  return speed_gate && thr_dt_gate && world_gate && steal_gate && charge_gate
             ? 0
             : 1;
}
