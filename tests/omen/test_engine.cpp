// Tests for the distributed execution engine: the Fig. 9 rank hierarchy
// (momentum -> energy -> spatial), the shared work queue with stealing,
// and the collective result assembly.  Sweeps are checked bit-identical
// across CommWorld sizes {1, 2, 7} — the sizes the CI matrix runs under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "dft/hamiltonian.hpp"
#include "numeric/blas.hpp"
#include "omen/engine.hpp"
#include "omen/simulator.hpp"
#include "transport/bands.hpp"

namespace df = omenx::dft;
namespace lt = omenx::lattice;
namespace nm = omenx::numeric;
namespace om = omenx::omen;
namespace tr = omenx::transport;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {

// A synthetic 1-orbital chain, z-periodic so the simulator builds a real
// multi-k momentum level.
lt::Structure chain_structure(idx cells, bool periodic = false) {
  lt::Structure s;
  s.cell_atoms = {{lt::Species::kLi, {0.0, 0.0, 0.0}}};
  s.cell_length = 0.5;
  s.num_cells = cells;
  s.name = "engine test chain";
  if (periodic) {
    s.periodicity = lt::Periodicity::kZ;
    s.z_period = s.cell_length;
  }
  return s;
}

om::SimulationConfig chain_config(idx cells, idx nk) {
  om::SimulationConfig cfg;
  cfg.structure = chain_structure(cells, nk > 1);
  cfg.build.cutoff_nm = 1.0;  // NBW = 2: exercises supercell folding
  cfg.point.obc = tr::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = tr::SolverAlgorithm::kBlockLU;
  cfg.num_k = nk;
  cfg.num_devices = 2;
  return cfg;
}

// Random-Hermitian lead blocks for driving the Engine API directly.
df::LeadBlocks synthetic_lead(idx s, unsigned seed) {
  df::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  CMatrix h0 = nm::random_cmatrix(s, s, seed);
  lead.h[0] = (h0 + nm::dagger(h0)) * cplx{0.25};
  lead.h[1] = nm::random_cmatrix(s, s, seed + 1) * cplx{0.4};
  lead.s[0] = CMatrix::identity(s);
  lead.s[1] = CMatrix(s, s);
  return lead;
}

tr::EnergyPointOptions cheap_options() {
  tr::EnergyPointOptions opts;
  opts.obc = tr::ObcAlgorithm::kDecimation;
  opts.solver = tr::SolverAlgorithm::kBlockLU;
  opts.want_density = false;
  opts.want_current = false;
  return opts;
}

}  // namespace

TEST(Engine, SpectrumIdenticalAcrossWorldSizes) {
  // The acceptance bar: T(E) from the quickstart-style device must be
  // bit-identical for CommWorld sizes 1, 2, and 7.
  const idx nk = 3;
  om::SimulationConfig cfg = chain_config(8, nk);
  om::Simulator reference(cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  std::vector<double> grid;
  for (double e = window.emin + 0.05; e < window.emax; e += 0.21)
    grid.push_back(e);
  ASSERT_GE(grid.size(), 4u);
  const auto base = reference.transmission_spectrum(grid);
  EXPECT_EQ(reference.last_sweep_stats().ranks, 1);

  for (const int ranks : {2, 7}) {
    om::SimulationConfig dcfg = chain_config(8, nk);
    dcfg.num_ranks = ranks;
    om::Simulator sim(dcfg);
    const auto sp = sim.transmission_spectrum(grid);
    EXPECT_EQ(sim.last_sweep_stats().ranks, ranks);
    EXPECT_EQ(sim.last_sweep_stats().tasks_total,
              static_cast<idx>(grid.size()) * nk);
    ASSERT_EQ(sp.transmission.size(), base.transmission.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_DOUBLE_EQ(sp.transmission[i], base.transmission[i])
          << "ranks=" << ranks << " point " << i;
      EXPECT_EQ(sp.propagating[i], base.propagating[i])
          << "ranks=" << ranks << " point " << i;
    }
  }
}

TEST(Engine, MoreMomentaThanRanks) {
  // 5 k points on 2 ranks: each rank's group owns several momenta and the
  // queue must still drain every (k, E) exactly once.
  const idx nk = 5;
  om::SimulationConfig cfg = chain_config(6, nk);
  om::Simulator reference(cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  const double mid = 0.5 * (window.emin + window.emax);
  const std::vector<double> grid{mid - 0.2, mid, mid + 0.2};
  const auto base = reference.transmission_spectrum(grid);

  om::SimulationConfig dcfg = chain_config(6, nk);
  dcfg.num_ranks = 2;
  om::Simulator sim(dcfg);
  const auto sp = sim.transmission_spectrum(grid);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_DOUBLE_EQ(sp.transmission[i], base.transmission[i]);
}

TEST(Engine, WorkStealingBalancesImbalancedGrids) {
  // One hot k with 10x the energy points of the others: with stealing the
  // idle groups must take over a share of the hot k's tail (and fetch its
  // lead blocks, which they never owned); statically they may not.
  const idx s = 6, cells = 12;
  std::vector<df::LeadBlocks> leads;
  for (unsigned k = 0; k < 4; ++k) leads.push_back(synthetic_lead(s, 31 + 7 * k));

  om::SweepRequest req;
  req.leads = &leads;
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point = cheap_options();
  req.energies.resize(4);
  for (int ie = 0; ie < 40; ++ie)
    req.energies[0].push_back(-2.0 + 0.1 * ie);
  for (std::size_t k = 1; k < 4; ++k)
    for (int ie = 0; ie < 4; ++ie)
      req.energies[k].push_back(-1.0 + 0.5 * ie);

  om::EngineConfig scfg;
  scfg.num_ranks = 4;
  scfg.work_stealing = false;
  om::Engine static_engine(scfg);
  const auto st = static_engine.run(req);
  EXPECT_EQ(st.stats.tasks_stolen, 0);
  ASSERT_EQ(st.stats.tasks_per_rank.size(), 4u);
  // Without stealing the hot k's single group does all 40 of its points.
  EXPECT_EQ(*std::max_element(st.stats.tasks_per_rank.begin(),
                              st.stats.tasks_per_rank.end()),
            40);

  om::EngineConfig wcfg;
  wcfg.num_ranks = 4;
  om::Engine stealing_engine(wcfg);
  const auto dy = stealing_engine.run(req);
  EXPECT_GT(dy.stats.tasks_stolen, 0);
  EXPECT_LT(*std::max_element(dy.stats.tasks_per_rank.begin(),
                              dy.stats.tasks_per_rank.end()),
            40);
  EXPECT_EQ(std::accumulate(dy.stats.tasks_per_rank.begin(),
                            dy.stats.tasks_per_rank.end(), idx{0}),
            52);

  // Same numbers either way — scheduling must not change physics.
  for (std::size_t k = 0; k < 4; ++k)
    for (std::size_t ie = 0; ie < req.energies[k].size(); ++ie)
      EXPECT_DOUBLE_EQ(dy.caroli[k][ie], st.caroli[k][ie]);
}

TEST(Engine, ChargeDensityConsistentAcrossWorldSizes) {
  om::SimulationConfig cfg = chain_config(10, 1);
  cfg.point.obc = tr::ObcAlgorithm::kShiftInvert;
  om::Simulator reference(cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  std::vector<double> grid;
  for (double e = window.emin + 0.02; e < window.emax; e += 0.3)
    grid.push_back(e);
  const double mu = 0.5 * (window.emin + window.emax);
  // Unequal contact potentials: the source and drain density weights
  // differ, so this also pins the distributed two-contact charge path.
  const auto base = reference.charge_density(grid, mu, mu - 0.2, nullptr);

  for (const int ranks : {2, 7}) {
    om::SimulationConfig dcfg = cfg;
    dcfg.num_ranks = ranks;
    om::Simulator sim(dcfg);
    const auto charge = sim.charge_density(grid, mu, mu - 0.2, nullptr);
    ASSERT_EQ(charge.size(), base.size());
    // Bit-identical, not merely close: per-task contributions are summed
    // in flat task order at the root, so work stealing moving tasks
    // between ranks must not change the rounding.
    for (std::size_t c = 0; c < charge.size(); ++c)
      EXPECT_DOUBLE_EQ(charge[c], base[c])
          << "ranks=" << ranks << " cell " << c;
  }
}

TEST(Engine, EnergyGroupWidthAndDeviceSlices) {
  // Width-2 energy groups: only group leaders pull tasks; members idle at
  // the spatial level but still hold the broadcast inputs and join the
  // assembly collectives.
  const idx nk = 2;
  om::SimulationConfig cfg = chain_config(8, nk);
  om::Simulator reference(cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  const double mid = 0.5 * (window.emin + window.emax);
  const std::vector<double> grid{mid - 0.1, mid, mid + 0.1, mid + 0.2};
  const auto base = reference.transmission_spectrum(grid);

  om::SimulationConfig dcfg = chain_config(8, nk);
  dcfg.num_ranks = 6;
  dcfg.ranks_per_energy_group = 2;
  om::Simulator sim(dcfg);
  const auto sp = sim.transmission_spectrum(grid);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_DOUBLE_EQ(sp.transmission[i], base.transmission[i]);
  // 6 ranks over 2 momentum groups, width 2 -> at most 3-4 leaders total;
  // at least one rank per group must have pulled nothing.
  const auto& tpr = sim.last_sweep_stats().tasks_per_rank;
  ASSERT_EQ(tpr.size(), 6u);
  EXPECT_EQ(std::accumulate(tpr.begin(), tpr.end(), idx{0}),
            static_cast<idx>(grid.size()) * nk);
}

TEST(Engine, SplitSolveBackendRunsDistributed) {
  // The SplitSolve path exercises the accelerator slices (spatial level).
  om::SimulationConfig cfg = chain_config(8, 1);
  cfg.point.obc = tr::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = tr::SolverAlgorithm::kSplitSolve;
  cfg.point.partitions = 2;
  cfg.num_devices = 2;
  om::Simulator reference(cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  const double mid = 0.5 * (window.emin + window.emax);
  const std::vector<double> grid{mid - 0.15, mid, mid + 0.15};
  const auto base = reference.transmission_spectrum(grid);

  om::SimulationConfig dcfg = cfg;
  dcfg.num_ranks = 2;
  om::Simulator sim(dcfg);
  const auto sp = sim.transmission_spectrum(grid);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_DOUBLE_EQ(sp.transmission[i], base.transmission[i]);
}

TEST(Engine, TransferCharacteristicsThroughEngine) {
  // The SCF loop's charge and current evaluations both route through the
  // engine; a 2-rank run must land on the same I-V point as single-rank.
  om::SimulationConfig cfg = chain_config(12, 1);
  om::Simulator reference(cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  const double mu = 0.5 * (window.emin + window.emax);
  std::vector<double> grid;
  for (double e = mu - 0.3; e <= mu + 0.3; e += 0.1) grid.push_back(e);
  lt::DeviceRegions regions{4, 4, 4};
  omenx::poisson::ScfOptions scf;
  scf.max_iter = 6;

  const auto base = reference.transfer_characteristics({0.1}, 0.05, regions,
                                                       grid, mu, scf);
  om::SimulationConfig dcfg = cfg;
  dcfg.num_ranks = 2;
  om::Simulator sim(dcfg);
  const auto iv =
      sim.transfer_characteristics({0.1}, 0.05, regions, grid, mu, scf);
  ASSERT_EQ(iv.size(), 1u);
  EXPECT_EQ(iv[0].scf_iterations, base[0].scf_iterations);
  EXPECT_NEAR(iv[0].current, base[0].current,
              1e-6 * (1.0 + std::abs(base[0].current)));
}

TEST(Engine, RankErrorsPropagateWithoutDeadlock) {
  // A throwing stage on a leader rank must drain the queue protocol and
  // the assembly collectives, then rethrow on the caller — not hang the
  // coordinator in recv or rank 0 in service.join().  cells = 1 makes
  // assemble_device ("need at least 2 supercells") throw during every
  // leader's KData build, the earliest and most deadlock-prone stage.
  std::vector<df::LeadBlocks> leads{synthetic_lead(4, 11),
                                    synthetic_lead(4, 12)};
  om::SweepRequest req;
  req.leads = &leads;
  req.cells = 1;
  req.potential.assign(1, 0.0);
  req.point = cheap_options();
  req.energies = {{0.0, 0.5}, {-0.5, 0.0, 0.5}};

  om::Engine flat(om::EngineConfig{});
  EXPECT_THROW(flat.run(req), std::invalid_argument);

  om::EngineConfig dcfg;
  dcfg.num_ranks = 4;
  om::Engine distributed(dcfg);
  EXPECT_THROW(distributed.run(req), std::invalid_argument);

  // Width-2 groups: non-leaders must also drain cleanly.
  om::EngineConfig wcfg;
  wcfg.num_ranks = 4;
  wcfg.ranks_per_energy_group = 2;
  om::Engine wide(wcfg);
  EXPECT_THROW(wide.run(req), std::invalid_argument);
}

TEST(Engine, BoundaryCacheReusedAcrossSweeps) {
  // The SCF outer loop re-sweeps identical (k, E) grids: the second sweep
  // must hit the per-rank boundary cache for every point, solve zero lead
  // eigenproblems, and still produce the first sweep's spectrum verbatim.
  om::SimulationConfig cfg = chain_config(8, 1);
  om::Simulator sim(cfg);
  const auto bands = sim.bands(9);
  const auto window = tr::band_window(bands);
  std::vector<double> grid;
  for (double e = window.emin + 0.05; e < window.emax; e += 0.2)
    grid.push_back(e);

  const auto first = sim.transmission_spectrum(grid);
  const auto after_first = sim.boundary_cache_stats();
  EXPECT_EQ(after_first.misses, grid.size());
  EXPECT_EQ(after_first.hits, 0u);

  const auto solves_before = omenx::obc::boundary_solve_count();
  const auto second = sim.transmission_spectrum(grid);
  EXPECT_EQ(omenx::obc::boundary_solve_count(), solves_before);
  EXPECT_EQ(sim.boundary_cache_stats().hits, grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_DOUBLE_EQ(second.transmission[i], first.transmission[i]);

  // The charge sweep revisits the same keys: still no new lead solves.
  const double mu = 0.5 * (window.emin + window.emax);
  sim.charge_density(grid, mu, mu - 0.1, nullptr);
  EXPECT_EQ(omenx::obc::boundary_solve_count(), solves_before);

  // Invalidation empties the cache; the next sweep recomputes.
  sim.invalidate_boundary_cache();
  sim.transmission_spectrum(grid);
  EXPECT_EQ(omenx::obc::boundary_solve_count(),
            solves_before + grid.size());
}

TEST(Engine, CachedSweepsBitIdenticalAcrossWorldSizesAndStealing) {
  // Caching must be invisible to the physics: cached runs at world sizes
  // 1/2/4 (the hot-k request forces stealing at 4 ranks) agree bit-for-bit
  // with the uncached flat reference, on first *and* repeat sweeps.
  const idx s = 5, cells = 10;
  std::vector<df::LeadBlocks> leads;
  for (unsigned k = 0; k < 4; ++k)
    leads.push_back(synthetic_lead(s, 51 + 3 * k));
  om::SweepRequest req;
  req.leads = &leads;
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point = cheap_options();
  req.energies.resize(4);
  for (int ie = 0; ie < 24; ++ie)
    req.energies[0].push_back(-2.0 + 0.15 * ie);
  for (std::size_t k = 1; k < 4; ++k)
    for (int ie = 0; ie < 3; ++ie)
      req.energies[k].push_back(-1.0 + 0.5 * ie);

  om::EngineConfig ucfg;
  ucfg.cache_boundaries = false;
  om::Engine uncached(ucfg);
  const auto ref = uncached.run(req);

  for (const int ranks : {1, 2, 4}) {
    om::EngineConfig ccfg;
    ccfg.num_ranks = ranks;
    om::Engine cached(ccfg);
    const auto a = cached.run(req);
    const auto b = cached.run(req);  // second sweep: served from the cache
    if (ranks == 4) EXPECT_GT(a.stats.tasks_stolen, 0);
    for (std::size_t k = 0; k < 4; ++k)
      for (std::size_t ie = 0; ie < req.energies[k].size(); ++ie) {
        EXPECT_DOUBLE_EQ(a.caroli[k][ie], ref.caroli[k][ie])
            << "ranks=" << ranks;
        EXPECT_DOUBLE_EQ(b.caroli[k][ie], ref.caroli[k][ie])
            << "ranks=" << ranks << " (cached resweep)";
      }
    EXPECT_GT(cached.boundary_cache_stats().hits, 0u);
  }
}

TEST(Engine, SigmaOnlyObcDensityRequestFailsLoudlyAndDrains) {
  // Decimation provides no injection states: a charge-carrying sweep must
  // surface std::invalid_argument — from every rank topology, size 1
  // included — instead of silently integrating zero density (and the world
  // must drain, not hang).
  om::SimulationConfig cfg = chain_config(8, 1);
  cfg.point.obc = tr::ObcAlgorithm::kDecimation;
  om::Simulator reference(cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  const double mu = 0.5 * (window.emin + window.emax);
  const std::vector<double> grid{mu - 0.1, mu, mu + 0.1};
  EXPECT_THROW(reference.charge_density(grid, mu, mu, nullptr),
               std::invalid_argument);

  for (const int ranks : {2, 4}) {
    om::SimulationConfig dcfg = cfg;
    dcfg.num_ranks = ranks;
    if (ranks == 4) dcfg.ranks_per_energy_group = 2;
    om::Simulator sim(dcfg);
    EXPECT_THROW(sim.charge_density(grid, mu, mu, nullptr),
                 std::invalid_argument)
        << "ranks=" << ranks;
  }
}

TEST(Engine, ObcOptionChangeInvalidatesPersistentCaches) {
  // The cache key carries the backend but not its options: a run whose
  // ObcOptions differ from the previous run's must drop the cached
  // Boundaries instead of replaying entries computed under the old
  // annulus/eta/ridge.
  std::vector<df::LeadBlocks> leads{synthetic_lead(4, 71)};
  om::SweepRequest req;
  req.leads = &leads;
  req.cells = 8;
  req.potential.assign(8, 0.0);
  req.point = cheap_options();
  req.energies = {{-1.0, -0.5, 0.0, 0.5}};

  om::Engine engine(om::EngineConfig{});
  engine.run(req);
  engine.run(req);  // same options: cache serves the sweep
  EXPECT_EQ(engine.boundary_cache_stats().hits, req.energies[0].size());
  EXPECT_EQ(engine.boundary_cache_stats().invalidations, 0u);

  req.point.obc_opts.decimation.eta = 1e-5;  // changed backend parameter
  const auto changed = engine.run(req);
  EXPECT_EQ(engine.boundary_cache_stats().invalidations, 1u);

  // The post-change results must match a fresh engine under the new
  // options — no stale-Boundary replay.
  om::EngineConfig fresh_cfg;
  fresh_cfg.cache_boundaries = false;
  om::Engine fresh(fresh_cfg);
  const auto ref = fresh.run(req);
  for (std::size_t ie = 0; ie < req.energies[0].size(); ++ie)
    EXPECT_DOUBLE_EQ(changed.caroli[0][ie], ref.caroli[0][ie]);

  // A different leads vector (different lead Hamiltonians under the same
  // (k, E) keys) must also drop the caches — and the swapped-leads sweep
  // must match its own uncached reference, not replay the old leads.
  std::vector<df::LeadBlocks> other_leads{synthetic_lead(4, 72)};
  const auto inval_before = engine.boundary_cache_stats().invalidations;
  req.leads = &other_leads;
  const auto swapped = engine.run(req);
  EXPECT_GT(engine.boundary_cache_stats().invalidations, inval_before);
  const auto swapped_ref = fresh.run(req);
  for (std::size_t ie = 0; ie < req.energies[0].size(); ++ie)
    EXPECT_DOUBLE_EQ(swapped.caroli[0][ie], swapped_ref.caroli[0][ie]);
}

TEST(Engine, ContactShiftChangeInvalidatesCache) {
  om::SimulationConfig cfg = chain_config(8, 1);
  om::Simulator sim(cfg);
  const auto bands = sim.bands(9);
  const auto window = tr::band_window(bands);
  const double v_shift = 0.15;
  std::vector<double> grid;
  for (double e = window.emin + 0.1; e < window.emax - 0.2; e += 0.25)
    grid.push_back(e);

  const auto base = sim.transmission_spectrum(grid);
  EXPECT_EQ(sim.boundary_cache_stats().invalidations, 0u);
  // The shift change invalidates at the *next sweep* — exactly once, even
  // when set repeatedly to the same new value.
  sim.set_contact_shift(v_shift);
  sim.set_contact_shift(v_shift);
  EXPECT_EQ(sim.boundary_cache_stats().invalidations, 0u);

  // Physics of the shift: leads at potential V with the device floated to
  // the same V is the pristine system at E - V.
  const std::vector<double> lifted(8, v_shift);
  std::vector<double> shifted_grid;
  for (const double e : grid) shifted_grid.push_back(e + v_shift);
  const auto shifted = sim.transmission_spectrum(shifted_grid, &lifted);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_NEAR(shifted.transmission[i], base.transmission[i], 1e-7) << i;
  // That sweep saw the changed shift: exactly one invalidation fired.
  EXPECT_EQ(sim.boundary_cache_stats().invalidations, 1u);

  // The SCF driver plumbs the shift from ScfOptions and invalidates only
  // on change (0.15 -> 0.0 here; a repeat sweep at the same shift must
  // keep its cached lead solves).
  lt::DeviceRegions regions{3, 2, 3};
  omenx::poisson::ScfOptions scf;
  scf.max_iter = 2;
  scf.contact_shift = 0.0;
  sim.transfer_characteristics({0.0}, 0.05, regions, grid,
                               0.5 * (window.emin + window.emax), scf);
  EXPECT_EQ(sim.boundary_cache_stats().invalidations, 2u);  // 0.15 -> 0.0
  sim.transfer_characteristics({0.0}, 0.05, regions, grid,
                               0.5 * (window.emin + window.emax), scf);
  EXPECT_EQ(sim.boundary_cache_stats().invalidations, 2u);
}

TEST(Engine, RejectsBadRequests) {
  om::Engine engine(om::EngineConfig{});
  om::SweepRequest req;
  EXPECT_THROW(engine.run(req), std::invalid_argument);  // null leads
  std::vector<df::LeadBlocks> leads{synthetic_lead(4, 3)};
  req.leads = &leads;
  EXPECT_THROW(engine.run(req), std::invalid_argument);  // no k grids
  req.energies = {{0.0}, {0.0}};
  EXPECT_THROW(engine.run(req), std::invalid_argument);  // fewer leads
  req.energies = {{0.0, 1.0}};
  req.density_weight = {{1.0}};
  EXPECT_THROW(engine.run(req), std::invalid_argument);  // weight shape
  EXPECT_THROW(om::Engine(om::EngineConfig{0, 1, true, true}),
               std::invalid_argument);
}

TEST(Engine, GreensTasksBitIdenticalAcrossWorldSizesAndStealing) {
  // Contour charge nodes ride the same queue as real-axis tasks: a hot k
  // full of Green's-function nodes must distribute, steal, and assemble
  // bit-identically to the default engine at any world size.
  const idx s = 5, cells = 10;
  std::vector<df::LeadBlocks> leads;
  for (unsigned k = 0; k < 4; ++k)
    leads.push_back(synthetic_lead(s, 91 + 3 * k));
  om::SweepRequest req;
  req.leads = &leads;
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point = cheap_options();
  req.energies.resize(4);  // no real-axis tasks at all: GF nodes only
  req.gf_nodes.resize(4);
  req.gf_weights.resize(4);
  for (int in = 0; in < 20; ++in) {
    req.gf_nodes[0].push_back(cplx{-1.5 + 0.12 * in, 0.3 + 0.01 * in});
    req.gf_weights[0].push_back(cplx{0.05, -0.02 * in});
  }
  for (std::size_t k = 1; k < 4; ++k)
    for (int in = 0; in < 3; ++in) {
      req.gf_nodes[k].push_back(cplx{-0.8 + 0.4 * in, 0.25});
      req.gf_weights[k].push_back(cplx{0.1 * (in + 1.0), 0.03});
    }

  om::Engine flat({});
  const auto ref = flat.run(req);
  ASSERT_EQ(ref.charge.size(), static_cast<std::size_t>(cells));
  EXPECT_EQ(ref.stats.tasks_greens, 29);
  EXPECT_EQ(ref.stats.tasks_total, 29);

  for (const int ranks : {1, 2, 4}) {
    for (const bool stealing : {true, false}) {
      om::EngineConfig cfg;
      cfg.num_ranks = ranks;
      cfg.work_stealing = stealing;
      om::Engine engine(cfg);
      const auto res = engine.run(req);
      EXPECT_EQ(res.stats.tasks_greens, 29) << "ranks=" << ranks;
      ASSERT_EQ(res.charge.size(), ref.charge.size());
      for (std::size_t c = 0; c < ref.charge.size(); ++c)
        EXPECT_DOUBLE_EQ(res.charge[c], ref.charge[c])
            << "ranks=" << ranks << " stealing=" << stealing << " cell " << c;
      if (ranks == 4 && stealing) EXPECT_GT(res.stats.tasks_stolen, 0);
    }
  }
}

TEST(Engine, RankBusySecondsNeverExceedWall) {
  // A rank's busy time is the wall time its leader spends solving, so it is
  // bounded by the sweep's wall time however many pool threads a flush of
  // Green's-function nodes fans out to: the figure is the rank efficiency
  // of Fig. 9, not thread occupancy.
  const idx s = 8, cells = 16;
  std::vector<df::LeadBlocks> leads;
  for (unsigned k = 0; k < 4; ++k)
    leads.push_back(synthetic_lead(s, 131 + 5 * k));
  om::SweepRequest req;
  req.leads = &leads;
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point = cheap_options();
  req.energies.resize(4);
  req.gf_nodes.resize(4);
  req.gf_weights.resize(4);
  for (std::size_t k = 0; k < 4; ++k)
    for (int in = 0; in < 48; ++in) {
      req.gf_nodes[k].push_back(cplx{-1.8 + 0.075 * in, 0.2 + 0.005 * in});
      req.gf_weights[k].push_back(cplx{0.02, -0.01});
    }

  for (const int ranks : {1, 4}) {
    om::EngineConfig cfg;
    cfg.num_ranks = ranks;
    om::Engine engine(cfg);
    const auto res = engine.run(req);
    EXPECT_EQ(res.stats.tasks_greens, 4 * 48);
    ASSERT_EQ(res.stats.busy_seconds_per_rank.size(),
              static_cast<std::size_t>(ranks));
    double busy = 0.0;
    for (std::size_t r = 0; r < res.stats.busy_seconds_per_rank.size(); ++r) {
      EXPECT_LE(res.stats.busy_seconds_per_rank[r], res.stats.wall_seconds)
          << "ranks=" << ranks << " rank " << r;
      busy += res.stats.busy_seconds_per_rank[r];
    }
    EXPECT_GT(busy, 0.0) << "ranks=" << ranks;
  }
}

TEST(Engine, ContourChargeBitIdenticalAcrossWorldSizes) {
  // Simulator-level replica of ChargeDensityConsistentAcrossWorldSizes for
  // the contour backend, at a bias so the sweep mixes real-axis remainder
  // tasks with complex Green's-function nodes in one queue.
  om::SimulationConfig cfg = chain_config(10, 1);
  om::Simulator reference(cfg);
  const auto window = tr::band_window(reference.bands(9));
  std::vector<double> grid;
  for (double e = window.emin - 0.4;
       e < 0.5 * (window.emin + window.emax) + 0.8; e += 0.02)
    grid.push_back(e);
  const double mu = 0.5 * (window.emin + window.emax);
  omenx::charge::QuadratureOptions qopt;
  qopt.contour_points = 32;  // accuracy is not under test here
  const auto base = reference.charge_density(
      grid, mu, mu - 0.2, nullptr, omenx::charge::QuadratureAlgorithm::kContour,
      qopt);
  EXPECT_GT(reference.last_sweep_stats().tasks_greens, 0);
  EXPECT_LT(reference.last_sweep_stats().tasks_greens,
            reference.last_sweep_stats().tasks_total);

  for (const int ranks : {2, 7}) {
    om::SimulationConfig dcfg = cfg;
    dcfg.num_ranks = ranks;
    om::Simulator sim(dcfg);
    const auto charge = sim.charge_density(
        grid, mu, mu - 0.2, nullptr,
        omenx::charge::QuadratureAlgorithm::kContour, qopt);
    ASSERT_EQ(charge.size(), base.size());
    for (std::size_t c = 0; c < charge.size(); ++c)
      EXPECT_DOUBLE_EQ(charge[c], base[c]) << "ranks=" << ranks << " cell " << c;
  }
}
