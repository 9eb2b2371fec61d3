// Tests of the composable scattering::SelfEnergy layer and its first model,
// the Buettiker dephasing probe:
//   * registry round-trips, capability bits, boundary-key neutrality;
//   * probe-site assembly (ladder stride, explicit blocks, eta <= 0 off);
//   * the inner Newton loop (tune_probe_potentials) — convergence, bounds,
//     zero-net-current condition, input validation;
//   * linear-response probe elimination against the analytic 3-terminal
//     closed form;
//   * ballistic parity — buttiker_probe at eta = 0 must reproduce the
//     kNone pipeline *bit-identically* (EXPECT_EQ, no tolerance), cache
//     traffic included;
//   * dissipative end-to-end sweeps through the Simulator and engine:
//     probe-current leak, conductance degradation with eta, and
//     bit-identity across world sizes {1, 2, 4} with stealing on/off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "omen/simulator.hpp"
#include "scattering/self_energy.hpp"
#include "transport/bands.hpp"
#include "transport/contacts.hpp"

namespace lt = omenx::lattice;
namespace om = omenx::omen;
namespace sc = omenx::scattering;
namespace tr = omenx::transport;
using omenx::numeric::idx;

namespace {

lt::Structure chain_structure(idx cells, double cell_length = 0.5,
                              bool periodic = false) {
  lt::Structure s;
  s.cell_atoms = {{lt::Species::kLi, {0.0, 0.0, 0.0}}};
  s.cell_length = cell_length;
  s.num_cells = cells;
  s.name = "scattering test chain";
  if (periodic) {
    s.periodicity = lt::Periodicity::kZ;
    s.z_period = s.cell_length;
  }
  return s;
}

om::SimulationConfig chain_config(idx cells, idx nk = 1) {
  om::SimulationConfig cfg;
  cfg.structure = chain_structure(cells, 0.5, nk > 1);
  cfg.build.cutoff_nm = 1.0;  // NBW = 2: folded supercells
  cfg.point.obc = tr::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = tr::SolverAlgorithm::kBlockLU;
  cfg.num_k = nk;
  cfg.num_devices = 2;
  return cfg;
}

sc::Spec buttiker(double eta, std::vector<idx> blocks = {}, idx stride = 1) {
  sc::Spec spec;
  spec.algorithm = sc::ScatteringAlgorithm::kButtikerProbe;
  spec.options.buttiker.eta = eta;
  spec.options.buttiker.blocks = std::move(blocks);
  spec.options.buttiker.stride = stride;
  return spec;
}

std::vector<double> band_grid(om::Simulator& sim, double step = 0.17) {
  const auto win = tr::band_window(sim.bands(9));
  std::vector<double> grid;
  for (double e = win.emin + 0.05; e < win.emax; e += step) grid.push_back(e);
  return grid;
}

}  // namespace

// --------------------------------------------------------------- registry --

TEST(ScatteringRegistry, BuiltinsRoundTrip) {
  const auto names = sc::registered_scattering_models();
  EXPECT_NE(std::find(names.begin(), names.end(), "none"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "buttiker_probe"),
            names.end());

  for (const auto algo : {sc::ScatteringAlgorithm::kNone,
                          sc::ScatteringAlgorithm::kButtikerProbe}) {
    const auto by_enum = sc::make_scattering_model(algo);
    const auto by_name =
        sc::make_scattering_model(sc::scattering_algorithm_name(algo));
    EXPECT_STREQ(by_enum->name(), by_name->name());
    EXPECT_EQ(by_enum->capabilities(),
              sc::scattering_algorithm_capabilities(algo));
  }
  EXPECT_THROW(sc::make_scattering_model("annihilation_operator"),
               std::invalid_argument);
}

TEST(ScatteringRegistry, CapabilityBits) {
  EXPECT_EQ(
      sc::scattering_algorithm_capabilities(sc::ScatteringAlgorithm::kNone),
      0u);
  const unsigned probe_caps = sc::scattering_algorithm_capabilities(
      sc::ScatteringAlgorithm::kButtikerProbe);
  EXPECT_TRUE(probe_caps & sc::kAddsTerminals);
  EXPECT_TRUE(probe_caps & sc::kElastic);
  EXPECT_TRUE(probe_caps & sc::kNeedsProbeTuning);
  // Probes live on interior blocks: no built-in touches a contact boundary,
  // so cached lead solves are shared with the ballistic runs.
  EXPECT_FALSE(probe_caps & sc::kModifiesBoundaries);
  EXPECT_EQ(sc::boundary_key_component(buttiker(0.1)), 0u);
  EXPECT_EQ(sc::boundary_key_component(sc::Spec{}), 0u);
}

TEST(ScatteringRegistry, CustomRegistration) {
  class Silent final : public sc::SelfEnergy {
   public:
    const char* name() const noexcept override { return "silent"; }
    unsigned capabilities() const noexcept override { return 0; }
    std::vector<sc::ProbeSite> probes(
        idx, const std::vector<idx>&,
        const sc::ScatteringOptions&) const override {
      return {};
    }
  };
  sc::register_scattering_model("silent",
                                [] { return std::make_unique<Silent>(); });
  const auto model = sc::make_scattering_model("silent");
  EXPECT_STREQ(model->name(), "silent");
  EXPECT_TRUE(model->probes(8, {0, 7}, {}).empty());
}

// --------------------------------------------------------- probe assembly --

TEST(ProbeAssembly, NoneAndDisabledModelsAttachNothing) {
  EXPECT_TRUE(sc::assemble_probes(sc::Spec{}, 8, {0, 7}).empty());
  EXPECT_TRUE(sc::assemble_probes(buttiker(0.0), 8, {0, 7}).empty());
  EXPECT_TRUE(sc::assemble_probes(buttiker(-1.0), 8, {0, 7}).empty());
}

TEST(ProbeAssembly, LadderSkipsOccupiedBlocks) {
  const auto sites = sc::assemble_probes(buttiker(0.05), 6, {0, 5});
  ASSERT_EQ(sites.size(), 4u);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(sites[i].block, static_cast<idx>(i + 1));
    EXPECT_EQ(sites[i].eta, 0.05);
  }
}

TEST(ProbeAssembly, StrideThinsTheLadder) {
  const auto sites = sc::assemble_probes(buttiker(0.1, {}, 2), 8, {0, 7});
  ASSERT_EQ(sites.size(), 3u);
  EXPECT_EQ(sites[0].block, 1);
  EXPECT_EQ(sites[1].block, 3);
  EXPECT_EQ(sites[2].block, 5);
}

TEST(ProbeAssembly, ExplicitBlocksAreTakenVerbatim) {
  const auto sites = sc::assemble_probes(buttiker(0.2, {2, 5}), 8, {0, 7});
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].block, 2);
  EXPECT_EQ(sites[1].block, 5);
}

// ------------------------------------------------------------ probe tuning --

namespace {

// Constant-in-energy 3-terminal table: terminals {0, 2} real, 1 a probe.
// T_01 = T_10 = a, T_12 = T_21 = b, T_02 = T_20 = c.
std::vector<std::vector<double>> three_terminal_table(std::size_t ne, double a,
                                                      double b, double c) {
  const std::vector<double> t{0.0, a, c,  //
                              a, 0.0, b,  //
                              c, b, 0.0};
  return std::vector<std::vector<double>>(ne, t);
}

double probe_current(const std::vector<double>& energies,
                     const std::vector<std::vector<double>>& t,
                     const std::vector<double>& mu, double kt,
                     std::size_t p) {
  return tr::buttiker_currents(energies, t, mu, kt)[p];
}

}  // namespace

TEST(ProbeTuning, DrivesProbeCurrentToZero) {
  std::vector<double> energies;
  for (double e = -1.0; e <= 1.0; e += 0.05) energies.push_back(e);
  const auto t = three_terminal_table(energies.size(), 0.8, 0.5, 0.3);
  const std::vector<double> mu0{0.25, 0.0, -0.25};
  const std::vector<bool> is_probe{false, true, false};
  const double kt = 0.025;

  const auto res = sc::tune_probe_potentials(energies, t, mu0, is_probe, kt);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.iterations, 1);
  EXPECT_LE(res.max_residual, 1e-10);
  // Real terminals untouched, probe inside the bias window.
  EXPECT_EQ(res.mu[0], mu0[0]);
  EXPECT_EQ(res.mu[2], mu0[2]);
  EXPECT_GT(res.mu[1], mu0[2]);
  EXPECT_LT(res.mu[1], mu0[0]);
  // The tuned potential really zeroes the net probe current, and current
  // conservation then forces I_0 = -I_2.
  const auto currents = tr::buttiker_currents(energies, t, res.mu, kt);
  const double scale = std::max(std::abs(currents[0]), std::abs(currents[2]));
  EXPECT_GT(scale, 1e-6);
  EXPECT_LE(std::abs(currents[1]), 1e-10 * scale);
  EXPECT_NEAR(currents[0], -currents[2], 1e-10 * scale);
}

TEST(ProbeTuning, AsymmetricCouplingPullsProbeTowardStrongSide) {
  // A probe coupled 4x harder to the source floats near the source mu.
  std::vector<double> energies;
  for (double e = -1.0; e <= 1.0; e += 0.05) energies.push_back(e);
  const auto t = three_terminal_table(energies.size(), 0.8, 0.2, 0.0);
  const std::vector<double> mu0{0.2, 0.0, -0.2};
  const auto res = sc::tune_probe_potentials(energies, t, mu0,
                                             {false, true, false}, 0.025);
  ASSERT_TRUE(res.converged);
  EXPECT_GT(res.mu[1], 0.0);  // closer to the source than the midpoint
}

TEST(ProbeTuning, NoProbesReturnsInputConverged) {
  const std::vector<double> energies{0.0, 0.1};
  const auto t = three_terminal_table(2, 0.5, 0.5, 0.5);
  const std::vector<double> mu0{0.1, 0.0, -0.1};
  const auto res = sc::tune_probe_potentials(energies, t, mu0,
                                             {false, false, false}, 0.025);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
  EXPECT_EQ(res.mu, mu0);
}

TEST(ProbeTuning, RejectsBadInputs) {
  const std::vector<double> energies{0.0, 0.1};
  const auto t = three_terminal_table(2, 0.5, 0.5, 0.5);
  const std::vector<double> mu{0.1, 0.0, -0.1};
  const std::vector<bool> probes{false, true, false};
  // kt <= 0: the Fermi derivative the Newton Jacobian needs vanishes.
  EXPECT_THROW(sc::tune_probe_potentials(energies, t, mu, probes, 0.0),
               std::invalid_argument);
  EXPECT_THROW(sc::tune_probe_potentials(energies, t, mu, probes, -1.0),
               std::invalid_argument);
  // Shape mismatches.
  EXPECT_THROW(sc::tune_probe_potentials(energies, t, {0.1, 0.0}, probes,
                                         0.025),
               std::invalid_argument);
  EXPECT_THROW(sc::tune_probe_potentials(energies, t, mu, {false, true},
                                         0.025),
               std::invalid_argument);
  EXPECT_THROW(
      sc::tune_probe_potentials({0.0}, t, mu, probes, 0.025),
      std::invalid_argument);
}

// ------------------------------------------------------- probe elimination --

TEST(ProbeElimination, MatchesThreeTerminalClosedForm) {
  // One probe (index 1) symmetrically coupled: W_PP = T_10 + T_12 = a + b,
  // so T_eff_02 = c + a*b / (a + b).
  const double a = 0.7, b = 0.4, c = 0.25;
  const std::vector<double> t{0.0, a, c,  //
                              a, 0.0, b,  //
                              c, b, 0.0};
  const auto eff = sc::eliminate_probes(t, {false, true, false});
  ASSERT_EQ(eff.size(), 4u);
  EXPECT_EQ(eff[0], 0.0);
  EXPECT_NEAR(eff[1], c + a * b / (a + b), 1e-14);
  EXPECT_NEAR(eff[2], c + a * b / (a + b), 1e-14);
  EXPECT_EQ(eff[3], 0.0);
}

TEST(ProbeElimination, NoProbesIsIdentity) {
  const std::vector<double> t{0.0, 0.3, 0.3, 0.0};
  EXPECT_EQ(sc::eliminate_probes(t, {false, false}), t);
}

TEST(ProbeElimination, ProbesOnlyRedistribute) {
  // The effective coherent + probe-mediated transmission never drops below
  // the direct coherent part.
  const std::vector<double> t{0.0, 0.5, 0.2, 0.1,  //
                              0.5, 0.0, 0.3, 0.4,  //
                              0.2, 0.3, 0.0, 0.6,  //
                              0.1, 0.4, 0.6, 0.0};
  const auto eff = sc::eliminate_probes(t, {false, true, true, false});
  ASSERT_EQ(eff.size(), 4u);
  EXPECT_GE(eff[1], 0.1);  // direct T_03 was 0.1
  EXPECT_GE(eff[2], 0.1);
}

// -------------------------------------------------------- ballistic parity --

TEST(ScatteringPipeline, EtaZeroIsBitIdenticalToBallistic) {
  // The acceptance bar of the refactor: buttiker_probe at eta = 0 attaches
  // nothing, and the pipeline must route through the *identical* ballistic
  // arithmetic — same doubles, same boundary-cache traffic.
  om::Simulator reference(chain_config(12));
  const auto grid = band_grid(reference, 0.11);
  ASSERT_GE(grid.size(), 4u);
  std::vector<double> barrier(12, 0.0);
  barrier[5] = barrier[6] = 0.5;
  const auto base = reference.transmission_spectrum(grid, &barrier);
  const auto base_cache = reference.boundary_cache_stats();

  om::Simulator sim(chain_config(12));
  sim.set_scattering(buttiker(0.0));
  EXPECT_TRUE(sim.probe_sites().empty());
  const auto sp = sim.transmission_spectrum(grid, &barrier);
  const auto cache = sim.boundary_cache_stats();
  ASSERT_EQ(sp.transmission.size(), base.transmission.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(sp.transmission[i], base.transmission[i]) << "point " << i;
    EXPECT_EQ(sp.propagating[i], base.propagating[i]) << "point " << i;
  }
  // Same cache keys, same traffic: eta = 0 must not perturb the caching.
  EXPECT_EQ(cache.hits, base_cache.hits);
  EXPECT_EQ(cache.misses, base_cache.misses);

  // Charge too, through the same scalar-mu wrapper.
  const auto win = tr::band_window(reference.bands(9));
  const double mid = 0.5 * (win.emin + win.emax);
  std::vector<double> cgrid;
  for (double e = mid - 0.4; e <= mid + 0.4; e += 0.08) cgrid.push_back(e);
  const auto q_base = reference.charge_density(cgrid, mid, mid - 0.2, &barrier);
  const auto q = sim.charge_density(cgrid, mid, mid - 0.2, &barrier);
  ASSERT_EQ(q.size(), q_base.size());
  for (std::size_t c = 0; c < q.size(); ++c)
    EXPECT_EQ(q[c], q_base[c]) << "cell " << c;
}

TEST(ScatteringPipeline, ProbeSweepsCacheLeadBoundaries) {
  // Probe self-energies live on interior blocks and carry no lead: only the
  // two real contacts solve boundaries, their keys do not depend on eta
  // (boundary_key_component == 0), and an identical re-sweep — or a sweep
  // at a *different* eta — is served entirely from the cache.
  om::Simulator sim(chain_config(12));
  sim.set_scattering(buttiker(0.05, {2}));
  ASSERT_EQ(sim.probe_sites().size(), 1u);
  const auto grid = band_grid(sim, 0.11);
  (void)sim.transmission_spectrum(grid);

  for (const double eta : {0.05, 0.2}) {
    sim.set_scattering(buttiker(eta, {2}));
    (void)sim.transmission_spectrum(grid);
    const auto stats = sim.last_sweep_stats();
    std::uint64_t hits = 0, misses = 0;
    for (const auto& cs : stats.contact_cache_stats) {
      hits += cs.hits;
      misses += cs.misses;
    }
    EXPECT_EQ(misses, 0u) << "eta = " << eta
                          << ": dissipation must not re-solve lead boundaries";
    EXPECT_GT(hits, 0u);
  }
}

// ------------------------------------------------------- dissipative sweeps --

TEST(ScatteringPipeline, ProbesWidenTheTerminalSetAndTmatrix) {
  om::Simulator sim(chain_config(12));
  sim.set_scattering(buttiker(0.08, {1, 3}));
  ASSERT_EQ(sim.probe_sites().size(), 2u);
  const auto grid = band_grid(sim, 0.11);
  const auto sp = sim.transmission_spectrum(grid);
  ASSERT_EQ(sp.t_matrix.size(), grid.size());
  for (const auto& row : sp.t_matrix) {
    ASSERT_EQ(row.size(), 16u);  // (2 contacts + 2 probes)^2
    for (const double t : row) EXPECT_GE(t, -1e-10);
  }
}

TEST(ScatteringPipeline, TunedProbesLeakNothingAndConserveCurrent) {
  om::Simulator sim(chain_config(12));
  sim.set_scattering(buttiker(0.1, {2}));
  const auto grid = band_grid(sim, 0.11);
  const auto win = tr::band_window(sim.bands(9));
  const double mid = 0.5 * (win.emin + win.emax);

  const auto currents =
      sim.terminal_currents(grid, {mid + 0.1, mid - 0.1}, nullptr);
  ASSERT_EQ(currents.size(), 2u);  // probe rows are sliced off
  const auto& tune = sim.last_probe_tune();
  EXPECT_TRUE(tune.converged);
  EXPECT_LE(tune.max_residual, 1e-10);
  ASSERT_EQ(tune.mu.size(), 3u);
  EXPECT_GT(tune.mu[2], mid - 0.1);
  EXPECT_LT(tune.mu[2], mid + 0.1);
  // Probe current is zero, so the two real terminals balance exactly.
  const double scale =
      std::max(std::abs(currents[0]), std::abs(currents[1]));
  EXPECT_GT(scale, 1e-9);
  EXPECT_NEAR(currents[0], -currents[1], 1e-10 * std::max(1.0, scale));
  // The stats carry the inner-loop counters for the sweep records.
  EXPECT_EQ(sim.last_sweep_stats().probe_terminals, 1);
  EXPECT_GE(sim.last_sweep_stats().probe_iterations, 1);
}

TEST(ScatteringPipeline, ConductanceDegradesMonotonicallyWithEta) {
  // Dephasing suppresses the resonant two-terminal conductance of a clean
  // chain: G(eta) must be non-increasing over an eta ramp.
  om::Simulator probe(chain_config(12));
  const auto grid = band_grid(probe, 0.11);
  const auto win = tr::band_window(probe.bands(9));
  const double mid = 0.5 * (win.emin + win.emax);

  double prev = 0.0;
  bool first = true;
  for (const double eta : {0.0, 0.02, 0.1, 0.3}) {
    om::Simulator sim(chain_config(12));
    if (eta > 0.0) sim.set_scattering(buttiker(eta));
    const double current =
        sim.current(grid, mid + 0.05, mid - 0.05, nullptr);
    if (!first)
      EXPECT_LE(current, prev * (1.0 + 1e-12)) << "eta = " << eta;
    EXPECT_GT(current, 0.0) << "eta = " << eta;
    prev = current;
    first = false;
  }
}

TEST(ScatteringPipeline, DissipativeChargeIsRealGridOnly) {
  om::Simulator sim(chain_config(8));
  sim.set_scattering(buttiker(0.05, {1}));
  const auto grid = band_grid(sim, 0.11);
  const auto win = tr::band_window(sim.bands(9));
  const double mid = 0.5 * (win.emin + win.emax);
  // The contour quadrature assumes an equilibrium (two-reservoir) analytic
  // continuation; probes inject at tuned real-axis potentials.
  EXPECT_THROW(sim.charge_density(grid, mid, mid - 0.1, nullptr,
                                  omenx::charge::QuadratureAlgorithm::kContour),
               std::invalid_argument);
  const auto q = sim.charge_density(grid, mid, mid - 0.1, nullptr);
  ASSERT_EQ(q.size(), 8u);
  double total = 0.0;
  for (const double c : q) {
    EXPECT_GE(c, 0.0);
    total += c;
  }
  EXPECT_GT(total, 0.0);
}

TEST(ScatteringPipeline, DissipativeSweepBitIdenticalAcrossWorldSizes) {
  // Probe contacts ride the multi-terminal wire protocol (solo spatial
  // announcements, strided T-matrix gather): every world size and stealing
  // mode must reproduce the flat loop bit-for-bit.
  auto make = [] {
    om::SimulationConfig cfg = chain_config(8, /*nk=*/3);
    cfg.point.scattering = buttiker(0.07, {2});
    return cfg;
  };
  om::Simulator reference(make());
  ASSERT_EQ(reference.probe_sites().size(), 1u);
  const auto grid = band_grid(reference);
  const auto base = reference.transmission_spectrum(grid);
  ASSERT_EQ(base.t_matrix.size(), grid.size());
  const auto win = tr::band_window(reference.bands(9));
  const double mid = 0.5 * (win.emin + win.emax);
  const auto base_i =
      reference.terminal_currents(grid, {mid + 0.1, mid - 0.1}, nullptr);
  const auto base_mu = reference.last_probe_tune().mu;

  for (const int ranks : {1, 2, 4}) {
    for (const bool stealing : {true, false}) {
      om::SimulationConfig cfg = make();
      cfg.num_ranks = ranks;
      cfg.work_stealing = stealing;
      om::Simulator sim(cfg);
      const auto sp = sim.transmission_spectrum(grid);
      ASSERT_EQ(sp.t_matrix.size(), base.t_matrix.size());
      for (std::size_t ie = 0; ie < base.t_matrix.size(); ++ie)
        for (std::size_t q = 0; q < base.t_matrix[ie].size(); ++q)
          EXPECT_EQ(sp.t_matrix[ie][q], base.t_matrix[ie][q])
              << "ranks=" << ranks << " stealing=" << stealing << " ie=" << ie
              << " pq=" << q;
      const auto currents =
          sim.terminal_currents(grid, {mid + 0.1, mid - 0.1}, nullptr);
      ASSERT_EQ(currents.size(), base_i.size());
      for (std::size_t c = 0; c < base_i.size(); ++c)
        EXPECT_EQ(currents[c], base_i[c]) << "ranks=" << ranks;
      // Same T table + same Newton loop = bit-identical tuned potentials.
      EXPECT_EQ(sim.last_probe_tune().mu, base_mu);
    }
  }
}

// ------------------------------------------------------------- validation --

TEST(ScatteringPipeline, RejectsProbeOnContactBlock) {
  om::SimulationConfig cfg = chain_config(8);
  cfg.contacts.resize(2);
  cfg.contacts[0].block = 0;
  cfg.contacts[1].block = tr::kLastBlock;
  om::Simulator sim(cfg);
  sim.set_scattering(buttiker(0.1, {0}));  // collides with the source
  const auto grid = band_grid(sim);
  EXPECT_THROW((void)sim.transmission_spectrum(grid), std::invalid_argument);
}
