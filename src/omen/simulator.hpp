// High-level OMEN-style simulator: the public API used by the examples and
// the benchmark harness.
//
// A Simulator owns one device (structure + basis + Hamiltonian blocks) and
// runs transport over energies and transverse momenta with the configured
// OBC and linear-solver algorithms (any registered solvers::Solver backend,
// or kAuto for the cost-model choice).  All (k, E) sweeps — transmission,
// charge, current, and the SCF loop — route through the distributed
// execution engine (omen/engine.hpp): momentum groups sized by the dynamic
// allocation, energy groups pulling from the shared work queue, and with
// ranks_per_energy_group > 1 each solve split spatially across the group's
// ranks — the three-level parallelism of Fig. 9.  num_ranks = 1 runs the
// same task loop with an in-process queue.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "charge/quadrature.hpp"
#include "dft/hamiltonian.hpp"
#include "lattice/structure.hpp"
#include "omen/engine.hpp"
#include "parallel/device.hpp"
#include "poisson/scf.hpp"
#include "scattering/self_energy.hpp"
#include "transport/bands.hpp"
#include "transport/transmission.hpp"

namespace omenx::omen {

using numeric::idx;

/// One terminal of the device as the user configures it — the simulator
/// builds the lead blocks, resolves the attachment block, and threads the
/// result through every engine sweep as a transport::ContactSet.
struct ContactConfig {
  /// Uniform lead potential shift (eV), the per-contact generalization of
  /// ObcOptions::contact_shift.  Mutable after construction through
  /// Simulator::set_contact_shift(contact, shift).
  double shift = 0.0;
  /// Device block the contact attaches to: 0, transport::kLastBlock, or an
  /// interior block (interior attachments need a kMultiTerminal solver:
  /// rgf, block_lu, or kAuto).
  idx block = transport::kLastBlock;
  /// Optional lead material: when set, lead blocks are built from this
  /// structure (dissimilar leads); empty reuses the device's own lead.
  /// Must match the device's orbitals-per-cell (the self-energy block must
  /// fit the device diagonal).
  std::optional<lattice::Structure> material;
};

struct SimulationConfig {
  lattice::Structure structure;
  dft::Functional functional = dft::Functional::kLDA;
  dft::BuildOptions build;
  /// Per-point transport options.  `point.scattering` selects the
  /// dissipation model (scattering::Spec): the default kNone is the exact
  /// ballistic pipeline; buttiker_probe at eta > 0 makes the simulator
  /// materialize the model's probe pseudo-terminals into every sweep's
  /// terminal list and run the zero-current tuning loop where observables
  /// need it (terminal_currents, dissipative charge_density).
  transport::EnergyPointOptions point;
  /// Inner Newton loop of the probe chemical-potential tuning.
  scattering::ProbeTuneOptions probe_tune;
  /// Terminal layout.  Empty = the classic two-identical-contacts device
  /// (source at block 0, drain at the last block, both the device's lead
  /// material) — the seed behavior, bit-identical.  Non-empty layouts are
  /// validated at construction (>= 2 contacts, in-range pairwise-distinct
  /// attachment blocks); a symmetric pair configured explicitly is
  /// normalized by the engine back onto the classic pipeline and stays
  /// bit-identical to the empty layout.
  std::vector<ContactConfig> contacts;
  idx num_k = 1;          ///< transverse momentum points (z-periodic only)
  int num_devices = 2;    ///< emulated accelerators
  double temperature_k = 300.0;
  /// Distribution (Fig. 9): communicator ranks for the momentum/energy
  /// hierarchy.  1 = one rank on the calling thread, the same task loop
  /// with an in-process queue (its buckets still fan out over the thread
  /// pool).
  int num_ranks = 1;
  /// Energy-group width (Fig. 9's spatial level): > 1 makes the
  /// cooperative backends (spike, splitsolve) split each (k, E) solve's
  /// SPIKE partitions across the group's ranks, bit-identically to the
  /// width-1 run for equal `point.partitions`.
  int ranks_per_energy_group = 1;
  bool work_stealing = true;       ///< dynamic balancing between k groups
  /// Cross-sweep OBC boundary caching (per engine rank): the lead
  /// eigenproblem at each (k, E, contact-shift) is solved once and reused
  /// by every later sweep — bit-identical to recomputation.  Benchmarks
  /// turn it off for an honest baseline.
  bool cache_boundaries = true;
  /// Batched execution: fuse queued same-shape (k, E) tasks into batched
  /// numeric::Backend calls with the OBC stage prefetching asynchronously
  /// ahead of the device phase.  Bit-identical to the unbatched path.
  /// Benchmarks turn it off for the single-point baseline.
  bool batch_tasks = true;
  /// Tasks per batched call (also the nominal batch for kAuto resolution).
  int max_batch = 16;
  /// Backend for the batched device phase: "auto" (host-vs-device by the
  /// perf crossover model), "host", "device" (offload through the
  /// simulator's DevicePool), or any registered numeric::Backend name.
  /// Bit-identical spectra/charge for every choice.
  std::string backend = "auto";
};

struct Spectrum {
  std::vector<double> energies;
  std::vector<double> transmission;         ///< k-averaged T(E)
  std::vector<idx> propagating;             ///< k-summed channel counts
  /// Pairwise terminal transmission, k-averaged with the same BZ weights:
  /// t_matrix[ie][p * nc + q] = T_pq(E_ie).  Filled only for >= 3-terminal
  /// layouts (the classic pair is fully described by `transmission`).
  std::vector<std::vector<double>> t_matrix;
};

class Simulator {
 public:
  explicit Simulator(SimulationConfig config);

  const SimulationConfig& config() const noexcept { return config_; }
  const dft::LeadBlocks& lead_blocks(idx ik = 0) const;
  const dft::FoldedLead& folded_lead(idx ik = 0) const;

  /// Band structure of the (first-k) lead.
  transport::BandStructure bands(idx nk = 21) const;

  /// N_SS of the assembled device (atoms x orbitals).
  idx hamiltonian_dimension() const;

  /// T(E) over `energies`, averaged over the k grid with trapezoidal BZ
  /// weights (the closed [0, pi] grid half-weights both zone edges), with a
  /// flat potential or the provided per-cell potential.  Parallel over
  /// (k, E).
  Spectrum transmission_spectrum(
      const std::vector<double>& energies,
      const std::vector<double>* cell_potential = nullptr);

  /// Full observables at one energy (first k point).
  transport::EnergyPointResult solve_point(
      double energy, const std::vector<double>* cell_potential = nullptr);

  /// Ballistic two-contact charge per physical cell, integrated with the
  /// selected charge::Quadrature backend.  The default kRealGrid fills
  /// source-injected states at mu_l and drain-injected states at mu_r under
  /// trapezoid weights on `energies` (valid on non-uniform/adaptive grids)
  /// — bit-identical to the pre-registry charge path.  kContour sweeps the
  /// equilibrium window below min(mu_l, mu_r) on the complex contour
  /// (Green's-function nodes solved by the same engine sweep) and keeps
  /// only the non-equilibrium window of `energies` on the real axis.
  /// `energies` must hold >= 2 strictly increasing points (it anchors the
  /// spectral window even when the contour replaces it); throws
  /// std::invalid_argument otherwise.
  ///
  /// Deprecated in favor of the per-terminal overload below: this is the
  /// classic two-contact entry point, kept as a thin forwarding wrapper so
  /// existing examples and tests compile unchanged.  mu_l occupies the
  /// contact attached at block 0, mu_r the one at the last block.  Throws
  /// std::invalid_argument when >= 3 contacts are configured.
  std::vector<double> charge_density(
      const std::vector<double>& energies, double mu_l, double mu_r,
      const std::vector<double>* potential,
      charge::QuadratureAlgorithm quadrature =
          charge::QuadratureAlgorithm::kRealGrid,
      const charge::QuadratureOptions& quadrature_options = {});

  /// N-terminal charge per physical cell: contact p's injected density is
  /// occupied at mu[p] (one entry per configured contact, terminal order).
  /// Two-terminal layouts forward to the classic pair path above
  /// (bit-identical weights); >= 3 terminals integrate per-contact
  /// trapezoid-times-Fermi weights on `energies` (real-grid only — the
  /// contour's equilibrium/bias split is a two-reservoir construction).
  std::vector<double> charge_density(
      const std::vector<double>& energies, const std::vector<double>& mu,
      const std::vector<double>* potential,
      charge::QuadratureAlgorithm quadrature =
          charge::QuadratureAlgorithm::kRealGrid,
      const charge::QuadratureOptions& quadrature_options = {});

  /// Terminal currents I_p (2e/h * eV units, positive into the device) of
  /// the configured contact layout at the given chemical potentials:
  /// the Buettiker sum over the k-averaged T_pq spectrum.  sum_p I_p
  /// vanishes to rounding (transport::buttiker_currents's antisymmetric
  /// accumulation).  Two-terminal layouts reduce to {+I, -I} of the
  /// Landauer current.
  std::vector<double> terminal_currents(const std::vector<double>& energies,
                                        const std::vector<double>& mu,
                                        const std::vector<double>* potential);

  /// Adaptive energy grid for the given potential: bisect the base grid
  /// where the transmission (Caroli under decimation) jumps by more than
  /// `tol` — unlike the lead's propagating-mode count, the transmission
  /// sees the device potential, so refinement clusters at the band edges
  /// and barrier steps the potential moves.  Every refinement pass is
  /// evaluated as one engine sweep (the midpoint solves distribute exactly
  /// like any other (k, E) sweep).  Used by the SCF loop.
  std::vector<double> adaptive_energy_grid(
      std::vector<double> base, const std::vector<double>* cell_potential,
      double tol = 0.5, double min_spacing = 1e-3);

  /// Ballistic drain current (2e/h * eV units) through the device with the
  /// given potential profile.
  double current(const std::vector<double>& energies, double mu_l, double mu_r,
                 const std::vector<double>* potential);

  /// Self-consistent Id(Vgs) sweep: for each gate bias run the
  /// Schroedinger-Poisson loop with the two-contact ballistic charge model
  /// and integrate the Landauer current.  With `scf.warm_start` each bias
  /// point starts from the previous point's converged potential instead of
  /// the Laplace solution; with `scf.adaptive_energy_grid` the grid is
  /// regenerated from `energies` every outer SCF iteration
  /// (adaptive_energy_grid), so refinement follows the band edges as the
  /// potential converges.
  struct IvPoint {
    double vgs;
    double current;
    int scf_iterations;
    bool converged;
    std::vector<double> potential;  ///< converged per-cell potential (eV)
  };
  /// `mu_source` is the source Fermi level (eV, absolute); the drain sits
  /// at mu_source - vds.
  std::vector<IvPoint> transfer_characteristics(
      const std::vector<double>& vgs_values, double vds,
      const lattice::DeviceRegions& regions,
      const std::vector<double>& energies, double mu_source,
      const poisson::ScfOptions& scf = {});

  /// Execution statistics of the most recent engine sweep (task counts,
  /// stolen tasks, per-rank busy time).
  const EngineStats& last_sweep_stats() const noexcept { return stats_; }

  /// Cumulative (k, E) solves issued across every engine sweep since
  /// construction or the last reset — wave-function tasks plus contour
  /// Green's-function nodes.  The charge-quadrature benchmark reads this to
  /// compare backends on total solve count, which last_sweep_stats() (one
  /// sweep only) cannot provide across an SCF iteration history.
  idx total_tasks_issued() const noexcept { return total_tasks_; }
  void reset_task_counter() noexcept { total_tasks_ = 0; }

  /// Set the uniform lead (contact) potential shift handed to the OBC
  /// stage.  A changed value invalidates the boundary caches at the next
  /// sweep (the engine detects the option change, exactly once); an
  /// unchanged value keeps every cached lead solve.
  ///
  /// Deprecated in favor of set_contact_shift(contact, shift): this is the
  /// uniform-shift wrapper, forwarding the one value to every configured
  /// contact (and to the classic ObcOptions::contact_shift).
  void set_contact_shift(double shift);

  /// Per-contact lead potential shift.  The engine's per-contact
  /// signatures detect the change and drop exactly that contact's cache
  /// entries at the next sweep — the other contacts keep their cached lead
  /// solves.  Throws std::invalid_argument for an out-of-range index.
  void set_contact_shift(idx contact, double shift);

  /// Number of configured contacts (0 = the implicit classic pair).
  idx num_contacts() const noexcept {
    return static_cast<idx>(config_.contacts.size());
  }

  /// Swap the scattering model (scattering::Spec) and rebuild the probe
  /// layout against the configured contacts.  kNone (or buttiker_probe at
  /// eta <= 0) restores the exact ballistic pipeline.  Lead boundary caches
  /// survive: none of the built-in models modifies a contact boundary
  /// (scattering::kModifiesBoundaries), so cached lead solves stay valid —
  /// and are *shared* between ballistic and dissipative sweeps.
  void set_scattering(const scattering::Spec& spec);

  /// Probe pseudo-terminals the configured model attaches (empty =
  /// ballistic).  Terminal order of every sweep is [real contacts...,
  /// probes in this order].
  const std::vector<scattering::ProbeSite>& probe_sites() const noexcept {
    return probe_sites_;
  }

  /// Result of the most recent probe-tuning pass (terminal_currents or a
  /// dissipative charge_density): tuned mu per terminal, Newton iteration
  /// count, and the final relative probe-current leak.
  const scattering::ProbeTuneResult& last_probe_tune() const noexcept {
    return last_tune_;
  }

  /// Drop every cached boundary (lead electrostatics changed by other
  /// means, or to bound the footprint between very different workloads).
  void invalidate_boundary_cache();

  /// Cumulative boundary-cache counters of the engine's per-rank caches.
  obc::BoundaryCache::Stats boundary_cache_stats() const;

  /// Cumulative counters of one contact's cache entries (classic requests
  /// fetch under contact id 0).
  obc::BoundaryCache::Stats contact_boundary_cache_stats(idx contact) const;

 private:
  /// Builds the SweepContact list (+ lead-table pointer) for one request;
  /// no-op for the empty classic layout.  `mu` (terminal order, optional)
  /// fills the per-contact chemical potentials.
  void attach_contacts(SweepRequest& req, const std::vector<double>* mu) const;

  /// Terminal indices of the classic pair: .first attaches at block 0,
  /// .second at the last block.  Only valid for two-contact layouts.
  std::pair<idx, idx> classic_pair_indices() const;

  /// Recompute probe_sites_ from the configured scattering model against
  /// the device's block layout and contact attachment blocks.
  void rebuild_probe_sites();

  /// Tune the probe potentials against a swept pairwise T matrix: `mu`
  /// holds the real terminals' potentials (terminal order); probes start
  /// from their mean.  Records the result in last_tune_ and the probe
  /// counters in stats_.  Returns the full tuned mu vector.
  const std::vector<double>& tune_probes(const Spectrum& sp,
                                         const std::vector<double>& mu);

  /// Two-pass dissipative charge: T sweep + probe tuning, then a
  /// per-terminal real-grid charge sweep where every terminal (probes at
  /// their tuned mu_p included) occupies its injected states with its own
  /// Fermi weight.
  std::vector<double> dissipative_charge(const std::vector<double>& energies,
                                         const std::vector<double>& mu,
                                         const std::vector<double>* potential);

  SimulationConfig config_;
  std::vector<dft::LeadBlocks> lead_;    ///< one per k point
  std::vector<dft::FoldedLead> folded_;  ///< one per k point
  std::vector<double> k_values_;
  /// Lead blocks of the distinct contact materials: [material][ik], the
  /// table SweepRequest::contact_leads points at.  One row per configured
  /// contact with a material override, in contact order.
  std::vector<std::vector<dft::LeadBlocks>> contact_leads_;
  std::vector<std::vector<dft::FoldedLead>> contact_folded_;
  /// Per contact: row index into contact_leads_, or -1 for the device's
  /// own lead material.
  std::vector<int> contact_material_;
  /// Resolved attachment block per contact (kLastBlock -> last), validated
  /// in-range and pairwise distinct at construction.
  std::vector<idx> contact_blocks_;
  idx device_blocks_ = 0;  ///< block count of the assembled device
  /// Probe pseudo-terminals of the configured scattering model, resolved
  /// against device_blocks_ and contact_blocks_ (empty = ballistic).
  std::vector<scattering::ProbeSite> probe_sites_;
  /// Most recent probe-tuning pass (see last_probe_tune()).
  scattering::ProbeTuneResult last_tune_;
  std::unique_ptr<parallel::DevicePool> pool_;
  std::unique_ptr<Engine> engine_;       ///< all sweeps route through this
  EngineStats stats_;
  idx total_tasks_ = 0;  ///< cumulative solves (see total_tasks_issued)
  double kt_ = 0.0259;
  /// Lead spectral minimum at k = 0 (eV, zero potential), computed once at
  /// construction: the contour quadrature anchors below
  /// band_min + min(0, potential) + min(0, contact_shift) - margin.
  double lead_band_min_ = 0.0;
};

}  // namespace omenx::omen
