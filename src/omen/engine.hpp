// Distributed execution engine for the (k, E) transport workload — the
// Fig. 9 hierarchy wired end-to-end over CommWorld ranks.
//
// The engine maps the paper's three-level communicator hierarchy onto a
// rank world:
//   momentum level: the world splits into one group per k point, sized by
//     allocate_groups (the dynamic node-group allocation of Ref. [45]);
//     with fewer ranks than k points every rank becomes a group that owns
//     several k.
//   energy level:   each momentum group splits into energy groups whose
//     leaders pull (k, E) tasks from the coordinator's queue; when a
//     group's own k runs dry it is handed points of the most-loaded other
//     k (work stealing between groups).
//   spatial level:  each energy group receives a slice of the node's
//     emulated accelerators (DevicePool::slice) and, with
//     ranks_per_energy_group > 1, solves each (k, E) task *cooperatively*:
//     the group leader runs the OBCs and the SPIKE reduced system while the
//     members compute their share of the SPIKE partitions on their own copy
//     of A = E*S - H (solvers::spike_partition_owner) — one task, many
//     ranks, bit-identical to the width-1 solve for equal partition counts.
// Every leader buffers its tasks into a bucket keyed by (block shape, task
// kind) and flushes it either through the batched pipeline (solvers that
// advertise kBatchable) or as one thread-pool loop on the workers'
// thread-local contexts.  Inputs travel once: the root sends each
// momentum-group leader its lead blocks, the leader rebroadcasts inside the
// group (broadcast_lead_blocks); a stolen k's blocks are fetched from the
// coordinator on first use and cached.  Results return through gatherv,
// assembled deterministically by flat task index, so the spectrum is
// identical for any world size.
//
// World size 1 is the same loop with an in-process queue: rank 0's leader
// takes its tasks straight from the coordinator it owns (so do its stolen
// blocks), the queue service thread starts only when another leader
// exists, and assembly reads the leader's own buffers instead of a gather.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dft/hamiltonian.hpp"
#include "numeric/device_backend.hpp"
#include "numeric/types.hpp"
#include "obc/boundary_cache.hpp"
#include "parallel/device.hpp"
#include "transport/transmission.hpp"

namespace omenx::omen {

using numeric::idx;

struct EngineConfig {
  int num_ranks = 1;               ///< world size (momentum x energy ranks)
  /// Energy-group width — the spatial level of Fig. 9.  Width w > 1 gives
  /// each (k, E) task to a whole group: cooperative backends (spike,
  /// splitsolve) split their `partitions` SPIKE partitions across the w
  /// ranks; non-cooperative backends leave the extra ranks idle.  Spectra
  /// are bit-identical across widths for equal partition counts.
  int ranks_per_energy_group = 1;
  bool work_stealing = true;       ///< hand idle groups other k's points
  /// Per-rank OBC boundary caches, persistent across run() calls: the lead
  /// eigenproblem at a (k, E, contact-shift) key is solved once per rank
  /// and reused by every later sweep that revisits the point (SCF outer
  /// iterations, bias points, adaptive-grid passes).  Bit-identical to the
  /// uncached path — a hit replays the stored Boundary verbatim.  Off =
  /// recompute every evaluation (benchmark baseline).
  bool cache_boundaries = true;
  /// Fuse queued same-shape (k, E) tasks into batched numeric::Backend
  /// calls (transport::solve_energy_batch): the OBC stage of the whole
  /// bucket prefetches asynchronously while the device phase issues Step 1
  /// / block-LU factorizations as single batched calls.  Only solvers
  /// advertising kBatchable participate; spatial groups (width > 1) always
  /// solve cooperatively, one point at a time.  Bit-identical to the
  /// unbatched path, task by task.  Off = every bucket runs as a
  /// thread-pool loop of solve_energy_point calls (benchmark baseline).
  bool batch_tasks = true;
  /// Bucket capacity — how many queued tasks one leader accumulates before
  /// a batched call (a thread-pool bucket holds this many per pool thread
  /// of the leader's share).  Also the *nominal* batch fed to kAuto
  /// resolution (rank-invariant, never the actual bucket fill, so every
  /// rank resolves the same backend).
  int max_batch = 16;
  /// Which numeric::Backend executes the batched device phase:
  ///   "auto"   — per shape bucket, host lanes vs device streams by the
  ///              perf::estimate_batch_seconds crossover (host wins without
  ///              an engine pool);
  ///   "host"   — always the thread-pool lanes;
  ///   "device" — always offload through this engine's DevicePool (each
  ///              leader drives its pool slice; degrades to host when the
  ///              engine was built without a pool);
  ///   any other registered backend name (numeric::register_backend).
  /// Every choice is bit-identical — backends run the same scalar kernels
  /// per item — so this only moves work and transfer accounting.  Unknown
  /// names throw std::invalid_argument from run().
  std::string backend = "auto";
};

/// One terminal of a sweep, in wire-friendly scalar form: every rank reads
/// these scalars straight from the shared request object (mu and the
/// per-contact cache-key ingredients never need explicit messages); only
/// the lead *matrices* travel through the communicator.
struct SweepContact {
  /// Chemical potential (eV).  The engine records it into the per-k
  /// ContactSet; charge weighting itself arrives pre-computed through the
  /// density-weight tables, and terminal currents are integrated by the
  /// caller (transport::buttiker_currents) from the returned T matrix.
  double mu = 0.0;
  double shift = 0.0;  ///< per-contact lead potential shift (eV)
  /// Attachment block: 0, transport::kLastBlock, or an interior block
  /// (interior blocks need a kMultiTerminal solver: rgf/block_lu/auto).
  idx block = transport::kLastBlock;
  /// Lead material: -1 = this k's entry of `leads` (the classic material),
  /// m >= 0 = row m of `contact_leads`.
  int material = -1;
  /// Büttiker-probe strength (eV).  > 0 marks this terminal as a lead-less
  /// phenomenological probe (transport::Contact::probe_eta): no lead blocks
  /// travel or cache for it, its self-energy is the local -i*eta*I, and
  /// `material` must stay -1 (validate_request).  mu is the probe potential,
  /// normally pre-tuned by the caller (scattering::tune_probe_potentials).
  double probe_eta = 0.0;
};

/// Inputs of one distributed (k, E) sweep.  Only the root reads the lead
/// matrices; every other rank sees grid shapes and scalar options and
/// receives matrices through the communicator.
struct SweepRequest {
  const std::vector<dft::LeadBlocks>* leads = nullptr;  ///< per k, root only
  /// Optional pre-folded leads (same indexing as `leads`, root only): ranks
  /// holding the originals reuse them instead of re-folding every run —
  /// the SCF loop sweeps the same leads dozens of times.
  const std::vector<dft::FoldedLead>* folded = nullptr;
  std::vector<std::vector<double>> energies;            ///< per-k grids
  std::vector<double> potential;                        ///< per physical cell
  idx cells = 0;
  transport::EnergyPointOptions point;
  /// When non-empty (same shape as `energies`), each task also folds
  /// weight[ik][ie] * density_per_cell into a per-cell charge accumulator
  /// that is reduce()d to the root.  `density_weight` multiplies the
  /// source-injected density (states occupied at mu_L); the optional
  /// `density_weight_r` (same shape) multiplies the drain-injected density
  /// (occupied at mu_R) — the two-contact ballistic charge.  Empty
  /// `density_weight_r` means the drain contribution is dropped.
  std::vector<std::vector<double>> density_weight;
  std::vector<std::vector<double>> density_weight_r;
  /// Complex-plane Green's-function nodes per k (contour charge
  /// quadrature, charge::Quadrature).  When non-empty (same k-shape as
  /// `energies`; per-k grids may be empty), each node z becomes one extra
  /// task solving the diagonal of G = (zS - H - Sigma)^{-1} and folding
  /// Im(gf_weights[ik][in] * G_ii) into the per-cell charge accumulator.
  /// GF tasks ride the same queue, stealing, caching (keyed with Im(E)),
  /// and deterministic flat-order assembly as the real-axis tasks; they
  /// contribute charge only — no transmission entries.
  std::vector<std::vector<numeric::cplx>> gf_nodes;
  std::vector<std::vector<numeric::cplx>> gf_weights;  ///< same shape
  /// Terminal layout.  Empty = the classic two-identical-contacts sweep
  /// (exactly the pre-refactor pipeline).  A symmetric classic pair (two
  /// material -1 contacts with equal shifts at {0, last}) is *normalized
  /// back onto that pipeline* — batching, spatial cooperation, and cache
  /// keys included — so the symmetric limit stays bit-identical at every
  /// world size.  Anything else routes each task through the ContactSet
  /// entry points; batching is disabled for those requests.
  std::vector<SweepContact> contacts;
  /// Extra lead materials, indexed [material][ik] (root only, like
  /// `leads`).  Referenced by SweepContact::material.
  const std::vector<std::vector<dft::LeadBlocks>>* contact_leads = nullptr;
  /// Per-contact density weights for >= 3-terminal charge:
  /// [contact][ik][ie] multiplies contact p's injected per-cell density
  /// (its own Fermi weight at mu_p).  Mutually exclusive with
  /// `density_weight`; 2-terminal requests keep the classic pair of
  /// weight tables.
  std::vector<std::vector<std::vector<double>>> density_weight_contacts;
};

struct EngineStats {
  int ranks = 1;
  int energy_groups = 1;
  idx tasks_total = 0;               ///< real-axis + Green's-function tasks
  idx tasks_greens = 0;              ///< contour (complex-node) solves within
  idx tasks_stolen = 0;              ///< served outside the group's own k
  std::vector<idx> tasks_per_rank;
  /// Wall seconds each rank spent solving: a leader's flushes and
  /// cooperative solves, a spatial member's served partitions.  Each entry
  /// is at most wall_seconds, however many pool threads a flush used.
  std::vector<double> busy_seconds_per_rank;
  double wall_seconds = 0.0;
  // --- batched-execution counters (zero when batch_tasks is off or the
  // resolved solver lacks kBatchable) ---------------------------------
  idx batches_issued = 0;       ///< batched pipeline invocations
  double mean_batch_size = 0.0;  ///< tasks per batch, averaged over batches
  idx prefetch_hits = 0;        ///< boundary-cache hits during OBC prefetch
  idx prefetch_misses = 0;      ///< prefetch misses (or caching disabled)
  // --- device-offload counters (zero on the host backend) --------------
  idx device_batches = 0;   ///< batches whose device phase was offloaded
  idx residency_hits = 0;   ///< staged operands already device-resident
  idx residency_misses = 0;  ///< staged operands that paid an H2D transfer
  double h2d_bytes = 0.0;   ///< host->device bytes this run (pool delta)
  double d2h_bytes = 0.0;   ///< device->host bytes this run (pool delta)
  /// Per pool device: kernel-busy seconds accumulated during this run —
  /// the Fig. 12(b) occupancy timeline's integral.  Empty without a pool.
  std::vector<double> device_busy_seconds;
  // --- dissipative-transport counters (zero for ballistic sweeps; the
  // probe-tuning loop runs *above* the engine, so these are filled by the
  // caller that owns it — omen::Simulator records its last tuning pass
  // here before handing the stats out) --------------------------------
  idx probe_terminals = 0;        ///< Büttiker probes attached per task
  idx probe_iterations = 0;       ///< Newton iterations of the tuning loop
  double probe_residual = 0.0;    ///< final max |I_probe| / max |I_terminal|
  /// Per-contact boundary-cache activity of *this run* (deltas of the
  /// persistent caches, summed over ranks; index = contact id).  Empty for
  /// classic requests (no `contacts`) or when caching is disabled.  The
  /// per-contact lead-solve count of a run is `misses` (every miss is one
  /// OBC eigenproblem for that contact).
  std::vector<obc::BoundaryCache::Stats> contact_cache_stats;
};

/// Sweep outputs, valid on the calling (root) thread.
struct SweepResult {
  std::vector<std::vector<double>> transmission;  ///< [ik][ie] wave-function
  std::vector<std::vector<double>> caroli;        ///< [ik][ie] Green's-fn
  std::vector<std::vector<idx>> propagating;      ///< [ik][ie] channels
  std::vector<double> charge;                     ///< per cell, if requested
  /// Pairwise transmission [ik][ie][p*nc+q] — only shaped/filled for
  /// >= 3-terminal requests (2-terminal T stays in `transmission`/`caroli`).
  std::vector<std::vector<std::vector<double>>> t_matrix;
  EngineStats stats;
};

class Engine {
 public:
  explicit Engine(EngineConfig config, parallel::DevicePool* pool = nullptr);

  const EngineConfig& config() const noexcept { return config_; }

  /// Run the full sweep over a fresh CommWorld of config().num_ranks ranks;
  /// size 1 runs the same task loop with an in-process queue and sends no
  /// message.  A throwing solve or transfer on any rank drains the queue
  /// protocol and the assembly collectives before surfacing here as an
  /// exception — the world never deadlocks on a failed rank.
  SweepResult run(const SweepRequest& request);

  /// Drop every rank's cached boundaries *and* device-resident operands.
  /// Call when the lead electrostatics change (contact shift, lead
  /// Hamiltonian) — stale entries are unreachable once the key changes,
  /// but holding them wastes the footprint (and device memory).
  void invalidate_boundary_caches();

  /// Cumulative hit/miss/insert/invalidate counters summed over the
  /// per-rank caches (zeros when caching is disabled).
  obc::BoundaryCache::Stats boundary_cache_stats() const;

  /// Cumulative counters of one contact id, summed over the per-rank
  /// caches.  Classic (no-contacts) requests fetch under contact id 0.
  obc::BoundaryCache::Stats contact_boundary_cache_stats(int contact) const;

 private:
  SweepResult sweep(const SweepRequest& request);
  /// Rank `rank`'s persistent cache, or nullptr when caching is off.
  obc::BoundaryCache* rank_cache(int rank) const;
  /// Rank `rank`'s persistent device-residency cache, or nullptr when the
  /// engine has no pool.
  numeric::ResidencyCache* rank_residency(int rank) const;

  EngineConfig config_;
  parallel::DevicePool* pool_;
  /// One cache per world rank, created up front so rank threads never race
  /// on the vector.
  std::vector<std::unique_ptr<obc::BoundaryCache>> caches_;
  /// One device-residency cache per world rank, same indexing and lifetime
  /// discipline as caches_: the pool's devices outlive every run(), so
  /// operands staged in one sweep hit residency in the next (the cross-SCF
  /// story), and the caches are dropped together with the boundary caches
  /// when the inputs behind the stable ids change.  Empty without a pool.
  std::vector<std::unique_ptr<numeric::ResidencyCache>> residency_;
  /// OBC options of the previous run(): the backend is part of the cache
  /// key, but a changed option set (annulus, ridge, eta, ...) would
  /// silently replay stale Boundaries — run() invalidates on mismatch.
  std::optional<obc::ObcOptions> last_obc_opts_;
  /// Content fingerprint of the previous run()'s lead matrices: different
  /// lead Hamiltonians under the same (k, E) keys would collide with the
  /// cached Boundaries, and pointer identity can't tell (a reused stack
  /// vector reallocates at the same address; in-place edits keep the
  /// address).  Hashing the entries once per run is noise next to the
  /// sweep itself.
  std::optional<std::uint64_t> last_leads_hash_;
  /// Per-contact signatures (lead-material fingerprint + shift + block) of
  /// the previous contact-mode run(): a change in one contact's lead or
  /// shift drops only that contact's cache entries (invalidate_contact)
  /// instead of the whole cache — the dissimilar-lead independence the
  /// per-contact keys exist for.
  std::optional<std::vector<std::uint64_t>> last_contact_sigs_;
};

}  // namespace omenx::omen
