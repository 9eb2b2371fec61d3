#include "omen/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "numeric/backend.hpp"
#include "numeric/device_backend.hpp"
#include "omen/scheduler.hpp"
#include "parallel/comm.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/machine.hpp"
#include "solvers/solver.hpp"
#include "solvers/spike.hpp"
#include "transport/batch.hpp"

namespace omenx::omen {

namespace {

using parallel::Comm;

// Engine protocol tags (user tag space).  All queue traffic converges on
// the coordinator through kTagRequest with an any-source recv; requesters
// are identified by Comm::Status, not by per-rank magic tags.
constexpr int kTagRequest = 901;  ///< {kind, arg}: kind 0 = task (arg =
                                  ///< color), kind 1 = fetch (arg = k)
constexpr int kTagAssign = 902;   ///< {ik, ie}; ik < 0 means done
constexpr int kTagBlocks = 903;   ///< lead-block streams (init + fetch)

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Momentum-level rank layout, computed identically on every rank: which
/// world ranks form which k group, and which k points each group owns.
struct Layout {
  int world = 1;
  int width = 1;  ///< energy-group width (ranks per energy group)
  int num_groups = 1;
  int num_leaders = 0;
  std::vector<int> color_of_rank;
  std::vector<int> group_first_rank;
  std::vector<int> group_size;
  std::vector<std::vector<idx>> owned;  ///< k points per color
  std::vector<idx> e_prefix;            ///< flat-task-index base per k
  /// Real-axis task count per k: within a k's flat range, local indices
  /// ie < n_real[k] are wave-function energy points and ie >= n_real[k]
  /// are Green's-function contour nodes (node index ie - n_real[k]).
  std::vector<idx> n_real;
  idx total_tasks = 0;

  Layout(const SweepRequest& req, int world_size, int width_in)
      : world(world_size), width(std::max(1, width_in)) {
    const int nk = static_cast<int>(req.energies.size());
    e_prefix.assign(static_cast<std::size_t>(nk) + 1, 0);
    n_real.assign(static_cast<std::size_t>(nk), 0);
    std::vector<idx> counts(static_cast<std::size_t>(nk), 0);
    for (int k = 0; k < nk; ++k) {
      const auto sk = static_cast<std::size_t>(k);
      n_real[sk] = static_cast<idx>(req.energies[sk].size());
      counts[sk] = n_real[sk];
      if (!req.gf_nodes.empty())
        counts[sk] += static_cast<idx>(req.gf_nodes[sk].size());
      e_prefix[sk + 1] = e_prefix[sk] + counts[sk];
    }
    total_tasks = e_prefix.back();

    color_of_rank.assign(static_cast<std::size_t>(world), 0);
    if (world >= nk) {
      // One momentum group per k point, sized by the dynamic allocation.
      num_groups = nk;
      const auto per_k = allocate_groups(counts, world);
      owned.resize(static_cast<std::size_t>(nk));
      int r = 0;
      for (int c = 0; c < nk; ++c) {
        group_first_rank.push_back(r);
        group_size.push_back(per_k[static_cast<std::size_t>(c)]);
        owned[static_cast<std::size_t>(c)] = {static_cast<idx>(c)};
        for (int i = 0; i < per_k[static_cast<std::size_t>(c)]; ++i)
          color_of_rank[static_cast<std::size_t>(r++)] = c;
      }
    } else {
      // Fewer ranks than k points: every rank is a group owning a round-
      // robin share of the momenta.
      num_groups = world;
      owned.resize(static_cast<std::size_t>(world));
      for (int r = 0; r < world; ++r) {
        color_of_rank[static_cast<std::size_t>(r)] = r;
        group_first_rank.push_back(r);
        group_size.push_back(1);
      }
      for (int k = 0; k < nk; ++k)
        owned[static_cast<std::size_t>(k % world)].push_back(
            static_cast<idx>(k));
    }
    for (int c = 0; c < num_groups; ++c)
      num_leaders += leaders_in_group(c);
  }

  int color(int rank) const {
    return color_of_rank[static_cast<std::size_t>(rank)];
  }
  int leaders_in_group(int c) const {
    return (group_size[static_cast<std::size_t>(c)] + width - 1) / width;
  }
  /// Global index of energy group `egroup` of color `c` (device slicing).
  int leader_index(int c, int egroup) const {
    int base = 0;
    for (int i = 0; i < c; ++i) base += leaders_in_group(i);
    return base + egroup;
  }
  /// Map a flat task index back to (ik, ie).
  std::pair<idx, idx> unflatten(idx flat) const {
    const auto it =
        std::upper_bound(e_prefix.begin(), e_prefix.end(), flat) - 1;
    const idx ik = static_cast<idx>(it - e_prefix.begin());
    return {ik, flat - *it};
  }
  /// Is local task index `ie` of momentum `ik` a Green's-function node?
  bool is_greens(idx ik, idx ie) const {
    return ie >= n_real[static_cast<std::size_t>(ik)];
  }
};

/// The shared work queue (coordinator side): per-k deques drained by the
/// energy-group leaders' pulls, with stealing from the most-loaded k once a
/// group's own momenta run dry.  Rank 0's leader pulls straight from here;
/// every other leader pulls through serve_queue's messages, so the two
/// pickers share the mutex.
struct Coordinator {
  const Layout& lay;
  bool stealing;
  std::vector<std::deque<idx>> queue;  ///< remaining ie per k
  idx stolen = 0;
  std::mutex mutex;

  Coordinator(const Layout& layout, const SweepRequest& req, bool steal)
      : lay(layout), stealing(steal) {
    // Real-axis tasks first, then the k's Green's-function nodes — the
    // local index space the Layout defines (is_greens).
    queue.resize(req.energies.size());
    for (std::size_t k = 0; k < req.energies.size(); ++k) {
      const idx count = lay.e_prefix[k + 1] - lay.e_prefix[k];
      for (idx ie = 0; ie < count; ++ie) queue[k].push_back(ie);
    }
  }

  /// The next task for a leader of `color`; false once none is left for it.
  bool next(int color, idx& ik, idx& ie) {
    const std::lock_guard lock(mutex);
    for (const idx k : lay.owned[static_cast<std::size_t>(color)]) {
      auto& q = queue[static_cast<std::size_t>(k)];
      if (!q.empty()) {
        ik = k;
        ie = q.front();
        q.pop_front();
        return true;
      }
    }
    if (!stealing) return false;
    int best = -1;
    std::size_t most = 0;
    for (std::size_t k = 0; k < queue.size(); ++k)
      if (queue[k].size() > most) {
        most = queue[k].size();
        best = static_cast<int>(k);
      }
    if (best < 0) return false;
    auto& q = queue[static_cast<std::size_t>(best)];
    ik = static_cast<idx>(best);
    ie = q.back();  // steal from the tail: the owner keeps draining the head
    q.pop_back();
    ++stolen;
    return true;
  }
};

void send_lead_blocks(Comm& comm, int dst, const dft::LeadBlocks& lead) {
  comm.send({static_cast<double>(lead.h.size())}, dst, kTagBlocks);
  for (std::size_t i = 0; i < lead.h.size(); ++i) {
    comm.send_matrix(lead.h[i], dst, kTagBlocks);
    comm.send_matrix(lead.s[i], dst, kTagBlocks);
  }
}

dft::LeadBlocks recv_lead_blocks(Comm& comm, int src) {
  const auto meta = comm.recv(src, kTagBlocks);
  const auto n = static_cast<std::size_t>(meta.at(0));
  dft::LeadBlocks lead;
  lead.h.resize(n);
  lead.s.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    lead.h[i] = comm.recv_matrix(src, kTagBlocks);
    lead.s[i] = comm.recv_matrix(src, kTagBlocks);
  }
  return lead;
}

/// Is the request's terminal layout the classic symmetric pair (or no
/// contacts at all)?  Symmetric requests are normalized back onto the
/// pre-refactor pipeline — same batching, same spatial cooperation, same
/// cache keys — so the symmetric limit stays bit-identical at every world
/// size.  The comparison is on the *literal* block values {0, kLastBlock}:
/// the engine has no device length here, and that pair is how the simulator
/// spells the classic ends.
bool contacts_are_classic_symmetric(const SweepRequest& req) {
  if (req.contacts.empty()) return true;
  if (req.contacts.size() != 2) return false;
  const SweepContact& a = req.contacts[0];
  const SweepContact& b = req.contacts[1];
  if (a.material >= 0 || b.material >= 0) return false;
  if (a.probe_eta > 0.0 || b.probe_eta > 0.0) return false;
  if (a.shift != b.shift) return false;
  return (a.block == 0 && b.block == transport::kLastBlock) ||
         (a.block == transport::kLastBlock && b.block == 0);
}

/// Lead materials that travel beside the classic per-k blocks: every row of
/// contact_leads, but only for contact-mode requests (a symmetric classic
/// pair references material -1 exclusively and ships nothing extra).
std::size_t num_extra_materials(const SweepRequest& req) {
  if (contacts_are_classic_symmetric(req)) return 0;
  return req.contact_leads != nullptr ? req.contact_leads->size() : 0;
}

/// Two contacts at the classic ends of an nb-block device (either order)?
/// Those route through solve_boundary and may still cooperate spatially;
/// anything else is a solo kMultiTerminal solve on the group leader.
bool classic_pair_blocks(const SweepRequest& req, idx nb) {
  if (req.contacts.size() != 2) return false;
  const auto resolve = [nb](idx b) { return b < 0 ? nb - 1 : b; };
  const idx b0 = resolve(req.contacts[0].block);
  const idx b1 = resolve(req.contacts[1].block);
  return (b0 == 0 && b1 == nb - 1) || (b0 == nb - 1 && b1 == 0);
}

/// The request's terminal layout over one k's materials.  `lead`/`folded`
/// are the classic (material -1) blocks; `extras`/`extra_folded` index the
/// materials >= 0.  Every referenced object must outlive the returned set.
transport::ContactSet build_contact_set(
    const SweepRequest& req, const dft::LeadBlocks& lead,
    const dft::FoldedLead& folded, const std::vector<dft::LeadBlocks>& extras,
    const std::vector<dft::FoldedLead>& extra_folded) {
  std::vector<transport::Contact> cs;
  cs.reserve(req.contacts.size());
  for (const SweepContact& sc : req.contacts) {
    transport::Contact c;
    if (sc.probe_eta > 0.0) {
      // Büttiker probe: no lead material travels or caches for this
      // terminal — its self-energy is the local -i*eta*I.
      c.probe_eta = sc.probe_eta;
    } else if (sc.material < 0) {
      c.lead = &lead;
      c.folded = &folded;
    } else {
      c.lead = &extras[static_cast<std::size_t>(sc.material)];
      c.folded = &extra_folded[static_cast<std::size_t>(sc.material)];
    }
    c.mu = sc.mu;
    c.shift = sc.shift;
    c.block = sc.block;
    if (c.lead != nullptr) c.lead_hash = transport::lead_content_hash(*c.lead);
    cs.push_back(c);
  }
  return transport::ContactSet(std::move(cs));
}

/// Coordinator service loop for the leaders other than rank 0's: runs on a
/// helper thread next to rank 0's own worker (point-to-point only —
/// collectives stay on the rank thread), and only when such a leader
/// exists.  On an internal error every other leader gets a done marker so
/// the world drains and rethrows instead of hanging in recv.
void serve_queue(Comm comm, Coordinator& co, const SweepRequest& req,
                 std::exception_ptr& error) {
  const Layout& lay = co.lay;
  int done_sent = 0;
  try {
    while (done_sent < lay.num_leaders - 1) {
      Comm::Status status;
      const auto msg = comm.recv(Comm::kAnySource, kTagRequest, status);
      const int kind = static_cast<int>(msg.at(0));
      if (kind == 1) {  // a thief fetching the blocks of a k it never owned
        const auto k = static_cast<std::size_t>(msg.at(1));
        send_lead_blocks(comm, status.source, (*req.leads)[k]);
        // Contact-mode thieves expect the extra materials right behind the
        // classic blocks, in material order.
        for (std::size_t m = 0; m < num_extra_materials(req); ++m)
          send_lead_blocks(comm, status.source, (*req.contact_leads)[m][k]);
        continue;
      }
      idx ik = 0, ie = 0;
      if (co.next(static_cast<int>(msg.at(1)), ik, ie)) {
        comm.send({static_cast<double>(ik), static_cast<double>(ie)},
                  status.source, kTagAssign);
      } else {
        comm.send({-1.0, -1.0}, status.source, kTagAssign);
        ++done_sent;
      }
    }
  } catch (...) {
    error = std::current_exception();
    // Sends are buffered, so unsolicited markers are safe: a leader that
    // already finished simply never consumes its extra messages.
    for (int r = 1; r < lay.world; ++r) {
      const int c = lay.color(r);
      const int in_group =
          r - lay.group_first_rank[static_cast<std::size_t>(c)];
      if (in_group % lay.width != 0) continue;
      comm.send({-1.0, -1.0}, r, kTagAssign);
      // A thief mid-fetch waits on kTagBlocks, not kTagAssign: an
      // empty-lead poison wakes it, its KData build fails on the empty
      // lead, and the leader's stage handler degrades to the drain path.
      // (A stream truncated mid-matrix still surfaces as an unpack error
      // rather than a hang for the same reason.)  Contact-mode thieves
      // read 1 + M streams per fetch, so the poison matches that count.
      for (std::size_t s = 0; s < 1 + num_extra_materials(req); ++s)
        comm.send({0.0}, r, kTagBlocks);
    }
  }
}

/// Everything one rank caches for a k point it solves: the lead blocks it
/// received and the folded/assembled device built from them.
struct KData {
  dft::LeadBlocks lead;
  dft::FoldedLead folded;  ///< leaders only; members never run the OBCs
  /// Extra lead materials (SweepContact::material >= 0) and their folds —
  /// contact-mode leaders only; members and classic runs keep them empty.
  std::vector<dft::LeadBlocks> extra_leads;
  std::vector<dft::FoldedLead> extra_folded;
  dft::DeviceMatrices dm;
  /// Contact-mode leaders only; empty = the classic pair.  The set points
  /// at this KData's own members, which are stable for its lifetime (the
  /// per-rank cache holds KData by unique_ptr).
  transport::ContactSet contacts;

  /// `leader` = false is the spatial-member variant: members only need the
  /// assembled device matrices to compute SPIKE partitions of A, so the
  /// lead folding and the contact set are skipped.
  KData(dft::LeadBlocks l, const SweepRequest& req, bool leader,
        const dft::FoldedLead* pre_folded = nullptr,
        std::vector<dft::LeadBlocks> extras = {}, bool contact_mode = false)
      : lead(std::move(l)),
        folded(leader ? (pre_folded != nullptr ? *pre_folded
                                               : dft::fold_lead(lead))
                      : dft::FoldedLead{}),
        extra_leads(std::move(extras)),
        dm(dft::assemble_device(lead, req.cells, req.potential)) {
    if (!leader || !contact_mode) return;
    extra_folded.reserve(extra_leads.size());
    for (const dft::LeadBlocks& ex : extra_leads)
      extra_folded.push_back(dft::fold_lead(ex));
    contacts = build_contact_set(req, lead, folded, extra_leads, extra_folded);
  }
};

/// One wave-function task on the calling thread's context: the ContactSet
/// entry in contact mode, the classic pair otherwise.
transport::EnergyPointResult solve_point(const KData& kd, double energy,
                                         const transport::EnergyPointOptions& o,
                                         parallel::DevicePool* pool) {
  return kd.contacts.empty()
             ? transport::solve_energy_point(kd.dm, kd.lead, kd.folded,
                                             energy, o, pool)
             : transport::solve_energy_point(kd.dm, kd.contacts, energy, o,
                                             pool);
}

/// One Green's-function (contour) task on the calling thread's context.
std::vector<numeric::cplx> solve_greens(const KData& kd, numeric::cplx z,
                                        const transport::EnergyPointOptions& o) {
  return kd.contacts.empty()
             ? transport::solve_greens_diagonal(kd.dm, kd.lead, kd.folded, z, o)
             : transport::solve_greens_diagonal(kd.dm, kd.contacts, z, o);
}

/// Does the scattering model attach probe terminals to an nb-block device?
/// Such tasks are multi-terminal solves: never batched, never cooperative.
bool attaches_probes(const scattering::Spec& spec, idx nb) {
  return spec.algorithm != scattering::ScatteringAlgorithm::kNone &&
         !scattering::assemble_probes(spec, nb, {0, nb - 1}).empty();
}

struct RankLocal {
  std::vector<double> samples;  ///< {flat, T, T_caroli, propagating} each
  /// {flat, weighted per-cell density...} per charge-carrying task.  Kept
  /// per task (not accumulated per rank) so the root can sum contributions
  /// in flat task order — work stealing moves tasks between ranks run to
  /// run, and a rank-order reduce would make the charge rounding depend on
  /// the race.
  std::vector<double> charge_samples;
  /// Wall time the rank spent solving: its leader's flushes and
  /// cooperative solves, a member's served partitions — never more than
  /// the sweep's wall time, however many pool threads a flush used.
  double busy_seconds = 0.0;
  idx tasks = 0;
  idx greens_tasks = 0;  ///< contour-node solves among `tasks`
  // Batched-execution accounting (stays zero when the leader flushed no
  // bucket through the batched pipeline).
  idx batches = 0;          ///< fused backend calls issued
  idx batched_tasks = 0;    ///< tasks that went through those calls
  idx prefetch_hits = 0;    ///< boundary-cache hits during OBC prefetch
  idx prefetch_misses = 0;  ///< prefetch misses (or caching disabled)
  idx device_batches = 0;   ///< batches offloaded to the device backend
  idx residency_hits = 0;   ///< staged operands already device-resident
  idx residency_misses = 0;  ///< staged operands that paid an H2D transfer
};

/// Doubles per real-axis sample on the gather wire: the classic 4 plus, for
/// >= 3-terminal requests, the row-major nc x nc pairwise T matrix.
/// Identical on every rank (all read the same request object).
std::size_t sample_stride(const SweepRequest& req) {
  const std::size_t nc = req.contacts.size();
  return 4 + (nc >= 3 ? nc * nc : 0);
}

/// Per-cell charge of one task.  N-terminal requests sum every contact's
/// injected density times its own Fermi weight; classic requests keep the
/// source (mu_L) + optional drain (mu_R) pair.  Empty result = this task
/// carries no charge.
std::vector<double> weighted_task_charge(
    const SweepRequest& req, idx block_dim, idx ik, idx ie,
    const transport::EnergyPointResult& res) {
  if (!req.density_weight_contacts.empty()) {
    const auto sk = static_cast<std::size_t>(ik);
    const auto se = static_cast<std::size_t>(ie);
    std::vector<double> out;
    for (std::size_t p = 0; p < req.density_weight_contacts.size() &&
                            p < res.contact_density.size();
         ++p) {
      if (res.contact_density[p].empty()) continue;
      const auto per_cell = transport::density_per_cell(
          res.contact_density[p], block_dim, req.cells);
      const double w = req.density_weight_contacts[p][sk][se];
      if (out.empty()) out.assign(static_cast<std::size_t>(req.cells), 0.0);
      for (std::size_t c = 0; c < per_cell.size(); ++c)
        out[c] += w * per_cell[c];
    }
    return out;
  }
  if (req.density_weight.empty()) return {};
  const auto sk = static_cast<std::size_t>(ik);
  const auto se = static_cast<std::size_t>(ie);
  std::vector<double> out;
  if (!res.orbital_density.empty()) {
    out = transport::density_per_cell(res.orbital_density, block_dim,
                                      req.cells);
    const double w = req.density_weight[sk][se];
    for (auto& v : out) v *= w;
  }
  if (!req.density_weight_r.empty() && !res.orbital_density_r.empty()) {
    const auto per_cell_r = transport::density_per_cell(
        res.orbital_density_r, block_dim, req.cells);
    const double wr = req.density_weight_r[sk][se];
    if (out.empty()) out.assign(static_cast<std::size_t>(req.cells), 0.0);
    for (std::size_t c = 0; c < per_cell_r.size(); ++c)
      out[c] += wr * per_cell_r[c];
  }
  return out;
}

void push_charge(RankLocal& local, const Layout& lay, idx ik, idx ie,
                 const std::vector<double>& per_cell) {
  if (per_cell.empty()) return;
  local.charge_samples.push_back(
      static_cast<double>(lay.e_prefix[static_cast<std::size_t>(ik)] + ie));
  local.charge_samples.insert(local.charge_samples.end(), per_cell.begin(),
                              per_cell.end());
}

/// Per-cell charge of one Green's-function node: Im(w * G_ii) summed onto
/// physical cells.  The node weight w (contour jacobian * gauss weight *
/// Fermi factor, or a pole residue) already carries the -2 spectral
/// normalization, so this is the GF-side twin of weighted_task_charge.
std::vector<double> greens_task_charge(const SweepRequest& req, idx block_dim,
                                       numeric::cplx weight,
                                       const std::vector<numeric::cplx>& diag) {
  std::vector<double> out(static_cast<std::size_t>(req.cells), 0.0);
  for (std::size_t i = 0; i < diag.size(); ++i)
    out[i / static_cast<std::size_t>(block_dim)] += (weight * diag[i]).imag();
  return out;
}

/// Record one solved wave-function task: its spectrum sample and charge.
void record_point(RankLocal& local, const Layout& lay, const SweepRequest& req,
                  const KData& kd, idx ik, idx ie,
                  const transport::EnergyPointResult& res) {
  ++local.tasks;
  local.samples.push_back(
      static_cast<double>(lay.e_prefix[static_cast<std::size_t>(ik)] + ie));
  local.samples.push_back(res.transmission);
  local.samples.push_back(res.transmission_caroli);
  local.samples.push_back(static_cast<double>(res.num_propagating));
  // >= 3 terminals: the pairwise T matrix, zero-padded to the fixed stride
  // so a task whose solve produced none (nothing propagates) still parses.
  const std::size_t want = sample_stride(req) - 4;
  for (std::size_t i = 0; i < want; ++i)
    local.samples.push_back(i < res.t_matrix.size() ? res.t_matrix[i] : 0.0);
  push_charge(local, lay, ik, ie,
              weighted_task_charge(req, kd.lead.block_dim(), ik, ie, res));
}

/// Record one solved Green's-function task: charge only.
void record_greens(RankLocal& local, const Layout& lay,
                   const SweepRequest& req, const KData& kd, idx ik, idx ie,
                   const std::vector<numeric::cplx>& diag) {
  ++local.tasks;
  ++local.greens_tasks;
  const auto sk = static_cast<std::size_t>(ik);
  const auto sg = static_cast<std::size_t>(ie - lay.n_real[sk]);
  push_charge(local, lay, ik, ie,
              greens_task_charge(req, kd.lead.block_dim(),
                                 req.gf_weights[sk][sg], diag));
}

/// The complex energy of task (ik, ie): a real-axis point or a contour node.
numeric::cplx task_energy(const Layout& lay, const SweepRequest& req, idx ik,
                          idx ie) {
  const auto sk = static_cast<std::size_t>(ik);
  if (lay.is_greens(ik, ie))
    return req.gf_nodes[sk][static_cast<std::size_t>(ie - lay.n_real[sk])];
  return {req.energies[sk][static_cast<std::size_t>(ie)], 0.0};
}

/// Does the request carry any Green's-function nodes?  Drives charge
/// allocation/gather symmetrically on every rank (all ranks read the same
/// request object).
bool request_has_greens(const SweepRequest& req) {
  for (const auto& nodes : req.gf_nodes)
    if (!nodes.empty()) return true;
  return false;
}

}  // namespace

Engine::Engine(EngineConfig config, parallel::DevicePool* pool)
    : config_(std::move(config)), pool_(pool) {
  if (config_.num_ranks < 1)
    throw std::invalid_argument("Engine: num_ranks must be >= 1");
  if (config_.ranks_per_energy_group < 1)
    throw std::invalid_argument(
        "Engine: ranks_per_energy_group must be >= 1");
  if (config_.cache_boundaries) {
    caches_.resize(static_cast<std::size_t>(config_.num_ranks));
    for (auto& c : caches_) c = std::make_unique<obc::BoundaryCache>();
  }
  if (pool_ != nullptr) {
    residency_.resize(static_cast<std::size_t>(config_.num_ranks));
    for (auto& r : residency_)
      r = std::make_unique<numeric::ResidencyCache>();
  }
}

obc::BoundaryCache* Engine::rank_cache(int rank) const {
  if (caches_.empty()) return nullptr;
  return caches_[static_cast<std::size_t>(rank)].get();
}

numeric::ResidencyCache* Engine::rank_residency(int rank) const {
  if (residency_.empty()) return nullptr;
  return residency_[static_cast<std::size_t>(rank)].get();
}

void Engine::invalidate_boundary_caches() {
  for (auto& c : caches_) c->invalidate();
  // Device-resident operands share the boundary caches' validity domain:
  // both replay lead-derived products keyed on (k, E).
  for (auto& r : residency_) r->invalidate();
}

obc::BoundaryCache::Stats Engine::boundary_cache_stats() const {
  obc::BoundaryCache::Stats total;
  for (const auto& c : caches_) {
    const auto s = c->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.invalidations += s.invalidations;
  }
  return total;
}

obc::BoundaryCache::Stats Engine::contact_boundary_cache_stats(
    int contact) const {
  obc::BoundaryCache::Stats total;
  for (const auto& c : caches_) {
    const auto s = c->contact_stats(contact);
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.invalidations += s.invalidations;
  }
  return total;
}

namespace {

void validate_request(const SweepRequest& req) {
  if (req.leads == nullptr)
    throw std::invalid_argument("Engine: request.leads is null");
  if (req.energies.empty())
    throw std::invalid_argument("Engine: request has no k points");
  if (req.leads->size() < req.energies.size())
    throw std::invalid_argument("Engine: fewer lead blocks than k grids");
  if (req.folded != nullptr && req.folded->size() < req.energies.size())
    throw std::invalid_argument("Engine: fewer folded leads than k grids");
  if (!req.density_weight.empty()) {
    if (req.density_weight.size() != req.energies.size())
      throw std::invalid_argument("Engine: density_weight k-shape mismatch");
    for (std::size_t k = 0; k < req.energies.size(); ++k)
      if (req.density_weight[k].size() != req.energies[k].size())
        throw std::invalid_argument(
            "Engine: density_weight E-shape mismatch");
  }
  if (!req.density_weight_r.empty()) {
    if (req.density_weight.empty())
      throw std::invalid_argument(
          "Engine: density_weight_r without density_weight");
    if (req.density_weight_r.size() != req.energies.size())
      throw std::invalid_argument(
          "Engine: density_weight_r k-shape mismatch");
    for (std::size_t k = 0; k < req.energies.size(); ++k)
      if (req.density_weight_r[k].size() != req.energies[k].size())
        throw std::invalid_argument(
            "Engine: density_weight_r E-shape mismatch");
  }
  if (!req.gf_nodes.empty()) {
    if (req.gf_nodes.size() != req.energies.size())
      throw std::invalid_argument("Engine: gf_nodes k-shape mismatch");
    if (req.gf_weights.size() != req.gf_nodes.size())
      throw std::invalid_argument(
          "Engine: gf_weights/gf_nodes k-shape mismatch");
    for (std::size_t k = 0; k < req.gf_nodes.size(); ++k)
      if (req.gf_weights[k].size() != req.gf_nodes[k].size())
        throw std::invalid_argument(
            "Engine: gf_weights node-shape mismatch");
  } else if (!req.gf_weights.empty()) {
    throw std::invalid_argument("Engine: gf_weights without gf_nodes");
  }
  if (req.contacts.size() == 1)
    throw std::invalid_argument(
        "Engine: contacts must be empty (classic) or have >= 2 entries");
  if (!req.contacts.empty()) {
    const int materials = static_cast<int>(
        req.contact_leads != nullptr ? req.contact_leads->size() : 0);
    for (const SweepContact& c : req.contacts) {
      if (c.material >= materials)
        throw std::invalid_argument(
            "Engine: contact material index out of range");
      if (c.probe_eta < 0.0)
        throw std::invalid_argument("Engine: contact probe_eta is negative");
      if (c.probe_eta > 0.0 && c.material >= 0)
        throw std::invalid_argument(
            "Engine: a Buettiker probe carries no lead material "
            "(probe_eta > 0 requires material == -1)");
    }
    if (req.contact_leads != nullptr)
      for (const auto& row : *req.contact_leads)
        if (row.size() < req.energies.size())
          throw std::invalid_argument(
              "Engine: contact_leads k-shape mismatch");
  }
  if (req.contacts.size() >= 3 && !req.density_weight.empty())
    throw std::invalid_argument(
        "Engine: >= 3-terminal charge uses density_weight_contacts");
  if (!req.density_weight_contacts.empty()) {
    if (req.contacts.size() < 3)
      throw std::invalid_argument(
          "Engine: density_weight_contacts requires >= 3 contacts");
    if (req.density_weight_contacts.size() != req.contacts.size())
      throw std::invalid_argument(
          "Engine: density_weight_contacts contact-shape mismatch");
    for (const auto& table : req.density_weight_contacts) {
      if (table.size() != req.energies.size())
        throw std::invalid_argument(
            "Engine: density_weight_contacts k-shape mismatch");
      for (std::size_t k = 0; k < table.size(); ++k)
        if (table[k].size() != req.energies[k].size())
          throw std::invalid_argument(
              "Engine: density_weight_contacts E-shape mismatch");
    }
  }
}

/// FNV-1a over the lead blocks' shapes and raw entries — the *content*
/// identity the boundary caches depend on (see Engine::last_leads_hash_).
std::uint64_t leads_fingerprint(const std::vector<dft::LeadBlocks>& leads) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_matrix = [&](const numeric::CMatrix& m) {
    mix(static_cast<std::uint64_t>(m.rows()));
    mix(static_cast<std::uint64_t>(m.cols()));
    for (idx i = 0; i < m.rows(); ++i)
      for (idx j = 0; j < m.cols(); ++j) {
        const double parts[2] = {m(i, j).real(), m(i, j).imag()};
        std::uint64_t bits;
        std::memcpy(&bits, &parts[0], sizeof(bits));
        mix(bits);
        std::memcpy(&bits, &parts[1], sizeof(bits));
        mix(bits);
      }
  };
  for (const auto& lead : leads) {
    mix(static_cast<std::uint64_t>(lead.h.size()));
    for (const auto& m : lead.h) mix_matrix(m);
    for (const auto& m : lead.s) mix_matrix(m);
  }
  return h;
}

/// Per-contact cache-validity signature: the contact's lead-material
/// content, its shift bits, and its attachment block.  mu is deliberately
/// absent — it weights observables, never the cached Boundary.
/// `classic_hash` is leads_fingerprint(*req.leads), shared by every
/// material -1 contact.
std::vector<std::uint64_t> contact_signatures(const SweepRequest& req,
                                              std::uint64_t classic_hash) {
  std::vector<std::uint64_t> sigs;
  sigs.reserve(req.contacts.size());
  for (const SweepContact& c : req.contacts) {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(c.probe_eta > 0.0
            ? 0  // probes carry no lead material
            : (c.material < 0 ? classic_hash
                              : leads_fingerprint((*req.contact_leads)
                                    [static_cast<std::size_t>(c.material)])));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c.shift, sizeof(bits));
    mix(bits);
    mix(static_cast<std::uint64_t>(c.block));
    std::memcpy(&bits, &c.probe_eta, sizeof(bits));
    mix(bits);
    sigs.push_back(h);
  }
  return sigs;
}

SweepResult shaped_result(const SweepRequest& req) {
  SweepResult out;
  const std::size_t nk = req.energies.size();
  out.transmission.resize(nk);
  out.caroli.resize(nk);
  out.propagating.resize(nk);
  for (std::size_t k = 0; k < nk; ++k) {
    out.transmission[k].assign(req.energies[k].size(), 0.0);
    out.caroli[k].assign(req.energies[k].size(), 0.0);
    out.propagating[k].assign(req.energies[k].size(), 0);
  }
  const std::size_t nc = req.contacts.size();
  if (nc >= 3) {
    out.t_matrix.resize(nk);
    for (std::size_t k = 0; k < nk; ++k)
      out.t_matrix[k].assign(req.energies[k].size(),
                             std::vector<double>(nc * nc, 0.0));
  }
  if (!req.density_weight.empty() || !req.density_weight_contacts.empty() ||
      request_has_greens(req))
    out.charge.assign(static_cast<std::size_t>(req.cells), 0.0);
  return out;
}

/// Per-leader backend selection for the batched device phase.  A fixed
/// choice ("host", "device", a registered name) resolves once; "auto" asks
/// the perf::estimate_batch_seconds crossover per shape bucket.  Every
/// candidate runs the same scalar kernels per item, so the choice moves
/// work and transfer accounting — never results.
struct BackendArbiter {
  numeric::Backend* fixed = nullptr;  ///< non-auto resolution
  numeric::DeviceBackend* device = nullptr;  ///< offload candidate
  bool auto_select = false;
  int host_lanes = 1;
  int devices = 0;
  int nominal_batch = 1;

  numeric::Backend& choose(idx nb, idx s) const {
    if (!auto_select) return *fixed;
    if (device == nullptr) return numeric::host_backend();
    // nrhs mirrors the 2*s nominal the solver resolution uses; the nominal
    // batch (never the actual fill) keeps the estimate rank-invariant.
    const perf::BatchShape shape{static_cast<long long>(nb),
                                 static_cast<long long>(s),
                                 static_cast<long long>(2 * s)};
    const perf::BatchEstimate est = perf::estimate_batch_seconds(
        perf::MachineSpec::host(), shape, nominal_batch, host_lanes, devices);
    return est.device_wins() ? static_cast<numeric::Backend&>(*device)
                             : numeric::host_backend();
  }
};

/// Builds a leader's arbiter over its pool slice, constructing the
/// DeviceBackend in `storage` when offloading is a candidate.  `residency`
/// is the leader's persistent cross-run operand cache (may be null).
BackendArbiter make_backend_arbiter(
    const EngineConfig& cfg, std::optional<numeric::DeviceBackend>& storage,
    parallel::DevicePool* pool, numeric::ResidencyCache* residency) {
  BackendArbiter arb;
  arb.nominal_batch = std::max(1, cfg.max_batch);
  arb.host_lanes =
      static_cast<int>(parallel::ThreadPool::global().num_threads());
  if (pool != nullptr && pool->size() > 0 && cfg.backend != "host") {
    storage.emplace(*pool, residency);
    arb.device = &*storage;
    arb.devices = pool->size();
  }
  if (cfg.backend == "auto") {
    arb.auto_select = true;
    arb.fixed = &numeric::host_backend();
  } else if (cfg.backend == "host") {
    arb.fixed = &numeric::host_backend();
  } else if (cfg.backend == "device") {
    // Degrade to host when the engine has no accelerators to offload to.
    arb.fixed = arb.device != nullptr
                    ? static_cast<numeric::Backend*>(arb.device)
                    : &numeric::host_backend();
  } else {
    numeric::Backend* named = numeric::find_backend(cfg.backend);
    if (named == nullptr)
      throw std::invalid_argument("Engine: unknown backend '" + cfg.backend +
                                  "'");
    arb.fixed = named;
  }
  return arb;
}

/// H2D/D2H/busy counters of every pool device, snapshotted around a sweep
/// so EngineStats can report per-run deltas (the pool persists across
/// runs and may be shared).
struct PoolSnapshot {
  std::vector<std::uint64_t> h2d, d2h;
  std::vector<double> busy;
};

PoolSnapshot snapshot_pool(parallel::DevicePool* pool) {
  PoolSnapshot snap;
  if (pool == nullptr) return snap;
  for (int d = 0; d < pool->size(); ++d) {
    parallel::Device& dev = pool->device(d);
    snap.h2d.push_back(dev.h2d_bytes());
    snap.d2h.push_back(dev.d2h_bytes());
    snap.busy.push_back(dev.busy_seconds());
  }
  return snap;
}

void apply_pool_delta(EngineStats& stats, parallel::DevicePool* pool,
                      const PoolSnapshot& before) {
  if (pool == nullptr) return;
  stats.device_busy_seconds.assign(before.busy.size(), 0.0);
  for (int d = 0; d < pool->size(); ++d) {
    parallel::Device& dev = pool->device(d);
    const auto sd = static_cast<std::size_t>(d);
    stats.h2d_bytes += static_cast<double>(dev.h2d_bytes() - before.h2d[sd]);
    stats.d2h_bytes += static_cast<double>(dev.d2h_bytes() - before.d2h[sd]);
    stats.device_busy_seconds[sd] = dev.busy_seconds() - before.busy[sd];
  }
}

/// A rank's counters on the stats wire, kStatsStride doubles.
constexpr std::size_t kStatsStride = 10;
std::vector<double> pack_stats(const RankLocal& local) {
  return {local.busy_seconds,
          static_cast<double>(local.tasks),
          static_cast<double>(local.batches),
          static_cast<double>(local.batched_tasks),
          static_cast<double>(local.prefetch_hits),
          static_cast<double>(local.prefetch_misses),
          static_cast<double>(local.greens_tasks),
          static_cast<double>(local.device_batches),
          static_cast<double>(local.residency_hits),
          static_cast<double>(local.residency_misses)};
}

/// Root-side assembly from every rank's samples (concatenated in rank
/// order): spectra scattered by flat task index, charge summed in flat task
/// order — independent of which rank solved what, since work stealing
/// moves tasks between ranks run to run — and the per-rank counters
/// folded into the stats.
void assemble(const Layout& lay, const SweepRequest& req,
              const std::vector<double>& samples,
              const std::vector<double>& charge_samples,
              const std::vector<double>& rank_stats, idx stolen,
              SweepResult& out) {
  const std::size_t stride = sample_stride(req);
  for (std::size_t i = 0; i + stride <= samples.size(); i += stride) {
    const auto [ik, ie] = lay.unflatten(static_cast<idx>(samples[i]));
    const auto sk = static_cast<std::size_t>(ik);
    const auto se = static_cast<std::size_t>(ie);
    out.transmission[sk][se] = samples[i + 1];
    out.caroli[sk][se] = samples[i + 2];
    out.propagating[sk][se] = static_cast<idx>(samples[i + 3]);
    // stride > 4 carries the row-major nc x nc pairwise T matrix.
    for (std::size_t q = 0; q + 4 < stride; ++q)
      out.t_matrix[sk][se][q] = samples[i + 4 + q];
  }
  if (!out.charge.empty()) {
    const std::size_t rec = 1 + static_cast<std::size_t>(req.cells);
    std::vector<const double*> per_task(
        static_cast<std::size_t>(lay.total_tasks), nullptr);
    for (std::size_t i = 0; i + rec <= charge_samples.size(); i += rec)
      per_task[static_cast<std::size_t>(charge_samples[i])] =
          &charge_samples[i + 1];
    for (const double* pc : per_task)
      if (pc != nullptr)
        for (std::size_t c = 0; c < out.charge.size(); ++c)
          out.charge[c] += pc[c];
  }
  EngineStats& st = out.stats;
  st.ranks = lay.world;
  st.energy_groups = lay.num_leaders;
  st.tasks_total = lay.total_tasks;
  st.tasks_stolen = stolen;
  idx batched_tasks = 0;
  for (std::size_t b = 0; b + kStatsStride <= rank_stats.size();
       b += kStatsStride) {
    st.busy_seconds_per_rank.push_back(rank_stats[b]);
    st.tasks_per_rank.push_back(static_cast<idx>(rank_stats[b + 1]));
    st.batches_issued += static_cast<idx>(rank_stats[b + 2]);
    batched_tasks += static_cast<idx>(rank_stats[b + 3]);
    st.prefetch_hits += static_cast<idx>(rank_stats[b + 4]);
    st.prefetch_misses += static_cast<idx>(rank_stats[b + 5]);
    st.tasks_greens += static_cast<idx>(rank_stats[b + 6]);
    st.device_batches += static_cast<idx>(rank_stats[b + 7]);
    st.residency_hits += static_cast<idx>(rank_stats[b + 8]);
    st.residency_misses += static_cast<idx>(rank_stats[b + 9]);
  }
  if (st.batches_issued > 0)
    st.mean_batch_size = static_cast<double>(batched_tasks) /
                         static_cast<double>(st.batches_issued);
}

}  // namespace

SweepResult Engine::run(const SweepRequest& request) {
  validate_request(request);
  // Fail an unknown backend name on the caller thread, before any world or
  // collective exists (leaders re-resolve the same name later; by then it
  // is known good).
  if (config_.backend != "auto" && config_.backend != "host" &&
      config_.backend != "device" &&
      numeric::find_backend(config_.backend) == nullptr)
    throw std::invalid_argument("Engine: unknown backend '" +
                                config_.backend + "'");
  std::size_t total = 0;
  for (const auto& grid : request.energies) total += grid.size();
  for (const auto& nodes : request.gf_nodes) total += nodes.size();
  if (total == 0) return shaped_result(request);
  const std::size_t nc = request.contacts.size();
  if (!caches_.empty() || !residency_.empty()) {
    // Cached Boundaries (and the device-resident operands derived from
    // them) are only replayable while the OBC options and the lead
    // matrices hold: the backend is part of the cache key, but an annulus/
    // ridge/eta change — or different lead Hamiltonians under the same
    // (k, E) keys — is not.
    const std::uint64_t leads_hash = leads_fingerprint(*request.leads);
    if (request.contacts.empty()) {
      // Classic request: drop everything on either mismatch — exactly the
      // pre-contact discipline.
      const bool opts_changed =
          last_obc_opts_.has_value() &&
          !obc::obc_options_equal(*last_obc_opts_, request.point.obc_opts);
      const bool leads_changed =
          last_leads_hash_.has_value() && *last_leads_hash_ != leads_hash;
      if (opts_changed || leads_changed) invalidate_boundary_caches();
      last_contact_sigs_.reset();
    } else {
      // Contact request: the global contact_shift is neutral in the
      // options comparison (shifts live per contact), and a change
      // confined to one contact's lead material, shift, or attachment
      // block drops only that contact's key range — the dissimilar-lead
      // independence the per-contact cache keys exist for.
      bool opts_changed = false;
      if (last_obc_opts_.has_value()) {
        obc::ObcOptions prev = *last_obc_opts_;
        prev.contact_shift = request.point.obc_opts.contact_shift;
        opts_changed = !obc::obc_options_equal(prev, request.point.obc_opts);
      }
      const auto sigs = contact_signatures(request, leads_hash);
      if (opts_changed) {
        invalidate_boundary_caches();
      } else if (last_contact_sigs_.has_value() &&
                 last_contact_sigs_->size() == sigs.size()) {
        bool any = false;
        for (std::size_t p = 0; p < sigs.size(); ++p)
          if (sigs[p] != (*last_contact_sigs_)[p]) {
            for (auto& c : caches_)
              c->invalidate_contact(static_cast<int>(p));
            any = true;
          }
        // Device-resident operands are not keyed per contact; any stale
        // contact drops them all (mirrors invalidate_boundary_caches).
        if (any)
          for (auto& r : residency_) r->invalidate();
      }
      last_contact_sigs_ = sigs;
    }
    last_obc_opts_ = request.point.obc_opts;
    last_leads_hash_ = leads_hash;
    // One sweep must always fit: a cap below the task count would evict
    // entries mid-sweep and forfeit every cross-iteration hit.  Contact
    // mode fetches up to nc boundaries per task.
    const std::size_t per_task = std::max<std::size_t>(2, nc);
    for (auto& c : caches_) c->reserve(per_task * total);
  }
  // Per-contact cache counters are cumulative on the persistent caches;
  // snapshot around the sweep so the stats report this run's deltas.
  std::vector<obc::BoundaryCache::Stats> contact_stats_before;
  if (!caches_.empty() && nc >= 2)
    for (std::size_t p = 0; p < nc; ++p)
      contact_stats_before.push_back(
          contact_boundary_cache_stats(static_cast<int>(p)));
  const PoolSnapshot snapshot = snapshot_pool(pool_);
  SweepResult out = sweep(request);
  apply_pool_delta(out.stats, pool_, snapshot);
  if (!caches_.empty() && nc >= 2) {
    out.stats.contact_cache_stats.resize(nc);
    for (std::size_t p = 0; p < nc; ++p) {
      const auto after = contact_boundary_cache_stats(static_cast<int>(p));
      auto& d = out.stats.contact_cache_stats[p];
      d.hits = after.hits - contact_stats_before[p].hits;
      d.misses = after.misses - contact_stats_before[p].misses;
      d.insertions = after.insertions - contact_stats_before[p].insertions;
      d.invalidations =
          after.invalidations - contact_stats_before[p].invalidations;
    }
  }
  return out;
}

SweepResult Engine::sweep(const SweepRequest& request) {
  const double t_start = now_seconds();
  SweepResult out = shaped_result(request);
  const Layout lay(request, config_.num_ranks,
                   config_.ranks_per_energy_group);
  Coordinator co(lay, request, config_.work_stealing);
  // Terminal layout, computed identically on every rank from the shared
  // request: symmetric classic pairs normalize onto the pre-refactor
  // pipeline; contact mode threads ContactSets through the leaders.
  const bool contact_mode = !contacts_are_classic_symmetric(request);
  const std::size_t m_count = num_extra_materials(request);
  const bool want_charge = !out.charge.empty();

  std::exception_ptr service_error;
  parallel::CommWorld(config_.num_ranks).run([&](Comm& comm) {
    const int wr = comm.rank();
    const int my_color = lay.color(wr);
    // A failing rank must not abandon the protocol: it records the error,
    // keeps draining queue traffic and the assembly collectives so no peer
    // blocks forever, and rethrows once the world has quiesced (CommWorld
    // then surfaces the first rank's exception on the caller thread).
    std::exception_ptr rank_error;
    // Leader-ness comes from the layout, not from the splits, so the
    // recovery drain below works even when an exception escapes before the
    // energy-level communicators exist.  (comm.split orders same-color
    // ranks by world rank, so k_comm.rank() == wr - group_first_rank.)
    const int in_group =
        wr - lay.group_first_rank[static_cast<std::size_t>(my_color)];
    const bool leader = in_group % lay.width == 0;
    bool protocol_done = !leader;  ///< non-leaders owe the coordinator nothing

    // --- input distribution (momentum level) ---------------------------
    // The root pushes each momentum-group leader the blocks of its owned
    // k points; sends are buffered, so this cannot deadlock with the
    // coordinator service started right after.  Rank 0's own leader pulls
    // from the coordinator directly, so a world whose only leader is rank 0
    // (size 1 included) sends no queue message and starts no service.
    std::thread service;
    if (wr == 0) {
      for (int c = 0; c < lay.num_groups; ++c) {
        const int lr = lay.group_first_rank[static_cast<std::size_t>(c)];
        if (lr == 0) continue;
        for (const idx k : lay.owned[static_cast<std::size_t>(c)]) {
          send_lead_blocks(comm, lr,
                           (*request.leads)[static_cast<std::size_t>(k)]);
          // Contact mode: the extra materials ride right behind the
          // classic blocks, in material order (the receiver loop below
          // reads them back symmetrically).
          for (std::size_t m = 0; m < m_count; ++m)
            send_lead_blocks(
                comm, lr,
                (*request.contact_leads)[m][static_cast<std::size_t>(k)]);
        }
      }
      if (lay.num_leaders > 1) {
        Comm service_comm = comm;  // same rank, shared mailboxes
        service = std::thread(
            [&co, &request, &service_error, service_comm]() mutable {
              serve_queue(service_comm, co, request, service_error);
            });
      }
    }

    // The guarded section spans everything between the service spawn and
    // the join.  The per-stage handlers inside degrade a failed stage to
    // the drain path; this outer catch covers the rest (OOM-class throws
    // from splits, broadcasts, or queue traffic) — without it an exception
    // unwinding past the joinable service thread would std::terminate.
    RankLocal local;
    // Spatial-release bookkeeping lives outside the guarded section: if an
    // exception escapes the pull loop, the leader must still send its
    // members the done marker or they would wait on the task broadcast
    // forever.
    std::optional<Comm> spatial_comm;
    bool members_released = true;
    // Announcement wire format (8 doubles): {flag, ik, ie, fetched, algo,
    // contact_shift, Re(E), Im(E)}.  Im(E) != 0 marks a contour node; those
    // are announced with the (non-cooperative) RGF algorithm, so members
    // handle the fetched-blocks broadcast and then skip the solve.
    const std::vector<double> kSpatialDone{-1.0, 0.0, 0.0, 0.0,
                                           0.0,  0.0, 0.0, 0.0};
    // The single release point for the members' service loop — every exit
    // path (drain, normal completion, escaped exception) goes through it,
    // so the done marker can never be sent twice or with a stale shape.
    const auto release_members = [&]() {
      if (members_released || !spatial_comm.has_value()) return;
      try {
        std::vector<double> done = kSpatialDone;
        spatial_comm->bcast(done, 0);
      } catch (...) {
      }
      members_released = true;
    };
    try {
      Comm k_comm = comm.split(my_color, wr);
      Comm e_comm = k_comm.split(k_comm.rank() / lay.width, k_comm.rank());
      const int egroup = k_comm.rank() / lay.width;

      // --- spatial level: does this energy group solve cooperatively? ---
      // Width > 1 makes each (k, E) task a group-wide solve: the leader
      // runs the OBC + SPIKE merge, the members compute their share of the
      // SPIKE partitions on their own copy of A (broadcast once at input
      // distribution).  Backends that can never split (block_lu, bcr, rgf
      // requested statically) skip the whole member protocol — the extra
      // ranks idle exactly like the pre-spatial engine; kAuto keeps it on
      // because its per-task resolution may pick a cooperative backend.
      const bool may_cooperate =
          request.point.solver == solvers::SolverAlgorithm::kAuto ||
          solvers::algorithm_is_cooperative(request.point.solver);
      const bool spatial_group =
          lay.width > 1 && e_comm.size() > 1 && may_cooperate;
      transport::EnergyPointOptions popt = request.point;
      popt.spatial = spatial_group ? &e_comm : nullptr;
      // Per-rank persistent boundary cache (nullptr when caching is off):
      // survives across run() calls, so repeated sweeps — the SCF outer
      // loop — reuse this rank's lead eigenproblem solves.
      popt.boundary_cache = rank_cache(wr);
      // Drain-injection columns only when there is a drain-side weight to
      // consume them.
      popt.want_density_r = !request.density_weight_r.empty();
      // Symmetric classic contacts collapse onto the global shift (the
      // classic cache keys, batching, and spatial protocol all apply);
      // contact mode keeps per-contact shifts inside the ContactSet.
      if (!request.contacts.empty() && !contact_mode)
        popt.obc_opts.contact_shift = request.contacts[0].shift;
      if (leader && spatial_group) {
        spatial_comm = e_comm;
        members_released = false;
      }

      // --- spatial level: this energy group's accelerator share --------
      std::optional<parallel::DevicePool> slice_storage;
      parallel::DevicePool* my_pool = nullptr;
      if (pool_ != nullptr) {
        slice_storage.emplace(pool_->slice(lay.leader_index(my_color, egroup),
                                           lay.num_leaders));
        my_pool = &*slice_storage;
      }

      // Every group member receives the owned blocks once via the group
      // broadcast.  Energy-group leaders fold/assemble them to solve;
      // members of a spatial group assemble them too — they need their own
      // device matrices to compute SPIKE partitions of A per task.
      std::map<idx, std::unique_ptr<KData>> cache;
      // The root folded its leads when the simulator was built (and the SCF
      // loop sweeps the same ones dozens of times); its leader reuses them
      // instead of re-folding per run.
      const auto pre_folded = [&](idx k) -> const dft::FoldedLead* {
        return wr == 0 && request.folded != nullptr
                   ? &(*request.folded)[static_cast<std::size_t>(k)]
                   : nullptr;
      };
      for (const idx k : lay.owned[static_cast<std::size_t>(my_color)]) {
        const auto sk = static_cast<std::size_t>(k);
        dft::LeadBlocks lead;
        std::vector<dft::LeadBlocks> extras(m_count);
        if (k_comm.rank() == 0 && rank_error == nullptr) {
          try {
            lead = wr == 0 ? (*request.leads)[sk] : recv_lead_blocks(comm, 0);
            for (std::size_t m = 0; m < m_count; ++m)
              extras[m] = wr == 0 ? (*request.contact_leads)[m][sk]
                                  : recv_lead_blocks(comm, 0);
          } catch (...) {
            rank_error = std::current_exception();
            lead = dft::LeadBlocks{};
            extras.assign(m_count, dft::LeadBlocks{});
          }
        }
        // Collectives over the momentum group — always run, so members
        // never stall on a group whose inputs failed to arrive.  The
        // extras broadcast count is symmetric on every rank (m_count comes
        // from the shared request).
        broadcast_lead_blocks(k_comm, lead);
        for (auto& ex : extras) broadcast_lead_blocks(k_comm, ex);
        if ((!leader && !spatial_group) || rank_error != nullptr) continue;
        try {
          cache.emplace(k, std::make_unique<KData>(std::move(lead), request,
                                                   leader, pre_folded(k),
                                                   std::move(extras),
                                                   contact_mode));
        } catch (...) {
          rank_error = std::current_exception();
        }
      }

      // --- energy level: pull tasks until the coordinator says done ----
      if (leader) {
        // Rank 0 picks from the coordinator it owns; every other leader
        // asks the service thread.
        const auto pull = [&](idx& ik, idx& ie) {
          if (wr == 0) return co.next(my_color, ik, ie);
          comm.send({0.0, static_cast<double>(my_color)}, 0, kTagRequest);
          const auto assign = comm.recv(0, kTagAssign);
          ik = static_cast<idx>(assign.at(0));
          ie = static_cast<idx>(assign.at(1));
          return ik >= 0;
        };
        // A stolen k's blocks: rank 0 reads the request, everyone else
        // fetches them from the coordinator, once.
        const auto load_stolen = [&](idx ik) {
          const auto sk = static_cast<std::size_t>(ik);
          dft::LeadBlocks lead;
          std::vector<dft::LeadBlocks> extras(m_count);
          if (wr == 0) {
            lead = (*request.leads)[sk];
            for (std::size_t m = 0; m < m_count; ++m)
              extras[m] = (*request.contact_leads)[m][sk];
          } else {
            comm.send({1.0, static_cast<double>(ik)}, 0, kTagRequest);
            lead = recv_lead_blocks(comm, 0);
            for (std::size_t m = 0; m < m_count; ++m)
              extras[m] = recv_lead_blocks(comm, 0);
          }
          return cache
              .emplace(ik, std::make_unique<KData>(
                               std::move(lead), request, /*leader=*/true,
                               pre_folded(ik), std::move(extras),
                               contact_mode))
              .first;
        };
        // Options of one task: the boundary-cache key carries the *global*
        // k index, so stolen tasks land in the thief's cache under the
        // owner's k and two momenta sharing an energy never alias.
        const auto task_options = [&](idx ik) {
          transport::EnergyPointOptions o = popt;
          o.k_index = ik;
          return o;
        };

        // --- the bucketed flush (every leader outside a spatial group) --
        // Tasks queue into one pending bucket keyed by (block shape, task
        // kind) and flush on a key change, at capacity, and at protocol
        // end.  A wave-function bucket whose resolved solver advertises
        // kBatchable goes through the batched pipeline; every other bucket
        // — contour nodes, contact-mode tasks, attached probes,
        // non-batchable solvers — runs as one thread-pool loop on the
        // workers' thread-local contexts.  Either way each task computes
        // the same arithmetic, so results cannot depend on the bucketing.
        struct PendingTask {
          idx ik, ie;
          const KData* kd;
        };
        std::vector<PendingTask> pending;
        std::tuple<idx, idx, bool> pending_key{0, 0, false};
        bool pending_batched = false;
        const std::size_t cap =
            static_cast<std::size_t>(std::max(1, config_.max_batch));
        // A thread-pool bucket holds a batch per pool thread of this
        // leader's share of the pool: larger buckets at size 1 cut the
        // per-flush synchronisation, while with many leaders the pulls
        // stay fine-grained enough for stealing to balance them.
        const std::size_t loop_cap =
            cap * std::max<std::size_t>(
                      1, parallel::ThreadPool::global().num_threads() /
                             static_cast<std::size_t>(lay.num_leaders));
        transport::BatchContext bctx;
        // This leader's backend policy over its accelerator slice, built on
        // first use.  The residency cache is the rank's persistent one, so
        // operands staged in this sweep hit residency in the next.
        std::optional<numeric::DeviceBackend> device_storage;
        std::optional<BackendArbiter> arbiter;
        const auto backend_for = [&](idx nb, idx s) -> numeric::Backend& {
          if (!arbiter.has_value())
            arbiter = make_backend_arbiter(config_, device_storage, my_pool,
                                           rank_residency(wr));
          return arbiter->choose(nb, s);
        };
        const auto batchable = [&](idx nb, idx s) {
          if (!config_.batch_tasks || contact_mode ||
              attaches_probes(popt.scattering, nb))
            return false;
          solvers::SolverContext binding;
          binding.pool = my_pool;
          binding.partitions = popt.partitions;
          binding.batch = static_cast<int>(cap);
          binding.backend = &backend_for(nb, s);
          const auto algo = solvers::resolve_algorithm(popt.solver, nb, s,
                                                       2 * s, binding);
          return (solvers::algorithm_capabilities(algo) &
                  solvers::kBatchable) != 0;
        };
        const auto flush = [&]() {
          if (pending.empty()) return;
          std::vector<PendingTask> bucket;
          bucket.swap(pending);
          if (rank_error != nullptr) return;  // drained, not solved
          try {
            const auto [nb, s, greens] = pending_key;
            const std::size_t n = bucket.size();
            const double t0 = now_seconds();
            if (pending_batched) {
              std::vector<transport::BatchTask> bt;
              bt.reserve(n);
              for (const PendingTask& p : bucket)
                bt.push_back({p.ik, task_energy(lay, request, p.ik, p.ie).real(),
                              &p.kd->dm, &p.kd->lead, &p.kd->folded});
              transport::BatchStats bs;
              const auto res = transport::solve_energy_batch(
                  bctx, bt, popt, my_pool, backend_for(nb, s),
                  config_.max_batch, &bs);
              local.busy_seconds += now_seconds() - t0;
              if (bs.batched_solve) {
                local.batches += bs.batches;
                local.batched_tasks += bs.tasks;
              }
              local.prefetch_hits += bs.prefetch_hits;
              local.prefetch_misses += bs.prefetch_misses;
              local.device_batches += bs.device_batches;
              local.residency_hits += bs.residency_hits;
              local.residency_misses += bs.residency_misses;
              for (std::size_t j = 0; j < n; ++j)
                record_point(local, lay, request, *bucket[j].kd, bucket[j].ik,
                             bucket[j].ie, res[j]);
              return;
            }
            std::vector<transport::EnergyPointResult> res(greens ? 0 : n);
            std::vector<std::vector<numeric::cplx>> diag(greens ? n : 0);
            parallel::ThreadPool::global().parallel_for(n, [&](std::size_t j) {
              const PendingTask& p = bucket[j];
              const numeric::cplx z = task_energy(lay, request, p.ik, p.ie);
              if (greens)
                diag[j] = solve_greens(*p.kd, z, task_options(p.ik));
              else
                res[j] = solve_point(*p.kd, z.real(), task_options(p.ik),
                                     my_pool);
            });
            local.busy_seconds += now_seconds() - t0;
            for (std::size_t j = 0; j < n; ++j) {
              const PendingTask& p = bucket[j];
              if (greens)
                record_greens(local, lay, request, *p.kd, p.ik, p.ie, diag[j]);
              else
                record_point(local, lay, request, *p.kd, p.ik, p.ie, res[j]);
            }
          } catch (...) {
            rank_error = std::current_exception();
          }
        };

        idx ik = 0, ie = 0;
        while (pull(ik, ie)) {
          if (rank_error != nullptr) {
            // Drain, don't solve — and stop announcing tasks so the
            // members exit their service loop instead of waiting for a
            // cooperative solve that will never run.
            pending.clear();
            release_members();
            continue;
          }
          try {
            auto it = cache.find(ik);
            const bool fetched = it == cache.end();
            if (fetched) it = load_stolen(ik);
            const KData& kd = *it->second;
            const bool is_gf = lay.is_greens(ik, ie);
            const idx nbb = kd.dm.h.num_blocks();
            const idx sbb = kd.dm.h.block_size();
            if (!spatial_group) {
              const std::tuple<idx, idx, bool> key{nbb, sbb, is_gf};
              if (!pending.empty() && key != pending_key) flush();
              if (pending.empty()) {
                pending_key = key;
                pending_batched = !is_gf && batchable(nbb, sbb);
              }
              pending.push_back({ik, ie, &kd});
              if (pending.size() >= (pending_batched ? cap : loop_cap))
                flush();
              continue;
            }
            // --- spatial level: announce the task to the group ---------
            // Cooperative tasks solve one at a time.  The resolved backend
            // travels with the task: members follow the leader's choice
            // (kAuto resolution is pure, but a member that lost its inputs
            // could not resolve locally — with the algorithm on the wire
            // it can still honor the protocol by sending placeholder
            // partitions).  The announcement also carries the
            // boundary-cache key — (global ik, ie, contact shift) — which
            // members adopt into their task options, so every rank of the
            // group labels the task by the leader's key no matter whose
            // queue pull (or steal) produced it.
            const numeric::cplx z = task_energy(lay, request, ik, ie);
            solvers::SolverContext binding;
            binding.pool = my_pool;
            binding.partitions = popt.partitions;
            binding.spatial = &e_comm;
            // GF nodes announce the (non-cooperative) RGF diagonal: the
            // members run the fetched-blocks broadcast and skip the solve,
            // exactly like a statically requested RGF task.  So do
            // multi-terminal attachments (>= 3 contacts, interior blocks,
            // or probes attached by the scattering model): solve_attached
            // never splits spatially, and the members must not wait to
            // serve a cooperative solve the leader runs solo.  A dissimilar
            // classic pair still routes through solve_boundary and may
            // cooperate.
            const bool solo =
                is_gf ||
                (contact_mode && !classic_pair_blocks(request, nbb)) ||
                (!contact_mode && attaches_probes(popt.scattering, nbb));
            const auto algo =
                solo ? solvers::SolverAlgorithm::kRgf
                     : solvers::resolve_algorithm(popt.solver, nbb, sbb,
                                                  2 * sbb, binding);
            std::vector<double> task{
                1.0, static_cast<double>(ik), static_cast<double>(ie),
                fetched ? 1.0 : 0.0,
                static_cast<double>(static_cast<int>(algo)),
                popt.obc_opts.contact_shift, z.real(), z.imag()};
            e_comm.bcast(task, 0);
            // A stolen k's blocks reach the members through the group,
            // mirroring the owned-k broadcast at input distribution.
            if (fetched) broadcast_lead_blocks(e_comm, it->second->lead);
            const double t0 = now_seconds();
            if (is_gf) {
              transport::EnergyPointOptions gopt = task_options(ik);
              gopt.spatial = nullptr;  // the RGF diagonal is a solo solve
              const auto diag = solve_greens(kd, z, gopt);
              local.busy_seconds += now_seconds() - t0;
              record_greens(local, lay, request, kd, ik, ie, diag);
            } else {
              const auto res =
                  solve_point(kd, z.real(), task_options(ik), my_pool);
              local.busy_seconds += now_seconds() - t0;
              record_point(local, lay, request, kd, ik, ie, res);
            }
          } catch (...) {
            rank_error = std::current_exception();
          }
        }
        flush();  // the tail bucket the done marker cut short
        protocol_done = true;
        release_members();
      } else if (spatial_group) {
        // --- spatial members: serve the group's cooperative solves -----
        transport::EnergyPointContext ctx;
        for (;;) {
          std::vector<double> task;
          e_comm.bcast(task, 0);
          if (task.size() < 8 || task[0] < 0.0) break;
          const auto ik = static_cast<idx>(task[1]);
          const bool fetched = task[3] != 0.0;
          const auto algo = static_cast<solvers::SolverAlgorithm>(
              static_cast<int>(task[4]));
          if (fetched) {
            dft::LeadBlocks lead;
            broadcast_lead_blocks(e_comm, lead);
            if (rank_error == nullptr && cache.find(ik) == cache.end()) {
              try {
                cache.emplace(ik, std::make_unique<KData>(std::move(lead),
                                                          request,
                                                          /*leader=*/false));
              } catch (...) {
                rank_error = std::current_exception();
              }
            }
          }
          if (!solvers::algorithm_is_cooperative(algo)) continue;
          const auto it = cache.find(ik);
          if (rank_error != nullptr || it == cache.end()) {
            // No usable inputs: send placeholder partitions so the leader
            // sees an error, not a hang.
            solvers::spike_spatial_member_poison(
                e_comm, popt.partitions,
                algo == solvers::SolverAlgorithm::kSpike);
            continue;
          }
          try {
            // The wire energy is authoritative (bit-identical: the leader
            // read the same request double); GF announcements never reach
            // here — kRgf fails the cooperative check above.
            const double energy = task[6];
            const double t0 = now_seconds();
            transport::serve_spatial_point(ctx, it->second->dm, energy, algo,
                                           popt.partitions, e_comm);
            local.busy_seconds += now_seconds() - t0;
          } catch (...) {
            rank_error = std::current_exception();
          }
        }
      }
    } catch (...) {
      rank_error = std::current_exception();
    }
    // The leader may have left the guarded section with its members still
    // waiting: release them (best effort — the marker is tiny).
    release_members();
    if (leader && !protocol_done && wr != 0) {
      // The exception escaped before (or inside) the pull loop: count this
      // leader out with the coordinator so rank 0 can join the service
      // thread.  Best effort — the drain messages are tiny.
      try {
        for (;;) {
          comm.send({0.0, static_cast<double>(my_color)}, 0, kTagRequest);
          if (static_cast<idx>(comm.recv(0, kTagAssign).at(0)) < 0) break;
        }
      } catch (...) {
      }
    }
    if (service.joinable()) service.join();

    // --- assembly: rooted collectives (the root's own buffers at size 1)
    if (lay.world == 1) {
      assemble(lay, request, local.samples, local.charge_samples,
               pack_stats(local), co.stolen, out);
    } else {
      const auto samples = comm.gatherv(local.samples, 0);
      const auto charge =
          want_charge ? comm.gatherv(local.charge_samples, 0)
                      : std::vector<double>{};
      const auto rank_stats = comm.gatherv(pack_stats(local), 0);
      if (wr == 0)
        assemble(lay, request, samples, charge, rank_stats, co.stolen, out);
    }

    // The protocol is drained and every collective matched; now the error
    // may surface.
    if (rank_error == nullptr && wr == 0 && service_error != nullptr)
      rank_error = service_error;
    if (rank_error != nullptr) std::rethrow_exception(rank_error);
  });
  out.stats.wall_seconds = now_seconds() - t_start;
  return out;
}

}  // namespace omenx::omen
