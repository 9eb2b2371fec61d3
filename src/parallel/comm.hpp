// In-process message-passing communicator, standing in for MPI.
//
// OMEN distributes work with MPI and a hierarchy of communicators
// (momentum -> energy -> spatial domain).  This header provides the same
// semantics — rank/size, barrier, broadcast, allreduce, point-to-point
// send/recv, and communicator splitting — with ranks mapped to threads of
// one process.  The distribution logic in src/omen runs unmodified against
// this interface.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "numeric/matrix.hpp"

namespace omenx::parallel {

class Comm;

namespace detail {

/// Shared state for one communicator instance.
struct CommState {
  explicit CommState(int size)
      : size(size), bcast_buffers(1),
        collective_seq(static_cast<std::size_t>(size), 0) {}

  int size;

  // Per-rank collective sequence numbers used to derive matching tags.
  // Lives inside the communicator state so a new communicator always starts
  // from zero (a process-global map keyed by CommState* would see stale
  // counters when the allocator reuses a freed state's address, making the
  // ranks disagree on tags and deadlocking the collective).  Each rank only
  // touches its own slot.
  std::vector<std::uint64_t> collective_seq;

  // Barrier (sense-reversing).
  std::mutex barrier_mutex;
  std::condition_variable barrier_cv;
  int barrier_count = 0;
  std::uint64_t barrier_generation = 0;

  // Broadcast: root deposits a buffer, everyone copies it out.
  std::mutex bcast_mutex;
  std::condition_variable bcast_cv;
  std::vector<std::vector<double>> bcast_buffers;
  std::uint64_t bcast_generation = 0;
  int bcast_consumed = 0;

  // Allreduce scratch.
  std::mutex reduce_mutex;
  std::condition_variable reduce_cv;
  std::vector<double> reduce_accum;
  int reduce_count = 0;
  std::uint64_t reduce_generation = 0;
  std::vector<double> reduce_result;
  int reduce_consumed = 0;

  // Point-to-point mailboxes keyed by (src, dst, tag).
  std::mutex mail_mutex;
  std::condition_variable mail_cv;
  std::map<std::tuple<int, int, int>, std::vector<std::vector<double>>> mail;

  // Split coordination.
  std::mutex split_mutex;
  std::condition_variable split_cv;
  std::uint64_t split_generation = 0;
  int split_count = 0;
  std::vector<std::pair<int, int>> split_keys;  // (color, key) per rank
  std::map<int, std::shared_ptr<CommState>> split_children;
  std::map<int, std::vector<int>> split_members;  // color -> world ranks sorted
  int split_consumed = 0;
};

}  // namespace detail

/// Handle to a communicator as seen by one rank.
class Comm {
 public:
  Comm(std::shared_ptr<detail::CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return state_->size; }

  /// Wildcard source for recv/probe/iprobe (MPI_ANY_SOURCE).
  static constexpr int kAnySource = -1;

  /// Delivery metadata of a matched message (MPI_Status).
  struct Status {
    int source = -1;
    int tag = -1;
    std::size_t count = 0;  ///< payload length in doubles
  };

  void barrier();

  /// Broadcast a double buffer from `root` to all ranks (in-place).
  void bcast(std::vector<double>& data, int root);

  /// Broadcast a complex matrix from `root`; non-root shapes are overwritten.
  void bcast(numeric::CMatrix& m, int root);

  enum class ReduceOp { kSum, kMax, kMin };

  /// Allreduce a double buffer element-wise.
  void allreduce(std::vector<double>& data, ReduceOp op);
  double allreduce(double value, ReduceOp op);

  /// Reduce to `root` only (MPI_Reduce): the combined buffer lands in `data`
  /// on the root; other ranks' buffers are left untouched.  Contributions
  /// are combined in rank order, so the result is deterministic.
  void reduce(std::vector<double>& data, ReduceOp op, int root);

  /// Gather variable-size buffers to `root` (MPI_Gatherv): returns the
  /// ranks' buffers concatenated in rank order on the root (empty
  /// elsewhere).  `counts`, when non-null, receives the per-rank element
  /// counts on the root.
  std::vector<double> gatherv(const std::vector<double>& local, int root,
                              std::vector<std::size_t>* counts = nullptr);

  /// Blocking tagged point-to-point.
  void send(const std::vector<double>& data, int dst, int tag);
  std::vector<double> recv(int src, int tag);

  /// Receive with delivery metadata; `src` may be kAnySource, in which case
  /// the lowest sending rank with a matching message is taken and reported
  /// through `status` — the work-stealing protocol identifies requesters
  /// this way instead of encoding them in magic tags.
  std::vector<double> recv(int src, int tag, Status& status);

  /// Blocking probe: wait until a message matching (src, tag) is available
  /// and return its metadata without consuming it.  `src` may be kAnySource.
  Status probe(int src, int tag);

  /// Non-blocking probe: metadata of a matching pending message, or nullopt.
  std::optional<Status> iprobe(int src, int tag);

  /// Point-to-point complex-matrix transfer (shape travels with the data).
  /// Named distinctly from `send` so brace-initialized buffers stay
  /// unambiguous.  `src` may be kAnySource.
  void send_matrix(const numeric::CMatrix& m, int dst, int tag);
  numeric::CMatrix recv_matrix(int src, int tag, Status* status = nullptr);

  /// MPI_Comm_split: ranks with the same color form a new communicator,
  /// ordered by (key, old rank).  Collective over all ranks.
  Comm split(int color, int key);

 private:
  std::shared_ptr<detail::CommState> state_;
  int rank_;
};

/// Owns the rank threads.  `run` blocks until every rank function returns.
/// Any rank throwing aborts the job and rethrows on the caller thread.
class CommWorld {
 public:
  explicit CommWorld(int size);

  int size() const noexcept { return size_; }

  /// Launch `fn(comm)` on `size` rank-threads; a size-1 world runs it on
  /// the calling thread.
  void run(const std::function<void(Comm&)>& fn);

 private:
  int size_;
};

}  // namespace omenx::parallel
