#include "parallel/comm.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

namespace omenx::parallel {

namespace {
// Reserved tag spaces for collectives, far above any user tag.
constexpr std::int64_t kBcastTagBase = 1'000'000'000'000LL;
constexpr std::int64_t kReduceTagBase = 2'000'000'000'000LL;
constexpr std::int64_t kReduceResultTagBase = 3'000'000'000'000LL;
constexpr std::int64_t kGatherTagBase = 4'000'000'000'000LL;
}  // namespace

namespace {

// Per-communicator, per-rank collective sequence number.  Each rank only
// touches its own slot, so no locking is required.
std::uint64_t next_collective_seq(detail::CommState& st, int rank) {
  return st.collective_seq[static_cast<std::size_t>(rank)]++;
}

// One wire format for every CMatrix transfer (bcast, send_matrix,
// recv_matrix): {rows, cols, re0, im0, re1, im1, ...}.
std::vector<double> pack_matrix(const numeric::CMatrix& m) {
  std::vector<double> buf;
  buf.reserve(static_cast<std::size_t>(2 + 2 * m.size()));
  buf.push_back(static_cast<double>(m.rows()));
  buf.push_back(static_cast<double>(m.cols()));
  for (numeric::idx i = 0; i < m.size(); ++i) {
    buf.push_back(m.data()[i].real());
    buf.push_back(m.data()[i].imag());
  }
  return buf;
}

void unpack_matrix(const std::vector<double>& buf, numeric::CMatrix& m) {
  if (buf.size() < 2)
    throw std::runtime_error("matrix transfer: truncated payload");
  const auto rows = static_cast<numeric::idx>(buf[0]);
  const auto cols = static_cast<numeric::idx>(buf[1]);
  m.resize_uninit(rows, cols);
  if (buf.size() != static_cast<std::size_t>(2 + 2 * m.size()))
    throw std::runtime_error("matrix transfer: payload/shape mismatch");
  for (numeric::idx i = 0; i < m.size(); ++i)
    m.data()[i] = numeric::cplx(buf[static_cast<std::size_t>(2 + 2 * i)],
                                buf[static_cast<std::size_t>(3 + 2 * i)]);
}

void mail_send(detail::CommState& st, int src, int dst, std::int64_t tag,
               std::vector<double> data) {
  {
    std::lock_guard lock(st.mail_mutex);
    st.mail[{src, dst, static_cast<int>(tag % 1'000'000'000LL)}]
        .push_back(std::move(data));
    // NOTE: tags are folded into the int key space; collective bases are
    // chosen so folded values cannot collide with user tags (< 10^6 assumed,
    // enforced in Comm::send).
  }
  st.mail_cv.notify_all();
}

std::vector<double> mail_recv(detail::CommState& st, int src, int dst,
                              std::int64_t tag) {
  std::unique_lock lock(st.mail_mutex);
  const auto key = std::make_tuple(src, dst,
                                   static_cast<int>(tag % 1'000'000'000LL));
  st.mail_cv.wait(lock, [&] {
    auto it = st.mail.find(key);
    return it != st.mail.end() && !it->second.empty();
  });
  auto it = st.mail.find(key);
  std::vector<double> out = std::move(it->second.front());
  it->second.erase(it->second.begin());
  if (it->second.empty()) st.mail.erase(it);
  return out;
}

// Locate a pending message matching (src | any, dst, tag).  The mail map is
// ordered by (src, dst, tag), so the first hit is the lowest sending rank.
// Caller holds mail_mutex.
auto mail_find(detail::CommState& st, int src, int dst, int folded_tag)
    -> decltype(st.mail.begin()) {
  if (src != Comm::kAnySource)
    return st.mail.find({src, dst, folded_tag});
  for (auto it = st.mail.begin(); it != st.mail.end(); ++it) {
    const auto& [s, d, t] = it->first;
    if (d == dst && t == folded_tag && !it->second.empty()) return it;
  }
  return st.mail.end();
}

std::vector<double> mail_recv_status(detail::CommState& st, int src, int dst,
                                     int tag, Comm::Status& status) {
  std::unique_lock lock(st.mail_mutex);
  auto it = st.mail.end();
  st.mail_cv.wait(lock, [&] {
    it = mail_find(st, src, dst, tag);
    return it != st.mail.end() && !it->second.empty();
  });
  status.source = std::get<0>(it->first);
  status.tag = std::get<2>(it->first);
  status.count = it->second.front().size();
  std::vector<double> out = std::move(it->second.front());
  it->second.erase(it->second.begin());
  if (it->second.empty()) st.mail.erase(it);
  return out;
}

std::int64_t fold_collective_tag(std::int64_t base, std::uint64_t seq) {
  // Distinct bases land in distinct hundred-million bands after folding.
  return base + 100'000'000LL *
                    ((base / 1'000'000'000'000LL)) +
         static_cast<std::int64_t>(seq % 90'000'000ULL) + 1'000'000LL;
}

}  // namespace

void Comm::barrier() {
  auto& st = *state_;
  std::unique_lock lock(st.barrier_mutex);
  const std::uint64_t gen = st.barrier_generation;
  if (++st.barrier_count == st.size) {
    st.barrier_count = 0;
    ++st.barrier_generation;
    st.barrier_cv.notify_all();
  } else {
    st.barrier_cv.wait(lock, [&] { return st.barrier_generation != gen; });
  }
}

void Comm::bcast(std::vector<double>& data, int root) {
  auto& st = *state_;
  if (root < 0 || root >= st.size)
    throw std::invalid_argument("bcast: root out of range");
  if (st.size == 1) return;
  const std::uint64_t seq =
      next_collective_seq(st, rank_);
  const std::int64_t tag = fold_collective_tag(kBcastTagBase, seq);
  if (rank_ == root) {
    for (int dst = 0; dst < st.size; ++dst)
      if (dst != root) mail_send(st, root, dst, tag, data);
  } else {
    data = mail_recv(st, root, rank_, tag);
  }
}

void Comm::bcast(numeric::CMatrix& m, int root) {
  std::vector<double> buf;
  if (rank_ == root && size() > 1) buf = pack_matrix(m);
  bcast(buf, root);
  if (rank_ != root) unpack_matrix(buf, m);
}

void Comm::allreduce(std::vector<double>& data, ReduceOp op) {
  auto& st = *state_;
  if (st.size == 1) return;
  const std::uint64_t seq =
      next_collective_seq(st, rank_);
  const std::int64_t up_tag = fold_collective_tag(kReduceTagBase, seq);
  const std::int64_t down_tag = fold_collective_tag(kReduceResultTagBase, seq);
  if (rank_ == 0) {
    std::vector<double> acc = data;
    for (int src = 1; src < st.size; ++src) {
      std::vector<double> incoming = mail_recv(st, src, 0, up_tag);
      if (incoming.size() != acc.size())
        throw std::runtime_error("allreduce: mismatched buffer sizes");
      for (std::size_t i = 0; i < acc.size(); ++i) {
        switch (op) {
          case ReduceOp::kSum:
            acc[i] += incoming[i];
            break;
          case ReduceOp::kMax:
            acc[i] = std::max(acc[i], incoming[i]);
            break;
          case ReduceOp::kMin:
            acc[i] = std::min(acc[i], incoming[i]);
            break;
        }
      }
    }
    for (int dst = 1; dst < st.size; ++dst) mail_send(st, 0, dst, down_tag, acc);
    data = std::move(acc);
  } else {
    mail_send(st, rank_, 0, up_tag, data);
    data = mail_recv(st, 0, rank_, down_tag);
  }
}

double Comm::allreduce(double value, ReduceOp op) {
  std::vector<double> buf{value};
  allreduce(buf, op);
  return buf[0];
}

void Comm::send(const std::vector<double>& data, int dst, int tag) {
  if (tag < 0 || tag >= 1'000'000)
    throw std::invalid_argument("send: user tags must be in [0, 1e6)");
  if (dst < 0 || dst >= state_->size)
    throw std::invalid_argument("send: destination out of range");
  mail_send(*state_, rank_, dst, tag, data);
}

std::vector<double> Comm::recv(int src, int tag) {
  if (tag < 0 || tag >= 1'000'000)
    throw std::invalid_argument("recv: user tags must be in [0, 1e6)");
  if (src < 0 || src >= state_->size)
    throw std::invalid_argument("recv: source out of range");
  return mail_recv(*state_, src, rank_, tag);
}

namespace {

void check_recv_args(int src, int tag, int size, const char* who) {
  if (tag < 0 || tag >= 1'000'000)
    throw std::invalid_argument(std::string(who) +
                                ": user tags must be in [0, 1e6)");
  if (src != Comm::kAnySource && (src < 0 || src >= size))
    throw std::invalid_argument(std::string(who) + ": source out of range");
}

}  // namespace

std::vector<double> Comm::recv(int src, int tag, Status& status) {
  check_recv_args(src, tag, state_->size, "recv");
  return mail_recv_status(*state_, src, rank_, tag, status);
}

Comm::Status Comm::probe(int src, int tag) {
  check_recv_args(src, tag, state_->size, "probe");
  auto& st = *state_;
  std::unique_lock lock(st.mail_mutex);
  auto it = st.mail.end();
  st.mail_cv.wait(lock, [&] {
    it = mail_find(st, src, rank_, tag);
    return it != st.mail.end() && !it->second.empty();
  });
  Status out;
  out.source = std::get<0>(it->first);
  out.tag = std::get<2>(it->first);
  out.count = it->second.front().size();
  return out;
}

std::optional<Comm::Status> Comm::iprobe(int src, int tag) {
  check_recv_args(src, tag, state_->size, "iprobe");
  auto& st = *state_;
  std::lock_guard lock(st.mail_mutex);
  auto it = mail_find(st, src, rank_, tag);
  if (it == st.mail.end() || it->second.empty()) return std::nullopt;
  Status out;
  out.source = std::get<0>(it->first);
  out.tag = std::get<2>(it->first);
  out.count = it->second.front().size();
  return out;
}

void Comm::reduce(std::vector<double>& data, ReduceOp op, int root) {
  auto& st = *state_;
  if (root < 0 || root >= st.size)
    throw std::invalid_argument("reduce: root out of range");
  if (st.size == 1) return;
  const std::uint64_t seq = next_collective_seq(st, rank_);
  const std::int64_t tag = fold_collective_tag(kReduceTagBase, seq);
  if (rank_ != root) {
    mail_send(st, rank_, root, tag, data);
    return;
  }
  std::vector<double> acc;
  for (int r = 0; r < st.size; ++r) {
    std::vector<double> part =
        r == root ? data : mail_recv(st, r, root, tag);
    if (acc.empty() && r == 0) {
      acc = std::move(part);
      continue;
    }
    if (part.size() != acc.size())
      throw std::runtime_error("reduce: mismatched buffer sizes");
    for (std::size_t i = 0; i < acc.size(); ++i) {
      switch (op) {
        case ReduceOp::kSum:
          acc[i] += part[i];
          break;
        case ReduceOp::kMax:
          acc[i] = std::max(acc[i], part[i]);
          break;
        case ReduceOp::kMin:
          acc[i] = std::min(acc[i], part[i]);
          break;
      }
    }
  }
  data = std::move(acc);
}

std::vector<double> Comm::gatherv(const std::vector<double>& local, int root,
                                  std::vector<std::size_t>* counts) {
  auto& st = *state_;
  if (root < 0 || root >= st.size)
    throw std::invalid_argument("gatherv: root out of range");
  const std::uint64_t seq = next_collective_seq(st, rank_);
  const std::int64_t tag = fold_collective_tag(kGatherTagBase, seq);
  if (rank_ != root) {
    mail_send(st, rank_, root, tag, local);
    return {};
  }
  std::vector<double> out;
  if (counts != nullptr) counts->assign(static_cast<std::size_t>(st.size), 0);
  for (int r = 0; r < st.size; ++r) {
    const std::vector<double>& part =
        r == root ? local : mail_recv(st, r, root, tag);
    if (counts != nullptr)
      (*counts)[static_cast<std::size_t>(r)] = part.size();
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

void Comm::send_matrix(const numeric::CMatrix& m, int dst, int tag) {
  send(pack_matrix(m), dst, tag);
}

numeric::CMatrix Comm::recv_matrix(int src, int tag, Status* status) {
  Status st;
  const std::vector<double> buf = recv(src, tag, st);
  numeric::CMatrix m;
  unpack_matrix(buf, m);
  if (status != nullptr) *status = st;
  return m;
}

Comm Comm::split(int color, int key) {
  auto& st = *state_;
  std::unique_lock lock(st.split_mutex);
  // Wait for any previous round to fully drain before depositing.
  st.split_cv.wait(lock, [&] { return st.split_count < st.size; });
  if (st.split_count == 0) {
    st.split_keys.assign(static_cast<std::size_t>(st.size), {0, 0});
    st.split_children.clear();
    st.split_members.clear();
  }
  st.split_keys[static_cast<std::size_t>(rank_)] = {color, key};
  const std::uint64_t gen = st.split_generation;
  ++st.split_count;
  if (st.split_count == st.size) {
    // Group ranks by color, order by (key, rank).
    std::map<int, std::vector<std::pair<int, int>>> groups;  // color->(key,rank)
    for (int r = 0; r < st.size; ++r) {
      const auto [c, k] = st.split_keys[static_cast<std::size_t>(r)];
      groups[c].push_back({k, r});
    }
    for (auto& [c, members] : groups) {
      std::sort(members.begin(), members.end());
      auto child = std::make_shared<detail::CommState>(
          static_cast<int>(members.size()));
      st.split_children[c] = std::move(child);
      std::vector<int> order;
      order.reserve(members.size());
      for (auto& [k, r] : members) order.push_back(r);
      st.split_members[c] = std::move(order);
    }
    st.split_consumed = 0;
    ++st.split_generation;
    st.split_cv.notify_all();
  } else {
    st.split_cv.wait(lock, [&] { return st.split_generation != gen; });
  }
  auto child = st.split_children.at(color);
  const auto& members = st.split_members.at(color);
  const int new_rank = static_cast<int>(
      std::find(members.begin(), members.end(), rank_) - members.begin());
  if (++st.split_consumed == st.size) {
    st.split_count = 0;
    st.split_cv.notify_all();
  }
  return Comm(std::move(child), new_rank);
}

CommWorld::CommWorld(int size) : size_(size) {
  if (size <= 0) throw std::invalid_argument("CommWorld: size must be > 0");
}

void CommWorld::run(const std::function<void(Comm&)>& fn) {
  auto state = std::make_shared<detail::CommState>(size_);
  if (size_ == 1) {  // a lone rank runs on the caller's thread
    Comm comm(state, 0);
    fn(comm);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  std::mutex err_mutex;
  std::exception_ptr first_error;
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      try {
        Comm comm(state, r);
        fn(comm);
      } catch (...) {
        std::lock_guard lock(err_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace omenx::parallel
