#include "xccl/ring_backend.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <ranges>
#include <vector>

#include "common/reduce.hpp"
#include "common/schedule.hpp"

namespace mpixccl::xccl {

namespace {

/// Ring collectives switch to the pipelined path above this chunk size; the
/// chunk count mirrors NCCL's fixed-size chunking.
constexpr std::size_t kPipelineChunkBytes = 262144;
constexpr int kMaxPipelineChunks = 16;

constexpr double kCommInitUs = 1200.0;  // one-time communicator setup cost

/// Elements per block when a ring splits `count` elements into `p` equal
/// blocks, the last ones padded.
std::size_t ring_block_count(std::size_t count, int p) {
  const auto up = static_cast<std::size_t>(p);
  return (count + up - 1) / up;
}

/// `count` elements of `src` followed by zeros up to `padded` elements: a
/// ring's p equal blocks. Every rank pads with zeros and the reduced pad is
/// never copied out, so any op may combine them.
std::unique_ptr<std::byte[]> padded_copy(const void* src, std::size_t count,
                                         std::size_t padded, std::size_t esz) {
  auto out = uninit(padded * esz);
  std::memcpy(out.get(), src, count * esz);
  std::memset(out.get() + count * esz, 0, (padded - count) * esz);
  return out;
}

}  // namespace

XcclResult CclBackend::comm_init_rank(CclComm& comm, int nranks, const UniqueId& id,
                                      int rank, std::vector<int> world_ranks) {
  if (nranks < 1 || rank < 0 || rank >= nranks) return XcclResult::InvalidArgument;
  if (world_ranks.empty()) {
    world_ranks.resize(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) world_ranks[static_cast<std::size_t>(r)] = r;
  }
  if (world_ranks.size() != static_cast<std::size_t>(nranks)) {
    return XcclResult::InvalidArgument;
  }
  set_comm(comm, rank, std::move(world_ranks), id.channel());
  ctx().clock().advance(kCommInitUs);
  return XcclResult::Success;
}

XcclResult RingCclBackend::check_move(DataType dt) const {
  return caps_.can_move(dt) ? XcclResult::Success : XcclResult::UnsupportedDatatype;
}

XcclResult RingCclBackend::check_reduce(DataType dt, ReduceOp op) const {
  if (!caps_.reducible.contains(dt)) return XcclResult::UnsupportedDatatype;
  if (!caps_.ops.contains(op)) return XcclResult::UnsupportedOperation;
  return XcclResult::Success;
}

const sim::LinkParams& RingCclBackend::link(int peer_world) const {
  // `ctx()` is non-const only because of the RankContext accessors; the
  // lookup itself has no side effects.
  auto& self = const_cast<RingCclBackend&>(*this);
  const bool intra = self.ctx().topology().same_node(self.ctx().rank(), peer_world);
  return intra ? prof_.p2p_intra : prof_.p2p_inter;
}

double RingCclBackend::ring_hop_cost(int src_world, std::size_t bytes) const {
  const sim::LinkParams& l = link(src_world);
  return prof_.ring_step_us + static_cast<double>(bytes) / l.bw_MBps;
}

double RingCclBackend::tree_hop_cost(int src_world, std::size_t bytes) const {
  const sim::LinkParams& l = link(src_world);
  return prof_.tree_hop_us + static_cast<double>(bytes) / l.bw_MBps;
}

double RingCclBackend::p2p_cost(int src_world, std::size_t bytes,
                                std::size_t concurrent, bool bidirectional) const {
  // Concurrent incoming transfers share the link; alpha is paid once each.
  // Under simultaneous send+recv load the per-direction bandwidth drops by
  // the link's duplex efficiency (NCCL bibw 181 GB/s vs 2x137 uni).
  const sim::LinkParams& l = link(src_world);
  const double bw = bidirectional ? l.bw_MBps * l.bidir_factor : l.bw_MBps;
  return l.alpha_us +
         static_cast<double>(bytes * std::max<std::size_t>(concurrent, 1)) / bw;
}

double RingCclBackend::quirk_extra(const CclComm& comm, std::size_t bytes) const {
  if (prof_.inter_quirks.empty()) return 0.0;
  auto& self = const_cast<RingCclBackend&>(*this);
  const auto& topo = self.ctx().topology();
  bool multi_node = false;
  for (int r = 1; r < comm.nranks(); ++r) {
    if (!topo.same_node(comm.world_rank(0), comm.world_rank(r))) {
      multi_node = true;
      break;
    }
  }
  if (!multi_node) return 0.0;
  double extra = 0.0;
  for (const auto& q : prof_.inter_quirks) {
    if (bytes > q.min_bytes) extra += q.extra_us;
  }
  return extra;
}

sim::TimeUs RingCclBackend::begin_op(device::Stream& stream) {
  ctx().clock().advance(prof_.launch_us);
  return std::max(stream.tail(), ctx().clock().now());
}

sim::TimeUs RingCclBackend::step_exchange(CclComm& comm, fabric::ChannelId ch,
                                          int tag, int dst, const void* sbuf,
                                          std::size_t sbytes, int src, void* rbuf,
                                          std::size_t rbytes, sim::TimeUs ready,
                                          bool tree_hop,
                                          std::optional<fabric::ReduceSpec> reduce) {
  fabric::PendingSend ps;
  fabric::PendingRecv pr;
  if (dst >= 0) {
    const int dst_world = comm.world_rank(dst);
    fabric::SendPolicy policy{.rendezvous = true, .eager_complete_us = 0.0};
    ps = ctx().endpoint_of(dst_world).deliver(ctx().rank(), tag, ch, sbuf, sbytes,
                                              ready, policy);
  }
  if (src >= 0) {
    const int src_world = comm.world_rank(src);
    auto cost = [this, tree_hop](int sw, std::size_t b) {
      return tree_hop ? tree_hop_cost(sw, b) : ring_hop_cost(sw, b);
    };
    pr = ctx().endpoint().post_recv(src_world, tag, ch, rbuf, rbytes, ready, cost,
                                    reduce);
  }
  sim::TimeUs t = ready;
  sim::VirtualClock scratch;  // completions are read from the return values
  if (ps.valid()) t = std::max(t, ps.wait(scratch));
  if (pr.valid()) t = std::max(t, pr.wait(scratch).completion);
  return t;
}

// ---- AllReduce -------------------------------------------------------------

template <class Land>
sim::TimeUs RingCclBackend::ring_reduce_scatter(const void* input,
                                                std::size_t block_count, DataType dt,
                                                ReduceOp op, CclComm& comm,
                                                fabric::ChannelId ch, sim::TimeUs t0,
                                                const Land& land) {
  // Standard NCCL-style ring over p input blocks: each step forwards the
  // block the previous step produced (step 0 sends an input block) and
  // reduces the left neighbour's block with this rank's input block as it
  // lands. The input is only read, so it is never copied.
  const std::size_t block = block_count * datatype_size(dt);
  const Ring ring(comm.nranks(), comm.rank());
  const void* send =
      at(input, static_cast<std::size_t>(ring.reduce_scatter(0).send) * block);
  sim::TimeUs t = t0;
  for (int s = 0; s < ring.steps(); ++s) {
    const auto recv_block = static_cast<std::size_t>(ring.reduce_scatter(s).recv);
    std::byte* out = land(s, recv_block);
    const void* local = at(input, recv_block * block);
    t = step_exchange(comm, ch, 10 + s, ring.right(), send, block, ring.left(), out,
                      block, t, false, fabric::ReduceSpec{dt, op, local});
    send = out;
  }
  return t;
}

sim::TimeUs RingCclBackend::ring_allgather(std::byte* buf, std::size_t block, int tag0,
                                           CclComm& comm, fabric::ChannelId ch,
                                           sim::TimeUs t0) {
  const Ring ring(comm.nranks(), comm.rank());
  auto blk = [&](int b) { return buf + static_cast<std::size_t>(b) * block; };
  sim::TimeUs t = t0;
  for (int s = 0; s < ring.steps(); ++s) {
    const RingStep st = ring.allgather(s);
    t = step_exchange(comm, ch, tag0 + s, ring.right(), blk(st.send), block,
                      ring.left(), blk(st.recv), block, t, false);
  }
  return t;
}

sim::TimeUs RingCclBackend::allreduce_ring(const void* sendbuf, void* recvbuf,
                                           std::size_t count, DataType dt,
                                           ReduceOp op, CclComm& comm,
                                           fabric::ChannelId ch, sim::TimeUs t0) {
  // Ring reduce-scatter over ceil(count/p)-sized blocks, then ring allgather.
  const std::size_t esz = datatype_size(dt);
  const std::size_t block_count = ring_block_count(count, comm.nranks());
  const std::size_t padded = block_count * static_cast<std::size_t>(comm.nranks());

  // The working area is recvbuf itself unless the blocks need a pad; the
  // reduce-scatter then reads sendbuf where it lies.
  std::unique_ptr<std::byte[]> pad;
  std::byte* ws = static_cast<std::byte*>(recvbuf);
  const void* input = sendbuf;
  if (padded != count) {
    pad = padded_copy(sendbuf, count, padded, esz);
    ws = pad.get();
    input = ws;
  }
  const std::size_t block = block_count * esz;
  sim::TimeUs t = ring_reduce_scatter(
      input, block_count, dt, op, comm, ch, t0,
      [&](int, std::size_t b) { return ws + b * block; });

  // Ring allgather of the reduced blocks: it fills every block of ws the
  // reduce-scatter left unwritten.
  t = ring_allgather(ws, block, 100, comm, ch, t);
  if (ws != recvbuf) std::memcpy(recvbuf, ws, count * esz);
  return t;
}

XcclResult RingCclBackend::all_reduce(const void* sendbuf, void* recvbuf,
                                      std::size_t count, DataType dt, ReduceOp op,
                                      CclComm& comm, device::Stream& stream) {
  if (!comm.valid()) return XcclResult::InvalidUsage;
  if (auto r = check_reduce(dt, op); !ok(r)) return r;
  const std::size_t bytes = count * datatype_size(dt);
  const fabric::ChannelId ch = comm.next_op_channel();
  const sim::TimeUs t0 = begin_op(stream);

  const int p = comm.nranks();
  sim::TimeUs t;
  if (p == 1 || bytes <= prof_.tree_threshold || count < static_cast<std::size_t>(p)) {
    // Binomial reduce to comm rank 0, then binomial broadcast from it (one
    // rank: only the copy).
    t = reduce_tree(sendbuf, recvbuf, count, dt, op, 0, comm, ch, t0);
    t = bcast_tree(recvbuf, bytes, 0, /*tag=*/2, comm, ch, t);
  } else {
    t = allreduce_ring(sendbuf, recvbuf, count, dt, op, comm, ch, t0);
  }
  if (op == ReduceOp::Avg) {
    throw_if_error(scale_inplace(dt, recvbuf, count, 1.0 / p), "xccl allreduce avg");
  }
  stream.advance_tail_to(t + quirk_extra(comm, bytes));
  return XcclResult::Success;
}

// ---- Broadcast --------------------------------------------------------------

sim::TimeUs RingCclBackend::bcast_tree(void* buf, std::size_t bytes, int root, int tag,
                                       CclComm& comm, fabric::ChannelId ch,
                                       sim::TimeUs t0) {
  const BinomialTree tree(comm.nranks(), root, comm.rank());
  sim::TimeUs t = t0;
  if (tree.parent() >= 0) {
    t = step_exchange(comm, ch, tag, -1, nullptr, 0, tree.parent(), buf, bytes, t, true);
  }
  for (const int child : tree.children()) {
    t = step_exchange(comm, ch, tag, child, buf, bytes, -1, nullptr, 0, t, true);
  }
  return t;
}

sim::TimeUs RingCclBackend::bcast_ring(void* buf, std::size_t bytes, int root,
                                       CclComm& comm, fabric::ChannelId ch,
                                       sim::TimeUs t0) {
  // Chunked pipelined ring: rank k forwards chunk c as soon as it arrives,
  // so completion ~ t0 + (k-1) hops + n/bw instead of (p-1) * n/bw.
  const int p = comm.nranks();
  const int vrank = (comm.rank() - root + p) % p;
  const Ring ring(p, comm.rank());
  const int right = (vrank + 1 < p) ? ring.right() : -1;  // tail sends nothing
  const int left = (vrank > 0) ? ring.left() : -1;        // root receives nothing

  const int nchunks = static_cast<int>(std::clamp<std::size_t>(
      bytes / kPipelineChunkBytes, 1, kMaxPipelineChunks));
  const std::size_t chunk = (bytes + static_cast<std::size_t>(nchunks) - 1) /
                            static_cast<std::size_t>(nchunks);

  sim::TimeUs t = t0;
  std::vector<fabric::PendingSend> sends;
  sim::VirtualClock scratch;
  for (int c = 0; c < nchunks; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * chunk;
    const std::size_t len = std::min(chunk, bytes - off);
    if (left >= 0) {
      auto cost = [this](int sw, std::size_t b) { return ring_hop_cost(sw, b); };
      auto pr = ctx().endpoint().post_recv(comm.world_rank(left), c, ch,
                                           at(buf, off), len, t, cost);
      t = std::max(t, pr.wait(scratch).completion);
    }
    if (right >= 0) {
      fabric::SendPolicy policy{.rendezvous = true, .eager_complete_us = 0.0};
      sends.push_back(ctx().endpoint_of(comm.world_rank(right))
                          .deliver(ctx().rank(), c, ch, at(buf, off), len, t,
                                   policy));
    }
  }
  for (auto& s : sends) t = std::max(t, s.wait(scratch));
  return t;
}

XcclResult RingCclBackend::broadcast(void* buf, std::size_t count, DataType dt,
                                     int root, CclComm& comm,
                                     device::Stream& stream) {
  if (!comm.valid()) return XcclResult::InvalidUsage;
  if (root < 0 || root >= comm.nranks()) return XcclResult::InvalidArgument;
  if (auto r = check_move(dt); !ok(r)) return r;
  const std::size_t bytes = count * datatype_size(dt);
  const fabric::ChannelId ch = comm.next_op_channel();
  const sim::TimeUs t0 = begin_op(stream);
  sim::TimeUs t = t0;
  if (comm.nranks() > 1) {
    t = (bytes <= prof_.tree_threshold)
            ? bcast_tree(buf, bytes, root, /*tag=*/1, comm, ch, t0)
            : bcast_ring(buf, bytes, root, comm, ch, t0);
  }
  stream.advance_tail_to(t + quirk_extra(comm, bytes));
  return XcclResult::Success;
}

// ---- Reduce -----------------------------------------------------------------

sim::TimeUs RingCclBackend::reduce_tree(const void* sendbuf, void* acc,
                                        std::size_t count, DataType dt, ReduceOp op,
                                        int root, CclComm& comm,
                                        fabric::ChannelId ch, sim::TimeUs t0) {
  const std::size_t bytes = count * datatype_size(dt);
  if (sendbuf != acc) std::memcpy(acc, sendbuf, bytes);
  // Each child's vector is reduced into the accumulator as it lands; the
  // send to the parent follows the last child.
  const BinomialTree tree(comm.nranks(), root, comm.rank());
  sim::TimeUs t = t0;
  for (const int child : std::views::reverse(tree.children())) {
    t = step_exchange(comm, ch, 1, -1, nullptr, 0, child, acc, bytes, t, true,
                      fabric::ReduceSpec{dt, op});
  }
  if (tree.parent() >= 0) {
    t = step_exchange(comm, ch, 1, tree.parent(), acc, bytes, -1, nullptr, 0, t, true);
  }
  return t;
}

XcclResult RingCclBackend::reduce(const void* sendbuf, void* recvbuf,
                                  std::size_t count, DataType dt, ReduceOp op,
                                  int root, CclComm& comm, device::Stream& stream) {
  if (!comm.valid()) return XcclResult::InvalidUsage;
  if (root < 0 || root >= comm.nranks()) return XcclResult::InvalidArgument;
  if (auto r = check_reduce(dt, op); !ok(r)) return r;
  const std::size_t bytes = count * datatype_size(dt);
  const fabric::ChannelId ch = comm.next_op_channel();
  const sim::TimeUs t0 = begin_op(stream);
  const int p = comm.nranks();
  const int me = comm.rank();

  sim::TimeUs t;
  if (p == 1 || bytes <= prof_.tree_threshold || count < static_cast<std::size_t>(p)) {
    // The accumulator: recvbuf at the root, scratch elsewhere.
    std::unique_ptr<std::byte[]> scratch;
    void* acc = recvbuf;
    if (me != root) {
      scratch = uninit(bytes);
      acc = scratch.get();
    }
    t = reduce_tree(sendbuf, acc, count, dt, op, root, comm, ch, t0);
  } else {
    // Ring reduce-scatter, then every rank ships its reduced block to root.
    const std::size_t esz = datatype_size(dt);
    const std::size_t block_count = ring_block_count(count, p);
    const auto scratch =
        padded_copy(sendbuf, count, block_count * static_cast<std::size_t>(p), esz);
    const std::size_t block = block_count * esz;
    t = ring_reduce_scatter(
        scratch.get(), block_count, dt, op, comm, ch, t0,
        [&](int, std::size_t b) { return scratch.get() + b * block; });
    if (me == root) {
      // The root's own block is already in place; the others land around it.
      for (int r = 0; r < p; ++r) {
        if (r == me) continue;
        t = step_exchange(comm, ch, 200, -1, nullptr, 0, r,
                          scratch.get() + static_cast<std::size_t>(r) * block,
                          block, t, false);
      }
      std::memcpy(recvbuf, scratch.get(), count * esz);
    } else {
      t = step_exchange(comm, ch, 200, root,
                        scratch.get() + static_cast<std::size_t>(me) * block,
                        block, -1, nullptr, 0, t, false);
    }
  }
  if (me == root && op == ReduceOp::Avg) {
    throw_if_error(scale_inplace(dt, recvbuf, count, 1.0 / p), "xccl reduce avg");
  }
  stream.advance_tail_to(t + quirk_extra(comm, bytes));
  return XcclResult::Success;
}

// ---- AllGather / ReduceScatter ----------------------------------------------

XcclResult RingCclBackend::all_gather(const void* sendbuf, void* recvbuf,
                                      std::size_t sendcount, DataType dt,
                                      CclComm& comm, device::Stream& stream) {
  if (!comm.valid()) return XcclResult::InvalidUsage;
  if (auto r = check_move(dt); !ok(r)) return r;
  const std::size_t block = sendcount * datatype_size(dt);
  const fabric::ChannelId ch = comm.next_op_channel();
  const sim::TimeUs t0 = begin_op(stream);

  std::byte* buf = static_cast<std::byte*>(recvbuf);
  std::memcpy(buf + static_cast<std::size_t>(comm.rank()) * block, sendbuf, block);
  stream.advance_tail_to(ring_allgather(buf, block, 0, comm, ch, t0));
  return XcclResult::Success;
}

XcclResult RingCclBackend::reduce_scatter(const void* sendbuf, void* recvbuf,
                                          std::size_t recvcount, DataType dt,
                                          ReduceOp op, CclComm& comm,
                                          device::Stream& stream) {
  if (!comm.valid()) return XcclResult::InvalidUsage;
  if (auto r = check_reduce(dt, op); !ok(r)) return r;
  const int p = comm.nranks();
  const std::size_t block = recvcount * datatype_size(dt);
  const fabric::ChannelId ch = comm.next_op_channel();
  sim::TimeUs t = begin_op(stream);

  if (p == 1) {
    if (sendbuf != recvbuf) std::memcpy(recvbuf, sendbuf, block);
  } else {
    // Partial blocks alternate between two slots (a step forwards one while
    // the next lands in the other); the last step lands in recvbuf, which
    // may be this rank's own input block (NCCL's in-place form).
    const auto slots = uninit(p > 2 ? 2 * block : 0);
    auto land = [&](int s, std::size_t) {
      return s == p - 2 ? static_cast<std::byte*>(recvbuf)
                        : slots.get() + static_cast<std::size_t>(s % 2) * block;
    };
    t = ring_reduce_scatter(sendbuf, recvcount, dt, op, comm, ch, t, land);
  }
  if (op == ReduceOp::Avg) {
    throw_if_error(scale_inplace(dt, recvbuf, recvcount, 1.0 / p),
                   "xccl reduce_scatter avg");
  }
  stream.advance_tail_to(t);
  return XcclResult::Success;
}

// ---- Point-to-point -----------------------------------------------------------

XcclResult RingCclBackend::send(const void* buf, std::size_t count, DataType dt,
                                int peer, CclComm& comm, device::Stream& stream) {
  if (!comm.valid()) return XcclResult::InvalidUsage;
  if (peer < 0 || peer >= comm.nranks()) return XcclResult::InvalidArgument;
  if (auto r = check_move(dt); !ok(r)) return r;
  return enqueue_p2p(QueuedP2p{true, buf, nullptr, count * datatype_size(dt),
                               comm.world_rank(peer), &comm, &stream});
}

XcclResult RingCclBackend::recv(void* buf, std::size_t count, DataType dt, int peer,
                                CclComm& comm, device::Stream& stream) {
  if (!comm.valid()) return XcclResult::InvalidUsage;
  if (peer < 0 || peer >= comm.nranks()) return XcclResult::InvalidArgument;
  if (auto r = check_move(dt); !ok(r)) return r;
  return enqueue_p2p(QueuedP2p{false, nullptr, buf, count * datatype_size(dt),
                               comm.world_rank(peer), &comm, &stream});
}

XcclResult RingCclBackend::enqueue_p2p(const QueuedP2p& op) {
  group_start();
  group_queue_.push_back(op);
  return group_end();
}

// ---- Group calls ----------------------------------------------------------------

XcclResult RingCclBackend::group_start() {
  ++group_depth_;
  return XcclResult::Success;
}

XcclResult RingCclBackend::group_end() {
  if (group_depth_ == 0) return XcclResult::InvalidUsage;
  if (--group_depth_ > 0) return XcclResult::Success;

  // One launch covers the whole group (batched kernel launch).
  ctx().clock().advance(prof_.launch_us);
  sim::TimeUs t0 = ctx().clock().now();
  std::size_t n_recvs = 0;
  std::size_t n_sends = 0;
  for (const auto& op : group_queue_) {
    t0 = std::max(t0, op.stream->tail());
    if (op.is_send) {
      ++n_sends;
    } else {
      ++n_recvs;
    }
  }
  const bool bidir = n_sends > 0 && n_recvs > 0;

  // Post every send first, then every recv: grouped operations execute
  // concurrently, so ordering cannot deadlock. Incoming transfers share
  // link bandwidth (`n_recvs` contention factor).
  struct Outcome {
    device::Stream* stream;
    fabric::PendingSend ps;
    fabric::PendingRecv pr;
  };
  std::vector<Outcome> outcomes;
  outcomes.reserve(group_queue_.size());
  for (const auto& op : group_queue_) {
    if (op.is_send) {
      fabric::SendPolicy policy{.rendezvous = true, .eager_complete_us = 0.0};
      outcomes.push_back(Outcome{
          op.stream,
          ctx().endpoint_of(op.peer_world)
              .deliver(ctx().rank(), 0, op.comm->p2p_channel(), op.sbuf, op.bytes,
                       t0, policy),
          {}});
    }
  }
  for (const auto& op : group_queue_) {
    if (!op.is_send) {
      auto cost = [this, n_recvs, bidir](int sw, std::size_t b) {
        return p2p_cost(sw, b, n_recvs, bidir);
      };
      outcomes.push_back(Outcome{
          op.stream,
          {},
          ctx().endpoint().post_recv(op.peer_world, 0, op.comm->p2p_channel(),
                                     op.rbuf, op.bytes, t0, cost)});
    }
  }
  group_queue_.clear();

  sim::VirtualClock scratch;
  for (auto& o : outcomes) {
    sim::TimeUs t = t0;
    if (o.ps.valid()) t = std::max(t, o.ps.wait(scratch));
    if (o.pr.valid()) t = std::max(t, o.pr.wait(scratch).completion);
    o.stream->advance_tail_to(t);
  }
  return XcclResult::Success;
}

}  // namespace mpixccl::xccl
