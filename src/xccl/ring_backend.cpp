#include "xccl/ring_backend.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/reduce.hpp"

namespace mpixccl::xccl {

namespace {

/// Ring collectives switch to the pipelined path above this chunk size; the
/// chunk count mirrors NCCL's fixed-size chunking.
constexpr std::size_t kPipelineChunkBytes = 262144;
constexpr int kMaxPipelineChunks = 16;

constexpr double kCommInitUs = 1200.0;  // one-time communicator setup cost

int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

std::byte* at(void* base, std::size_t off) {
  return static_cast<std::byte*>(base) + off;
}
const std::byte* at(const void* base, std::size_t off) {
  return static_cast<const std::byte*>(base) + off;
}

/// Call-local scratch, left uninitialised: every user writes each byte
/// before reading it.
std::unique_ptr<std::byte[]> uninit(std::size_t bytes) {
  return std::make_unique_for_overwrite<std::byte[]>(bytes);
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

sim::TimeUs RingCclBackend::allreduce_tree(const void* sendbuf, void* recvbuf,
                                           std::size_t count, DataType dt,
                                           ReduceOp op, CclComm& comm,
                                           fabric::ChannelId ch, sim::TimeUs t0) {
  // Binomial reduce to comm rank 0 followed by binomial broadcast.
  const std::size_t bytes = count * datatype_size(dt);
  const int p = comm.nranks();
  const int me = comm.rank();
  if (sendbuf != recvbuf) std::memcpy(recvbuf, sendbuf, bytes);

  sim::TimeUs t = t0;
  // Reduce phase: each child's vector is reduced into recvbuf as it lands;
  // the send to the parent follows the last child.
  int mask = 1;
  while (mask < p) {
    if ((me & mask) == 0) {
      const int src = me | mask;
      if (src < p) {
        t = step_exchange(comm, ch, 1, -1, nullptr, 0, src, recvbuf, bytes, t,
                          /*tree_hop=*/true, fabric::ReduceSpec{dt, op});
      }
    } else {
      t = step_exchange(comm, ch, 1, me ^ mask, recvbuf, bytes, -1, nullptr, 0, t,
                        true);
      break;
    }
    mask <<= 1;
  }
  // Broadcast phase (root = 0).
  int recv_mask = 1;
  while (recv_mask < p) {
    if (me & recv_mask) {
      t = step_exchange(comm, ch, 2, -1, nullptr, 0, me ^ recv_mask, recvbuf, bytes,
                        t, true);
      break;
    }
    recv_mask <<= 1;
  }
  int send_mask = (me == 0) ? floor_pow2(p) : (recv_mask >> 1);
  for (; send_mask > 0; send_mask >>= 1) {
    const int child = me | send_mask;
    if (child < p && child != me) {
      t = step_exchange(comm, ch, 2, child, recvbuf, bytes, -1, nullptr, 0, t, true);
    }
  }
  return t;
}

sim::TimeUs RingCclBackend::ring_reduce_scatter(const void* input,
                                                std::size_t block_count, DataType dt,
                                                ReduceOp op, CclComm& comm,
                                                fabric::ChannelId ch, sim::TimeUs t0,
                                                const LandFn& land) {
  // Standard NCCL-style ring over p input blocks: each step forwards the
  // block the previous step produced (step 0 sends an input block) and
  // reduces the left neighbour's block with this rank's input block as it
  // lands. The input is only read, so it is never copied.
  const int p = comm.nranks();
  const int me = comm.rank();
  const std::size_t block = block_count * datatype_size(dt);

  const int right = (me + 1) % p;
  const int left = (me - 1 + p) % p;
  const void* send = at(input, static_cast<std::size_t>((me - 1 + p) % p) * block);
  sim::TimeUs t = t0;
  for (int s = 0; s < p - 1; ++s) {
    const auto recv_block = static_cast<std::size_t>((me - s - 2 + 2 * p) % p);
    std::byte* out = land(s, recv_block);
    const void* local = at(input, recv_block * block);
    t = step_exchange(comm, ch, 10 + s, right, send, block, left, out, block, t,
                      false, fabric::ReduceSpec{dt, op, local});
    send = out;
  }
  return t;
}

sim::TimeUs RingCclBackend::allreduce_ring(const void* sendbuf, void* recvbuf,
                                           std::size_t count, DataType dt,
                                           ReduceOp op, CclComm& comm,
                                           fabric::ChannelId ch, sim::TimeUs t0) {
  // Ring reduce-scatter over ceil(count/p)-sized blocks, then ring allgather.
  const int p = comm.nranks();
  const int me = comm.rank();
  const std::size_t esz = datatype_size(dt);
  const std::size_t up = static_cast<std::size_t>(p);
  const std::size_t block_count = (count + up - 1) / up;
  const std::size_t padded = block_count * up;

  // The working area is recvbuf itself unless the blocks need a pad; the
  // reduce-scatter then reads sendbuf where it lies. A padded input is
  // copied once, with zero pad elements on every rank; the reduced pad is
  // never copied out, so any op may combine them.
  std::unique_ptr<std::byte[]> padded_copy;
  std::byte* ws = static_cast<std::byte*>(recvbuf);
  const void* input = sendbuf;
  if (padded != count) {
    padded_copy = uninit(padded * esz);
    ws = padded_copy.get();
    std::memcpy(ws, sendbuf, count * esz);
    std::memset(ws + count * esz, 0, (padded - count) * esz);
    input = ws;
  }
  const std::size_t block = block_count * esz;
  sim::TimeUs t = ring_reduce_scatter(
      input, block_count, dt, op, comm, ch, t0,
      [&](int, std::size_t b) { return ws + b * block; });

  // Ring allgather of the reduced blocks: it fills every block of ws the
  // reduce-scatter left unwritten.
  const int right = (me + 1) % p;
  const int left = (me - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    const auto send_block = static_cast<std::size_t>((me - s + p) % p);
    const auto recv_block = static_cast<std::size_t>((me - s - 1 + p) % p);
    t = step_exchange(comm, ch, 100 + s, right, ws + send_block * block, block,
                      left, ws + recv_block * block, block, t, false);
  }
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

  sim::TimeUs t;
  if (comm.nranks() == 1) {
    if (sendbuf != recvbuf) std::memcpy(recvbuf, sendbuf, bytes);
    t = t0;
  } else if (bytes <= prof_.tree_threshold ||
             count < static_cast<std::size_t>(comm.nranks())) {
    t = allreduce_tree(sendbuf, recvbuf, count, dt, op, comm, ch, t0);
  } else {
    t = allreduce_ring(sendbuf, recvbuf, count, dt, op, comm, ch, t0);
  }
  if (op == ReduceOp::Avg) {
    throw_if_error(scale_inplace(dt, recvbuf, count, 1.0 / comm.nranks()),
                   "xccl allreduce avg");
  }
  stream.advance_tail_to(t + quirk_extra(comm, bytes));
  return XcclResult::Success;
}

// ---- Broadcast --------------------------------------------------------------

sim::TimeUs RingCclBackend::bcast_tree(void* buf, std::size_t bytes, int root,
                                       CclComm& comm, fabric::ChannelId ch,
                                       sim::TimeUs t0) {
  const int p = comm.nranks();
  const int me = comm.rank();
  const int vrank = (me - root + p) % p;
  sim::TimeUs t = t0;
  int recv_mask = 1;
  while (recv_mask < p) {
    if (vrank & recv_mask) {
      const int parent = ((vrank ^ recv_mask) + root) % p;
      t = step_exchange(comm, ch, 1, -1, nullptr, 0, parent, buf, bytes, t, true);
      break;
    }
    recv_mask <<= 1;
  }
  int send_mask = (vrank == 0) ? floor_pow2(p) : (recv_mask >> 1);
  for (; send_mask > 0; send_mask >>= 1) {
    const int vchild = vrank | send_mask;
    if (vchild < p && vchild != vrank) {
      t = step_exchange(comm, ch, 1, (vchild + root) % p, buf, bytes, -1, nullptr,
                        0, t, true);
    }
  }
  return t;
}

sim::TimeUs RingCclBackend::bcast_ring(void* buf, std::size_t bytes, int root,
                                       CclComm& comm, fabric::ChannelId ch,
                                       sim::TimeUs t0) {
  // Chunked pipelined ring: rank k forwards chunk c as soon as it arrives,
  // so completion ~ t0 + (k-1) hops + n/bw instead of (p-1) * n/bw.
  const int p = comm.nranks();
  const int me = comm.rank();
  const int vrank = (me - root + p) % p;
  const int right = (vrank + 1 < p) ? (me + 1) % p : -1;  // tail sends nothing
  const int left = (vrank > 0) ? (me - 1 + p) % p : -1;   // root receives nothing

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
            ? bcast_tree(buf, bytes, root, comm, ch, t0)
            : bcast_ring(buf, bytes, root, comm, ch, t0);
  }
  stream.advance_tail_to(t + quirk_extra(comm, bytes));
  return XcclResult::Success;
}

// ---- Reduce -----------------------------------------------------------------

sim::TimeUs RingCclBackend::reduce_tree(const void* sendbuf, void* recvbuf,
                                        std::size_t count, DataType dt, ReduceOp op,
                                        int root, CclComm& comm,
                                        fabric::ChannelId ch, sim::TimeUs t0) {
  const int p = comm.nranks();
  const int me = comm.rank();
  const std::size_t bytes = count * datatype_size(dt);

  std::unique_ptr<std::byte[]> scratch;
  void* acc = recvbuf;
  if (me != root) {
    scratch = uninit(bytes);
    acc = scratch.get();
  }
  std::memcpy(acc, sendbuf, bytes);

  // Each child's vector is reduced into the accumulator as it lands.
  const int vrank = (me - root + p) % p;
  sim::TimeUs t = t0;
  int mask = 1;
  while (mask < p) {
    if ((vrank & mask) == 0) {
      const int vsrc = vrank | mask;
      if (vsrc < p) {
        t = step_exchange(comm, ch, 1, -1, nullptr, 0, (vsrc + root) % p, acc, bytes,
                          t, true, fabric::ReduceSpec{dt, op});
      }
    } else {
      t = step_exchange(comm, ch, 1, ((vrank ^ mask) + root) % p, acc, bytes, -1,
                        nullptr, 0, t, true);
      break;
    }
    mask <<= 1;
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
  if (p == 1) {
    if (sendbuf != recvbuf) std::memcpy(recvbuf, sendbuf, bytes);
    t = t0;
  } else if (bytes <= prof_.tree_threshold ||
             count < static_cast<std::size_t>(p)) {
    t = reduce_tree(sendbuf, recvbuf, count, dt, op, root, comm, ch, t0);
  } else {
    // Ring reduce-scatter, then every rank ships its reduced block to root.
    const std::size_t esz = datatype_size(dt);
    const std::size_t up = static_cast<std::size_t>(p);
    const std::size_t block_count = (count + up - 1) / up;
    const std::size_t padded = block_count * up * esz;
    const auto scratch = uninit(padded);
    std::memcpy(scratch.get(), sendbuf, count * esz);
    std::memset(scratch.get() + count * esz, 0, padded - count * esz);
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
  const int p = comm.nranks();
  const int me = comm.rank();
  const std::size_t block = sendcount * datatype_size(dt);
  const fabric::ChannelId ch = comm.next_op_channel();
  sim::TimeUs t = begin_op(stream);

  std::memcpy(at(recvbuf, static_cast<std::size_t>(me) * block), sendbuf, block);
  const int right = (me + 1) % p;
  const int left = (me - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    const auto send_block = static_cast<std::size_t>((me - s + p) % p);
    const auto recv_block = static_cast<std::size_t>((me - s - 1 + p) % p);
    t = step_exchange(comm, ch, s, right, at(recvbuf, send_block * block), block,
                      left, at(recvbuf, recv_block * block), block, t, false);
  }
  stream.advance_tail_to(t);
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
  const std::size_t bytes = count * datatype_size(dt);

  if (group_depth_ > 0) {
    group_queue_.push_back(QueuedP2p{true, buf, nullptr, bytes,
                                     comm.world_rank(peer), &comm, &stream});
    return XcclResult::Success;
  }
  const sim::TimeUs t0 = begin_op(stream);
  fabric::SendPolicy policy{.rendezvous = true, .eager_complete_us = 0.0};
  auto ps = ctx().endpoint_of(comm.world_rank(peer))
                .deliver(ctx().rank(), 0, comm.p2p_channel(), buf, bytes, t0,
                         policy);
  sim::VirtualClock scratch;
  stream.advance_tail_to(ps.wait(scratch));
  return XcclResult::Success;
}

XcclResult RingCclBackend::recv(void* buf, std::size_t count, DataType dt, int peer,
                                CclComm& comm, device::Stream& stream) {
  if (!comm.valid()) return XcclResult::InvalidUsage;
  if (peer < 0 || peer >= comm.nranks()) return XcclResult::InvalidArgument;
  if (auto r = check_move(dt); !ok(r)) return r;
  const std::size_t bytes = count * datatype_size(dt);

  if (group_depth_ > 0) {
    group_queue_.push_back(QueuedP2p{false, nullptr, buf, bytes,
                                     comm.world_rank(peer), &comm, &stream});
    return XcclResult::Success;
  }
  const sim::TimeUs t0 = begin_op(stream);
  auto cost = [this](int sw, std::size_t b) { return p2p_cost(sw, b, 1); };
  auto pr = ctx().endpoint().post_recv(comm.world_rank(peer), 0,
                                       comm.p2p_channel(), buf, bytes, t0, cost);
  sim::VirtualClock scratch;
  stream.advance_tail_to(pr.wait(scratch).completion);
  return XcclResult::Success;
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
