#include "mpi/mpi.hpp"

#include <algorithm>

namespace mpixccl::mini {

Mpi::Mpi(fabric::RankContext& ctx, const sim::MpiProfile& profile,
         std::uint64_t instance_salt)
    : ctx_(&ctx),
      prof_(profile),
      world_(Comm::world(ctx.rank(), ctx.size(),
                         fabric::derive_channel(0x4d504958ull, instance_salt))) {
  // Per-depth device links inside a node. Index d = deepest common depth of
  // the two ranks: depth K (leaf group) transfers ride the raw dev_intra
  // link; each shallower depth crosses one more sub-node boundary, whose
  // bw/alpha scales compound outward. Flat topologies get the single-entry
  // table {dev_intra}, reproducing the original two-scope pricing exactly.
  const auto& levels = ctx_->topology().sub_levels();
  const int depth = ctx_->topology().depth();
  dev_sub_links_.resize(static_cast<std::size_t>(depth) + 1, prof_.dev_intra);
  double bw = 1.0, alpha = 1.0;
  for (int d = depth - 1; d >= 0; --d) {
    // Crossing the boundary of levels[d] separates groups at depth d.
    bw *= levels[static_cast<std::size_t>(d)].bw_scale;
    alpha *= levels[static_cast<std::size_t>(d)].alpha_scale;
    sim::LinkParams& link = dev_sub_links_[static_cast<std::size_t>(d)];
    link.bw_MBps = prof_.dev_intra.bw_MBps * bw;
    link.alpha_us = prof_.dev_intra.alpha_us * alpha;
  }
}

const sim::LinkParams& Mpi::link_to(int peer_world, MemKind kind) const {
  const sim::Topology& topo = ctx_->topology();
  const bool intra = topo.same_node(ctx_->rank(), peer_world);
  if (kind == MemKind::Host) return intra ? prof_.host_intra : prof_.host_inter;
  if (!intra) return prof_.dev_inter;
  return dev_sub_links_[static_cast<std::size_t>(
      topo.deepest_common_depth(ctx_->rank(), peer_world))];
}

const sim::LinkParams& Mpi::device_link_to(int peer_world) const {
  return link_to(peer_world, MemKind::Device);
}

fabric::CostFn Mpi::make_cost_fn(MemKind kind) {
  // The receive side prices the transfer; it resolves the link when the
  // source rank is known (wildcards) and adds the rendezvous handshake for
  // large messages.
  return [this, kind](int src_world, std::size_t bytes) {
    const sim::LinkParams& link = link_to(src_world, kind);
    double cost = link.cost_us(bytes);
    if (bytes > prof_.eager_threshold) cost += prof_.rndv_rtt_us;
    return cost;
  };
}

Request Mpi::isend_bytes(const void* buf, std::size_t bytes, int dst, int tag,
                         fabric::ChannelId channel, Comm& comm, MemKind kind) {
  clock().advance(prof_.per_op_us);
  const int dst_world = comm.world_rank(dst);
  const sim::LinkParams& link = link_to(dst_world, kind);
  fabric::SendPolicy policy;
  policy.rendezvous = bytes > prof_.eager_threshold;
  policy.eager_complete_us = link.alpha_us;  // injection cost only
  auto pending = ctx_->endpoint_of(dst_world).deliver(
      ctx_->rank(), tag, channel, buf, bytes, clock().now(), policy);
  return Request::from_send(std::move(pending));
}

Request Mpi::irecv_bytes(void* buf, std::size_t bytes, int src, int tag,
                         fabric::ChannelId channel, Comm& comm, MemKind kind,
                         std::optional<fabric::ReduceSpec> reduce) {
  clock().advance(prof_.per_op_us);
  const int src_world = (src == kAnySource) ? fabric::kAnySource : comm.world_rank(src);
  auto pending =
      ctx_->endpoint().post_recv(src_world, tag, channel, buf, bytes, clock().now(),
                                 make_cost_fn(kind), reduce);
  return Request::from_recv(std::move(pending), &comm);
}

Request Mpi::isend(const void* buf, std::size_t count, Datatype dt, int dst,
                   int tag, Comm& comm, MemKind kind) {
  require(tag >= 0, "Mpi::isend: tag must be non-negative");
  return isend_bytes(buf, count * dt.size(), dst, tag, comm.p2p_channel(), comm, kind);
}

Request Mpi::irecv(void* buf, std::size_t count, Datatype dt, int src, int tag,
                   Comm& comm, MemKind kind) {
  require(tag >= 0 || tag == kAnyTag, "Mpi::irecv: bad tag");
  return irecv_bytes(buf, count * dt.size(), src, tag, comm.p2p_channel(), comm, kind);
}

Request Mpi::irecv_reduce(void* buf, std::size_t count, Datatype dt, ReduceOp op,
                          int src, int tag, Comm& comm, MemKind kind) {
  require(tag >= 0 || tag == kAnyTag, "Mpi::irecv_reduce: bad tag");
  return irecv_bytes(buf, count * dt.size(), src, tag, comm.p2p_channel(), comm, kind,
                     fabric::ReduceSpec{dt.base, op});
}

void Mpi::send(const void* buf, std::size_t count, Datatype dt, int dst, int tag,
               Comm& comm) {
  Request req = isend(buf, count, dt, dst, tag, comm);
  wait(req);
}

RecvStatus Mpi::recv(void* buf, std::size_t count, Datatype dt, int src, int tag,
                     Comm& comm) {
  Request req = irecv(buf, count, dt, src, tag, comm);
  return wait(req);
}

RecvStatus Mpi::wait(Request& req) {
  require(req.valid(), "Mpi::wait: invalid request");
  RecvStatus status;
  if (auto* send = std::get_if<fabric::PendingSend>(&req.state_)) {
    send->wait(clock());
  } else if (auto* recv_op = std::get_if<fabric::PendingRecv>(&req.state_)) {
    const fabric::RecvResult r = recv_op->wait(clock());
    status.bytes = r.bytes;
    status.tag = r.tag;
    status.source =
        (req.comm_ != nullptr) ? req.comm_->comm_rank_of_world(r.src) : r.src;
  } else if (auto* done = std::get_if<Request::Done>(&req.state_)) {
    clock().advance_to(done->time);
  }
  req.state_ = std::monostate{};
  return status;
}

void Mpi::waitall(std::span<Request> reqs) {
  for (auto& r : reqs) {
    if (r.valid()) wait(r);
  }
}

RecvStatus Mpi::sendrecv(const void* sendbuf, std::size_t sendcount,
                         Datatype sendtype, int dst, int sendtag, void* recvbuf,
                         std::size_t recvcount, Datatype recvtype, int src,
                         int recvtag, Comm& comm) {
  Request rr = irecv(recvbuf, recvcount, recvtype, src, recvtag, comm);
  Request sr = isend(sendbuf, sendcount, sendtype, dst, sendtag, comm);
  wait(sr);
  return wait(rr);
}

Comm Mpi::dup(Comm& comm) {
  const fabric::ChannelId ch = comm.next_derived_channel();
  std::vector<int> ranks;
  ranks.reserve(static_cast<std::size_t>(comm.size()));
  for (int r = 0; r < comm.size(); ++r) ranks.push_back(comm.world_rank(r));
  // Dup is collective; synchronize like the real call does.
  barrier(comm);
  return Comm::create(ctx_->rank(), std::move(ranks), ch);
}

Comm Mpi::split(Comm& comm, int color, int key) {
  const fabric::ChannelId ch = comm.next_derived_channel();
  // Exchange (color, key) pairs via allgather on the parent communicator.
  struct Entry {
    int color;
    int key;
    int world;
  };
  std::vector<Entry> entries(static_cast<std::size_t>(comm.size()));
  const Entry mine{color, key, ctx_->rank()};
  allgather(&mine, sizeof(Entry), kByte, entries.data(), sizeof(Entry), kByte, comm);

  std::vector<Entry> group;
  for (const auto& e : entries) {
    if (e.color == color) group.push_back(e);
  }
  std::stable_sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return a.key < b.key;
  });
  std::vector<int> ranks;
  ranks.reserve(group.size());
  for (const auto& e : group) ranks.push_back(e.world);
  return Comm::create(ctx_->rank(), std::move(ranks),
                      fabric::derive_channel(ch, static_cast<std::uint64_t>(color) + 1));
}

double Mpi::max_over_ranks(double value, Comm& comm) {
  // Two host locals: no buffer to classify.
  double out = 0.0;
  run({.coll = Coll::Allreduce, .sendbuf = &value, .recvbuf = &out, .count = 1,
       .dt = kDouble, .redop = ReduceOp::Max}, comm);
  return out;
}

}  // namespace mpixccl::mini
