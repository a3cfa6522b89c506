#include "core/ucc_baseline.hpp"

#include <cstring>

#include "common/schedule.hpp"
#include "core/xccl_mpi.hpp"

namespace mpixccl::core {

UccBaseline::UccBaseline(fabric::RankContext& ctx)
    : ctx_(&ctx),
      mpi_(ctx, ctx.profile().ompi_ucx, /*instance_salt=*/0x0ccull),
      ucc_(ctx.profile().ucc) {
  const xccl::CclKind kind = xccl::native_ccl(ctx.profile().vendor);
  coll_backend_ = xccl::make_backend(kind, ctx, ctx.profile().ccl);
  // Composed phases skip the full kernel-launch path but pay a per-phase
  // cost; model with a profile whose launch is the compose alpha.
  sim::CclProfile compose_profile = ctx.profile().ccl;
  compose_profile.launch_us = ucc_.compose_alpha_us;
  compose_backend_ = xccl::make_backend(kind, ctx, compose_profile);
}

bool UccBaseline::spans_nodes() const {
  const auto& topo = ctx_->topology();
  return !topo.same_node(0, ctx_->size() - 1);
}

bool UccBaseline::use_ccl(const mini::CollArgs& a) const {
  // UCC's transport selection: UCX/UCP below the small-message threshold,
  // the vendor CCL above it (and only for device buffers it can handle).
  // Multi-node jobs stay on UCP — reproducing the paper's observation that
  // UCC underperforms plain OMPI+UCX by ~10% beyond one node (Sec. 4.4).
  if (a.bytes() <= ucc_.ucp_max_bytes || spans_nodes() || !a.device()) return false;
  if (a.coll == mini::Coll::Allgather && a.dt.size() != a.rdt.size()) return false;
  const auto& caps = coll_backend_->capabilities();
  const bool reduces = a.coll == mini::Coll::Allreduce || a.coll == mini::Coll::Reduce;
  return reduces ? caps.can_reduce(a.dt.base, a.redop) : caps.can_move(a.dt.base);
}

void UccBaseline::run_on_ucp(const std::function<void()>& op) {
  // TL/UCP path: the collective-layer bookkeeping plus, on multi-node jobs,
  // the ~10% algorithmic overhead of UCC's UCP collectives the paper
  // observes ("UCC underperforms Open MPI + UCX by 10%", Sec. 4.4).
  ctx_->clock().advance(ucc_.per_op_us);
  const double t0 = ctx_->clock().now();
  op();
  if (spans_nodes()) {
    ctx_->clock().advance((ctx_->clock().now() - t0) * ucc_.ucp_sra_overhead);
  }
}

void UccBaseline::builtin(mini::CollArgs a, mini::Comm& comm) {
  a = mini::resolve(a, comm);
  if (use_ccl(a)) {
    ctx_->clock().advance(ucc_.per_op_us);
    xccl::CclComm& cc = cached_ccl_comm(coll_comms_, mpi_, *coll_backend_, comm, 0, seq_);
    throw_if_error(launch_builtin(*coll_backend_, cc, ctx_->stream(), a), "ucc builtin");
    ctx_->stream().synchronize(ctx_->clock());
    return;
  }
  run_on_ucp([&] { mpi_.run(a, comm); });
}

void UccBaseline::alltoall(const void* sendbuf, std::size_t sendcount,
                           mini::Datatype st, void* recvbuf,
                           std::size_t recvcount, mini::Datatype rt,
                           mini::Comm& comm) {
  const mini::CollArgs a = mini::resolve(
      {.coll = mini::Coll::Alltoall, .sendbuf = sendbuf, .recvbuf = recvbuf,
       .count = sendcount, .dt = st, .rcount = recvcount, .rdt = rt},
      comm);
  // UCC alltoall has no fused-group path on any transport: it issues
  // per-peer phases whatever the size (the paper's 2.8x weakness at 4 KB).
  // In place, it reads and writes the same blocks: only MiniMPI's snapshot
  // serves that.
  if (a.device() && !a.snapshot && coll_backend_->capabilities().can_move(st.base) &&
      st.size() == rt.size()) {
    ctx_->clock().advance(ucc_.per_op_us);
    xccl::CclComm& cc =
        cached_ccl_comm(compose_comms_, mpi_, *compose_backend_, comm, 0x77, seq_);
    const int p = comm.size();
    const int me = comm.rank();
    const std::size_t sblock = sendcount * st.size();
    const std::size_t rblock = recvcount * rt.size();
    // Per-peer phases (no cross-peer batching): p-1 sequential exchange
    // groups, each paying the compose alpha — the UCC Alltoall weakness the
    // paper measures.
    std::memcpy(at(recvbuf, static_cast<std::size_t>(me) * rblock),
                at(sendbuf, static_cast<std::size_t>(me) * sblock), sblock);
    for (int s = 1; s < p; ++s) {
      const int dst = (me + s) % p;
      const int src = (me - s + p) % p;
      throw_if_error(compose_backend_->group_start(), "ucc alltoall");
      throw_if_error(
          compose_backend_->send(at(sendbuf, static_cast<std::size_t>(dst) * sblock),
                                 sendcount * st.count, st.base, dst, cc,
                                 ctx_->stream()),
          "ucc alltoall send");
      throw_if_error(
          compose_backend_->recv(at(recvbuf, static_cast<std::size_t>(src) * rblock),
                                 recvcount * rt.count, rt.base, src, cc,
                                 ctx_->stream()),
          "ucc alltoall recv");
      throw_if_error(compose_backend_->group_end(), "ucc alltoall");
    }
    ctx_->stream().synchronize(ctx_->clock());
    return;
  }
  mpi_.run(a, comm);
}

}  // namespace mpixccl::core
