#pragma once
// MiniMPI: a GPU-aware MPI subset over the simulated fabric.
//
// One Mpi object per rank thread, bound to a RankContext and a cost profile
// (the MVAPICH-like path or the Open MPI + UCX baseline — same algorithms,
// different constants). Each buffer's memory kind is decided once per call,
// at the entry (mini::resolve for a collective, the p2p entries for
// point-to-point): transfers out of and into device memory ride the
// profile's device links (IPC / GPUDirect-style effective bandwidths), all
// others the host links; call-local scratch is host memory. Messages at or
// below the eager threshold use the eager protocol (sender completes after
// injection); larger ones rendezvous (sender completes with the transfer and
// the receiver pays the handshake round trip).
//
// Collectives implement the classic algorithm set (binomial broadcast and
// reduce, recursive-doubling and Rabenseifner allreduce, Bruck and ring
// allgather, pairwise alltoall, dissemination barrier) with size-based
// selection, mirroring a production MPI's tuning defaults.

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "fabric/world.hpp"
#include "mpi/coll_args.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "mpi/request.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::mini {

inline constexpr int kAnySource = fabric::kAnySource;
inline constexpr int kAnyTag = fabric::kAnyTag;

class Mpi {
 public:
  /// `instance_salt` separates the channel space of coexisting Mpi flavors
  /// (primary runtime vs baselines) on the same fabric.
  Mpi(fabric::RankContext& ctx, const sim::MpiProfile& profile,
      std::uint64_t instance_salt = 0);

  [[nodiscard]] Comm& comm_world() { return world_; }
  [[nodiscard]] int rank() const { return ctx_->rank(); }
  [[nodiscard]] int size() const { return ctx_->size(); }
  [[nodiscard]] fabric::RankContext& context() { return *ctx_; }
  [[nodiscard]] const sim::MpiProfile& profile() const { return prof_; }

  // ---- Communicator management ------------------------------------------
  /// MPI_Comm_dup (collective over `comm`).
  Comm dup(Comm& comm);
  /// MPI_Comm_split (collective over `comm`).
  Comm split(Comm& comm, int color, int key);

  // ---- Point-to-point ----------------------------------------------------
  void send(const void* buf, std::size_t count, Datatype dt, int dst, int tag,
            Comm& comm);
  RecvStatus recv(void* buf, std::size_t count, Datatype dt, int src, int tag,
                  Comm& comm);
  // Each p2p entry classifies `buf` (one registry lookup); the overloads
  // taking `kind` serve callers that already know it.
  Request isend(const void* buf, std::size_t count, Datatype dt, int dst, int tag,
                Comm& comm) {
    return isend(buf, count, dt, dst, tag, comm, classify(buf));
  }
  Request isend(const void* buf, std::size_t count, Datatype dt, int dst, int tag,
                Comm& comm, MemKind kind);
  Request irecv(void* buf, std::size_t count, Datatype dt, int src, int tag,
                Comm& comm) {
    return irecv(buf, count, dt, src, tag, comm, classify(buf));
  }
  Request irecv(void* buf, std::size_t count, Datatype dt, int src, int tag,
                Comm& comm, MemKind kind);
  /// Receive-reduce: like irecv, but the matching message (exactly `count`
  /// elements) is combined into `buf` as buf = op(buf, message) where it
  /// lands, with no staging copy. `buf` must stay disjoint from every send
  /// buffer in flight until the request completes. Throws at post time when
  /// `op` is not defined for `dt`.
  Request irecv_reduce(void* buf, std::size_t count, Datatype dt, ReduceOp op,
                       int src, int tag, Comm& comm) {
    return irecv_reduce(buf, count, dt, op, src, tag, comm, classify(buf));
  }
  Request irecv_reduce(void* buf, std::size_t count, Datatype dt, ReduceOp op,
                       int src, int tag, Comm& comm, MemKind kind);
  RecvStatus wait(Request& req);
  void waitall(std::span<Request> reqs);
  /// MPI_Sendrecv.
  RecvStatus sendrecv(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
                      int dst, int sendtag, void* recvbuf, std::size_t recvcount,
                      Datatype recvtype, int src, int recvtag, Comm& comm);

  // ---- Collectives -------------------------------------------------------
  /// Run one collective from resolved arguments: resolve()'s output, or
  /// arguments built with the kinds of their buffers set. Asks the device
  /// registry nothing.
  void run(const CollArgs& a, Comm& comm);

  // The typed collectives run resolve() (mpi/coll_args.hpp) and then run():
  // its table decides where MPI_IN_PLACE is allowed and what it means, and
  // which arguments are checked on which ranks; it classifies the buffers.
  void barrier(Comm& comm);
  void bcast(void* buf, std::size_t count, Datatype dt, int root, Comm& comm) {
    resolve_and_run(
        {.coll = Coll::Bcast, .recvbuf = buf, .count = count, .dt = dt, .root = root},
        comm);
  }
  void reduce(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
              ReduceOp op, int root, Comm& comm) {
    resolve_and_run({.coll = Coll::Reduce, .sendbuf = sendbuf, .recvbuf = recvbuf,
                     .count = count, .dt = dt, .redop = op, .root = root}, comm);
  }
  void allreduce(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
                 ReduceOp op, Comm& comm) {
    resolve_and_run({.coll = Coll::Allreduce, .sendbuf = sendbuf, .recvbuf = recvbuf,
                     .count = count, .dt = dt, .redop = op}, comm);
  }
  void gather(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
              void* recvbuf, std::size_t recvcount, Datatype recvtype, int root,
              Comm& comm) {
    resolve_and_run({.coll = Coll::Gather, .sendbuf = sendbuf, .recvbuf = recvbuf,
                     .count = sendcount, .dt = sendtype, .rcount = recvcount,
                     .rdt = recvtype, .root = root}, comm);
  }
  void gatherv(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
               void* recvbuf, std::span<const std::size_t> recvcounts,
               std::span<const std::size_t> displs, Datatype recvtype, int root,
               Comm& comm) {
    resolve_and_run({.coll = Coll::Gatherv, .sendbuf = sendbuf, .recvbuf = recvbuf,
                     .count = sendcount, .dt = sendtype, .rdt = recvtype, .root = root,
                     .rcounts = recvcounts, .rdispls = displs}, comm);
  }
  void scatter(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
               void* recvbuf, std::size_t recvcount, Datatype recvtype, int root,
               Comm& comm) {
    resolve_and_run({.coll = Coll::Scatter, .sendbuf = sendbuf, .recvbuf = recvbuf,
                     .count = sendcount, .dt = sendtype, .rcount = recvcount,
                     .rdt = recvtype, .root = root}, comm);
  }
  void scatterv(const void* sendbuf, std::span<const std::size_t> sendcounts,
                std::span<const std::size_t> displs, Datatype sendtype,
                void* recvbuf, std::size_t recvcount, Datatype recvtype, int root,
                Comm& comm) {
    resolve_and_run({.coll = Coll::Scatterv, .sendbuf = sendbuf, .recvbuf = recvbuf,
                     .dt = sendtype, .rcount = recvcount, .rdt = recvtype,
                     .root = root, .scounts = sendcounts, .sdispls = displs}, comm);
  }
  void allgather(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
                 void* recvbuf, std::size_t recvcount, Datatype recvtype,
                 Comm& comm) {
    resolve_and_run({.coll = Coll::Allgather, .sendbuf = sendbuf, .recvbuf = recvbuf,
                     .count = sendcount, .dt = sendtype, .rcount = recvcount,
                     .rdt = recvtype}, comm);
  }
  void allgatherv(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
                  void* recvbuf, std::span<const std::size_t> recvcounts,
                  std::span<const std::size_t> displs, Datatype recvtype,
                  Comm& comm) {
    resolve_and_run({.coll = Coll::Allgatherv, .sendbuf = sendbuf, .recvbuf = recvbuf,
                     .count = sendcount, .dt = sendtype, .rdt = recvtype,
                     .rcounts = recvcounts, .rdispls = displs}, comm);
  }
  void alltoall(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
                void* recvbuf, std::size_t recvcount, Datatype recvtype,
                Comm& comm) {
    resolve_and_run({.coll = Coll::Alltoall, .sendbuf = sendbuf, .recvbuf = recvbuf,
                     .count = sendcount, .dt = sendtype, .rcount = recvcount,
                     .rdt = recvtype}, comm);
  }
  void alltoallv(const void* sendbuf, std::span<const std::size_t> sendcounts,
                 std::span<const std::size_t> sdispls, Datatype sendtype,
                 void* recvbuf, std::span<const std::size_t> recvcounts,
                 std::span<const std::size_t> rdispls, Datatype recvtype,
                 Comm& comm) {
    resolve_and_run({.coll = Coll::Alltoallv, .sendbuf = sendbuf, .recvbuf = recvbuf,
                     .dt = sendtype, .rdt = recvtype, .scounts = sendcounts,
                     .sdispls = sdispls, .rcounts = recvcounts, .rdispls = rdispls},
                    comm);
  }
  void reduce_scatter_block(const void* sendbuf, void* recvbuf,
                            std::size_t recvcount, Datatype dt, ReduceOp op,
                            Comm& comm) {
    resolve_and_run({.coll = Coll::ReduceScatterBlock, .sendbuf = sendbuf,
                     .recvbuf = recvbuf, .count = recvcount, .dt = dt, .redop = op},
                    comm);
  }
  void scan(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
            ReduceOp op, Comm& comm) {
    resolve_and_run({.coll = Coll::Scan, .sendbuf = sendbuf, .recvbuf = recvbuf,
                     .count = count, .dt = dt, .redop = op}, comm);
  }
  /// MPI_Exscan: rank r receives op over ranks [0, r); rank 0's recvbuf is
  /// left untouched (MPI leaves it undefined).
  void exscan(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
              ReduceOp op, Comm& comm) {
    resolve_and_run({.coll = Coll::Exscan, .sendbuf = sendbuf, .recvbuf = recvbuf,
                     .count = count, .dt = dt, .redop = op}, comm);
  }
  /// MPI_Sendrecv_replace: exchange with peers through one buffer.
  RecvStatus sendrecv_replace(void* buf, std::size_t count, Datatype dt, int dst,
                              int sendtag, int src, int recvtag, Comm& comm);

  // Nonblocking collectives: the algorithm runs at call time; the request
  // carries the virtual completion time (see DESIGN.md: the MPI path does
  // not model collective/compute overlap; the xCCL path does, via streams).
  Request iallreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                     Datatype dt, ReduceOp op, Comm& comm);
  Request ibarrier(Comm& comm);

  /// Maximum of `value` over all ranks of `comm` — harness helper for
  /// "max latency across ranks" reductions outside timed regions.
  double max_over_ranks(double value, Comm& comm);

  /// Effective device link between this rank and `peer_world`, resolved by
  /// the deepest topology level the two ranks share (hier engine / tooling).
  [[nodiscard]] const sim::LinkParams& device_link_to(int peer_world) const;

 private:
  [[nodiscard]] sim::VirtualClock& clock() { return ctx_->clock(); }
  /// Effective link for a transfer between this rank and `peer_world`.
  [[nodiscard]] const sim::LinkParams& link_to(int peer_world, MemKind kind) const;
  [[nodiscard]] fabric::CostFn make_cost_fn(MemKind kind);

  /// `kind` prices an eager send's injection, as `irecv_bytes`' `kind`
  /// prices the transfer.
  Request isend_bytes(const void* buf, std::size_t bytes, int dst, int tag,
                      fabric::ChannelId channel, Comm& comm, MemKind kind);
  Request irecv_bytes(void* buf, std::size_t bytes, int src, int tag,
                      fabric::ChannelId channel, Comm& comm, MemKind kind,
                      std::optional<fabric::ReduceSpec> reduce = std::nullopt);

  void resolve_and_run(const CollArgs& a, Comm& comm) { run(resolve(a, comm), comm); }

  // The algorithms behind run(), one per collective (the rooted block
  // collectives and allgather share one body for the plain and the v-form).
  void run_bcast(const CollArgs& a, Comm& comm);
  void run_reduce(const CollArgs& a, Comm& comm);
  void run_allreduce(const CollArgs& a, Comm& comm);
  void run_gather(const CollArgs& a, Comm& comm);
  void run_scatter(const CollArgs& a, Comm& comm);
  void run_allgather(const CollArgs& a, Comm& comm);
  void run_alltoall(const CollArgs& a, Comm& comm);
  void run_alltoallv(const CollArgs& a, Comm& comm);
  void run_reduce_scatter_block(const CollArgs& a, Comm& comm);
  void run_scan(const CollArgs& a, Comm& comm);
  void run_exscan(const CollArgs& a, Comm& comm);

  fabric::RankContext* ctx_;
  sim::MpiProfile prof_;
  Comm world_;
  /// Device link per sub-node depth (index = deepest common depth, size
  /// topology depth + 1; last entry is the raw dev_intra link).
  std::vector<sim::LinkParams> dev_sub_links_;
};

}  // namespace mpixccl::mini
