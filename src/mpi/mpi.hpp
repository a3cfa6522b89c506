#pragma once
// MiniMPI: a GPU-aware MPI subset over the simulated fabric.
//
// One Mpi object per rank thread, bound to a RankContext and a cost profile
// (the MVAPICH-like path or the Open MPI + UCX baseline — same algorithms,
// different constants). Buffers are classified through the BufferRegistry:
// device buffers ride the profile's device links (IPC / GPUDirect-style
// effective bandwidths), host buffers ride the host links. Messages at or
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
  Request isend(const void* buf, std::size_t count, Datatype dt, int dst, int tag,
                Comm& comm);
  Request irecv(void* buf, std::size_t count, Datatype dt, int src, int tag,
                Comm& comm);
  /// Receive-reduce: like irecv, but the matching message (exactly `count`
  /// elements) is combined into `buf` as buf = op(buf, message) where it
  /// lands, with no staging copy. `buf` must stay disjoint from every send
  /// buffer in flight until the request completes. Throws at post time when
  /// `op` is not defined for `dt`.
  Request irecv_reduce(void* buf, std::size_t count, Datatype dt, ReduceOp op,
                       int src, int tag, Comm& comm);
  RecvStatus wait(Request& req);
  void waitall(std::span<Request> reqs);
  /// MPI_Sendrecv.
  RecvStatus sendrecv(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
                      int dst, int sendtag, void* recvbuf, std::size_t recvcount,
                      Datatype recvtype, int src, int recvtag, Comm& comm);

  // ---- Collectives -------------------------------------------------------
  // Each first runs resolve() (mpi/coll_args.hpp): its table decides where
  // MPI_IN_PLACE is allowed and what it means, and which arguments are
  // checked on which ranks.
  void barrier(Comm& comm);
  void bcast(void* buf, std::size_t count, Datatype dt, int root, Comm& comm);
  void reduce(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
              ReduceOp op, int root, Comm& comm);
  void allreduce(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
                 ReduceOp op, Comm& comm);
  void gather(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
              void* recvbuf, std::size_t recvcount, Datatype recvtype, int root,
              Comm& comm);
  void gatherv(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
               void* recvbuf, std::span<const std::size_t> recvcounts,
               std::span<const std::size_t> displs, Datatype recvtype, int root,
               Comm& comm);
  void scatter(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
               void* recvbuf, std::size_t recvcount, Datatype recvtype, int root,
               Comm& comm);
  void scatterv(const void* sendbuf, std::span<const std::size_t> sendcounts,
                std::span<const std::size_t> displs, Datatype sendtype,
                void* recvbuf, std::size_t recvcount, Datatype recvtype, int root,
                Comm& comm);
  void allgather(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
                 void* recvbuf, std::size_t recvcount, Datatype recvtype,
                 Comm& comm);
  void allgatherv(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
                  void* recvbuf, std::span<const std::size_t> recvcounts,
                  std::span<const std::size_t> displs, Datatype recvtype,
                  Comm& comm);
  void alltoall(const void* sendbuf, std::size_t sendcount, Datatype sendtype,
                void* recvbuf, std::size_t recvcount, Datatype recvtype,
                Comm& comm);
  void alltoallv(const void* sendbuf, std::span<const std::size_t> sendcounts,
                 std::span<const std::size_t> sdispls, Datatype sendtype,
                 void* recvbuf, std::span<const std::size_t> recvcounts,
                 std::span<const std::size_t> rdispls, Datatype recvtype,
                 Comm& comm);
  void reduce_scatter_block(const void* sendbuf, void* recvbuf,
                            std::size_t recvcount, Datatype dt, ReduceOp op,
                            Comm& comm);
  void scan(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
            ReduceOp op, Comm& comm);
  /// MPI_Exscan: rank r receives op over ranks [0, r); rank 0's recvbuf is
  /// left untouched (MPI leaves it undefined).
  void exscan(const void* sendbuf, void* recvbuf, std::size_t count, Datatype dt,
              ReduceOp op, Comm& comm);
  /// MPI_Sendrecv_replace: exchange with peers through one buffer.
  RecvStatus sendrecv_replace(void* buf, std::size_t count, Datatype dt, int dst,
                              int sendtag, int src, int recvtag, Comm& comm);

  // Nonblocking collectives: the algorithm runs at call time; the request
  // carries the virtual completion time (see DESIGN.md: the MPI path does
  // not model collective/compute overlap; the xCCL path does, via streams).
  Request ibcast(void* buf, std::size_t count, Datatype dt, int root, Comm& comm);
  Request iallreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                     Datatype dt, ReduceOp op, Comm& comm);
  Request ibarrier(Comm& comm);

  /// Maximum of `value` over all ranks of `comm` — harness helper for
  /// "max latency across ranks" reductions outside timed regions.
  double max_over_ranks(double value, Comm& comm);

  /// Effective device link between this rank and `peer_world`, resolved by
  /// the deepest topology level the two ranks share (hier engine / tooling).
  [[nodiscard]] const sim::LinkParams& device_link_to(int peer_world) const;

  /// True when `p` lies in registered device memory: transfers out of and
  /// into it are priced on device links, all others on host links.
  [[nodiscard]] bool is_device(const void* p) const;

 private:
  friend struct CollectiveOps;

  [[nodiscard]] sim::VirtualClock& clock() { return ctx_->clock(); }
  /// Effective link for a transfer between this rank and `peer_world`.
  [[nodiscard]] const sim::LinkParams& link_to(int peer_world, bool device) const;
  [[nodiscard]] fabric::CostFn make_cost_fn(bool device_buf);

  /// `device_buf` is the memory kind that prices an eager send's injection,
  /// as `irecv_bytes`' `device_buf` prices the transfer.
  Request isend_bytes(const void* buf, std::size_t bytes, int dst, int tag,
                      fabric::ChannelId channel, Comm& comm, bool device_buf);
  Request irecv_bytes(void* buf, std::size_t bytes, int src, int tag,
                      fabric::ChannelId channel, Comm& comm, bool device_buf,
                      std::optional<fabric::ReduceSpec> reduce = std::nullopt);

  fabric::RankContext* ctx_;
  sim::MpiProfile prof_;
  Comm world_;
  /// Device link per sub-node depth (index = deepest common depth, size
  /// topology depth + 1; last entry is the raw dev_intra link).
  std::vector<sim::LinkParams> dev_sub_links_;
};

}  // namespace mpixccl::mini
