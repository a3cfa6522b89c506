#pragma once
// Baseline runtime modeling "Open MPI + UCX + UCC" (the comparator in the
// paper's Figs. 5-7): UCC drives the vendor CCL for device-buffer
// collectives, but pays an extra collective-layer cost per operation, and
// its composed collectives (Alltoall) issue per-peer phases instead of one
// batched group — the reason the paper measures 2.8x worse Alltoall at 4 KB.
//
// Host-buffer traffic and point-to-point ride an Open MPI + UCX cost profile
// (sim::SystemProfile::ompi_ucx). For the plain "Open MPI + UCX" baseline
// without UCC, instantiate mini::Mpi directly with that profile.

#include <functional>
#include <map>
#include <memory>

#include "mpi/mpi.hpp"
#include "xccl/backend.hpp"

namespace mpixccl::core {

class UccBaseline {
 public:
  explicit UccBaseline(fabric::RankContext& ctx);

  [[nodiscard]] mini::Comm& comm_world() { return mpi_.comm_world(); }
  [[nodiscard]] int rank() const { return mpi_.rank(); }
  [[nodiscard]] int size() const { return mpi_.size(); }
  [[nodiscard]] fabric::RankContext& context() { return *ctx_; }
  [[nodiscard]] mini::Mpi& mpi() { return mpi_; }

  // Each collective resolves its arguments first (mini::resolve), like the
  // runtime's entries: MPI_IN_PLACE, the entry check and the buffer kinds.
  void barrier(mini::Comm& comm) { mpi_.barrier(comm); }
  void allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                 mini::Datatype dt, ReduceOp op, mini::Comm& comm) {
    builtin({.coll = mini::Coll::Allreduce, .sendbuf = sendbuf, .recvbuf = recvbuf,
             .count = count, .dt = dt, .redop = op}, comm);
  }
  void bcast(void* buf, std::size_t count, mini::Datatype dt, int root,
             mini::Comm& comm) {
    builtin({.coll = mini::Coll::Bcast, .recvbuf = buf, .count = count, .dt = dt,
             .root = root}, comm);
  }
  void reduce(const void* sendbuf, void* recvbuf, std::size_t count,
              mini::Datatype dt, ReduceOp op, int root, mini::Comm& comm) {
    builtin({.coll = mini::Coll::Reduce, .sendbuf = sendbuf, .recvbuf = recvbuf,
             .count = count, .dt = dt, .redop = op, .root = root}, comm);
  }
  void allgather(const void* sendbuf, std::size_t sendcount, mini::Datatype st,
                 void* recvbuf, std::size_t recvcount, mini::Datatype rt,
                 mini::Comm& comm) {
    builtin({.coll = mini::Coll::Allgather, .sendbuf = sendbuf, .recvbuf = recvbuf,
             .count = sendcount, .dt = st, .rcount = recvcount, .rdt = rt}, comm);
  }
  void alltoall(const void* sendbuf, std::size_t sendcount, mini::Datatype st,
                void* recvbuf, std::size_t recvcount, mini::Datatype rt,
                mini::Comm& comm);

 private:
  /// True when the resolved call should ride the CCL transport (device
  /// buffers, a capability match, and above UCC's UCP small-message
  /// threshold); otherwise the OMPI/UCX path serves it.
  [[nodiscard]] bool use_ccl(const mini::CollArgs& a) const;
  /// One built-in collective: resolve the arguments, then the CCL builtin
  /// when use_ccl(), else the UCP path.
  void builtin(mini::CollArgs a, mini::Comm& comm);
  [[nodiscard]] bool spans_nodes() const;
  /// Run a UCP-path collective with UCC's layer overheads applied.
  void run_on_ucp(const std::function<void()>& op);

  fabric::RankContext* ctx_;
  mini::Mpi mpi_;  ///< Open MPI + UCX cost profile
  sim::UccProfile ucc_;
  std::unique_ptr<xccl::CclBackend> coll_backend_;     ///< builtin collectives
  std::unique_ptr<xccl::CclBackend> compose_backend_;  ///< per-peer phases
  std::map<fabric::ChannelId, xccl::CclComm> coll_comms_;
  std::map<fabric::ChannelId, xccl::CclComm> compose_comms_;
  std::uint64_t seq_ = 0;
};

}  // namespace mpixccl::core
