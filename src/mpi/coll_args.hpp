#pragma once
// The entry check of every collective: argument validation, the one
// MPI_IN_PLACE table and device buffer identification. MiniMPI's public
// collectives and the runtimes' entries run resolve() before anything else,
// so no engine below them ever sees the sentinel, an out-of-range root or a
// short counts/displs span, or asks the device registry what a buffer is.

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"

namespace mpixccl::mini {

/// MPI_IN_PLACE, passable as a send or a receive buffer. Which buffer of
/// which collective may be the sentinel, on which ranks, and what it
/// resolves to is decided only by the table in coll_args.cpp. Never
/// dereferenced.
inline void* const kInPlace = reinterpret_cast<void*>(~std::uintptr_t{0});

/// Where a caller buffer lives. MiniMPI prices a transfer out of or into
/// device memory on the profile's device links, host memory on its host
/// links; the CCL engines serve device memory only.
enum class MemKind : std::uint8_t { Host, Device };

/// The kind of the memory at `p`, from the device registry: one lookup, none
/// for a null pointer or the MPI_IN_PLACE sentinel (both classify as host).
MemKind classify(const void* p);

/// One row of the table per MPI collective.
enum class Coll : std::uint8_t {
  Bcast, Reduce, Allreduce, Gather, Gatherv, Scatter, Scatterv, Allgather,
  Allgatherv, Alltoall, Alltoallv, ReduceScatterBlock, Scan, Exscan,
};

/// One rank's block on one side of a collective, in elements of its type.
struct Block {
  std::size_t off, count;
};

/// One collective call's arguments. The send side is (sendbuf, count, dt),
/// the receive side (recvbuf, rcount, rdt); a v-side carries per-rank counts
/// and displacements (in elements of its type) in the spans instead of a
/// count. Reductions and bcast use `count` and `dt` for both sides
/// (reduce_scatter_block: the per-rank block); bcast's buffer is `recvbuf`.
struct CollArgs {
  Coll coll = Coll::Allreduce;
  const void* sendbuf = nullptr;
  void* recvbuf = nullptr;
  std::size_t count = 0;
  Datatype dt = kByte;
  std::size_t rcount = 0;
  Datatype rdt = kByte;
  ReduceOp redop = ReduceOp::Sum;
  int root = 0;
  std::span<const std::size_t> scounts{}, sdispls{}, rcounts{}, rdispls{};
  /// Set by resolve() for an in-place alltoall(v): `sendbuf` stays the
  /// sentinel, the send side mirrors the receive side, and only MiniMPI
  /// serves the call, from a snapshot of `recvbuf`.
  bool snapshot = false;
  /// The kinds of `sendbuf` and `recvbuf`, set by resolve(): host for a null
  /// buffer and for the sentinel of a snapshot call.
  MemKind skind = MemKind::Host;
  MemKind rkind = MemKind::Host;

  [[nodiscard]] std::size_t bytes() const { return count * dt.size(); }
  /// Either caller buffer is device memory: the class of a collective's
  /// receives and of its CCL eligibility.
  [[nodiscard]] bool device() const {
    return skind == MemKind::Device || rkind == MemKind::Device;
  }
  /// Rank r's block on the send or the receive side: from the v-spans when
  /// the side has them, else `count` (`rcount`) elements at r times that.
  [[nodiscard]] Block send_block(int r) const {
    return block(scounts, sdispls, count, r);
  }
  [[nodiscard]] Block recv_block(int r) const {
    return block(rcounts, rdispls, rcount, r);
  }

 private:
  static Block block(std::span<const std::size_t> counts,
                     std::span<const std::size_t> displs, std::size_t n, int r) {
    const auto ur = static_cast<std::size_t>(r);
    return counts.empty() ? Block{ur * n, n} : Block{displs[ur], counts[ur]};
  }
};

/// Check `a` as passed on rank `rank` of a communicator of `size` ranks,
/// resolve MPI_IN_PLACE by the table and classify both buffers (one registry
/// lookup per distinct buffer; a buffer resolved onto the other shares its
/// kind). Throws Error naming the call, the argument and the rank for a root
/// outside [0, size), a counts/displs span that is not `size` long, a null
/// buffer with a nonzero count, a send block whose size differs from the
/// receive block it pairs with, or a sentinel the table does not allow.
/// Checks only what MPI defines as significant on `rank`, but classifies
/// both buffers on every rank. Resolved arguments come back unchanged.
CollArgs resolve(CollArgs a, int rank, int size);
inline CollArgs resolve(const CollArgs& a, const Comm& comm) {
  return resolve(a, comm.rank(), comm.size());
}

}  // namespace mpixccl::mini
