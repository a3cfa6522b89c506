#include "mpi/coll_args.hpp"

#include <algorithm>
#include <string>

#include "common/status.hpp"
#include "device/buffer_registry.hpp"

namespace mpixccl::mini {

namespace {

/// The ranks an argument is significant on, or may be MPI_IN_PLACE on.
enum class On : std::uint8_t { None, Root, All };

/// What MPI_IN_PLACE resolves to.
enum class To : std::uint8_t {
  None,       ///< no in-place form
  RecvBuf,    ///< sendbuf -> recvbuf
  RecvBlock,  ///< sendbuf -> this rank's block of recvbuf; send side := recv side
  SendBlock,  ///< recvbuf -> this rank's block of sendbuf; recv side := send side
  Snapshot,   ///< sendbuf stays the sentinel; send side := recv side (MPI only)
};

/// One buffer side: the ranks it is significant on, and whether it carries
/// per-rank counts and displacements.
struct Side {
  On on;
  bool v = false;
};

struct Row {
  const char* name;
  bool rooted;
  Side send, recv;
  On in_place = On::None;  ///< ranks that may pass the sentinel
  To to = To::None;
};

constexpr Side kNo{On::None}, kRoot{On::Root}, kAll{On::All};
constexpr Side kRootV{On::Root, true}, kAllV{On::All, true};

/// The MPI_IN_PLACE table, in Coll order. The sentinel is `recvbuf` for
/// SendBlock rows (scatter) and `sendbuf` for the others. Root-only rows
/// alias the root's block onto itself, so every engine serves them as is.
constexpr Row kTable[] = {
    {"bcast", true, kNo, kAll},
    {"reduce", true, kAll, kRoot, On::Root, To::RecvBuf},
    {"allreduce", false, kAll, kAll, On::All, To::RecvBuf},
    {"gather", true, kAll, kRoot, On::Root, To::RecvBlock},
    {"gatherv", true, kAll, kRootV, On::Root, To::RecvBlock},
    {"scatter", true, kRoot, kAll, On::Root, To::SendBlock},
    {"scatterv", true, kRootV, kAll, On::Root, To::SendBlock},
    {"allgather", false, kAll, kAll, On::All, To::RecvBlock},
    {"allgatherv", false, kAll, kAllV, On::All, To::RecvBlock},
    {"alltoall", false, kAll, kAll, On::All, To::Snapshot},
    {"alltoallv", false, kAllV, kAllV, On::All, To::Snapshot},
    {"reduce_scatter_block", false, kAll, kAll},
    {"scan", false, kAll, kAll, On::All, To::RecvBuf},
    {"exscan", false, kAll, kAll, On::All, To::RecvBuf},
};

}  // namespace

MemKind classify(const void* p) {
  if (p == nullptr || p == kInPlace) return MemKind::Host;
  return device::BufferRegistry::instance().lookup(p) ? MemKind::Device : MemKind::Host;
}

CollArgs resolve(CollArgs a, int rank, int size) {
  const Row& row = kTable[static_cast<std::size_t>(a.coll)];
  const auto fail = [&](const std::string& what) {
    throw Error(std::string(row.name) + ": " + what + " (rank " + std::to_string(rank) +
                ")");
  };
  const auto on = [&](On who) {
    return who == On::All || (who == On::Root && rank == a.root);
  };
  const auto check = [&](const char* name, std::span<const std::size_t> s) {
    if (s.size() == static_cast<std::size_t>(size)) return;
    fail(std::string(name) + " has " + std::to_string(s.size()) + " entries, not " +
         std::to_string(size));
  };

  if (row.rooted && (a.root < 0 || a.root >= size)) {
    fail("root = " + std::to_string(a.root) + " is outside [0, " +
         std::to_string(size) + ")");
  }
  const bool send_on = on(row.send.on);
  const bool recv_on = on(row.recv.on);
  const bool send_in_place = send_on && a.sendbuf == kInPlace;
  const bool recv_in_place = recv_on && a.recvbuf == kInPlace;
  if (recv_on && row.recv.v) {
    check("recvcounts", a.rcounts);
    check("rdispls", a.rdispls);
  }
  if (send_on && row.send.v && !send_in_place) {  // MPI ignores them in place
    check("sendcounts", a.scounts);
    check("sdispls", a.sdispls);
  }

  if (send_in_place || recv_in_place) {
    const bool in_recv = row.to == To::SendBlock;
    if (in_recv ? send_in_place : recv_in_place) {
      fail(in_recv ? "sendbuf = MPI_IN_PLACE is not allowed"
                   : "recvbuf = MPI_IN_PLACE is not allowed");
    }
    if (!on(row.in_place)) {
      fail(row.in_place == On::Root ? "MPI_IN_PLACE is only valid at the root"
                                    : "MPI_IN_PLACE not supported");
    }
    switch (row.to) {
      case To::RecvBuf: a.sendbuf = a.recvbuf; break;
      case To::RecvBlock: {
        const Block b = a.recv_block(rank);
        a.sendbuf = static_cast<const std::byte*>(a.recvbuf) + b.off * a.rdt.size();
        a.count = b.count;
        a.dt = a.rdt;
        break;
      }
      case To::SendBlock: {  // the root's block, only ever copied onto itself
        const Block b = a.send_block(rank);
        a.recvbuf = const_cast<std::byte*>(static_cast<const std::byte*>(a.sendbuf) +
                                           b.off * a.dt.size());
        a.rcount = b.count;
        a.rdt = a.dt;
        break;
      }
      case To::Snapshot:
        a.count = a.rcount;
        a.dt = a.rdt;
        a.scounts = a.rcounts;
        a.sdispls = a.rdispls;
        a.snapshot = true;
        break;
      case To::None: break;
    }
  }

  // Device buffer identification, one lookup per distinct caller buffer: a
  // buffer resolved into the other shares its kind, and a snapshot's
  // sentinel sendbuf is host.
  if (recv_in_place) {
    a.skind = classify(a.sendbuf);
    a.rkind = a.skind;
  } else {
    a.rkind = classify(a.recvbuf);
    const bool aliased = (send_in_place && !a.snapshot) || a.sendbuf == a.recvbuf;
    a.skind = aliased ? a.rkind : classify(a.sendbuf);
  }

  // Reductions and bcast size both sides by `count`; the block collectives
  // pair this rank's send block with its receive block.
  const bool blocks = row.to != To::None && row.to != To::RecvBuf;
  const auto nonzero = [](std::span<const std::size_t> v, std::size_t n) {
    return v.empty() ? n != 0
                     : std::ranges::any_of(v, [](std::size_t c) { return c != 0; });
  };
  if (send_on && a.sendbuf == nullptr && nonzero(a.scounts, a.count)) {
    fail("sendbuf is null with a nonzero count");
  }
  if (recv_on && a.recvbuf == nullptr &&
      nonzero(a.rcounts, blocks ? a.rcount : a.count)) {
    fail("recvbuf is null with a nonzero count");
  }
  if (blocks && send_on && recv_on) {
    const std::size_t sb = a.send_block(rank).count * a.dt.size();
    const std::size_t rb = a.recv_block(rank).count * a.rdt.size();
    if (sb != rb) {
      fail("send block of " + std::to_string(sb) + " bytes does not match the " +
           std::to_string(rb) + "-byte receive block");
    }
  }
  return a;
}

}  // namespace mpixccl::mini
