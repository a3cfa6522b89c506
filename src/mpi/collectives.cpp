// MiniMPI collective algorithms.
//
// Algorithm selection mirrors production MPI tuning defaults:
//   bcast           binomial tree
//   reduce          binomial tree
//   allreduce       recursive doubling (small) / Rabenseifner (large), after
//                   MPICH's fold onto a power of two
//   allgather       Bruck (small) / ring (large)
//   alltoall        pairwise exchange
//   reduce_scatter  ring
//   barrier         dissemination
//   gather/scatter  linear (root-posted)
//   scan            linear chain
//
// The binomial tree, the ring, the butterfly and the fold come from
// common/schedule.hpp; each algorithm here owns its exchange order, tags and
// pricing.
//
// Every collective call allocates its own fabric channel
// (Comm::next_collective_channel), so steps of consecutive collectives can
// never cross-match even when ranks race ahead.
//
// The algorithms read resolved arguments and never ask the device registry:
// a send is priced by the kind of the buffer it sends from (a caller buffer's
// kind from CollArgs, host for call-local scratch), a receive by either
// caller buffer's kind (CollArgs::device()).

#include <algorithm>
#include <cstring>
#include <memory>
#include <ranges>
#include <utility>
#include <vector>

#include "common/reduce.hpp"
#include "common/schedule.hpp"
#include "mpi/mpi.hpp"

namespace mpixccl::mini {

namespace {

/// Below/at this payload size allreduce uses recursive doubling; above it,
/// Rabenseifner (MPICH-like default).
constexpr std::size_t kAllreduceRdMaxBytes = 32768;
/// Below/at this *total* gathered size allgather uses Bruck.
constexpr std::size_t kAllgatherBruckMaxBytes = 32768;

/// memcpy that tolerates dst == src (MPI_IN_PLACE resolutions).
void copy_if_distinct(void* dst, const void* src, std::size_t n) {
  if (dst != src && n > 0) std::memcpy(dst, src, n);
}

/// The kind that prices a receive: device when either caller buffer is.
MemKind receive_kind(const CollArgs& a) {
  return a.device() ? MemKind::Device : MemKind::Host;
}

/// The send data of an alltoall(v): the caller's sendbuf, or for an in-place
/// call a copy of recvbuf taken before any block lands in it (owned by `keep`).
const void* send_data(const CollArgs& a, int p, std::unique_ptr<std::byte[]>& keep) {
  if (!a.snapshot) return a.sendbuf;
  std::size_t end = 0;  // elements of recvbuf the blocks span
  for (int r = 0; r < p; ++r) {
    const Block b = a.recv_block(r);
    end = std::max(end, b.off + b.count);
  }
  keep = uninit(end * a.rdt.size());
  std::memcpy(keep.get(), a.recvbuf, end * a.rdt.size());
  return keep.get();
}

}  // namespace

void Mpi::barrier(Comm& comm) {
  const fabric::ChannelId ch = comm.next_collective_channel();
  const int p = comm.size();
  if (p == 1) return;
  const int me = comm.rank();
  for (int k = 1; k < p; k <<= 1) {
    const int dst = (me + k) % p;
    const int src = (me - k % p + p) % p;
    Request rr = irecv_bytes(nullptr, 0, src, k, ch, comm, MemKind::Host);
    Request sr = isend_bytes(nullptr, 0, dst, k, ch, comm, MemKind::Host);
    wait(sr);
    wait(rr);
  }
}

void Mpi::run(const CollArgs& a, Comm& comm) {
  switch (a.coll) {
    case Coll::Bcast: return run_bcast(a, comm);
    case Coll::Reduce: return run_reduce(a, comm);
    case Coll::Allreduce: return run_allreduce(a, comm);
    case Coll::Gather:
    case Coll::Gatherv: return run_gather(a, comm);
    case Coll::Scatter:
    case Coll::Scatterv: return run_scatter(a, comm);
    case Coll::Allgather:
    case Coll::Allgatherv: return run_allgather(a, comm);
    case Coll::Alltoall: return run_alltoall(a, comm);
    case Coll::Alltoallv: return run_alltoallv(a, comm);
    case Coll::ReduceScatterBlock: return run_reduce_scatter_block(a, comm);
    case Coll::Scan: return run_scan(a, comm);
    case Coll::Exscan: return run_exscan(a, comm);
  }
}

void Mpi::run_bcast(const CollArgs& a, Comm& comm) {
  const fabric::ChannelId ch = comm.next_collective_channel();
  const int p = comm.size();
  if (p == 1) return;
  const std::size_t bytes = a.bytes();
  const BinomialTree tree(p, a.root, comm.rank());
  if (tree.parent() >= 0) {
    Request rr = irecv_bytes(a.recvbuf, bytes, tree.parent(), 0, ch, comm,
                             receive_kind(a));
    wait(rr);
  }
  for (const int child : tree.children()) {
    Request sr = isend_bytes(a.recvbuf, bytes, child, 0, ch, comm, a.rkind);
    wait(sr);
  }
}

void Mpi::run_reduce(const CollArgs& a, Comm& comm) {
  const fabric::ChannelId ch = comm.next_collective_channel();
  const int p = comm.size();
  const std::size_t bytes = a.bytes();
  const int me = comm.rank();
  require(reduce_defined(a.dt.base, a.redop), "Mpi::reduce: op not defined for datatype");

  // Accumulator: recvbuf at root, host scratch elsewhere. Each child's vector
  // is reduced into it as it lands; its send waits until every child's has.
  std::unique_ptr<std::byte[]> scratch;
  void* acc = a.recvbuf;
  if (me != a.root) {
    scratch = uninit(bytes);
    acc = scratch.get();
  }
  copy_if_distinct(acc, a.sendbuf, bytes);

  const BinomialTree tree(p, a.root, me);
  for (const int child : std::views::reverse(tree.children())) {
    Request rr = irecv_bytes(acc, bytes, child, 0, ch, comm, receive_kind(a),
                             fabric::ReduceSpec{a.dt.base, a.redop});
    wait(rr);
  }
  if (tree.parent() >= 0) {
    // Only non-roots send, from their host accumulator.
    Request sr = isend_bytes(acc, bytes, tree.parent(), 0, ch, comm, MemKind::Host);
    wait(sr);
  }
  if (me == a.root && a.redop == ReduceOp::Avg) {
    throw_if_error(scale_inplace(a.dt.base, a.recvbuf, a.count * a.dt.count, 1.0 / p),
                   "Mpi::reduce avg");
  }
}

void Mpi::run_allreduce(const CollArgs& a, Comm& comm) {
  const fabric::ChannelId ch = comm.next_collective_channel();
  const int p = comm.size();
  void* recvbuf = a.recvbuf;
  const std::size_t bytes = a.bytes();
  const std::size_t n_elems = a.count * a.dt.count;
  require(reduce_defined(a.dt.base, a.redop),
          "Mpi::allreduce: op not defined for datatype");

  // `in` is this rank's current vector: the input, read where it lies, until
  // the first step that writes recvbuf, and recvbuf from then on. Every send
  // is priced by recvbuf's kind, so an input of another kind is copied in
  // first; so is a single rank's (also the avg of one contribution).
  const void* in = a.sendbuf;
  if (p == 1 || a.skind != a.rkind) {
    copy_if_distinct(recvbuf, a.sendbuf, bytes);
    in = recvbuf;
  }
  if (p == 1) return;

  const Pow2Fold fold(p, comm.rank());
  const int pof2 = fold.pof2();

  // Fold the ranks beyond pof2 onto their partners.
  if (fold.role() == Pow2Fold::Role::Push) {
    Request sr = isend_bytes(in, bytes, fold.partner(), 1, ch, comm, a.rkind);
    wait(sr);
  } else if (fold.role() == Pow2Fold::Role::Receive) {
    Request rr = irecv_bytes(recvbuf, bytes, fold.partner(), 1, ch, comm,
                             receive_kind(a), fabric::ReduceSpec{a.dt.base, a.redop, in});
    wait(rr);
    in = recvbuf;
  }

  // Recursive doubling for small vectors, Rabenseifner above, both over the
  // butterfly of the pof2 effective ranks.
  const bool rd = bytes <= kAllreduceRdMaxBytes ||
                  n_elems < static_cast<std::size_t>(pof2) || pof2 == 1;
  const int eff = fold.eff();
  const Butterfly bf({pof2});
  if (eff >= 0 && rd) {
    // Each step sends the very vector it reduces into, so the partner's
    // vector lands in an inbox first.
    const auto inbox = uninit(bytes);
    for (int k = 0; k < bf.steps(); ++k) {
      const ButterflyStep s = bf.step(k);
      if (s.halving) continue;
      const int partner = fold.real(eff ^ s.mask);
      Request rr =
          irecv_bytes(inbox.get(), bytes, partner, 2, ch, comm, receive_kind(a));
      Request sr = isend_bytes(in, bytes, partner, 2, ch, comm, a.rkind);
      wait(sr);
      wait(rr);
      throw_if_error(
          apply_reduce(a.dt.base, a.redop, inbox.get(), in, recvbuf, n_elems),
          "Mpi::allreduce rd");
      in = recvbuf;
    }
  } else if (eff >= 0) {
    // Rabenseifner: reduce-scatter by recursive halving, then allgather by
    // recursive doubling, over a range of pof2 blocks. The element count
    // spreads its remainder over the leading blocks.
    const std::size_t base_elems = n_elems / static_cast<std::size_t>(pof2);
    const std::size_t extra = n_elems % static_cast<std::size_t>(pof2);
    const std::size_t esz = datatype_size(a.dt.base);
    auto elem = [&](std::size_t b) { return base_elems * b + std::min(b, extra); };
    auto buf = [&](Range r) { return at(recvbuf, elem(r.lo) * esz); };
    auto from = [&](Range r) { return at(in, elem(r.lo) * esz); };
    auto len = [&](Range r) { return (elem(r.hi) - elem(r.lo)) * esz; };

    Range r{0, static_cast<std::size_t>(pof2)};
    for (int k = 0; k < bf.steps(); ++k) {
      const ButterflyStep s = bf.step(k);
      const int partner = fold.real(eff ^ s.mask);
      const bool upper = (eff & s.mask) != 0;
      Request rr;
      Request sr;
      if (s.halving) {
        // The kept and sent halves are disjoint, so the partner's half is
        // reduced with this rank's kept half straight into recvbuf as it lands.
        const Halves h = halve(r, upper);
        rr = irecv_bytes(buf(h.keep), len(h.keep), partner, 3, ch, comm,
                         receive_kind(a),
                         fabric::ReduceSpec{a.dt.base, a.redop, from(h.keep)});
        sr = isend_bytes(from(h.send), len(h.send), partner, 3, ch, comm, a.rkind);
      } else {
        const Range theirs = mirror(r, upper);
        rr = irecv_bytes(buf(theirs), len(theirs), partner, 4, ch, comm,
                         receive_kind(a));
        sr = isend_bytes(buf(r), len(r), partner, 4, ch, comm, a.rkind);
      }
      wait(sr);
      wait(rr);
      r = after(r, s, upper);
      in = recvbuf;
    }
  }

  // Unfold: each receiving rank sends the result back to its partner.
  if (fold.role() == Pow2Fold::Role::Receive) {
    Request sr = isend_bytes(recvbuf, bytes, fold.partner(), 5, ch, comm, a.rkind);
    wait(sr);
  } else if (fold.role() == Pow2Fold::Role::Push) {
    Request rr = irecv_bytes(recvbuf, bytes, fold.partner(), 5, ch, comm,
                             receive_kind(a));
    wait(rr);
  }

  if (a.redop == ReduceOp::Avg) {
    throw_if_error(scale_inplace(a.dt.base, recvbuf, n_elems, 1.0 / p),
                   "Mpi::allreduce avg");
  }
}

/// One body for allgather and allgatherv: a block is CollArgs::recv_block.
void Mpi::run_allgather(const CollArgs& a, Comm& comm) {
  const fabric::ChannelId ch = comm.next_collective_channel();
  const int p = comm.size();
  const int me = comm.rank();
  void* recvbuf = a.recvbuf;
  const std::size_t esz = a.rdt.size();
  auto block = [&](int r) {
    const Block b = a.recv_block(r);
    return std::pair{at(recvbuf, b.off * esz), b.count * esz};
  };

  const auto [mine, bytes] = block(me);
  copy_if_distinct(mine, a.sendbuf, bytes);
  if (p == 1) return;

  const std::size_t total = bytes * static_cast<std::size_t>(p);
  if (a.coll == Coll::Allgather && total <= kAllgatherBruckMaxBytes) {
    // Bruck: log2(p) rounds over a rotated scratch copy.
    const auto tmp_mem = uninit(total);
    std::byte* tmp = tmp_mem.get();
    // Rotate so my block is first.
    std::memcpy(tmp, mine, bytes);
    std::size_t have = 1;  // blocks held, contiguous from tmp[0]
    int step = 1;
    while (have < static_cast<std::size_t>(p)) {
      const int dst = (me - step + p) % p;
      const int src = (me + step) % p;
      const std::size_t want =
          std::min(have, static_cast<std::size_t>(p) - have);
      Request rr = irecv_bytes(tmp + have * bytes, want * bytes, src, step, ch, comm,
                               receive_kind(a));
      Request sr = isend_bytes(tmp, want * bytes, dst, step, ch, comm, MemKind::Host);
      wait(sr);
      wait(rr);
      have += want;
      step <<= 1;
    }
    // Un-rotate into recvbuf.
    for (int b = 0; b < p; ++b) {
      std::memcpy(block((me + b) % p).first, tmp + static_cast<std::size_t>(b) * bytes,
                  bytes);
    }
    return;
  }
  // Ring: p-1 steps, forwarding the newest block.
  const Ring ring(p, me);
  for (int s = 0; s < ring.steps(); ++s) {
    const RingStep st = ring.allgather(s);
    const auto [rbuf, rbytes] = block(st.recv);
    const auto [sbuf, sbytes] = block(st.send);
    Request rr = irecv_bytes(rbuf, rbytes, ring.left(), s, ch, comm, receive_kind(a));
    Request sr = isend_bytes(sbuf, sbytes, ring.right(), s, ch, comm, a.rkind);
    wait(sr);
    wait(rr);
  }
}

/// The rooted block collectives, one body for the plain and the v-form:
/// every rank's block moves between the root and its owner.
void Mpi::run_gather(const CollArgs& a, Comm& comm) {
  const fabric::ChannelId ch = comm.next_collective_channel();
  const int me = comm.rank();
  if (me != a.root) {
    Request sr = isend_bytes(a.sendbuf, a.bytes(), a.root, 0, ch, comm, a.skind);
    wait(sr);
    return;
  }
  const std::size_t esz = a.rdt.size();
  std::vector<Request> reqs;
  for (int r = 0; r < comm.size(); ++r) {
    const Block b = a.recv_block(r);
    std::byte* dst = at(a.recvbuf, b.off * esz);
    if (r == me) {
      copy_if_distinct(dst, a.sendbuf, b.count * esz);
    } else {
      reqs.push_back(irecv_bytes(dst, b.count * esz, r, 0, ch, comm, receive_kind(a)));
    }
  }
  waitall(reqs);
}

void Mpi::run_scatter(const CollArgs& a, Comm& comm) {
  const fabric::ChannelId ch = comm.next_collective_channel();
  const int me = comm.rank();
  if (me != a.root) {
    // Priced by the receive buffer alone: a non-root's sendbuf is not
    // significant.
    Request rr =
        irecv_bytes(a.recvbuf, a.rcount * a.rdt.size(), a.root, 0, ch, comm, a.rkind);
    wait(rr);
    return;
  }
  const std::size_t esz = a.dt.size();
  std::vector<Request> reqs;
  for (int r = 0; r < comm.size(); ++r) {
    const Block b = a.send_block(r);
    const std::byte* src = at(a.sendbuf, b.off * esz);
    if (r == me) {
      copy_if_distinct(a.recvbuf, src, b.count * esz);
    } else {
      reqs.push_back(isend_bytes(src, b.count * esz, r, 0, ch, comm, a.skind));
    }
  }
  waitall(reqs);
}

void Mpi::run_alltoall(const CollArgs& a, Comm& comm) {
  const fabric::ChannelId ch = comm.next_collective_channel();
  const int p = comm.size();
  const int me = comm.rank();
  // A snapshot is host scratch, as resolve() classified the sentinel.
  std::unique_ptr<std::byte[]> snapshot;
  const void* sendbuf = send_data(a, p, snapshot);
  void* recvbuf = a.recvbuf;
  const std::size_t block = a.rcount * a.rdt.size();

  copy_if_distinct(at(recvbuf, static_cast<std::size_t>(me) * block),
                   at(sendbuf, static_cast<std::size_t>(me) * block), block);
  if (block <= prof_.eager_threshold) {
    // Small blocks: post everything at once (MVAPICH-style scattered
    // isend/irecv); completion is dominated by one alpha, not p-1 of them.
    std::vector<Request> reqs;
    reqs.reserve(static_cast<std::size_t>(2 * (p - 1)));
    for (int s = 1; s < p; ++s) {
      const int src = (me - s + p) % p;
      reqs.push_back(irecv_bytes(at(recvbuf, static_cast<std::size_t>(src) * block),
                                 block, src, 0, ch, comm, receive_kind(a)));
    }
    for (int s = 1; s < p; ++s) {
      const int dst = (me + s) % p;
      reqs.push_back(isend_bytes(at(sendbuf, static_cast<std::size_t>(dst) * block),
                                 block, dst, 0, ch, comm, a.skind));
    }
    waitall(reqs);
    return;
  }
  // Large blocks: pairwise exchange, p-1 rounds; in round s talk to (me +/- s).
  for (int s = 1; s < p; ++s) {
    const int dst = (me + s) % p;
    const int src = (me - s + p) % p;
    Request rr = irecv_bytes(at(recvbuf, static_cast<std::size_t>(src) * block),
                             block, src, s, ch, comm, receive_kind(a));
    Request sr = isend_bytes(at(sendbuf, static_cast<std::size_t>(dst) * block), block,
                             dst, s, ch, comm, a.skind);
    wait(sr);
    wait(rr);
  }
}

void Mpi::run_alltoallv(const CollArgs& a, Comm& comm) {
  const fabric::ChannelId ch = comm.next_collective_channel();
  const int p = comm.size();
  const int me = comm.rank();
  std::unique_ptr<std::byte[]> snapshot;
  const void* sendbuf = send_data(a, p, snapshot);
  const std::size_t ssz = a.dt.size();
  const std::size_t rsz = a.rdt.size();
  const auto src = [&](int r) { return at(sendbuf, a.send_block(r).off * ssz); };
  const auto dst = [&](int r) { return at(a.recvbuf, a.recv_block(r).off * rsz); };

  std::memcpy(dst(me), src(me), a.send_block(me).count * ssz);
  std::vector<Request> reqs;
  reqs.reserve(static_cast<std::size_t>(2 * (p - 1)));
  for (int r = 0; r < p; ++r) {
    if (r == me) continue;
    reqs.push_back(irecv_bytes(dst(r), a.recv_block(r).count * rsz, r, 0, ch, comm,
                               receive_kind(a)));
  }
  for (int r = 0; r < p; ++r) {
    if (r == me) continue;
    reqs.push_back(
        isend_bytes(src(r), a.send_block(r).count * ssz, r, 0, ch, comm, a.skind));
  }
  waitall(reqs);
}

void Mpi::run_reduce_scatter_block(const CollArgs& a, Comm& comm) {
  const fabric::ChannelId ch = comm.next_collective_channel();
  const int p = comm.size();
  const int me = comm.rank();
  const std::size_t block = a.bytes();
  const std::size_t block_elems = a.count * a.dt.count;
  require(reduce_defined(a.dt.base, a.redop),
          "Mpi::reduce_scatter_block: op not defined for datatype");

  if (p == 1) {
    std::memcpy(a.recvbuf, a.sendbuf, block);
    return;
  }

  // Ring reduce-scatter that reads the input in place: step 0 sends an input
  // block, each later step forwards the block the previous step produced,
  // and each arriving block is reduced with this rank's own input block as
  // it lands. Partial blocks alternate between two host slots; the last
  // step lands in recvbuf. Every send is priced as a host send: the slots
  // are host memory, and step 0 is priced like the steps after it.
  const auto slots = uninit(p > 2 ? 2 * block : 0);
  const Ring ring(p, me);
  const std::byte* send =
      at(a.sendbuf, static_cast<std::size_t>(ring.reduce_scatter(0).send) * block);
  for (int s = 0; s < ring.steps(); ++s) {
    const auto recv_block = static_cast<std::size_t>(ring.reduce_scatter(s).recv);
    std::byte* out = s == p - 2
                         ? static_cast<std::byte*>(a.recvbuf)
                         : slots.get() + static_cast<std::size_t>(s % 2) * block;
    const fabric::ReduceSpec with_mine{a.dt.base, a.redop,
                                       at(a.sendbuf, recv_block * block)};
    Request rr =
        irecv_bytes(out, block, ring.left(), s, ch, comm, receive_kind(a), with_mine);
    Request sr = isend_bytes(send, block, ring.right(), s, ch, comm, MemKind::Host);
    wait(sr);
    wait(rr);
    send = out;
  }
  if (a.redop == ReduceOp::Avg) {
    throw_if_error(scale_inplace(a.dt.base, a.recvbuf, block_elems, 1.0 / p),
                   "Mpi::reduce_scatter_block avg");
  }
}

void Mpi::run_scan(const CollArgs& a, Comm& comm) {
  const fabric::ChannelId ch = comm.next_collective_channel();
  const int p = comm.size();
  const int me = comm.rank();
  const std::size_t bytes = a.bytes();
  require(a.redop != ReduceOp::Avg, "Mpi::scan: MPI defines no Avg scan");
  require(reduce_defined(a.dt.base, a.redop), "Mpi::scan: op not defined for datatype");

  if (me == 0) {
    copy_if_distinct(a.recvbuf, a.sendbuf, bytes);
  } else {
    // recvbuf = prefix of ranks < me op my contribution, as the prefix lands.
    Request rr = irecv_bytes(a.recvbuf, bytes, me - 1, 0, ch, comm, receive_kind(a),
                             fabric::ReduceSpec{a.dt.base, a.redop, a.sendbuf});
    wait(rr);
  }
  if (me < p - 1) {
    Request sr = isend_bytes(a.recvbuf, bytes, me + 1, 0, ch, comm, a.rkind);
    wait(sr);
  }
}

void Mpi::run_exscan(const CollArgs& a, Comm& comm) {
  const fabric::ChannelId ch = comm.next_collective_channel();
  const int p = comm.size();
  const int me = comm.rank();
  const std::size_t bytes = a.bytes();
  require(a.redop != ReduceOp::Avg, "Mpi::exscan: MPI defines no Avg scan");
  require(reduce_defined(a.dt.base, a.redop),
          "Mpi::exscan: op not defined for datatype");

  // Linear chain: the value forwarded to rank r+1 is op(prefix, mine); the
  // value *received* is the exclusive prefix.
  const auto mine = uninit(bytes);
  std::memcpy(mine.get(), a.sendbuf, bytes);
  if (me > 0) {
    Request rr = irecv_bytes(a.recvbuf, bytes, me - 1, 0, ch, comm, receive_kind(a));
    wait(rr);
    // forward = recvbuf (prefix) op mine.
    throw_if_error(
        apply_reduce(a.dt.base, a.redop, a.recvbuf, mine.get(), a.count * a.dt.count),
        "Mpi::exscan");
  }
  if (me < p - 1) {
    Request sr = isend_bytes(mine.get(), bytes, me + 1, 0, ch, comm, MemKind::Host);
    wait(sr);
  }
  // Rank 0's recvbuf stays untouched (undefined per MPI).
}

RecvStatus Mpi::sendrecv_replace(void* buf, std::size_t count, Datatype dt,
                                 int dst, int sendtag, int src, int recvtag,
                                 Comm& comm) {
  const std::size_t bytes = count * dt.size();
  const auto tmp = uninit(bytes);
  std::memcpy(tmp.get(), buf, bytes);
  Request rr = irecv(buf, count, dt, src, recvtag, comm);
  Request sr = isend(tmp.get(), count, dt, dst, sendtag, comm);
  wait(sr);
  return wait(rr);
}

Request Mpi::iallreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                        Datatype dt, ReduceOp op, Comm& comm) {
  allreduce(sendbuf, recvbuf, count, dt, op, comm);
  return Request::completed(clock().now());
}

Request Mpi::ibarrier(Comm& comm) {
  barrier(comm);
  return Request::completed(clock().now());
}

}  // namespace mpixccl::mini
