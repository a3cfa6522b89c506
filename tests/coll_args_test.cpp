// The collective entry check (mpi/coll_args.hpp) per rank, without a world:
// what each MPI_IN_PLACE row resolves to, which ranks may pass the sentinel,
// the errors for arguments MPI calls erroneous, and the memory kind it gives
// each buffer. Forms only one rank can commit (in place at a non-root) are
// checked here, where no peer waits.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "device/buffer_registry.hpp"
#include "mpi/coll_args.hpp"

namespace mpixccl::mini {
namespace {

constexpr int kSize = 4;

std::array<float, 64> send_mem;
std::array<float, 64> recv_mem;
float* const sb = send_mem.data();
float* const rb = recv_mem.data();

const std::vector<std::size_t> kCounts{1, 2, 3, 4};
const std::vector<std::size_t> kDispls{0, 1, 3, 6};

/// resolve() must throw an Error naming every piece of `what` and the rank.
void expect_error(const CollArgs& a, int rank, const std::vector<std::string>& what) {
  try {
    (void)resolve(a, rank, kSize);
    ADD_FAILURE() << "accepted: " << what.front();
  } catch (const Error& e) {
    const std::string msg = e.what();
    for (const std::string& w : what) EXPECT_NE(msg.find(w), std::string::npos) << msg;
    EXPECT_NE(msg.find("(rank " + std::to_string(rank) + ")"), std::string::npos) << msg;
  }
}

void expect_same(const CollArgs& x, const CollArgs& y) {
  EXPECT_EQ(x.sendbuf, y.sendbuf);
  EXPECT_EQ(x.recvbuf, y.recvbuf);
  EXPECT_EQ(x.count, y.count);
  EXPECT_EQ(x.dt, y.dt);
  EXPECT_EQ(x.rcount, y.rcount);
  EXPECT_EQ(x.rdt, y.rdt);
  EXPECT_EQ(x.scounts.data(), y.scounts.data());
  EXPECT_EQ(x.sdispls.data(), y.sdispls.data());
  EXPECT_EQ(x.snapshot, y.snapshot);
  EXPECT_EQ(x.skind, y.skind);
  EXPECT_EQ(x.rkind, y.rkind);
}

/// Resolve on `rank`, check that resolving again changes nothing, return it.
CollArgs resolved(const CollArgs& a, int rank) {
  const CollArgs once = resolve(a, rank, kSize);
  expect_same(resolve(once, rank, kSize), once);
  return once;
}

TEST(InPlaceTable, ReductionsReadTheReceiveBuffer) {
  for (Coll c : {Coll::Allreduce, Coll::Scan, Coll::Exscan}) {
    const CollArgs a = resolved({.coll = c, .sendbuf = kInPlace, .recvbuf = rb,
                                 .count = 8, .dt = kFloat}, 2);
    EXPECT_EQ(a.sendbuf, rb);
    EXPECT_EQ(a.count, 8u);
  }
  const CollArgs r = resolved({.coll = Coll::Reduce, .sendbuf = kInPlace, .recvbuf = rb,
                               .count = 8, .dt = kFloat, .root = 3}, 3);
  EXPECT_EQ(r.sendbuf, rb);
}

TEST(InPlaceTable, AllgatherSendsItsOwnReceiveBlock) {
  const CollArgs a = resolved({.coll = Coll::Allgather, .sendbuf = kInPlace,
                               .recvbuf = rb, .count = 0, .dt = kByte, .rcount = 5,
                               .rdt = kFloat}, 2);
  EXPECT_EQ(a.sendbuf, rb + 10);
  EXPECT_EQ(a.count, 5u);
  EXPECT_EQ(a.dt, kFloat);
}

TEST(InPlaceTable, AllgathervIgnoresSendcount) {
  const CollArgs a =
      resolved({.coll = Coll::Allgatherv, .sendbuf = kInPlace, .recvbuf = rb, .count = 99,
                .dt = kByte, .rdt = kFloat, .rcounts = kCounts, .rdispls = kDispls}, 2);
  EXPECT_EQ(a.sendbuf, rb + 3);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.dt, kFloat);
}

TEST(InPlaceTable, GatherRootSendsItsBlockOntoItself) {
  const CollArgs g = resolved({.coll = Coll::Gather, .sendbuf = kInPlace, .recvbuf = rb,
                               .rcount = 4, .rdt = kFloat, .root = 1}, 1);
  EXPECT_EQ(g.sendbuf, rb + 4);
  EXPECT_EQ(g.count, 4u);
  const CollArgs gv =
      resolved({.coll = Coll::Gatherv, .sendbuf = kInPlace, .recvbuf = rb, .rdt = kFloat,
                .root = 3, .rcounts = kCounts, .rdispls = kDispls}, 3);
  EXPECT_EQ(gv.sendbuf, rb + 6);
  EXPECT_EQ(gv.count, 4u);
}

TEST(InPlaceTable, ScatterRootKeepsItsBlockInTheSendBuffer) {
  // The sentinel is recvbuf; the count comes from the send side.
  const CollArgs s = resolved({.coll = Coll::Scatter, .sendbuf = sb, .recvbuf = kInPlace,
                               .count = 4, .dt = kFloat, .rcount = 0, .root = 2}, 2);
  EXPECT_EQ(s.recvbuf, sb + 8);
  EXPECT_EQ(s.rcount, 4u);
  EXPECT_EQ(s.rdt, kFloat);
  const CollArgs sv =
      resolved({.coll = Coll::Scatterv, .sendbuf = sb, .recvbuf = kInPlace, .dt = kFloat,
                .root = 1, .scounts = kCounts, .sdispls = kDispls}, 1);
  EXPECT_EQ(sv.recvbuf, sb + 1);
  EXPECT_EQ(sv.rcount, 2u);
}

TEST(InPlaceTable, AlltoallKeepsTheSentinelForTheSnapshot) {
  const CollArgs a = resolved({.coll = Coll::Alltoall, .sendbuf = kInPlace, .recvbuf = rb,
                               .rcount = 4, .rdt = kFloat}, 0);
  EXPECT_TRUE(a.snapshot);
  EXPECT_EQ(a.sendbuf, kInPlace);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.dt, kFloat);
  // MPI ignores the send counts of an in-place alltoallv: none given here.
  const CollArgs v = resolved({.coll = Coll::Alltoallv, .sendbuf = kInPlace,
                               .recvbuf = rb, .rdt = kFloat, .rcounts = kCounts,
                               .rdispls = kDispls}, 1);
  EXPECT_TRUE(v.snapshot);
  EXPECT_EQ(v.scounts.data(), kCounts.data());
  EXPECT_EQ(v.sdispls.data(), kDispls.data());
}

TEST(InPlaceTable, NonRootsMayNotPassTheSentinel) {
  const std::vector<std::string> root_only{"MPI_IN_PLACE is only valid at the root"};
  expect_error({.coll = Coll::Reduce, .sendbuf = kInPlace, .recvbuf = rb, .count = 4,
                .dt = kFloat, .root = 0}, 2, {"reduce", root_only[0]});
  expect_error({.coll = Coll::Gather, .sendbuf = kInPlace, .count = 4, .dt = kFloat,
                .root = 0}, 1, {"gather", root_only[0]});
  expect_error({.coll = Coll::Gatherv, .sendbuf = kInPlace, .count = 4, .dt = kFloat,
                .root = 0}, 1, {"gatherv", root_only[0]});
  expect_error({.coll = Coll::Scatter, .recvbuf = kInPlace, .rcount = 4, .rdt = kFloat,
                .root = 0}, 3, {"scatter", root_only[0]});
  expect_error({.coll = Coll::Scatterv, .recvbuf = kInPlace, .rcount = 4, .rdt = kFloat,
                .root = 0}, 3, {"scatterv", root_only[0]});
}

TEST(InPlaceTable, UnsupportedAndMisplacedSentinelsThrow) {
  expect_error({.coll = Coll::ReduceScatterBlock, .sendbuf = kInPlace, .recvbuf = rb,
                .count = 4, .dt = kFloat}, 0,
               {"reduce_scatter_block", "MPI_IN_PLACE not supported"});
  expect_error({.coll = Coll::Bcast, .recvbuf = kInPlace, .count = 4, .dt = kFloat}, 0,
               {"bcast", "recvbuf = MPI_IN_PLACE is not allowed"});
  expect_error({.coll = Coll::Allreduce, .sendbuf = sb, .recvbuf = kInPlace, .count = 4,
                .dt = kFloat}, 1, {"allreduce", "recvbuf = MPI_IN_PLACE is not allowed"});
  expect_error({.coll = Coll::Scatter, .sendbuf = kInPlace, .recvbuf = rb, .count = 4,
                .dt = kFloat, .rcount = 4, .rdt = kFloat}, 0,
               {"scatter", "sendbuf = MPI_IN_PLACE is not allowed"});
  expect_error({.coll = Coll::Gather, .sendbuf = sb, .recvbuf = kInPlace, .count = 4,
                .dt = kFloat, .rcount = 4, .rdt = kFloat}, 0,
               {"gather", "recvbuf = MPI_IN_PLACE is not allowed"});
}

TEST(EntryCheck, EveryRootedCallRejectsAnOutOfRangeRoot) {
  for (Coll c : {Coll::Bcast, Coll::Reduce, Coll::Gather, Coll::Gatherv, Coll::Scatter,
                 Coll::Scatterv}) {
    for (int root : {-1, kSize}) {
      expect_error({.coll = c, .root = root}, 2,
                   {"root = " + std::to_string(root) + " is outside [0, 4)"});
    }
  }
  // Calls without a root ignore the argument.
  EXPECT_NO_THROW((void)resolve({.coll = Coll::Allreduce, .root = kSize}, 0, kSize));
}

TEST(EntryCheck, ShortSpansThrowWhereSignificant) {
  const std::vector<std::size_t> shrt{1, 2, 3};
  expect_error({.coll = Coll::Allgatherv, .sendbuf = sb, .recvbuf = rb, .dt = kFloat,
                .rdt = kFloat, .rcounts = shrt, .rdispls = kDispls}, 1,
               {"allgatherv", "recvcounts has 3 entries, not 4"});
  expect_error({.coll = Coll::Alltoallv, .sendbuf = sb, .recvbuf = rb, .dt = kFloat,
                .rdt = kFloat, .scounts = kCounts, .sdispls = shrt, .rcounts = kCounts,
                .rdispls = kDispls}, 1, {"alltoallv", "sdispls"});
  expect_error({.coll = Coll::Gatherv, .sendbuf = sb, .recvbuf = rb, .count = 1,
                .dt = kFloat, .rdt = kFloat, .root = 0, .rcounts = kCounts,
                .rdispls = shrt}, 0, {"gatherv", "rdispls"});
  expect_error({.coll = Coll::Scatterv, .sendbuf = sb, .recvbuf = rb, .dt = kFloat,
                .rcount = 1, .rdt = kFloat, .root = 0, .scounts = shrt,
                .sdispls = kDispls}, 0, {"scatterv", "sendcounts"});
  // Off the root the rooted v-spans are not significant: empty is fine.
  EXPECT_NO_THROW((void)resolve({.coll = Coll::Gatherv, .sendbuf = sb, .count = 2,
                                 .dt = kFloat, .root = 0}, 1, kSize));
  EXPECT_NO_THROW((void)resolve({.coll = Coll::Scatterv, .recvbuf = rb, .rcount = 2,
                                 .rdt = kFloat, .root = 0}, 1, kSize));
}

TEST(EntryCheck, NullBuffersThrowOnlyWithNonzeroCounts) {
  expect_error({.coll = Coll::Allreduce, .sendbuf = nullptr, .recvbuf = rb, .count = 1,
                .dt = kFloat}, 0, {"allreduce", "sendbuf is null"});
  expect_error({.coll = Coll::Allgatherv, .sendbuf = sb, .recvbuf = nullptr, .count = 2,
                .dt = kFloat, .rdt = kFloat, .rcounts = kCounts, .rdispls = kDispls}, 1,
               {"allgatherv", "recvbuf is null"});
  EXPECT_NO_THROW((void)resolve({.coll = Coll::Allreduce, .count = 0, .dt = kFloat}, 0,
                                kSize));
  // Buffers that are not significant on this rank may be null.
  EXPECT_NO_THROW((void)resolve({.coll = Coll::Reduce, .sendbuf = sb, .recvbuf = nullptr,
                                 .count = 4, .dt = kFloat, .root = 0}, 1, kSize));
  EXPECT_NO_THROW((void)resolve({.coll = Coll::Scatter, .sendbuf = nullptr, .recvbuf = rb,
                                 .count = 4, .dt = kFloat, .rcount = 4, .rdt = kFloat,
                                 .root = 0}, 2, kSize));
}

TEST(EntryCheck, SendAndReceiveBlocksMustMatch) {
  expect_error({.coll = Coll::Allgather, .sendbuf = sb, .recvbuf = rb, .count = 3,
                .dt = kFloat, .rcount = 4, .rdt = kFloat}, 2,
               {"allgather", "send block of 12 bytes", "16-byte receive block"});
  expect_error({.coll = Coll::Gatherv, .sendbuf = sb, .recvbuf = rb, .count = 2,
                .dt = kFloat, .rdt = kFloat, .root = 0, .rcounts = kCounts,
                .rdispls = kDispls}, 0, {"gatherv", "send block"});
  // Element types may differ when the bytes agree.
  EXPECT_NO_THROW((void)resolve({.coll = Coll::Allgather, .sendbuf = sb, .recvbuf = rb,
                                 .count = 2, .dt = contiguous(2, kFloat), .rcount = 4,
                                 .rdt = kFloat}, 0, kSize));
}

/// Registers `recv_mem` as device memory for one test's lifetime.
struct DeviceRecvMem {
  DeviceRecvMem() {
    device::BufferRegistry::instance().add(rb, sizeof recv_mem, Vendor::Nvidia, 0);
  }
  ~DeviceRecvMem() { device::BufferRegistry::instance().remove(rb); }
};

TEST(BufferKinds, EachBufferIsClassifiedAndResolvedBuffersShareTheirKind) {
  const DeviceRecvMem device_recv;
  const CollArgs apart = resolved(
      {.coll = Coll::Allreduce, .sendbuf = sb, .recvbuf = rb, .count = 4, .dt = kFloat},
      0);
  EXPECT_EQ(apart.skind, MemKind::Host);
  EXPECT_EQ(apart.rkind, MemKind::Device);
  EXPECT_TRUE(apart.device());

  // The sentinel resolves onto the receive buffer (or its block) and takes
  // its kind.
  for (Coll c : {Coll::Allreduce, Coll::Allgather}) {
    const CollArgs a = resolved({.coll = c, .sendbuf = kInPlace, .recvbuf = rb,
                                 .count = 4, .dt = kFloat, .rcount = 4, .rdt = kFloat},
                                1);
    EXPECT_EQ(a.skind, MemKind::Device);
    EXPECT_EQ(a.rkind, MemKind::Device);
  }
  // A snapshot call keeps the sentinel, which is host memory.
  const CollArgs snap = resolved({.coll = Coll::Alltoall, .sendbuf = kInPlace,
                                  .recvbuf = rb, .rcount = 2, .rdt = kFloat},
                                 0);
  EXPECT_EQ(snap.skind, MemKind::Host);
  EXPECT_EQ(snap.rkind, MemKind::Device);
  // The scatter root's receive block lies in its send buffer.
  const CollArgs scat = resolved({.coll = Coll::Scatter, .sendbuf = sb,
                                  .recvbuf = kInPlace, .count = 2, .dt = kFloat,
                                  .root = 2},
                                 2);
  EXPECT_EQ(scat.skind, MemKind::Host);
  EXPECT_EQ(scat.rkind, MemKind::Host);
  // A null buffer (bcast's send side) is host memory.
  const CollArgs bc = resolved(
      {.coll = Coll::Bcast, .recvbuf = rb, .count = 4, .dt = kFloat, .root = 0}, 3);
  EXPECT_EQ(bc.skind, MemKind::Host);
  EXPECT_EQ(bc.rkind, MemKind::Device);
  EXPECT_EQ(classify(rb + 5), MemKind::Device);
  EXPECT_EQ(classify(kInPlace), MemKind::Host);
}

}  // namespace
}  // namespace mpixccl::mini
