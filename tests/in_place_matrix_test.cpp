// MPI_IN_PLACE and argument misuse across every public collective of the
// runtime, in every call flavour it has (blocking, nonblocking, persistent)
// and in each dispatch mode, on thetagpu 1x4 with device buffers.
//
// Allowed in-place forms must match the flat-MPI oracle: the same call run
// out of place on separate host buffers through the rank's MiniMPI. An
// erroneous call must throw an Error that names the call, the argument and
// the rank before the rank communicates. Calls that every rank makes (a null
// buffer, a short counts span, an out-of-range root) run on every rank;
// forms only one rank can commit (in place at a non-root) run on that rank
// alone, so no peer is left waiting.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::core {
namespace {

constexpr int kRanks = 4;
constexpr std::size_t kN = 4096;  // floats per block
constexpr int kRoot = 1;

using mini::kFloat;
using mini::kInPlace;

class InPlaceMatrix : public ::testing::TestWithParam<Mode> {
 protected:
  /// Run `body` on every rank of thetagpu 1x4 with a runtime in this mode.
  void on_ranks(const std::function<void(XcclMpi&)>& body) const {
    fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, kRanks});
    world.run([&](fabric::RankContext& ctx) {
      XcclMpiOptions opts;
      opts.mode = GetParam();
      XcclMpi rt(ctx, opts);
      body(rt);
    });
  }
};

/// Element i of rank r's input: small integers, so float sums are exact in
/// any order.
float input(int r, std::size_t i) { return static_cast<float>((3 * r + i) % 11); }

std::vector<float> inputs(int r, std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = input(r, i);
  return v;
}

/// Device memory the test fills from and reads back into host vectors.
struct Dev {
  Dev(XcclMpi& rt, std::size_t n) : n(n), buf(rt.context().device(), n * sizeof(float)) {}
  float* data() { return buf.as<float>(); }
  void fill(const std::vector<float>& v) { std::copy(v.begin(), v.end(), data()); }
  [[nodiscard]] std::vector<float> read() { return {data(), data() + n}; }
  std::size_t n;
  device::DeviceBuffer buf;
};

/// One collective call in each flavour it has; empty when it has not.
struct Flavours {
  std::function<void()> blocking;
  std::function<mini::Request()> nonblocking;
  std::function<Persistent()> init;
};

/// Every flavour of the call: fill, run, check. A persistent handle starts
/// twice, refilled in between, so its replay of the resolved arguments is
/// checked as well.
void each_flavour(XcclMpi& rt, const Flavours& f, const std::function<void()>& fill,
                  const std::function<void(const std::string&)>& check) {
  fill();
  f.blocking();
  check("blocking");
  if (f.nonblocking) {
    fill();
    mini::Request req = f.nonblocking();
    rt.wait(req);
    check("nonblocking");
  }
  if (f.init) {
    Persistent h = f.init();
    for (int round = 0; round < 2; ++round) {
      fill();
      h.start();
      h.wait();
      check("persistent round " + std::to_string(round));
    }
  }
}

/// Ragged per-rank counts (r + 1 quarter blocks) and their displacements.
struct Ragged {
  std::vector<std::size_t> counts, displs;
  std::size_t total = 0;
  Ragged() {
    for (int r = 0; r < kRanks; ++r) {
      counts.push_back(kN / 4 * static_cast<std::size_t>(r + 1));
      displs.push_back(total);
      total += counts.back();
    }
  }
};

/// `call` must throw an Error whose message names `what` (the call and the
/// argument) and this rank.
void expect_rejected(XcclMpi& rt, const std::function<void()>& call,
                     const std::vector<std::string>& what) {
  try {
    call();
    ADD_FAILURE() << "accepted: " << what.front();
  } catch (const Error& e) {
    const std::string msg = e.what();
    for (const std::string& w : what) EXPECT_NE(msg.find(w), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank " + std::to_string(rt.rank())), std::string::npos) << msg;
  }
}

// ---- Allowed in-place forms ---------------------------------------------------

TEST_P(InPlaceMatrix, Allreduce) {
  on_ranks([](XcclMpi& rt) {
    const std::vector<float> in = inputs(rt.rank(), kN);
    std::vector<float> want(kN);
    mini::Comm& w = rt.comm_world();
    const auto sum = ReduceOp::Sum;
    rt.mpi().allreduce(in.data(), want.data(), kN, kFloat, sum, w);
    Dev io(rt, kN);
    each_flavour(
        rt,
        {[&] { rt.allreduce(kInPlace, io.data(), kN, kFloat, sum, w); },
         [&] { return rt.iallreduce(kInPlace, io.data(), kN, kFloat, sum, w); },
         [&] { return rt.allreduce_init(kInPlace, io.data(), kN, kFloat, sum, w); }},
        [&] { io.fill(in); },
        [&](const std::string& f) { EXPECT_EQ(io.read(), want) << f; });
  });
}

TEST_P(InPlaceMatrix, ReduceAtRoot) {
  on_ranks([](XcclMpi& rt) {
    const bool root = rt.rank() == kRoot;
    const std::vector<float> in = inputs(rt.rank(), kN);
    std::vector<float> want(kN);
    rt.mpi().reduce(in.data(), want.data(), kN, kFloat, ReduceOp::Sum, kRoot,
                    rt.comm_world());
    Dev io(rt, kN);
    Dev out(rt, kN);
    const void* send = root ? kInPlace : io.data();
    void* recv = root ? io.data() : out.data();
    mini::Comm& w = rt.comm_world();
    each_flavour(
        rt,
        {[&] { rt.reduce(send, recv, kN, kFloat, ReduceOp::Sum, kRoot, w); },
         [&] { return rt.ireduce(send, recv, kN, kFloat, ReduceOp::Sum, kRoot, w); },
         [&] { return rt.reduce_init(send, recv, kN, kFloat, ReduceOp::Sum, kRoot, w); }},
        [&] { io.fill(in); },
        [&](const std::string& f) {
          if (root) EXPECT_EQ(io.read(), want) << f;
        });
  });
}

TEST_P(InPlaceMatrix, Allgather) {
  on_ranks([](XcclMpi& rt) {
    const std::vector<float> in = inputs(rt.rank(), kN);
    std::vector<float> want(kN * kRanks);
    rt.mpi().allgather(in.data(), kN, kFloat, want.data(), kN, kFloat, rt.comm_world());
    std::vector<float> mine(kN * kRanks, -1.0f);
    std::copy(in.begin(), in.end(), mine.begin() + static_cast<long>(kN) * rt.rank());
    Dev io(rt, kN * kRanks);
    mini::Comm& w = rt.comm_world();
    each_flavour(
        rt,
        {[&] { rt.allgather(kInPlace, 0, kFloat, io.data(), kN, kFloat, w); },
         [&] { return rt.iallgather(kInPlace, 0, kFloat, io.data(), kN, kFloat, w); },
         [&] {
           return rt.allgather_init(kInPlace, 0, kFloat, io.data(), kN, kFloat, w);
         }},
        [&] { io.fill(mine); },
        [&](const std::string& f) { EXPECT_EQ(io.read(), want) << f; });
  });
}

TEST_P(InPlaceMatrix, AllgathervIgnoresSendcount) {
  // MPI ignores sendcount in place: the block is recvcounts[rank] elements
  // at displs[rank], whatever sendcount says (here 0).
  on_ranks([](XcclMpi& rt) {
    const Ragged g;
    const auto me = static_cast<std::size_t>(rt.rank());
    const std::vector<float> in = inputs(rt.rank(), g.counts[me]);
    std::vector<float> want(g.total);
    rt.mpi().allgatherv(in.data(), in.size(), kFloat, want.data(), g.counts, g.displs,
                        kFloat, rt.comm_world());
    std::vector<float> mine(g.total, -1.0f);
    std::copy(in.begin(), in.end(), mine.begin() + static_cast<long>(g.displs[me]));
    Dev io(rt, g.total);
    io.fill(mine);
    rt.allgatherv(kInPlace, 0, kFloat, io.data(), g.counts, g.displs, kFloat,
                  rt.comm_world());
    EXPECT_EQ(io.read(), want);
  });
}

TEST_P(InPlaceMatrix, GatherAtRoot) {
  on_ranks([](XcclMpi& rt) {
    const bool root = rt.rank() == kRoot;
    const std::vector<float> in = inputs(rt.rank(), kN);
    std::vector<float> want(kN * kRanks);
    rt.mpi().gather(in.data(), kN, kFloat, want.data(), kN, kFloat, kRoot,
                    rt.comm_world());
    Dev io(rt, kN * kRanks);
    std::vector<float> fill(kN * kRanks, -1.0f);
    std::copy(in.begin(), in.end(), fill.begin() + static_cast<long>(kN) * kRoot);
    io.fill(root ? fill : in);
    rt.gather(root ? kInPlace : io.data(), kN, kFloat, root ? io.data() : nullptr, kN,
              kFloat, kRoot, rt.comm_world());
    if (root) EXPECT_EQ(io.read(), want);
  });
}

TEST_P(InPlaceMatrix, GathervAtRoot) {
  on_ranks([](XcclMpi& rt) {
    const Ragged g;
    const bool root = rt.rank() == kRoot;
    const auto me = static_cast<std::size_t>(rt.rank());
    const std::vector<float> in = inputs(rt.rank(), g.counts[me]);
    std::vector<float> want(g.total);
    rt.mpi().gatherv(in.data(), in.size(), kFloat, want.data(), g.counts, g.displs,
                     kFloat, kRoot, rt.comm_world());
    Dev io(rt, g.total);
    std::vector<float> fill(g.total, -1.0f);
    std::copy(in.begin(), in.end(), fill.begin() + static_cast<long>(g.displs[me]));
    io.fill(root ? fill : in);
    rt.gatherv(root ? kInPlace : io.data(), in.size(), kFloat, root ? io.data() : nullptr,
               g.counts, g.displs, kFloat, kRoot, rt.comm_world());
    if (root) EXPECT_EQ(io.read(), want);
  });
}

TEST_P(InPlaceMatrix, ScatterAtRoot) {
  // The sentinel is recvbuf: the root's block stays where it is in sendbuf.
  on_ranks([](XcclMpi& rt) {
    const bool root = rt.rank() == kRoot;
    const std::vector<float> all = inputs(kRoot, kN * kRanks);
    std::vector<float> want(kN);
    rt.mpi().scatter(all.data(), kN, kFloat, want.data(), kN, kFloat, kRoot,
                     rt.comm_world());
    Dev send(rt, kN * kRanks);
    Dev recv(rt, kN);
    send.fill(all);
    rt.scatter(root ? send.data() : nullptr, kN, kFloat, root ? kInPlace : recv.data(),
               kN, kFloat, kRoot, rt.comm_world());
    if (root) {
      EXPECT_EQ(send.read(), all);
    } else {
      EXPECT_EQ(recv.read(), want);
    }
  });
}

TEST_P(InPlaceMatrix, ScattervAtRoot) {
  on_ranks([](XcclMpi& rt) {
    const Ragged g;
    const bool root = rt.rank() == kRoot;
    const auto me = static_cast<std::size_t>(rt.rank());
    const std::vector<float> all = inputs(kRoot, g.total);
    std::vector<float> want(g.counts[me]);
    rt.mpi().scatterv(all.data(), g.counts, g.displs, kFloat, want.data(), want.size(),
                      kFloat, kRoot, rt.comm_world());
    Dev send(rt, g.total);
    Dev recv(rt, g.counts[me]);
    send.fill(all);
    rt.scatterv(root ? send.data() : nullptr, g.counts, g.displs, kFloat,
                root ? kInPlace : recv.data(), g.counts[me], kFloat, kRoot,
                rt.comm_world());
    if (root) {
      EXPECT_EQ(send.read(), all);
    } else {
      EXPECT_EQ(recv.read(), want);
    }
  });
}

TEST_P(InPlaceMatrix, Alltoall) {
  on_ranks([](XcclMpi& rt) {
    const std::vector<float> in = inputs(rt.rank(), kN * kRanks);
    std::vector<float> want(kN * kRanks);
    rt.mpi().alltoall(in.data(), kN, kFloat, want.data(), kN, kFloat, rt.comm_world());
    Dev io(rt, kN * kRanks);
    io.fill(in);
    rt.alltoall(kInPlace, 0, kFloat, io.data(), kN, kFloat, rt.comm_world());
    EXPECT_EQ(io.read(), want);
    EXPECT_EQ(rt.last_decision().reason, obs::FallbackReason::InPlace);
  });
}

TEST_P(InPlaceMatrix, Alltoallv) {
  // In place, recvcounts serve both sides, so they must be symmetric: rank
  // a sends c(a, b) elements to b and receives c(b, a) = c(a, b) from it.
  on_ranks([](XcclMpi& rt) {
    std::vector<std::size_t> counts, displs;
    std::size_t total = 0;
    for (int r = 0; r < kRanks; ++r) {
      counts.push_back(kN / 4 * static_cast<std::size_t>(1 + (rt.rank() + r) % 3));
      displs.push_back(total);
      total += counts.back();
    }
    const std::vector<float> in = inputs(rt.rank(), total);
    std::vector<float> want(total);
    rt.mpi().alltoallv(in.data(), counts, displs, kFloat, want.data(), counts, displs,
                       kFloat, rt.comm_world());
    Dev io(rt, total);
    io.fill(in);
    rt.alltoallv(kInPlace, {}, {}, kFloat, io.data(), counts, displs, kFloat,
                 rt.comm_world());
    EXPECT_EQ(io.read(), want);
    EXPECT_EQ(rt.last_decision().reason, obs::FallbackReason::InPlace);
  });
}

TEST_P(InPlaceMatrix, ScanAndExscan) {
  on_ranks([](XcclMpi& rt) {
    const std::vector<float> in = inputs(rt.rank(), kN);
    std::vector<float> want(kN);
    Dev io(rt, kN);
    rt.mpi().scan(in.data(), want.data(), kN, kFloat, ReduceOp::Sum, rt.comm_world());
    io.fill(in);
    rt.scan(kInPlace, io.data(), kN, kFloat, ReduceOp::Sum, rt.comm_world());
    EXPECT_EQ(io.read(), want);
    rt.mpi().exscan(in.data(), want.data(), kN, kFloat, ReduceOp::Sum, rt.comm_world());
    io.fill(in);
    rt.exscan(kInPlace, io.data(), kN, kFloat, ReduceOp::Sum, rt.comm_world());
    if (rt.rank() > 0) EXPECT_EQ(io.read(), want);  // rank 0's is undefined
  });
}

// ---- Erroneous calls every rank makes ---------------------------------------

TEST_P(InPlaceMatrix, ReduceScatterBlockInPlaceThrowsInEveryFlavour) {
  on_ranks([](XcclMpi& rt) {
    Dev io(rt, kN * kRanks);
    mini::Comm& w = rt.comm_world();
    const std::vector<std::string> what{"reduce_scatter_block", "MPI_IN_PLACE"};
    expect_rejected(rt, [&] {
      rt.reduce_scatter_block(kInPlace, io.data(), kN, kFloat, ReduceOp::Sum, w);
    }, what);
    expect_rejected(rt, [&] {
      mini::Request req =
          rt.ireduce_scatter_block(kInPlace, io.data(), kN, kFloat, ReduceOp::Sum, w);
      rt.wait(req);
    }, what);
    expect_rejected(rt, [&] {
      (void)rt.reduce_scatter_init(kInPlace, io.data(), kN, kFloat, ReduceOp::Sum, w);
    }, what);
    expect_rejected(rt, [&] {
      rt.mpi().reduce_scatter_block(kInPlace, io.data(), kN, kFloat, ReduceOp::Sum, w);
    }, what);
  });
}

TEST_P(InPlaceMatrix, NullBufferWithNonzeroCountThrows) {
  on_ranks([](XcclMpi& rt) {
    Dev buf(rt, kN * kRanks);
    float* b = buf.data();
    mini::Comm& w = rt.comm_world();
    const Ragged g;
    const auto sum = ReduceOp::Sum;
    expect_rejected(rt, [&] { rt.allreduce(nullptr, b, kN, kFloat, sum, w); },
                    {"allreduce", "sendbuf"});
    expect_rejected(rt, [&] { (void)rt.iallreduce(b, nullptr, kN, kFloat, sum, w); },
                    {"allreduce", "recvbuf"});
    expect_rejected(rt, [&] { (void)rt.allreduce_init(nullptr, b, kN, kFloat, sum, w); },
                    {"allreduce", "sendbuf"});
    expect_rejected(rt, [&] { rt.bcast(nullptr, kN, kFloat, 0, w); },
                    {"bcast", "recvbuf"});
    expect_rejected(rt, [&] { (void)rt.ibcast(nullptr, kN, kFloat, 0, w); },
                    {"bcast", "recvbuf"});
    expect_rejected(rt, [&] { rt.reduce(nullptr, b, kN, kFloat, sum, 0, w); },
                    {"reduce", "sendbuf"});
    expect_rejected(rt, [&] { rt.allgather(nullptr, kN, kFloat, b, kN, kFloat, w); },
                    {"allgather", "sendbuf"});
    expect_rejected(rt, [&] { rt.allgatherv(b, kN / 4, kFloat, nullptr, g.counts,
                                            g.displs, kFloat, w); },
                    {"allgatherv", "recvbuf"});
    expect_rejected(rt, [&] { rt.alltoall(b, kN, kFloat, nullptr, kN, kFloat, w); },
                    {"alltoall", "recvbuf"});
    expect_rejected(rt, [&] { rt.gather(nullptr, kN, kFloat, b, kN, kFloat, 0, w); },
                    {"gather", "sendbuf"});
    expect_rejected(rt, [&] { rt.scatter(b, kN, kFloat, nullptr, kN, kFloat, 0, w); },
                    {"scatter", "recvbuf"});
    expect_rejected(rt, [&] { rt.reduce_scatter_block(nullptr, b, kN, kFloat, sum, w); },
                    {"reduce_scatter_block", "sendbuf"});
    expect_rejected(rt, [&] { rt.scan(nullptr, b, kN, kFloat, sum, w); },
                    {"scan", "sendbuf"});
    expect_rejected(rt, [&] { rt.exscan(b, nullptr, kN, kFloat, sum, w); },
                    {"exscan", "recvbuf"});
    expect_rejected(rt, [&] { rt.mpi().allreduce(nullptr, b, kN, kFloat, sum, w); },
                    {"allreduce", "sendbuf"});
  });
}

TEST_P(InPlaceMatrix, ShortCountsSpanThrows) {
  // A span is checked where it is significant: everywhere for allgatherv and
  // alltoallv, at the root for gatherv and scatterv (only the root calls).
  on_ranks([](XcclMpi& rt) {
    Dev buf(rt, kN * kRanks);
    float* b = buf.data();
    mini::Comm& w = rt.comm_world();
    const std::vector<std::size_t> full(kRanks, kN / 4);
    const std::vector<std::size_t> displs{0, kN / 4, kN / 2, 3 * kN / 4};
    const std::vector<std::size_t> shrt(kRanks - 1, kN / 4);
    expect_rejected(rt, [&] {
      rt.allgatherv(b, kN / 4, kFloat, b, shrt, displs, kFloat, w);
    }, {"allgatherv", "recvcounts"});
    expect_rejected(rt, [&] {
      rt.alltoallv(b, full, shrt, kFloat, b, full, displs, kFloat, w);
    }, {"alltoallv", "sdispls"});
    expect_rejected(rt, [&] {
      rt.mpi().alltoallv(b, shrt, displs, kFloat, b, full, displs, kFloat, w);
    }, {"alltoallv", "sendcounts"});
    if (rt.rank() != kRoot) return;
    expect_rejected(rt, [&] {
      rt.gatherv(b, kN / 4, kFloat, b, full, shrt, kFloat, kRoot, w);
    }, {"gatherv", "rdispls"});
    expect_rejected(rt, [&] {
      rt.scatterv(b, shrt, displs, kFloat, b, kN / 4, kFloat, kRoot, w);
    }, {"scatterv", "sendcounts"});
  });
}

TEST_P(InPlaceMatrix, OutOfRangeRootThrows) {
  on_ranks([](XcclMpi& rt) {
    Dev buf(rt, kN * kRanks);
    float* b = buf.data();
    mini::Comm& w = rt.comm_world();
    const std::vector<std::size_t> counts(kRanks, kN / 4);
    const std::vector<std::size_t> displs{0, kN / 4, kN / 2, 3 * kN / 4};
    for (const int root : {kRanks, -1}) {
      const std::vector<std::string> bad{"root = " + std::to_string(root)};
      const auto sum = ReduceOp::Sum;
      expect_rejected(rt, [&] { rt.bcast(b, kN, kFloat, root, w); }, bad);
      expect_rejected(rt, [&] { (void)rt.bcast_init(b, kN, kFloat, root, w); }, bad);
      expect_rejected(rt, [&] { rt.mpi().bcast(b, kN, kFloat, root, w); }, bad);
      expect_rejected(rt, [&] { rt.reduce(b, b, kN, kFloat, sum, root, w); }, bad);
      expect_rejected(rt, [&] { (void)rt.ireduce(b, b, kN, kFloat, sum, root, w); }, bad);
      expect_rejected(
          rt, [&] { rt.gather(b, kN / 4, kFloat, b, kN / 4, kFloat, root, w); }, bad);
      expect_rejected(rt, [&] {
        rt.gatherv(b, kN / 4, kFloat, b, counts, displs, kFloat, root, w);
      }, bad);
      expect_rejected(
          rt, [&] { rt.scatter(b, kN / 4, kFloat, b, kN / 4, kFloat, root, w); }, bad);
      expect_rejected(rt, [&] {
        rt.scatterv(b, counts, displs, kFloat, b, kN / 4, kFloat, root, w);
      }, bad);
    }
  });
}

// ---- Forms only one rank can commit -------------------------------------------

TEST_P(InPlaceMatrix, InPlaceAtNonRootThrowsBeforeCommunicating) {
  // Only the erring rank calls: it must throw at the entry, not wait for the
  // root or hand the sentinel to an engine.
  on_ranks([](XcclMpi& rt) {
    if (rt.rank() == kRoot) return;
    Dev buf(rt, kN * kRanks);
    float* b = buf.data();
    mini::Comm& w = rt.comm_world();
    const Ragged g;
    const std::vector<std::string> root_only{"MPI_IN_PLACE is only valid at the root"};
    const auto sum = ReduceOp::Sum;
    expect_rejected(rt, [&] { rt.reduce(kInPlace, b, kN, kFloat, sum, kRoot, w); },
                    root_only);
    expect_rejected(rt, [&] { (void)rt.ireduce(kInPlace, b, kN, kFloat, sum, kRoot, w); },
                    root_only);
    expect_rejected(rt, [&] {
      (void)rt.reduce_init(kInPlace, b, kN, kFloat, sum, kRoot, w);
    }, root_only);
    expect_rejected(rt, [&] { rt.mpi().reduce(kInPlace, b, kN, kFloat, sum, kRoot, w); },
                    root_only);
    expect_rejected(rt, [&] { rt.gather(kInPlace, kN, kFloat, b, kN, kFloat, kRoot, w); },
                    root_only);
    expect_rejected(rt, [&] {
      rt.gatherv(kInPlace, kN, kFloat, b, g.counts, g.displs, kFloat, kRoot, w);
    }, root_only);
    expect_rejected(rt, [&] {
      rt.scatter(b, kN, kFloat, kInPlace, kN, kFloat, kRoot, w);
    }, root_only);
    expect_rejected(rt, [&] {
      rt.scatterv(b, g.counts, g.displs, kFloat, kInPlace, kN,
                  kFloat, kRoot, w);
    }, root_only);
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, InPlaceMatrix,
                         ::testing::Values(Mode::Hybrid, Mode::PureXccl, Mode::PureMpi),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace mpixccl::core
