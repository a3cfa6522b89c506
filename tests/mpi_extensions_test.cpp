// Tests for the MPI extensions: MPI_IN_PLACE semantics, exscan,
// sendrecv_replace — on both the MiniMPI layer and the XcclMpi runtime
// (where IN_PLACE must be resolved before buffer classification and before
// the CCL backend touches any pointer).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "mpi/mpi.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::mini {
namespace {

void with_mpi(int ranks, const std::function<void(Mpi&)>& body) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, ranks});
  world.run([&](fabric::RankContext& ctx) {
    Mpi mpi(ctx, ctx.profile().mpi);
    body(mpi);
  });
}

TEST(InPlace, Allreduce) {
  with_mpi(4, [](Mpi& mpi) {
    std::vector<int> buf(100, mpi.rank() + 1);
    mpi.allreduce(kInPlace, buf.data(), 100, kInt, ReduceOp::Sum,
                  mpi.comm_world());
    EXPECT_EQ(buf[50], 10);
  });
}

TEST(InPlace, AllreduceLargeRabenseifnerPath) {
  with_mpi(5, [](Mpi& mpi) {  // non-power-of-two, large message
    std::vector<double> buf(20000, mpi.rank() + 1.0);
    mpi.allreduce(kInPlace, buf.data(), buf.size(), kDouble, ReduceOp::Sum,
                  mpi.comm_world());
    EXPECT_DOUBLE_EQ(buf[12345], 15.0);
  });
}

TEST(InPlace, ReduceAtRoot) {
  with_mpi(4, [](Mpi& mpi) {
    const int root = 2;
    std::vector<int> buf(64, mpi.rank() + 1);
    if (mpi.rank() == root) {
      mpi.reduce(kInPlace, buf.data(), 64, kInt, ReduceOp::Sum, root,
                 mpi.comm_world());
      EXPECT_EQ(buf[0], 10);
    } else {
      std::vector<int> unused(64);
      mpi.reduce(buf.data(), unused.data(), 64, kInt, ReduceOp::Sum, root,
                 mpi.comm_world());
      EXPECT_EQ(buf[0], mpi.rank() + 1);  // untouched on non-roots
    }
  });
}

/// Ragged gatherv layout over p ranks: rank r contributes r + 1 ints.
struct Ragged {
  std::vector<std::size_t> counts, displs;
  std::size_t total = 0;
  explicit Ragged(int p) {
    for (int r = 0; r < p; ++r) {
      counts.push_back(static_cast<std::size_t>(r) + 1);
      displs.push_back(total);
      total += counts.back();
    }
  }
};

TEST(InPlace, GathervAtRoot) {
  // The root's block already sits at its displacement; nothing may read
  // the sentinel.
  with_mpi(4, [](Mpi& mpi) {
    const int root = 1;
    const Ragged g(mpi.size());
    const auto me = static_cast<std::size_t>(mpi.rank());
    std::vector<int> mine(g.counts[me], mpi.rank() * 10);
    if (mpi.rank() == root) {
      std::vector<int> all(g.total, -1);
      std::copy(mine.begin(), mine.end(), all.begin() + static_cast<long>(g.displs[me]));
      // MPI ignores the root's sendcount in place; pass a real one.
      mpi.gatherv(kInPlace, mine.size(), kInt, all.data(), g.counts, g.displs, kInt,
                  root, mpi.comm_world());
      for (int r = 0; r < mpi.size(); ++r) {
        const auto ur = static_cast<std::size_t>(r);
        for (std::size_t i = 0; i < g.counts[ur]; ++i) {
          EXPECT_EQ(all[g.displs[ur] + i], r * 10) << "r=" << r;
        }
      }
    } else {
      mpi.gatherv(mine.data(), mine.size(), kInt, nullptr, {}, {}, kInt, root,
                  mpi.comm_world());
    }
  });
}

TEST(InPlace, Allgather) {
  with_mpi(4, [](Mpi& mpi) {
    const std::size_t n = 32;
    std::vector<float> all(n * 4, -1.0f);
    // My block pre-placed at offset rank*n.
    for (std::size_t i = 0; i < n; ++i) {
      all[static_cast<std::size_t>(mpi.rank()) * n + i] =
          static_cast<float>(mpi.rank() * 7);
    }
    mpi.allgather(kInPlace, 0, kFloat, all.data(), n, kFloat, mpi.comm_world());
    for (int r = 0; r < 4; ++r) {
      EXPECT_FLOAT_EQ(all[static_cast<std::size_t>(r) * n], r * 7.0f);
    }
  });
}

TEST(InPlace, Alltoall) {
  with_mpi(3, [](Mpi& mpi) {
    const std::size_t n = 8;
    std::vector<int> buf(n * 3);
    for (int d = 0; d < 3; ++d) {
      for (std::size_t i = 0; i < n; ++i) {
        buf[static_cast<std::size_t>(d) * n + i] = mpi.rank() * 10 + d;
      }
    }
    mpi.alltoall(kInPlace, 0, kInt, buf.data(), n, kInt, mpi.comm_world());
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(buf[static_cast<std::size_t>(r) * n], r * 10 + mpi.rank());
    }
  });
}

TEST(InPlace, ReduceScatterBlockRejected) {
  with_mpi(2, [](Mpi& mpi) {
    std::vector<int> buf(8);
    EXPECT_THROW(mpi.reduce_scatter_block(kInPlace, buf.data(), 4, kInt,
                                          ReduceOp::Sum, mpi.comm_world()),
                 Error);
  });
}

TEST(Exscan, PrefixExcludesSelf) {
  with_mpi(5, [](Mpi& mpi) {
    const int v = mpi.rank() + 1;
    int prefix = -999;
    mpi.exscan(&v, &prefix, 1, kInt, ReduceOp::Sum, mpi.comm_world());
    if (mpi.rank() == 0) {
      EXPECT_EQ(prefix, -999);  // undefined -> untouched
    } else {
      EXPECT_EQ(prefix, mpi.rank() * (mpi.rank() + 1) / 2);
    }
  });
}

TEST(Exscan, MatchesScanMinusSelf) {
  with_mpi(4, [](Mpi& mpi) {
    std::vector<double> v(16, static_cast<double>(mpi.rank() + 2));
    std::vector<double> inc(16);
    std::vector<double> exc(16, 0.0);
    mpi.scan(v.data(), inc.data(), 16, kDouble, ReduceOp::Sum, mpi.comm_world());
    mpi.exscan(v.data(), exc.data(), 16, kDouble, ReduceOp::Sum,
               mpi.comm_world());
    if (mpi.rank() > 0) {
      EXPECT_DOUBLE_EQ(exc[7], inc[7] - v[7]);
    }
  });
}

TEST(SendrecvReplace, RingRotation) {
  with_mpi(4, [](Mpi& mpi) {
    const int p = mpi.size();
    const int right = (mpi.rank() + 1) % p;
    const int left = (mpi.rank() - 1 + p) % p;
    std::vector<int> buf(10, mpi.rank());
    const RecvStatus st = mpi.sendrecv_replace(buf.data(), 10, kInt, right, 0,
                                               left, 0, mpi.comm_world());
    EXPECT_EQ(buf[9], left);
    EXPECT_EQ(st.source, left);
  });
}

}  // namespace
}  // namespace mpixccl::mini

namespace mpixccl::core {
namespace {

TEST(InPlaceXccl, AllreduceOnDeviceBuffers) {
  // IN_PLACE through the full runtime: resolution must happen before the
  // registry classification and before the backend touches the sentinel.
  fabric::run_world(sim::thetagpu(), 1, [](fabric::RankContext& ctx) {
    XcclMpiOptions opts;
    opts.mode = Mode::PureXccl;
    XcclMpi rt(ctx, opts);
    const std::size_t n = 1 << 18;  // large: xccl ring path
    device::DeviceBuffer buf(ctx.device(), n * sizeof(float));
    for (std::size_t i = 0; i < n; ++i) {
      buf.as<float>()[i] = static_cast<float>(rt.rank() + 1);
    }
    rt.allreduce(mini::kInPlace, buf.get(), n, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);
    const int p = rt.size();
    EXPECT_FLOAT_EQ(buf.as<float>()[n - 1], static_cast<float>(p * (p + 1) / 2));
  });
}

TEST(InPlaceXccl, AllgatherAndAlltoallRouting) {
  fabric::run_world(sim::thetagpu(), 1, [](fabric::RankContext& ctx) {
    XcclMpi rt(ctx);
    const std::size_t n = 64;
    auto& dev = ctx.device();
    device::DeviceBuffer all(dev, n * sizeof(int) * 8);
    for (std::size_t i = 0; i < n; ++i) {
      all.as<int>()[static_cast<std::size_t>(rt.rank()) * n + i] = rt.rank();
    }
    rt.allgather(mini::kInPlace, 0, mini::kInt, all.get(), n, mini::kInt,
                 rt.comm_world());
    for (int r = 0; r < 8; ++r) {
      EXPECT_EQ(all.as<int>()[static_cast<std::size_t>(r) * n], r);
    }

    // In-place alltoall must route to the MPI engine (snapshot semantics).
    device::DeviceBuffer a2a(dev, n * sizeof(int) * 8);
    for (int d = 0; d < 8; ++d) {
      for (std::size_t i = 0; i < n; ++i) {
        a2a.as<int>()[static_cast<std::size_t>(d) * n + i] = rt.rank() * 100 + d;
      }
    }
    rt.alltoall(mini::kInPlace, 0, mini::kInt, a2a.get(), n, mini::kInt,
                rt.comm_world());
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
    for (int r = 0; r < 8; ++r) {
      EXPECT_EQ(a2a.as<int>()[static_cast<std::size_t>(r) * n],
                r * 100 + rt.rank());
    }
  });
}

TEST(InPlaceXccl, GathervHostBuffersAtRoot) {
  // Host buffers take the MPI rung, which receives the sentinel as is.
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 4});
  world.run([](fabric::RankContext& ctx) {
    XcclMpi rt(ctx);
    const int root = 0;
    const mini::Ragged g(rt.size());
    const auto me = static_cast<std::size_t>(rt.rank());
    std::vector<int> mine(g.counts[me], rt.rank() + 7);
    std::vector<int> all(g.total, -1);
    if (rt.rank() == root) {
      std::copy(mine.begin(), mine.end(), all.begin() + static_cast<long>(g.displs[me]));
      rt.gatherv(mini::kInPlace, mine.size(), mini::kInt, all.data(), g.counts,
                 g.displs, mini::kInt, root, rt.comm_world());
    } else {
      rt.gatherv(mine.data(), mine.size(), mini::kInt, nullptr, {}, {}, mini::kInt,
                 root, rt.comm_world());
    }
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
    if (rt.rank() == root) {
      for (int r = 0; r < rt.size(); ++r) {
        const auto ur = static_cast<std::size_t>(r);
        for (std::size_t i = 0; i < g.counts[ur]; ++i) {
          EXPECT_EQ(all[g.displs[ur] + i], r + 7) << "r=" << r;
        }
      }
    }
  });
}

/// MPI_IN_PLACE reduce_scatter_block through the runtime on 1x8 with device
/// buffers: `call` must throw an Error naming the call, on every rank,
/// before any engine reads the sentinel.
void expect_in_place_rsb_rejected(
    Mode mode, std::size_t n,
    const std::function<void(XcclMpi&, void*, std::size_t)>& call) {
  fabric::run_world(sim::thetagpu(), 1, [&](fabric::RankContext& ctx) {
    XcclMpiOptions opts;
    opts.mode = mode;
    XcclMpi rt(ctx, opts);
    device::DeviceBuffer buf(ctx.device(), n * sizeof(float) * 8);
    try {
      call(rt, buf.get(), n);
      ADD_FAILURE() << "in-place reduce_scatter_block accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("reduce_scatter_block"), std::string::npos) << what;
      EXPECT_NE(what.find("MPI_IN_PLACE"), std::string::npos) << what;
    }
  });
}

TEST(InPlaceXccl, ReduceScatterBlockIsRejected) {
  for (const auto& [mode, n] : {std::pair{Mode::PureXccl, std::size_t{4096}},
                                std::pair{Mode::Hybrid, std::size_t{65536}}}) {
    expect_in_place_rsb_rejected(mode, n, [](XcclMpi& rt, void* buf, std::size_t k) {
      rt.reduce_scatter_block(mini::kInPlace, buf, k, mini::kFloat, ReduceOp::Sum,
                              rt.comm_world());
    });
  }
}

TEST(InPlaceXccl, IreduceScatterBlockIsRejected) {
  expect_in_place_rsb_rejected(
      Mode::PureXccl, 4096, [](XcclMpi& rt, void* buf, std::size_t k) {
        mini::Request req = rt.ireduce_scatter_block(
            mini::kInPlace, buf, k, mini::kFloat, ReduceOp::Sum, rt.comm_world());
        rt.wait(req);
      });
}

TEST(InPlaceXccl, ReduceScatterInitIsRejected) {
  expect_in_place_rsb_rejected(
      Mode::PureXccl, 4096, [](XcclMpi& rt, void* buf, std::size_t k) {
        Persistent h = rt.reduce_scatter_init(mini::kInPlace, buf, k, mini::kFloat,
                                              ReduceOp::Sum, rt.comm_world());
        h.start();
        h.wait();
      });
}

TEST(InPlaceXccl, ExscanRoutesToMpi) {
  fabric::run_world(sim::thetagpu(), 1, [](fabric::RankContext& ctx) {
    XcclMpi rt(ctx);
    const double v = 2.0;
    double out = 0.0;
    rt.exscan(&v, &out, 1, mini::kDouble, ReduceOp::Sum, rt.comm_world());
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
    if (rt.rank() > 0) EXPECT_DOUBLE_EQ(out, 2.0 * rt.rank());
  });
}

}  // namespace
}  // namespace mpixccl::core
