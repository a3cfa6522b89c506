// Tests for the hierarchical collective engine (src/hier/): oracle
// correctness for every collective across counts, datatypes, reduce ops and
// topologies; bit-for-bit agreement with the flat MPI engine for integer
// ops; and the dispatcher integration (tuning-table routing, host-buffer
// fallback, non-blocked-communicator fallback, stats).

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <functional>
#include <vector>

#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "obs/obs.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::core {
namespace {

struct Topo {
  const char* name;
  sim::SystemProfile prof;
  int nodes;
  int dpn;
  bool hier;  ///< hierarchical path expected (>= 2 nodes)
  const char* levels = "";  ///< sub-node level chain (fat-NUMA topologies)
};

std::vector<Topo> topologies() {
  return {{"1x8", sim::thetagpu(), 1, 8, false},
          {"2x4", sim::thetagpu(), 2, 4, true},
          {"4x4", sim::mri(), 4, 4, true},
          {"16x8", sim::thetagpu(), 16, 8, true},
          // Fat-NUMA: 2 nodes x 2 sockets x 2 NUMA x 2 ranks — the oracle
          // matrix covers the full 4-level schedule recursion.
          {"2x8-numa", sim::thetagpu(), 2, 8, true, "socket:2,numa:2"}};
}

/// Run `body` on every rank of every test topology with an all-hier tuning
/// table installed (Hybrid mode, so ineligible calls fall back to MPI).
void for_each_topo(
    const std::function<void(XcclMpi&, const Topo&)>& body) {
  for (const Topo& t : topologies()) {
    SCOPED_TRACE(t.name);
    fabric::World world(fabric::WorldConfig{t.prof, t.nodes, t.dpn, t.levels});
    world.run([&](fabric::RankContext& ctx) {
      XcclMpiOptions opt;
      opt.tuning = TuningTable::uniform(Engine::Hier);
      XcclMpi rt(ctx, opt);
      body(rt, t);
    });
  }
}

/// Deterministic per-(rank, index) fill values.
template <typename T>
T fill_value(int rank, std::size_t i);
template <>
std::int32_t fill_value<std::int32_t>(int rank, std::size_t i) {
  return static_cast<std::int32_t>((rank * 31 + static_cast<int>(i % 97) * 7) %
                                   101) -
         50;
}
template <>
float fill_value<float>(int rank, std::size_t i) {
  return static_cast<float>(rank + 1) * 0.5f +
         static_cast<float>(i % 17) * 0.25f;
}
template <>
double fill_value<double>(int rank, std::size_t i) {
  return static_cast<double>(rank + 1) * 0.5 +
         static_cast<double>(i % 23) * 0.125;
}
template <>
std::complex<double> fill_value<std::complex<double>>(int rank, std::size_t i) {
  return {static_cast<double>(rank + 1) + static_cast<double>(i % 5),
          static_cast<double>(rank) - static_cast<double>(i % 3)};
}

template <typename T>
device::DeviceBuffer make_filled(device::Device& dev, std::size_t n, int rank,
                                 std::size_t salt = 0) {
  device::DeviceBuffer b(dev, n * sizeof(T));
  for (std::size_t i = 0; i < n; ++i) {
    b.as<T>()[i] = fill_value<T>(rank, i + salt);
  }
  return b;
}

/// Elementwise compare; exact for integral payloads, tolerant for floating
/// ones (hier reduces in a different association order than the flat path).
template <typename T>
void expect_buffers_agree(const T* a, const T* b, std::size_t n) {
  if constexpr (std::is_integral_v<T>) {
    EXPECT_EQ(std::memcmp(a, b, n * sizeof(T)), 0)
        << "integer results must match bit-for-bit";
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double da = std::abs(std::complex<double>(a[i]) -
                                 std::complex<double>(b[i]));
      const double mag = std::abs(std::complex<double>(b[i]));
      ASSERT_LE(da, 1e-4 * std::max(1.0, mag)) << "at index " << i;
    }
  }
}

/// Message sizes in elements: paddings, non-multiples of the rank grid, and
/// (on small worlds) sizes past the two-level and pipelining thresholds.
std::vector<std::size_t> counts_for(int world_size) {
  std::vector<std::size_t> counts = {1, 7, 977, 4096};
  if (world_size <= 16) {
    counts.push_back(65536);
    counts.push_back(262144);  // 1 MB of floats: pipelined two-level path
  }
  return counts;
}

template <typename T>
void check_allreduce_case(XcclMpi& rt, const Topo& t, std::size_t count,
                          mini::Datatype dt, ReduceOp op, bool hier_ok) {
  auto& dev = rt.context().device();
  auto& comm = rt.comm_world();
  device::DeviceBuffer send = make_filled<T>(dev, count, rt.rank());
  device::DeviceBuffer got(dev, count * sizeof(T));
  device::DeviceBuffer ref(dev, count * sizeof(T));

  rt.allreduce(send.get(), got.get(), count, dt, op, comm);
  const bool went_hier = t.hier && hier_ok;
  EXPECT_EQ(rt.last_dispatch().engine,
            went_hier ? Engine::Hier : Engine::Mpi);
  EXPECT_EQ(rt.last_dispatch().fell_back, !went_hier);

  rt.set_mode(Mode::PureMpi);
  rt.allreduce(send.get(), ref.get(), count, dt, op, comm);
  rt.set_mode(Mode::Hybrid);
  expect_buffers_agree(got.as<T>(), ref.as<T>(), count);
}

TEST(HierOracle, Allreduce) {
  for_each_topo([](XcclMpi& rt, const Topo& t) {
    for (const std::size_t count : counts_for(rt.size())) {
      SCOPED_TRACE("count=" + std::to_string(count));
      check_allreduce_case<std::int32_t>(rt, t, count, mini::kInt, ReduceOp::Sum,
                                         true);
      check_allreduce_case<std::int32_t>(rt, t, count, mini::kInt, ReduceOp::Max,
                                         true);
      check_allreduce_case<std::int32_t>(rt, t, count, mini::kInt, ReduceOp::Band,
                                         true);
      check_allreduce_case<float>(rt, t, count, mini::kFloat, ReduceOp::Sum,
                                  true);
      check_allreduce_case<float>(rt, t, count, mini::kFloat, ReduceOp::Avg,
                                  true);
      check_allreduce_case<double>(rt, t, count, mini::kDouble, ReduceOp::Sum,
                                   true);
      check_allreduce_case<std::complex<double>>(
          rt, t, count, mini::kDoubleComplex, ReduceOp::Sum, true);
    }
  });
}

TEST(HierOracle, Bcast) {
  for_each_topo([](XcclMpi& rt, const Topo& t) {
    auto& dev = rt.context().device();
    auto& comm = rt.comm_world();
    const int root = rt.size() - 1;
    for (const std::size_t count : counts_for(rt.size())) {
      SCOPED_TRACE("count=" + std::to_string(count));
      // 16384 floats = 64 KB: at/above the scatter+multi-root threshold.
      device::DeviceBuffer buf = make_filled<float>(dev, count, rt.rank());
      rt.bcast(buf.get(), count, mini::kFloat, root, comm);
      EXPECT_EQ(rt.last_dispatch().engine, t.hier ? Engine::Hier : Engine::Mpi);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(buf.as<float>()[i], fill_value<float>(root, i))
            << "at index " << i;
      }
    }
  });
}

TEST(HierOracle, Reduce) {
  for_each_topo([](XcclMpi& rt, const Topo& t) {
    auto& dev = rt.context().device();
    auto& comm = rt.comm_world();
    const int root = rt.size() - 1;
    for (const std::size_t count : counts_for(rt.size())) {
      SCOPED_TRACE("count=" + std::to_string(count));
      for (const ReduceOp op : {ReduceOp::Sum, ReduceOp::Min}) {
        device::DeviceBuffer send =
            make_filled<std::int32_t>(dev, count, rt.rank());
        device::DeviceBuffer got(dev, count * sizeof(std::int32_t));
        device::DeviceBuffer ref(dev, count * sizeof(std::int32_t));
        rt.reduce(send.get(), got.get(), count, mini::kInt, op, root, comm);
        EXPECT_EQ(rt.last_dispatch().engine,
                  t.hier ? Engine::Hier : Engine::Mpi);
        rt.set_mode(Mode::PureMpi);
        rt.reduce(send.get(), ref.get(), count, mini::kInt, op, root, comm);
        rt.set_mode(Mode::Hybrid);
        if (rt.rank() == root) {
          expect_buffers_agree(got.as<std::int32_t>(), ref.as<std::int32_t>(),
                               count);
        }
      }
    }
  });
}

TEST(HierOracle, Allgather) {
  for_each_topo([](XcclMpi& rt, const Topo& t) {
    auto& dev = rt.context().device();
    auto& comm = rt.comm_world();
    const auto p = static_cast<std::size_t>(rt.size());
    for (const std::size_t count : {std::size_t{1}, std::size_t{5},
                                    std::size_t{1024}, std::size_t{16384}}) {
      SCOPED_TRACE("count=" + std::to_string(count));
      device::DeviceBuffer send = make_filled<float>(dev, count, rt.rank());
      device::DeviceBuffer recv(dev, p * count * sizeof(float));
      rt.allgather(send.get(), count, mini::kFloat, recv.get(), count,
                   mini::kFloat, comm);
      EXPECT_EQ(rt.last_dispatch().engine, t.hier ? Engine::Hier : Engine::Mpi);
      for (std::size_t r = 0; r < p; ++r) {
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(recv.as<float>()[r * count + i],
                    fill_value<float>(static_cast<int>(r), i))
              << "block " << r << " index " << i;
        }
      }
    }
  });
}

TEST(HierOracle, ReduceScatter) {
  for_each_topo([](XcclMpi& rt, const Topo& t) {
    auto& dev = rt.context().device();
    auto& comm = rt.comm_world();
    const auto p = static_cast<std::size_t>(rt.size());
    for (const std::size_t count : {std::size_t{1}, std::size_t{9},
                                    std::size_t{1024}, std::size_t{16384}}) {
      SCOPED_TRACE("count=" + std::to_string(count));
      device::DeviceBuffer send =
          make_filled<std::int32_t>(dev, p * count, rt.rank());
      device::DeviceBuffer got(dev, count * sizeof(std::int32_t));
      device::DeviceBuffer ref(dev, count * sizeof(std::int32_t));
      rt.reduce_scatter_block(send.get(), got.get(), count, mini::kInt,
                              ReduceOp::Sum, comm);
      EXPECT_EQ(rt.last_dispatch().engine, t.hier ? Engine::Hier : Engine::Mpi);
      rt.set_mode(Mode::PureMpi);
      rt.reduce_scatter_block(send.get(), ref.get(), count, mini::kInt,
                              ReduceOp::Sum, comm);
      rt.set_mode(Mode::Hybrid);
      expect_buffers_agree(got.as<std::int32_t>(), ref.as<std::int32_t>(),
                           count);
    }
  });
}

// ---- Dispatcher integration -------------------------------------------------

TEST(HierDispatch, TuningTableRoutesLargeMessagesToHier) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 2, 0});
  world.run([&](fabric::RankContext& ctx) {
    XcclMpiOptions opt;
    opt.tuning =
        TuningTable::deserialize("allreduce:16384=mpi,max=hier");
    XcclMpi rt(ctx, opt);
    auto& comm = rt.comm_world();
    auto& dev = rt.context().device();

    device::DeviceBuffer small = make_filled<float>(dev, 64, rt.rank());
    rt.allreduce(small.get(), small.get(), 64, mini::kFloat, ReduceOp::Sum,
                 comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);

    const std::size_t big = 1 << 18;
    device::DeviceBuffer send = make_filled<float>(dev, big, rt.rank());
    device::DeviceBuffer recv(dev, big * sizeof(float));
    rt.allreduce(send.get(), recv.get(), big, mini::kFloat, ReduceOp::Sum,
                 comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Hier);
    EXPECT_FALSE(rt.last_dispatch().fell_back);
    EXPECT_TRUE(rt.last_dispatch().composed);
    EXPECT_EQ(rt.stats().hier_calls, 1u);
    EXPECT_EQ(rt.stats().mpi_calls, 1u);

    // Host buffers never reach hier (or xccl), regardless of the table.
    std::vector<float> hin(big, 1.0f);
    std::vector<float> hout(big);
    rt.allreduce(hin.data(), hout.data(), big, mini::kFloat, ReduceOp::Sum,
                 comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
    EXPECT_FLOAT_EQ(hout[17], static_cast<float>(rt.size()));

    // The profile report knows about the third engine.
    if (rt.rank() == 0) {
      EXPECT_NE(obs::report().find("allreduce        hier"), std::string::npos);
    }
  });
}

TEST(HierDispatch, NonBlockedCommunicatorFallsBack) {
  // An interleaved split (even comm-ranks first) is not node-blocked on a
  // 2x4 world; hier must decline and the call lands on MPI.
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 2, 4});
  world.run([&](fabric::RankContext& ctx) {
    XcclMpiOptions opt;
    opt.tuning = TuningTable::uniform(Engine::Hier);
    XcclMpi rt(ctx, opt);
    mini::Comm scrambled =
        rt.split(rt.comm_world(), 0, (rt.rank() % 2) * 100 + rt.rank());
    device::DeviceBuffer buf =
        make_filled<float>(rt.context().device(), 4096, rt.rank());
    rt.allreduce(buf.get(), buf.get(), 4096, mini::kFloat, ReduceOp::Sum,
                 scrambled);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
    EXPECT_TRUE(rt.last_dispatch().fell_back);

    // The world communicator itself is node-blocked and cached once.
    rt.allreduce(buf.get(), buf.get(), 4096, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Hier);
    rt.bcast(buf.get(), 4096, mini::kFloat, 0, rt.comm_world());
    EXPECT_EQ(rt.hier().comm_cache_size(), 2u);  // world + scrambled
  });
}

TEST(HierDispatch, LevelPathRecordedInDecision) {
  // `mpixccl why` explains hier picks at level granularity: the decision
  // records the full subcomm chain, flat and fat-NUMA alike.
  const auto run = [](const Topo& t, const std::string& want_path) {
    SCOPED_TRACE(t.name);
    fabric::World world(fabric::WorldConfig{t.prof, t.nodes, t.dpn, t.levels});
    world.run([&](fabric::RankContext& ctx) {
      XcclMpiOptions opt;
      opt.tuning = TuningTable::uniform(Engine::Hier);
      XcclMpi rt(ctx, opt);
      device::DeviceBuffer buf =
          make_filled<float>(rt.context().device(), 4096, rt.rank());
      rt.allreduce(buf.get(), buf.get(), 4096, mini::kFloat, ReduceOp::Sum,
                   rt.comm_world());
      EXPECT_EQ(rt.last_dispatch().engine, Engine::Hier);
      EXPECT_EQ(rt.last_decision().level_path, want_path);
      EXPECT_NE(obs::to_line(rt.last_decision()).find(" via " + want_path),
                std::string::npos);
    });
  };
  run({"2x4", sim::thetagpu(), 2, 4, true}, "node(4).net(2)");
  run({"2x8-numa", sim::thetagpu(), 2, 8, true, "socket:2,numa:2"},
      "numa(2).socket(2).node(2).net(2)");
}

TEST(HierDispatch, ReconfigInvalidatesCommCacheAndPlans) {
  // Changing the hierarchy spec between runtime reconfigurations must
  // invalidate the comm-split cache epoch and every plan compiled against
  // the old chain — a stale chain would run the wrong schedule shape.
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 2, 8});
  world.run([&](fabric::RankContext& ctx) {
    XcclMpiOptions opt;
    opt.tuning = TuningTable::uniform(Engine::Hier);
    XcclMpi rt(ctx, opt);
    auto& dev = rt.context().device();
    auto& comm = rt.comm_world();
    const std::size_t count = 4096;
    device::DeviceBuffer send = make_filled<float>(dev, count, rt.rank());
    device::DeviceBuffer got(dev, count * sizeof(float));
    device::DeviceBuffer ref(dev, count * sizeof(float));
    rt.set_mode(Mode::PureMpi);
    rt.allreduce(send.get(), ref.get(), count, mini::kFloat, ReduceOp::Sum,
                 comm);
    rt.set_mode(Mode::Hybrid);

    rt.allreduce(send.get(), got.get(), count, mini::kFloat, ReduceOp::Sum,
                 comm);
    EXPECT_EQ(rt.last_decision().level_path, "node(8).net(2)");
    EXPECT_EQ(rt.hier().comm_cache_size(), 1u);
    const std::uint64_t epoch0 = rt.hier().config_epoch();
    const std::uint64_t inval0 = rt.plan_cache().stats().invalidations;

    // Reconfigure to a 4-level chain: hier plans purged, cache epoch bumps,
    // the old chain no longer counts as cached.
    EXPECT_TRUE(rt.set_hier_levels("socket:2,numa:2"));
    EXPECT_GT(rt.hier().config_epoch(), epoch0);
    EXPECT_GT(rt.plan_cache().stats().invalidations, inval0);
    EXPECT_EQ(rt.hier().comm_cache_size(), 0u);

    rt.allreduce(send.get(), got.get(), count, mini::kFloat, ReduceOp::Sum,
                 comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Hier);
    EXPECT_EQ(rt.last_decision().level_path, "numa(2).socket(2).node(2).net(2)");
    EXPECT_EQ(rt.hier().comm_cache_size(), 1u);
    expect_buffers_agree(got.as<float>(), ref.as<float>(), count);

    // Re-applying the same spec is a no-op: no purge, no epoch bump.
    const std::uint64_t epoch1 = rt.hier().config_epoch();
    const std::uint64_t inval1 = rt.plan_cache().stats().invalidations;
    EXPECT_FALSE(rt.set_hier_levels("socket:2,numa:2"));
    EXPECT_EQ(rt.hier().config_epoch(), epoch1);
    EXPECT_EQ(rt.plan_cache().stats().invalidations, inval1);

    // Back to flat: degenerate 2-level schedule, still correct.
    EXPECT_TRUE(rt.set_hier_levels("node"));
    rt.allreduce(send.get(), got.get(), count, mini::kFloat, ReduceOp::Sum,
                 comm);
    EXPECT_EQ(rt.last_decision().level_path, "node(8).net(2)");
    expect_buffers_agree(got.as<float>(), ref.as<float>(), count);
  });
}

TEST(HierDispatch, SmallMessageCopyInCopyOutOnDeepChains) {
  // Below HierEngine::kSingleCopyMinBytes a deep chain uses the copy-in-
  // copy-out ladder instead of per-level reduce-scatter; results must agree
  // with the flat oracle either way.
  static_assert(hier::HierEngine::kSingleCopyMinBytes == 2048 * sizeof(float));
  fabric::World world(
      fabric::WorldConfig{sim::thetagpu(), 2, 8, "socket:2,numa:2"});
  world.run([&](fabric::RankContext& ctx) {
    XcclMpiOptions opt;
    opt.tuning = TuningTable::uniform(Engine::Hier);
    XcclMpi rt(ctx, opt);
    auto& dev = rt.context().device();
    auto& comm = rt.comm_world();

    const auto check = [&](std::size_t count) {
      SCOPED_TRACE("count=" + std::to_string(count));
      device::DeviceBuffer send = make_filled<float>(dev, count, rt.rank());
      device::DeviceBuffer got(dev, count * sizeof(float));
      device::DeviceBuffer ref(dev, count * sizeof(float));
      rt.allreduce(send.get(), got.get(), count, mini::kFloat, ReduceOp::Sum,
                   comm);
      EXPECT_EQ(rt.last_dispatch().engine, Engine::Hier);
      rt.set_mode(Mode::PureMpi);
      rt.allreduce(send.get(), ref.get(), count, mini::kFloat, ReduceOp::Sum,
                   comm);
      rt.set_mode(Mode::Hybrid);
      expect_buffers_agree(got.as<float>(), ref.as<float>(), count);
    };
    check(64);    // 256 B: CICO ladder
    check(2047);  // 8188 B: just under the switchover
    check(2048);  // 8192 B: first single-copy size
  });
}

TEST(HierDispatch, VirtualLevelsViaOptions) {
  // XcclMpiOptions::hier_levels imposes a virtual hierarchy on a world
  // whose simulated topology is flat — the XHC-style "bring your own
  // locality tree" knob.
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 2, 8});
  world.run([&](fabric::RankContext& ctx) {
    XcclMpiOptions opt;
    opt.tuning = TuningTable::uniform(Engine::Hier);
    opt.hier_levels = "quad:2";
    XcclMpi rt(ctx, opt);
    auto& dev = rt.context().device();
    const std::size_t count = 4096;
    device::DeviceBuffer send = make_filled<float>(dev, count, rt.rank());
    device::DeviceBuffer got(dev, count * sizeof(float));
    device::DeviceBuffer ref(dev, count * sizeof(float));
    rt.allreduce(send.get(), got.get(), count, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Hier);
    EXPECT_EQ(rt.last_decision().level_path, "quad(4).node(2).net(2)");
    rt.set_mode(Mode::PureMpi);
    rt.allreduce(send.get(), ref.get(), count, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    rt.set_mode(Mode::Hybrid);
    expect_buffers_agree(got.as<float>(), ref.as<float>(), count);
  });
}

// ---- Nonblocking collectives (satellite: iallgather / ireduce) -------------

TEST(NonblockingCollectives, IallgatherMatchesBlocking) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 8});
  world.run([&](fabric::RankContext& ctx) {
    XcclMpi rt(ctx, {});
    auto& dev = rt.context().device();
    auto& comm = rt.comm_world();
    const auto p = static_cast<std::size_t>(rt.size());
    const std::size_t count = 1 << 16;  // large: xccl engine
    device::DeviceBuffer send = make_filled<float>(dev, count, rt.rank());
    device::DeviceBuffer recv(dev, p * count * sizeof(float));
    mini::Request req = rt.iallgather(send.get(), count, mini::kFloat,
                                      recv.get(), count, mini::kFloat, comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);
    rt.wait(req);
    for (std::size_t r = 0; r < p; ++r) {
      ASSERT_EQ(recv.as<float>()[r * count],
                fill_value<float>(static_cast<int>(r), 0));
    }

    // Host buffers ride the MPI engine and complete eagerly.
    std::vector<float> hsend(8, static_cast<float>(rt.rank()));
    std::vector<float> hrecv(8 * p);
    mini::Request hreq = rt.iallgather(hsend.data(), 8, mini::kFloat,
                                       hrecv.data(), 8, mini::kFloat, comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
    rt.wait(hreq);
    for (std::size_t r = 0; r < p; ++r) {
      ASSERT_EQ(hrecv[r * 8], static_cast<float>(r));
    }
  });
}

TEST(NonblockingCollectives, IreduceMatchesBlocking) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 8});
  world.run([&](fabric::RankContext& ctx) {
    XcclMpi rt(ctx, {});
    auto& dev = rt.context().device();
    auto& comm = rt.comm_world();
    const std::size_t count = 1 << 16;
    device::DeviceBuffer send = make_filled<float>(dev, count, rt.rank());
    device::DeviceBuffer recv(dev, count * sizeof(float));
    mini::Request req = rt.ireduce(send.get(), recv.get(), count, mini::kFloat,
                                   ReduceOp::Sum, 0, comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);
    rt.wait(req);
    if (rt.rank() == 0) {
      float expect = 0.0f;
      for (int r = 0; r < rt.size(); ++r) expect += fill_value<float>(r, 0);
      EXPECT_FLOAT_EQ(recv.as<float>()[0], expect);
    }

    std::vector<double> hin(16, 1.0);
    std::vector<double> hout(16, 0.0);
    mini::Request hreq = rt.ireduce(hin.data(), hout.data(), 16, mini::kDouble,
                                    ReduceOp::Sum, 0, comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
    rt.wait(hreq);
    if (rt.rank() == 0) {
      EXPECT_DOUBLE_EQ(hout[3], static_cast<double>(rt.size()));
    }
  });
}

// On a >= 2-node world with an all-hier table, the nonblocking variants ride
// the hierarchical engine and complete on return.
TEST(NonblockingCollectives, HierPathCompletesEagerly) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 2, 4});
  world.run([&](fabric::RankContext& ctx) {
    XcclMpiOptions opt;
    opt.tuning = TuningTable::uniform(Engine::Hier);
    XcclMpi rt(ctx, opt);
    auto& dev = rt.context().device();
    auto& comm = rt.comm_world();
    const std::size_t count = 4096;
    device::DeviceBuffer send = make_filled<float>(dev, count, rt.rank());
    device::DeviceBuffer recv(dev, count * sizeof(float));
    mini::Request req = rt.iallreduce(send.get(), recv.get(), count,
                                      mini::kFloat, ReduceOp::Sum, comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Hier);
    rt.wait(req);
    float expect = 0.0f;
    for (int r = 0; r < rt.size(); ++r) expect += fill_value<float>(r, 0);
    EXPECT_NEAR(recv.as<float>()[0], expect, 1e-3);
  });
}

}  // namespace
}  // namespace mpixccl::core
