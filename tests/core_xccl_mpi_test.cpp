// Tests for the MPI-xCCL core: hybrid dispatch, device-buffer
// identification, capability fallback, communicator caching, composed
// collectives, and nonblocking overlap. These are the paper's Sec. 3
// behaviours.

#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "obs/analyze.hpp"
#include "obs/fleet.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::core {
namespace {

void with_runtime(const sim::SystemProfile& prof, int nodes,
                  XcclMpiOptions options,
                  const std::function<void(XcclMpi&)>& body, int dpn = 0) {
  fabric::World world(fabric::WorldConfig{prof, nodes, dpn});
  world.run([&](fabric::RankContext& ctx) {
    XcclMpi rt(ctx, options);
    body(rt);
  });
}

/// Device-buffer pair filled with rank-dependent float values.
struct DevPair {
  device::DeviceBuffer send;
  device::DeviceBuffer recv;
  DevPair(device::Device& dev, std::size_t floats, int rank, std::size_t scale = 1)
      : send(dev, floats * sizeof(float) * scale),
        recv(dev, floats * sizeof(float) * scale) {
    for (std::size_t i = 0; i < floats * scale; ++i) {
      send.as<float>()[i] = static_cast<float>(rank + 1) * 10.0f +
                            static_cast<float>(i % 13);
    }
  }
};

TEST(HybridDispatch, SmallGoesToMpiLargeGoesToXccl) {
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    auto& comm = rt.comm_world();
    DevPair small(rt.context().device(), 64, rt.rank());
    rt.allreduce(small.send.get(), small.recv.get(), 64, mini::kFloat,
                 ReduceOp::Sum, comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
    EXPECT_FALSE(rt.last_dispatch().fell_back);

    const std::size_t big = 1 << 20;  // 4 MB of floats, above every threshold
    DevPair large(rt.context().device(), big, rt.rank());
    rt.allreduce(large.send.get(), large.recv.get(), big, mini::kFloat,
                 ReduceOp::Sum, comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);

    // Both produced the right sums.
    float expect0 = 0.0f;
    for (int r = 0; r < rt.size(); ++r) expect0 += (r + 1) * 10.0f;
    EXPECT_FLOAT_EQ(small.recv.as<float>()[0], expect0);
    EXPECT_FLOAT_EQ(large.recv.as<float>()[0], expect0);
    EXPECT_EQ(rt.stats().mpi_calls, 1u);
    EXPECT_EQ(rt.stats().xccl_calls, 1u);
  });
}

TEST(HybridDispatch, HostBuffersAlwaysMpi) {
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    std::vector<float> in(1 << 20, 1.0f);
    std::vector<float> out(1 << 20);
    rt.allreduce(in.data(), out.data(), in.size(), mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
    EXPECT_FLOAT_EQ(out[123], static_cast<float>(rt.size()));
  });
}

TEST(HybridDispatch, PureMpiNeverTouchesXccl) {
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureMpi}, [](XcclMpi& rt) {
    DevPair bufs(rt.context().device(), 1 << 20, rt.rank());
    rt.allreduce(bufs.send.get(), bufs.recv.get(), 1 << 20, mini::kFloat,
                 ReduceOp::Sum, rt.comm_world());
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
    EXPECT_EQ(rt.stats().xccl_calls, 0u);
    EXPECT_EQ(rt.ccl_comm_cache_size(), 0u);
  });
}

TEST(Fallback, DoubleComplexFallsBackToMpi) {
  // The paper's FFT example: MPI_DOUBLE_COMPLEX has no NCCL equivalent, so
  // the call transparently reroutes to the MPI path.
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    using C = std::complex<double>;
    auto& dev = rt.context().device();
    device::DeviceBuffer in(dev, 128 * sizeof(C));
    device::DeviceBuffer out(dev, 128 * sizeof(C));
    for (int i = 0; i < 128; ++i) in.as<C>()[i] = C(rt.rank() + 1.0, 1.0);
    rt.allreduce(in.get(), out.get(), 128, mini::kDoubleComplex, ReduceOp::Sum,
                 rt.comm_world());
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
    EXPECT_TRUE(rt.last_dispatch().fell_back);
    EXPECT_EQ(rt.stats().fallbacks, 1u);
    const int p = rt.size();
    EXPECT_EQ(out.as<C>()[17], C(p * (p + 1) / 2.0, p * 1.0));
  });
}

TEST(Fallback, HcclNonFloatFallsBack) {
  with_runtime(sim::voyager(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    // Float64 -> fallback (HCCL is float32-only).
    device::DeviceBuffer d(dev, 64 * sizeof(double));
    for (int i = 0; i < 64; ++i) d.as<double>()[i] = 1.0;
    rt.allreduce(d.get(), d.get(), 64, mini::kDouble, ReduceOp::Sum,
                 rt.comm_world());
    EXPECT_TRUE(rt.last_dispatch().fell_back);
    EXPECT_DOUBLE_EQ(d.as<double>()[5], static_cast<double>(rt.size()));

    // Float32 Avg -> fallback (HCCL lacks Avg).
    device::DeviceBuffer f(dev, 64 * sizeof(float));
    for (int i = 0; i < 64; ++i) f.as<float>()[i] = static_cast<float>(rt.rank());
    rt.allreduce(f.get(), f.get(), 64, mini::kFloat, ReduceOp::Avg,
                 rt.comm_world());
    EXPECT_TRUE(rt.last_dispatch().fell_back);
    EXPECT_FLOAT_EQ(f.as<float>()[0], (rt.size() - 1) / 2.0f);

    // Float32 Sum -> served by HCCL.
    rt.allreduce(f.get(), f.get(), 64, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);
  });
}

TEST(Fallback, DisallowedFallbackThrows) {
  with_runtime(sim::thetagpu(), 1,
               {.mode = Mode::PureXccl, .allow_fallback = false},
               [](XcclMpi& rt) {
                 auto& dev = rt.context().device();
                 device::DeviceBuffer d(dev, 16 * 16);
                 EXPECT_THROW(rt.allreduce(d.get(), d.get(), 16,
                                           mini::kDoubleComplex, ReduceOp::Sum,
                                           rt.comm_world()),
                              Error);
               });
}

TEST(Fallback, ThrowingDispatchRecordsNoSample) {
  // A collective that throws before dispatch completes (allow_fallback=false)
  // must record nothing: no registry sample (previously the op timer's
  // destructor attributed one to the PREVIOUS call's engine and byte count),
  // no flight record, no fleet record, and no heartbeat left in flight.
  auto& reg = obs::Registry::instance();
  auto& fr = obs::FlightRecorder::instance();
  reg.reset();
  fr.clear();
  obs::fleet::reset();
  obs::fleet::set_profiling(true);
  const auto xccl_allreduce = [&reg] {
    for (const obs::CollRow& r : reg.snapshot().collectives) {
      if (r.op == CollOp::Allreduce && r.engine == Engine::Xccl) return r;
    }
    return obs::CollRow{};
  };
  with_runtime(sim::thetagpu(), 1,
               {.mode = Mode::PureXccl, .allow_fallback = false},
               [&](XcclMpi& rt) {
                 auto& dev = rt.context().device();
                 auto& comm = rt.comm_world();
                 device::DeviceBuffer f(dev, 16 * sizeof(float));
                 for (int i = 0; i < 16; ++i) f.as<float>()[i] = 1.0f;
                 rt.allreduce(f.get(), f.get(), 16, mini::kFloat, ReduceOp::Sum,
                              comm);
                 rt.mpi().barrier(comm);  // every rank's sample is in
                 const obs::CollRow before = xccl_allreduce();
                 EXPECT_EQ(before.calls, static_cast<std::uint64_t>(rt.size()));
                 const std::uint64_t mpi_calls = reg.engine_calls(Engine::Mpi);
                 const std::size_t flights = fr.records().size();
                 const std::size_t calls =
                     obs::fleet::local_rank_state(rt.rank()).calls.size();
                 EXPECT_EQ(calls, 1u);
                 rt.mpi().barrier(comm);  // every rank captured before a throw

                 device::DeviceBuffer d(dev, 16 * 16);
                 EXPECT_THROW(rt.allreduce(d.get(), d.get(), 16,
                                           mini::kDoubleComplex, ReduceOp::Sum,
                                           comm),
                              Error);
                 rt.mpi().barrier(comm);  // every rank has thrown
                 const obs::CollRow after = xccl_allreduce();
                 EXPECT_EQ(after.calls, before.calls);
                 EXPECT_EQ(after.bytes, before.bytes);
                 EXPECT_EQ(after.latency_us_hist.count,
                           before.latency_us_hist.count);
                 EXPECT_DOUBLE_EQ(after.latency_us_hist.sum,
                                  before.latency_us_hist.sum);
                 EXPECT_EQ(reg.engine_calls(Engine::Mpi), mpi_calls);
                 EXPECT_EQ(fr.records().size(), flights);
                 const obs::fleet::RankState st =
                     obs::fleet::local_rank_state(rt.rank());
                 EXPECT_EQ(st.calls.size(), calls);
                 EXPECT_EQ(st.heartbeat.enter_seq, 2u);
                 EXPECT_EQ(st.heartbeat.done_seq, 1u);
                 EXPECT_FALSE(st.heartbeat.in_flight);
               });
  obs::fleet::set_profiling(false);
  obs::fleet::reset();
  fr.clear();
  reg.reset();
}

TEST(ComposedCollectives, AlltoallViaGroupSendRecv) {
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    const int p = rt.size();
    const int me = rt.rank();
    const std::size_t n = 512;
    auto& dev = rt.context().device();
    device::DeviceBuffer send(dev, n * sizeof(float) * static_cast<std::size_t>(p));
    device::DeviceBuffer recv(dev, n * sizeof(float) * static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      for (std::size_t j = 0; j < n; ++j) {
        send.as<float>()[static_cast<std::size_t>(d) * n + j] =
            static_cast<float>(me * 1000 + d);
      }
    }
    rt.alltoall(send.get(), n, mini::kFloat, recv.get(), n, mini::kFloat,
                rt.comm_world());
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);
    EXPECT_TRUE(rt.last_dispatch().composed);
    for (int r = 0; r < p; ++r) {
      ASSERT_FLOAT_EQ(recv.as<float>()[static_cast<std::size_t>(r) * n],
                      static_cast<float>(r * 1000 + me));
    }
  });
}

TEST(ComposedCollectives, RaggedAlltoallvAgreesAcrossRanks) {
  // Per-rank counts differ -> the hybrid pick must still agree (regression
  // test for engine-divergence deadlock).
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    const int p = rt.size();
    const int me = rt.rank();
    auto& dev = rt.context().device();
    std::vector<std::size_t> scounts;
    std::vector<std::size_t> sdispls;
    std::size_t stotal = 0;
    for (int d = 0; d < p; ++d) {
      // Highly rank-dependent counts, large enough that *some* rank's metric
      // crosses the xccl threshold while others' do not.
      scounts.push_back(static_cast<std::size_t>(me + 1) * 2048);
      sdispls.push_back(stotal);
      stotal += scounts.back();
    }
    std::vector<std::size_t> rcounts;
    std::vector<std::size_t> rdispls;
    std::size_t rtotal = 0;
    for (int r = 0; r < p; ++r) {
      rcounts.push_back(static_cast<std::size_t>(r + 1) * 2048);
      rdispls.push_back(rtotal);
      rtotal += rcounts.back();
    }
    device::DeviceBuffer send(dev, stotal * sizeof(float));
    device::DeviceBuffer recv(dev, rtotal * sizeof(float));
    for (std::size_t i = 0; i < stotal; ++i) {
      send.as<float>()[i] = static_cast<float>(me);
    }
    rt.alltoallv(send.get(), scounts, sdispls, mini::kFloat, recv.get(), rcounts,
                 rdispls, mini::kFloat, rt.comm_world());
    for (int r = 0; r < p; ++r) {
      ASSERT_FLOAT_EQ(recv.as<float>()[rdispls[static_cast<std::size_t>(r)]],
                      static_cast<float>(r));
    }
  });
}

TEST(ComposedCollectives, GatherScatterOnXcclPath) {
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    const int p = rt.size();
    const std::size_t n = 256;
    auto& dev = rt.context().device();
    const int root = 2 % p;
    device::DeviceBuffer mine(dev, n * sizeof(float));
    device::DeviceBuffer all(dev, n * sizeof(float) * static_cast<std::size_t>(p));
    for (std::size_t i = 0; i < n; ++i) {
      mine.as<float>()[i] = static_cast<float>(rt.rank() * 3);
    }
    rt.gather(mine.get(), n, mini::kFloat, all.get(), n, mini::kFloat, root,
              rt.comm_world());
    EXPECT_TRUE(rt.last_dispatch().composed);
    if (rt.rank() == root) {
      for (int r = 0; r < p; ++r) {
        ASSERT_FLOAT_EQ(all.as<float>()[static_cast<std::size_t>(r) * n],
                        static_cast<float>(r * 3));
      }
    }
    // Scatter back.
    device::DeviceBuffer back(dev, n * sizeof(float));
    rt.scatter(all.get(), n, mini::kFloat, back.get(), n, mini::kFloat, root,
               rt.comm_world());
    EXPECT_FLOAT_EQ(back.as<float>()[0], static_cast<float>(rt.rank() * 3));
  });
}

TEST(ComposedCollectives, AllgathervOnXcclPath) {
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    const int p = rt.size();
    const int me = rt.rank();
    auto& dev = rt.context().device();
    const std::size_t mine_n = static_cast<std::size_t>(me + 1) * 16;
    std::vector<std::size_t> counts;
    std::vector<std::size_t> displs;
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      counts.push_back(static_cast<std::size_t>(r + 1) * 16);
      displs.push_back(total);
      total += counts.back();
    }
    device::DeviceBuffer mine(dev, mine_n * sizeof(float));
    device::DeviceBuffer all(dev, total * sizeof(float));
    for (std::size_t i = 0; i < mine_n; ++i) {
      mine.as<float>()[i] = static_cast<float>(me) + 0.25f;
    }
    rt.allgatherv(mine.get(), mine_n, mini::kFloat, all.get(), counts, displs,
                  mini::kFloat, rt.comm_world());
    EXPECT_TRUE(rt.last_dispatch().composed);
    for (int r = 0; r < p; ++r) {
      ASSERT_FLOAT_EQ(all.as<float>()[displs[static_cast<std::size_t>(r)]],
                      static_cast<float>(r) + 0.25f);
    }
  });
}

TEST(CommCache, OneCclCommPerMpiComm) {
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    DevPair bufs(rt.context().device(), 1024, rt.rank());
    auto& world_comm = rt.comm_world();
    rt.allreduce(bufs.send.get(), bufs.recv.get(), 1024, mini::kFloat,
                 ReduceOp::Sum, world_comm);
    rt.allreduce(bufs.send.get(), bufs.recv.get(), 1024, mini::kFloat,
                 ReduceOp::Sum, world_comm);
    rt.bcast(bufs.recv.get(), 1024, mini::kFloat, 0, world_comm);
    EXPECT_EQ(rt.ccl_comm_cache_size(), 1u);

    mini::Comm dup = rt.dup(world_comm);
    rt.allreduce(bufs.send.get(), bufs.recv.get(), 1024, mini::kFloat,
                 ReduceOp::Sum, dup);
    EXPECT_EQ(rt.ccl_comm_cache_size(), 2u);
  });
}

TEST(CommCache, SubCommunicatorCollectives) {
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    mini::Comm sub = rt.split(rt.comm_world(), rt.rank() % 2, rt.rank());
    DevPair bufs(rt.context().device(), 64, rt.rank());
    float* out = bufs.recv.as<float>();
    rt.allreduce(bufs.send.get(), bufs.recv.get(), 64, mini::kFloat,
                 ReduceOp::Sum, sub);
    float expect = 0.0f;
    for (int r = rt.rank() % 2; r < rt.size(); r += 2) expect += (r + 1) * 10.0f;
    EXPECT_FLOAT_EQ(out[0], expect);
  });
}

TEST(Nonblocking, IallreduceOverlapsCompute) {
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    const std::size_t n = 1 << 20;
    DevPair bufs(rt.context().device(), n, rt.rank());
    // Warm the CCL communicator cache so comm bootstrap is outside timing.
    rt.allreduce(bufs.send.get(), bufs.recv.get(), 4, mini::kFloat,
                 ReduceOp::Sum, rt.comm_world());
    rt.context().sync_clocks();
    const double t0 = rt.context().clock().now();
    mini::Request req = rt.iallreduce(bufs.send.get(), bufs.recv.get(), n,
                                      mini::kFloat, ReduceOp::Sum,
                                      rt.comm_world());
    const double t_launch = rt.context().clock().now();
    // Launch returns immediately (only the launch overhead).
    EXPECT_LT(t_launch - t0, 50.0);
    // Simulated compute overlapping the collective.
    rt.context().clock().advance(10000.0);
    rt.wait(req);
    // The collective finished long before the compute did: wait is ~free.
    EXPECT_NEAR(rt.context().clock().now(), t_launch + 10000.0, 1500.0);
    float expect = 0.0f;
    for (int r = 0; r < rt.size(); ++r) expect += (r + 1) * 10.0f;
    EXPECT_FLOAT_EQ(bufs.recv.as<float>()[0], expect);
  });
}

TEST(BackendOverride, MscclOnNvidiaSystem) {
  with_runtime(sim::thetagpu(), 1,
               {.mode = Mode::PureXccl, .backend = xccl::CclKind::Msccl},
               [](XcclMpi& rt) {
                 EXPECT_EQ(rt.backend().kind(), xccl::CclKind::Msccl);
                 DevPair bufs(rt.context().device(), 1024, rt.rank());
                 rt.allreduce(bufs.send.get(), bufs.recv.get(), 1024,
                              mini::kFloat, ReduceOp::Sum, rt.comm_world());
                 EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);
                 float expect = 0.0f;
                 for (int r = 0; r < rt.size(); ++r) expect += (r + 1) * 10.0f;
                 EXPECT_FLOAT_EQ(bufs.recv.as<float>()[0], expect);
               });
}

TEST(HybridDispatch, MultiNodeCorrectness) {
  with_runtime(sim::thetagpu(), 2, {}, [](XcclMpi& rt) {
    for (const std::size_t n : {16u, 262144u}) {
      DevPair bufs(rt.context().device(), n, rt.rank());
      rt.allreduce(bufs.send.get(), bufs.recv.get(), n, mini::kFloat,
                   ReduceOp::Sum, rt.comm_world());
      float expect = 0.0f;
      for (int r = 0; r < rt.size(); ++r) expect += (r + 1) * 10.0f;
      ASSERT_FLOAT_EQ(bufs.recv.as<float>()[0], expect) << n;
    }
  }, /*dpn=*/4);
}

}  // namespace
}  // namespace mpixccl::core
