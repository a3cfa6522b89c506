// Tests for the dispatch-decision log (src/obs/decision.hpp) and its
// threading through XcclMpi: every fallback class is forced, and the
// recorded reason / engine / breakpoint are checked against last_dispatch().

#include <gtest/gtest.h>

#include <complex>
#include <functional>
#include <vector>

#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "obs/obs.hpp"
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

TEST(DecisionRing, CapacityAndSequencing) {
  auto& log = obs::DecisionLog::instance();
  log.clear();
  log.set_enabled(true);
  log.set_capacity(4);
  for (int i = 0; i < 6; ++i) {
    obs::DispatchDecision d;
    d.bytes = static_cast<std::size_t>(i);
    EXPECT_EQ(log.push(d), static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(log.total(), 6u);
  EXPECT_EQ(log.size(), 4u);
  const auto recs = log.records();
  ASSERT_EQ(recs.size(), 4u);
  // Oldest first, the two earliest dropped.
  EXPECT_EQ(recs.front().seq, 3u);
  EXPECT_EQ(recs.back().seq, 6u);

  log.set_enabled(false);
  EXPECT_EQ(log.push({}), 0u);  // disabled: no-op, seq 0
  EXPECT_EQ(log.total(), 6u);
  log.set_capacity(obs::DecisionLog::kDefaultCapacity);
  log.clear();
}

TEST(DecisionLog, HybridBreakpointsRecorded) {
  obs::set_level(obs::Level::Decisions);
  obs::DecisionLog::instance().clear();
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    auto& comm = rt.comm_world();
    auto& dev = rt.context().device();
    device::DeviceBuffer buf(dev, 4u << 20);

    // 256 B: under the thetagpu allreduce crossover (16384) -> MPI rule.
    rt.allreduce(buf.get(), buf.get(), 64, mini::kFloat, ReduceOp::Sum, comm);
    const obs::DispatchDecision small = rt.last_decision();
    EXPECT_EQ(small.engine, Engine::Mpi);
    EXPECT_EQ(small.table_choice, Engine::Mpi);
    EXPECT_EQ(small.breakpoint, 16384u);
    EXPECT_EQ(small.mode, Mode::Hybrid);
    EXPECT_EQ(small.bytes, 256u);
    EXPECT_EQ(small.reason, obs::FallbackReason::None);
    EXPECT_FALSE(small.fell_back);
    EXPECT_GT(small.seq, 0u);  // appended to the enabled log

    // 4 MB: the catch-all rule -> xCCL.
    rt.allreduce(buf.get(), buf.get(), 1 << 20, mini::kFloat, ReduceOp::Sum,
                 comm);
    const obs::DispatchDecision large = rt.last_decision();
    EXPECT_EQ(large.engine, Engine::Xccl);
    EXPECT_EQ(large.breakpoint, SIZE_MAX);
    EXPECT_FALSE(large.fell_back);
    EXPECT_GT(large.seq, small.seq);

    // The decision mirrors last_dispatch().
    EXPECT_EQ(large.engine, rt.last_dispatch().engine);
    EXPECT_EQ(large.fell_back, rt.last_dispatch().fell_back);
  });
  EXPECT_GT(obs::DecisionLog::instance().total(), 0u);
  obs::set_level(obs::Level::Metrics);
}

TEST(DecisionLog, HostBufferReason) {
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    std::vector<float> in(1 << 20, 1.0f);
    std::vector<float> out(1 << 20);
    rt.allreduce(in.data(), out.data(), in.size(), mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    const obs::DispatchDecision d = rt.last_decision();
    EXPECT_EQ(d.reason, obs::FallbackReason::HostBuffer);
    EXPECT_EQ(d.engine, Engine::Mpi);
    EXPECT_EQ(d.table_choice, Engine::Mpi);
    EXPECT_EQ(d.breakpoint, 0u);  // table never consulted
    EXPECT_FALSE(d.fell_back);    // deliberate route, not a bounce
  });
}

TEST(DecisionLog, DtypeUnsupportedReason) {
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    using C = std::complex<double>;
    auto& dev = rt.context().device();
    device::DeviceBuffer in(dev, 128 * sizeof(C));
    device::DeviceBuffer out(dev, 128 * sizeof(C));
    rt.allreduce(in.get(), out.get(), 128, mini::kDoubleComplex, ReduceOp::Sum,
                 rt.comm_world());
    const obs::DispatchDecision d = rt.last_decision();
    EXPECT_EQ(d.reason, obs::FallbackReason::DtypeUnsupported);
    EXPECT_EQ(d.table_choice, Engine::Xccl);  // the mode picked xCCL...
    EXPECT_EQ(d.engine, Engine::Mpi);         // ...the capability check bounced
    EXPECT_TRUE(d.fell_back);
    EXPECT_TRUE(rt.last_dispatch().fell_back);
  });
}

TEST(DecisionLog, OpUnsupportedReason) {
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    device::DeviceBuffer buf(dev, 256 * sizeof(int));
    // Logical AND is an MPI op with no NCCL-family equivalent.
    rt.allreduce(buf.get(), buf.get(), 256, mini::kInt, ReduceOp::Land,
                 rt.comm_world());
    const obs::DispatchDecision d = rt.last_decision();
    EXPECT_EQ(d.reason, obs::FallbackReason::OpUnsupported);
    EXPECT_EQ(d.engine, Engine::Mpi);
    EXPECT_TRUE(d.fell_back);
  });
}

TEST(DecisionLog, HierTopoMismatchReason) {
  // One node: the hier engine needs >= 2 nodes x >= 2 ranks, so a table
  // naming hier bounces to flat MPI at runtime.
  XcclMpiOptions opts;
  opts.tuning = TuningTable::uniform(Engine::Hier);
  with_runtime(sim::thetagpu(), 1, opts, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    device::DeviceBuffer buf(dev, 1 << 16);
    rt.allreduce(buf.get(), buf.get(), 1 << 14, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    const obs::DispatchDecision d = rt.last_decision();
    EXPECT_EQ(d.reason, obs::FallbackReason::HierTopoMismatch);
    EXPECT_EQ(d.table_choice, Engine::Hier);
    EXPECT_EQ(d.engine, Engine::Mpi);
    EXPECT_EQ(d.breakpoint, SIZE_MAX);  // uniform table's catch-all rule
    EXPECT_TRUE(d.fell_back);
  }, /*dpn=*/2);
}

TEST(DecisionLog, HierOpUnsupportedRemapAtPickTime) {
  // Alltoall is outside hier's set: the dispatcher remaps the table's hier
  // pick to xCCL before launching, recording why.
  XcclMpiOptions opts;
  opts.tuning = TuningTable::uniform(Engine::Hier);
  with_runtime(sim::thetagpu(), 2, opts, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    const std::size_t n = 64;
    const std::size_t p = static_cast<std::size_t>(rt.size());
    device::DeviceBuffer send(dev, n * p * sizeof(float));
    device::DeviceBuffer recv(dev, n * p * sizeof(float));
    rt.alltoall(send.get(), n, mini::kFloat, recv.get(), n, mini::kFloat,
                rt.comm_world());
    const obs::DispatchDecision d = rt.last_decision();
    EXPECT_EQ(d.reason, obs::FallbackReason::HierOpUnsupported);
    EXPECT_EQ(d.table_choice, Engine::Hier);
    EXPECT_EQ(d.engine, Engine::Xccl);
    EXPECT_FALSE(d.fell_back);  // remapped before launch, nothing bounced
    EXPECT_TRUE(d.composed);    // grouped send/recv composition
  }, /*dpn=*/2);
}

TEST(DecisionLog, InPlaceReason) {
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    const std::size_t n = 16;
    device::DeviceBuffer buf(
        dev, n * static_cast<std::size_t>(rt.size()) * sizeof(int));
    rt.alltoall(mini::kInPlace, 0, mini::kInt, buf.get(), n, mini::kInt,
                rt.comm_world());
    const obs::DispatchDecision d = rt.last_decision();
    EXPECT_EQ(d.reason, obs::FallbackReason::InPlace);
    EXPECT_EQ(d.engine, Engine::Mpi);
    EXPECT_FALSE(d.fell_back);
  });
}

TEST(DecisionLog, MixedDatatypeReason) {
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    const std::size_t pairs = 32;
    const std::size_t p = static_cast<std::size_t>(rt.size());
    device::DeviceBuffer send(dev, pairs * 2 * sizeof(float));
    device::DeviceBuffer recv(dev, pairs * 2 * p * sizeof(float));
    // Send as 2-float blocks, receive as single floats: element sizes
    // differ, so the 1:1 CCL builtin cannot serve the call.
    rt.allgather(send.get(), pairs, mini::contiguous(2, mini::kFloat),
                 recv.get(), pairs * 2, mini::kFloat, rt.comm_world());
    const obs::DispatchDecision d = rt.last_decision();
    EXPECT_EQ(d.reason, obs::FallbackReason::MixedDatatype);
    EXPECT_EQ(d.engine, Engine::Mpi);
    EXPECT_FALSE(d.fell_back);
  });
}

TEST(DecisionLog, ReasonCountsAndWhyReport) {
  obs::set_level(obs::Level::Decisions);
  auto& log = obs::DecisionLog::instance();
  log.clear();
  with_runtime(sim::thetagpu(), 1, {.mode = Mode::PureXccl}, [](XcclMpi& rt) {
    std::vector<float> h(64, 1.0f);
    rt.allreduce(h.data(), h.data(), h.size(), mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());  // host_buffer x ranks
    auto& dev = rt.context().device();
    device::DeviceBuffer d(dev, 128 * 16);
    rt.allreduce(d.get(), d.get(), 128, mini::kDoubleComplex, ReduceOp::Sum,
                 rt.comm_world());  // dtype_unsupported x ranks
  });
  const auto counts = log.reason_counts();
  const auto idx = [](obs::FallbackReason r) {
    return static_cast<std::size_t>(r);
  };
  EXPECT_GT(counts[idx(obs::FallbackReason::HostBuffer)], 0u);
  EXPECT_GT(counts[idx(obs::FallbackReason::DtypeUnsupported)], 0u);
  EXPECT_EQ(counts[idx(obs::FallbackReason::OpUnsupported)], 0u);

  const std::string report = log.why_report();
  EXPECT_NE(report.find("dispatch decisions:"), std::string::npos);
  EXPECT_NE(report.find("host_buffer"), std::string::npos);
  EXPECT_NE(report.find("dtype_unsupported"), std::string::npos);
  EXPECT_NE(report.find("by engine:"), std::string::npos);

  log.clear();
  EXPECT_EQ(log.total(), 0u);
  EXPECT_EQ(log.size(), 0u);
  obs::set_level(obs::Level::Metrics);
}

TEST(ResetStats, ClearsLastDispatchAndDecision) {
  // reset_stats() returns the per-instance view to its freshly-constructed
  // state: counters, last_dispatch() and last_decision().
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    device::DeviceBuffer buf(dev, 4u << 20);
    rt.allreduce(buf.get(), buf.get(), 1 << 20, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);
    EXPECT_GT(rt.stats().xccl_calls, 0u);
    EXPECT_GT(rt.stats().xccl_bytes, 0u);
    EXPECT_GT(rt.last_decision().bytes, 0u);

    rt.reset_stats();
    EXPECT_EQ(rt.stats().mpi_calls, 0u);
    EXPECT_EQ(rt.stats().xccl_calls, 0u);
    EXPECT_EQ(rt.stats().xccl_bytes, 0u);
    // last_dispatch()/last_decision() are part of the reset contract.
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
    EXPECT_FALSE(rt.last_dispatch().fell_back);
    EXPECT_EQ(rt.last_decision().bytes, 0u);
    EXPECT_EQ(rt.last_decision().seq, 0u);
    EXPECT_EQ(rt.last_decision().reason, obs::FallbackReason::None);
  });
}

TEST(DecisionLine, RendersReasonAndBreakpoint) {
  obs::DispatchDecision d;
  d.seq = 7;
  d.rank = 2;
  d.op = CollOp::Allreduce;
  d.bytes = 4096;
  d.mode = Mode::Hybrid;
  d.breakpoint = 16384;
  d.table_choice = Engine::Xccl;
  d.engine = Engine::Mpi;
  d.reason = obs::FallbackReason::DtypeUnsupported;
  d.fell_back = true;
  const std::string line = obs::to_line(d);
  EXPECT_NE(line.find("#7"), std::string::npos);
  EXPECT_NE(line.find("r2"), std::string::npos);
  EXPECT_NE(line.find("allreduce"), std::string::npos);
  EXPECT_NE(line.find("hybrid"), std::string::npos);
  EXPECT_NE(line.find("dtype_unsupported"), std::string::npos);
}

}  // namespace
}  // namespace mpixccl::core
