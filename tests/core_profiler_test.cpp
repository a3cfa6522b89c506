// Tests for the per-collective virtual-time profile (the registry table
// obs::report() renders) and tuning-table file persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "obs/obs.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::core {
namespace {

TEST(Profiler, AccumulatesPerCollectiveAndEngine) {
  // The per-collective profile is the registry's (collective, engine) table,
  // rendered by obs::report(); the runtime keeps only its PathStats.
  auto& reg = obs::Registry::instance();
  reg.reset();
  int ranks = 0;
  fabric::run_world(sim::thetagpu(), 1, [&](fabric::RankContext& ctx) {
    XcclMpi rt(ctx);
    if (ctx.rank() == 0) ranks = rt.size();
    device::DeviceBuffer buf(ctx.device(), 4u << 20);
    // Two small allreduces (MPI engine) + one large (xccl engine) + a bcast.
    rt.allreduce(buf.get(), buf.get(), 64, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    rt.allreduce(buf.get(), buf.get(), 64, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    rt.allreduce(buf.get(), buf.get(), 1 << 20, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    rt.bcast(buf.get(), 32, mini::kFloat, 0, rt.comm_world());
    EXPECT_EQ(rt.stats().mpi_calls, 3u);
    EXPECT_EQ(rt.stats().xccl_calls, 1u);
    rt.reset_stats();
    EXPECT_EQ(rt.stats().mpi_calls, 0u);
    EXPECT_EQ(rt.stats().xccl_calls, 0u);
  });

  const auto row = [&](CollOp op, Engine e) {
    for (const obs::CollRow& r : reg.snapshot().collectives) {
      if (r.op == op && r.engine == e) return r;
    }
    return obs::CollRow{};
  };
  const auto n = static_cast<std::uint64_t>(ranks);
  const obs::CollRow ar_mpi = row(CollOp::Allreduce, Engine::Mpi);
  const obs::CollRow ar_xccl = row(CollOp::Allreduce, Engine::Xccl);
  EXPECT_EQ(ar_mpi.calls, 2 * n);
  EXPECT_EQ(ar_xccl.calls, n);
  EXPECT_GT(ar_mpi.latency_us_hist.sum, 0.0);
  // The 4MB op dwarfs two tiny ones.
  EXPECT_GT(ar_xccl.latency_us_hist.sum, ar_mpi.latency_us_hist.sum);
  EXPECT_EQ(row(CollOp::Bcast, Engine::Mpi).calls, n);

  const std::string report = obs::report();
  EXPECT_NE(report.find("allreduce"), std::string::npos);
  EXPECT_NE(report.find("bcast"), std::string::npos);
  reg.reset();
}

TEST(TuningFile, SaveLoadRoundTrip) {
  const std::string path = "/tmp/mpixccl_tuning_test.tbl";
  const TuningTable t = TuningTable::default_for(sim::mri());
  t.save_file(path);
  const TuningTable back = TuningTable::load_file(path);
  for (const CollOp op : kAllCollOps) {
    for (const std::size_t b : {100u, 100000u}) {
      EXPECT_EQ(t.select(op, b), back.select(op, b));
    }
  }
  std::remove(path.c_str());
  EXPECT_THROW(TuningTable::load_file("/nonexistent/dir/x.tbl"), Error);
}

TEST(TuningFile, OptionsFileDrivesDispatch) {
  // The deployment path: MPIXCCL_TUNING_FILE names the table when the
  // options carry none.
  const std::string path = "/tmp/mpixccl_tuning_mpi_only.tbl";
  TuningTable::uniform(Engine::Mpi).save_file(path);
  setenv("MPIXCCL_TUNING_FILE", path.c_str(), 1);
  fabric::run_world(sim::thetagpu(), 1, [&](fabric::RankContext& ctx) {
    XcclMpi rt(ctx);
    device::DeviceBuffer buf(ctx.device(), 4u << 20);
    rt.allreduce(buf.get(), buf.get(), 1 << 20, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    // The file says "mpi everywhere": even 4 MB routes to the MPI engine.
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
  });
  unsetenv("MPIXCCL_TUNING_FILE");
  std::remove(path.c_str());
}

TEST(TuningFile, ExplicitTableBeatsFile) {
  const std::string path = "/tmp/mpixccl_tuning_loser.tbl";
  TuningTable::uniform(Engine::Mpi).save_file(path);
  setenv("MPIXCCL_TUNING_FILE", path.c_str(), 1);  // lower precedence
  fabric::run_world(sim::thetagpu(), 1, [&](fabric::RankContext& ctx) {
    XcclMpi rt(ctx, {.tuning = TuningTable::uniform(Engine::Xccl)});
    device::DeviceBuffer buf(ctx.device(), 1024);
    rt.allreduce(buf.get(), buf.get(), 16, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);
  });
  unsetenv("MPIXCCL_TUNING_FILE");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpixccl::core
