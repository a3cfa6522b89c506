// Tests for tuning tables, the offline tuner, and the UCC baseline.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/tuner.hpp"
#include "core/tuning.hpp"
#include "core/ucc_baseline.hpp"
#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::core {
namespace {

TEST(TuningTable, SelectHonorsBreakpoints) {
  TuningTable t;
  t.set_rules(CollOp::Allreduce, {{1024, Engine::Mpi},
                                  {65536, Engine::Xccl},
                                  {SIZE_MAX, Engine::Mpi}});
  EXPECT_EQ(t.select(CollOp::Allreduce, 8), Engine::Mpi);
  EXPECT_EQ(t.select(CollOp::Allreduce, 1024), Engine::Mpi);
  EXPECT_EQ(t.select(CollOp::Allreduce, 1025), Engine::Xccl);
  EXPECT_EQ(t.select(CollOp::Allreduce, 65536), Engine::Xccl);
  EXPECT_EQ(t.select(CollOp::Allreduce, 1 << 20), Engine::Mpi);
  // Unconfigured op: xccl by default.
  EXPECT_EQ(t.select(CollOp::Scan, 8), Engine::Xccl);
}

TEST(TuningTable, SetRulesSortsAndCapsLastEntry) {
  TuningTable t;
  t.set_rules(CollOp::Bcast, {{4096, Engine::Xccl}, {64, Engine::Mpi}});
  const auto* rules = t.rules(CollOp::Bcast);
  ASSERT_NE(rules, nullptr);
  ASSERT_EQ(rules->size(), 2u);
  EXPECT_EQ((*rules)[0].max_bytes, 64u);
  EXPECT_EQ((*rules)[1].max_bytes, SIZE_MAX);  // capped
  EXPECT_THROW(t.set_rules(CollOp::Bcast, {}), Error);
}

TEST(TuningTable, SetRulesRejectsDuplicateBreakpoints) {
  TuningTable t;
  // Two rules at one breakpoint: the earlier would silently shadow the
  // later for every message — must be a loud error naming the conflict.
  try {
    t.set_rules(CollOp::Allreduce, {{4096, Engine::Mpi}, {4096, Engine::Xccl}});
    FAIL() << "duplicate breakpoint accepted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("4096"), std::string::npos) << msg;
    EXPECT_NE(msg.find("allreduce"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mpi"), std::string::npos) << msg;
    EXPECT_NE(msg.find("xccl"), std::string::npos) << msg;
  }
  // The check runs before the SIZE_MAX extension: two tail rules collide
  // even when their written breakpoints differ from the serialized "max".
  EXPECT_THROW(t.set_rules(CollOp::Allreduce, {{1024, Engine::Mpi},
                                               {SIZE_MAX, Engine::Xccl},
                                               {SIZE_MAX, Engine::Hier}}),
               Error);
  // ...but a single finite tail is still legally capped to SIZE_MAX.
  t.set_rules(CollOp::Allreduce, {{1024, Engine::Mpi}, {4096, Engine::Xccl}});
  EXPECT_EQ(t.select(CollOp::Allreduce, SIZE_MAX), Engine::Xccl);
}

TEST(TuningTable, DeserializeRejectsDuplicateOpSectionAndMixedBadEngine) {
  EXPECT_THROW(
      TuningTable::deserialize("allreduce:8=mpi,max=xccl;allreduce:max=hier"),
      Error);
  // An unknown engine token among valid ones must not half-apply the list.
  EXPECT_THROW(
      TuningTable::deserialize("allreduce:8=mpi,64=bogus,max=xccl"), Error);
  EXPECT_THROW(
      TuningTable::deserialize("allreduce:8=mpi,8=xccl,max=hier"), Error);
}

TEST(TuningTable, SerializeRoundTrip) {
  const TuningTable t = TuningTable::default_for(sim::thetagpu());
  const std::string text = t.serialize();
  const TuningTable back = TuningTable::deserialize(text);
  for (const CollOp op : kAllCollOps) {
    for (const std::size_t bytes : {1u, 1000u, 100000u, 10000000u}) {
      EXPECT_EQ(t.select(op, bytes), back.select(op, bytes))
          << to_string(op) << " " << bytes;
    }
  }
  EXPECT_THROW(TuningTable::deserialize("allreduce:broken"), Error);
  EXPECT_THROW(TuningTable::deserialize("nosuchcoll:8=mpi"), Error);
  EXPECT_THROW(TuningTable::deserialize("allreduce:8=nosuchengine"), Error);
}

TEST(TuningTable, ThreeEngineRoundTripThroughFile) {
  // A table that routes small to mpi, medium to xccl, and large to the
  // hierarchical engine must survive serialize -> save -> load intact.
  TuningTable t;
  t.set_rules(CollOp::Allreduce, {{16384, Engine::Mpi},
                                  {1048576, Engine::Xccl},
                                  {SIZE_MAX, Engine::Hier}});
  t.set_rules(CollOp::Bcast, {{65536, Engine::Mpi}, {SIZE_MAX, Engine::Hier}});
  const TuningTable back = TuningTable::deserialize(t.serialize());
  EXPECT_EQ(back.select(CollOp::Allreduce, 1024), Engine::Mpi);
  EXPECT_EQ(back.select(CollOp::Allreduce, 65536), Engine::Xccl);
  EXPECT_EQ(back.select(CollOp::Allreduce, 4u << 20), Engine::Hier);
  EXPECT_EQ(back.select(CollOp::Bcast, 1u << 20), Engine::Hier);

  const std::string path = testing::TempDir() + "mpixccl_three_engine.table";
  t.save_file(path);
  const TuningTable loaded = TuningTable::load_file(path);
  for (const CollOp op : kAllCollOps) {
    for (const std::size_t bytes : {8u, 16384u, 65536u, 1048576u, 8u << 20}) {
      EXPECT_EQ(t.select(op, bytes), loaded.select(op, bytes))
          << to_string(op) << " " << bytes;
    }
  }
  std::remove(path.c_str());
}

TEST(TuningTable, DeserializeRejectsMalformedBreakpoints) {
  // Unknown engine tokens and non-numeric or overflowing breakpoints must
  // fail loudly instead of silently truncating the table.
  EXPECT_THROW(TuningTable::deserialize("allreduce:12xy=mpi"), Error);
  EXPECT_THROW(TuningTable::deserialize("allreduce:=mpi"), Error);
  EXPECT_THROW(TuningTable::deserialize("allreduce:0x10=xccl"), Error);
  EXPECT_THROW(TuningTable::deserialize("allreduce:-4=hier"), Error);
  EXPECT_THROW(
      TuningTable::deserialize("allreduce:99999999999999999999999999=mpi"),
      Error);
  EXPECT_THROW(TuningTable::deserialize("allreduce:1024=hierx"), Error);
  // "hier" itself is a valid token.
  const TuningTable ok = TuningTable::deserialize("allreduce:1024=mpi,max=hier");
  EXPECT_EQ(ok.select(CollOp::Allreduce, 4096), Engine::Hier);
}

TEST(TuningTable, UniformTables) {
  const TuningTable mpi_only = TuningTable::uniform(Engine::Mpi);
  const TuningTable xccl_only = TuningTable::uniform(Engine::Xccl);
  for (const CollOp op : kAllCollOps) {
    EXPECT_EQ(mpi_only.select(op, 1 << 22), Engine::Mpi);
    EXPECT_EQ(xccl_only.select(op, 1), Engine::Xccl);
  }
}

TEST(TuningTable, DefaultsEncodePaperCrossovers) {
  const TuningTable theta = TuningTable::default_for(sim::thetagpu());
  // Fig. 1(a): NCCL overtakes MPI Allreduce beyond ~16 KB.
  EXPECT_EQ(theta.select(CollOp::Allreduce, 8192), Engine::Mpi);
  EXPECT_EQ(theta.select(CollOp::Allreduce, 65536), Engine::Xccl);
  const TuningTable amd = TuningTable::default_for(sim::mri());
  // Fig. 1(b): RCCL overtakes MPI Allgather beyond ~64 KB.
  EXPECT_EQ(amd.select(CollOp::Allgather, 32768), Engine::Mpi);
  EXPECT_EQ(amd.select(CollOp::Allgather, 131072), Engine::Xccl);
  // Habana's 270 us launch pushes thresholds much higher.
  const TuningTable habana = TuningTable::default_for(sim::voyager());
  EXPECT_EQ(habana.select(CollOp::Allreduce, 65536), Engine::Mpi);
}

// ---- Range rewrites (the online tuner's edit) --------------------------------

std::vector<Engine> engines_of(const TuningTable& t, CollOp op,
                               const std::vector<std::size_t>& probes) {
  std::vector<Engine> out;
  for (std::size_t b : probes) out.push_back(t.select(op, b));
  return out;
}

TEST(TuningTable, SetRangeOnOpWithoutRulesStartsFromCatchAll) {
  TuningTable t;
  t.set_range(CollOp::Bcast, 0, 1024, Engine::Mpi);
  // Outside the range the implicit {SIZE_MAX, Xccl} still selects.
  EXPECT_EQ(engines_of(t, CollOp::Bcast, {0, 1024, 1025, SIZE_MAX}),
            (std::vector<Engine>{Engine::Mpi, Engine::Mpi, Engine::Xccl,
                                 Engine::Xccl}));
  ASSERT_NE(t.rules(CollOp::Bcast), nullptr);
  EXPECT_EQ(t.rules(CollOp::Bcast)->size(), 2u);
}

TEST(TuningTable, SetRangeSplitsCoveringRule) {
  TuningTable t;
  t.set_rules(CollOp::Allreduce, {{SIZE_MAX, Engine::Xccl}});
  t.set_range(CollOp::Allreduce, 4097, 65536, Engine::Mpi);
  EXPECT_EQ(engines_of(t, CollOp::Allreduce, {4096, 4097, 65536, 65537}),
            (std::vector<Engine>{Engine::Xccl, Engine::Mpi, Engine::Mpi,
                                 Engine::Xccl}));
  // Three rules now: [0,4096]=xccl, (4096,65536]=mpi, rest xccl.
  ASSERT_NE(t.rules(CollOp::Allreduce), nullptr);
  EXPECT_EQ(t.rules(CollOp::Allreduce)->size(), 3u);
}

TEST(TuningTable, SetRangeAtZeroAndSizeMaxEdges) {
  TuningTable t;
  t.set_range(CollOp::Allreduce, 0, 4096, Engine::Mpi);
  EXPECT_EQ(engines_of(t, CollOp::Allreduce, {0, 4096, 4097}),
            (std::vector<Engine>{Engine::Mpi, Engine::Mpi, Engine::Xccl}));
  t.set_range(CollOp::Allreduce, 1 << 20, SIZE_MAX, Engine::Hier);
  EXPECT_EQ(t.select(CollOp::Allreduce, SIZE_MAX), Engine::Hier);
  EXPECT_EQ(t.select(CollOp::Allreduce, (1 << 20) - 1), Engine::Xccl);
}

TEST(TuningTable, SetRangeMergesAdjacentSameEngine) {
  TuningTable t;
  t.set_range(CollOp::Allreduce, 0, 4096, Engine::Mpi);
  t.set_range(CollOp::Allreduce, 4097, 65536, Engine::Mpi);
  // Adjacent mpi intervals merge back into one rule + the xccl tail.
  ASSERT_NE(t.rules(CollOp::Allreduce), nullptr);
  EXPECT_EQ(t.rules(CollOp::Allreduce)->size(), 2u);
  EXPECT_EQ(t.select(CollOp::Allreduce, 65536), Engine::Mpi);
  // Rewriting the whole line merges everything into one catch-all.
  t.set_range(CollOp::Allreduce, 0, SIZE_MAX, Engine::Xccl);
  EXPECT_EQ(t.rules(CollOp::Allreduce)->size(), 1u);
}

TEST(TuningTable, SetRangeRejectsInvertedRange) {
  TuningTable t;
  t.set_rules(CollOp::Bcast, {{1024, Engine::Mpi}, {SIZE_MAX, Engine::Xccl}});
  EXPECT_THROW(t.set_range(CollOp::Bcast, 10, 5, Engine::Hier), Error);
  // The rejected rewrite left the rules as they were.
  EXPECT_EQ(t.rules(CollOp::Bcast)->size(), 2u);
  EXPECT_EQ(t.select(CollOp::Bcast, 8), Engine::Mpi);
  // An op without rules gains none from a rejected rewrite.
  EXPECT_THROW(t.set_range(CollOp::Scan, 10, 5, Engine::Mpi), Error);
  EXPECT_EQ(t.rules(CollOp::Scan), nullptr);
}

TEST(TuningTable, SetRangeSerializeRoundTrip) {
  TuningTable t;
  t.set_range(CollOp::Allreduce, 0, 16384, Engine::Mpi);
  t.set_range(CollOp::Allreduce, 1 << 20, (4 << 20) - 1, Engine::Hier);
  const TuningTable back = TuningTable::deserialize(t.serialize());
  EXPECT_EQ(back.serialize(), t.serialize());
  EXPECT_EQ(engines_of(back, CollOp::Allreduce,
                       {16384, 16385, 1 << 20, (4 << 20) - 1, 4 << 20}),
            (std::vector<Engine>{Engine::Mpi, Engine::Xccl, Engine::Hier,
                                 Engine::Hier, Engine::Xccl}));
}

TEST(OfflineTuner, FindsTheAllreduceCrossover) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 0});
  world.run([](fabric::RankContext& ctx) {
    XcclMpi rt(ctx);
    TunerConfig config;
    config.ops = {CollOp::Allreduce};
    config.sizes = {64, 1024, 16384, 262144, 4194304};
    const TuningTable tuned = tune_offline(rt, rt.comm_world(), config);
    // Small: MPI. Large: xCCL. (The measured crossover is between 1 KB and
    // 4 MB on this profile; we only pin the endpoints.)
    EXPECT_EQ(tuned.select(CollOp::Allreduce, 64), Engine::Mpi);
    EXPECT_EQ(tuned.select(CollOp::Allreduce, 4194304), Engine::Xccl);
  });
}

TEST(OfflineTuner, MeasureCollectiveOrdersEngines) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 0});
  world.run([](fabric::RankContext& ctx) {
    XcclMpi rt(ctx);
    // At 4 MB, the xccl engine must beat the MPI engine on NVLink.
    const double mpi_lat = measure_collective(rt, rt.comm_world(),
                                              CollOp::Allreduce, 4 << 20,
                                              Engine::Mpi, 1, 3);
    const double xccl_lat = measure_collective(rt, rt.comm_world(),
                                               CollOp::Allreduce, 4 << 20,
                                               Engine::Xccl, 1, 3);
    EXPECT_GT(mpi_lat, xccl_lat);
    // At 8 B the ordering flips.
    const double mpi_small = measure_collective(rt, rt.comm_world(),
                                                CollOp::Allreduce, 8,
                                                Engine::Mpi, 1, 3);
    const double xccl_small = measure_collective(rt, rt.comm_world(),
                                                 CollOp::Allreduce, 8,
                                                 Engine::Xccl, 1, 3);
    EXPECT_LT(mpi_small, xccl_small);
  });
}

TEST(OfflineTuner, AdoptedTableChangesDispatch) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 0});
  world.run([](fabric::RankContext& ctx) {
    XcclMpi rt(ctx);
    // Force an "mpi-everywhere" table and check a large message now routes
    // to MPI.
    rt.set_tuning(TuningTable::uniform(Engine::Mpi));
    device::DeviceBuffer buf(ctx.device(), 4u << 20);
    rt.allreduce(buf.get(), buf.get(), (4u << 20) / sizeof(float), mini::kFloat,
                 ReduceOp::Sum, rt.comm_world());
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
  });
}

TEST(UccBaseline, CollectivesCorrectAndSlowerThanHybridForSmall) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 0});
  world.run([](fabric::RankContext& ctx) {
    XcclMpi rt(ctx);
    UccBaseline ucc(ctx);
    const std::size_t n = 1024;  // 4 KB
    device::DeviceBuffer a(ctx.device(), n * sizeof(float));
    device::DeviceBuffer b(ctx.device(), n * sizeof(float));
    for (std::size_t i = 0; i < n; ++i) {
      a.as<float>()[i] = static_cast<float>(ctx.rank() + 1);
    }

    // Correctness.
    ucc.allreduce(a.get(), b.get(), n, mini::kFloat, ReduceOp::Sum,
                  ucc.comm_world());
    const int p = ctx.size();
    EXPECT_FLOAT_EQ(b.as<float>()[7], static_cast<float>(p * (p + 1) / 2));

    // Timing: hybrid (MPI for 4 KB) beats UCC (CCL launch + UCC overhead).
    ctx.sync_clocks();
    double t0 = ctx.clock().now();
    rt.allreduce(a.get(), b.get(), n, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    const double hybrid_lat = ctx.clock().now() - t0;
    ctx.sync_clocks();
    t0 = ctx.clock().now();
    ucc.allreduce(a.get(), b.get(), n, mini::kFloat, ReduceOp::Sum,
                  ucc.comm_world());
    const double ucc_lat = ctx.clock().now() - t0;
    EXPECT_LT(hybrid_lat, ucc_lat);
  });
}

TEST(UccBaseline, AlltoallPaysPerPeerComposition) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 0});
  world.run([](fabric::RankContext& ctx) {
    XcclMpi rt(ctx, {.mode = Mode::PureXccl});
    UccBaseline ucc(ctx);
    const int p = ctx.size();
    const std::size_t n = 1024;  // 4 KB blocks (the paper's 2.8x point)
    const auto up = static_cast<std::size_t>(p);
    device::DeviceBuffer send(ctx.device(), n * sizeof(float) * up);
    device::DeviceBuffer recv(ctx.device(), n * sizeof(float) * up);
    for (std::size_t i = 0; i < n * up; ++i) {
      send.as<float>()[i] = static_cast<float>(ctx.rank());
    }

    // Warm both comm caches outside the timed region.
    ucc.alltoall(send.get(), n, mini::kFloat, recv.get(), n, mini::kFloat,
                 ucc.comm_world());
    rt.alltoall(send.get(), n, mini::kFloat, recv.get(), n, mini::kFloat,
                rt.comm_world());

    ctx.sync_clocks();
    double t0 = ctx.clock().now();
    rt.alltoall(send.get(), n, mini::kFloat, recv.get(), n, mini::kFloat,
                rt.comm_world());
    const double ours = ctx.clock().now() - t0;

    ctx.sync_clocks();
    t0 = ctx.clock().now();
    ucc.alltoall(send.get(), n, mini::kFloat, recv.get(), n, mini::kFloat,
                 ucc.comm_world());
    const double theirs = ctx.clock().now() - t0;

    // Correct result either way.
    for (int r = 0; r < p; ++r) {
      ASSERT_FLOAT_EQ(recv.as<float>()[static_cast<std::size_t>(r) * n],
                      static_cast<float>(r));
    }
    // The paper's shape: batched group composition is substantially faster
    // (about 2.8x at 4 KB).
    EXPECT_GT(theirs, ours * 1.5);
  });
}

}  // namespace
}  // namespace mpixccl::core
