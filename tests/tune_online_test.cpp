// Tests for the online adaptive-tuning subsystem (src/tune/): its XcclMpi
// integration (range retunes of the runtime's tuning table, targeted plan
// invalidation) and the OnlineTuner controller (convergence away from a
// mis-tuned table, hysteresis, freeze settling, audit records, env config
// parsing). TuningTable::set_range itself is tested in core_tuning_test.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "obs/obs.hpp"
#include "sim/profiles.hpp"
#include "tune/online.hpp"

namespace mpixccl::tune {
namespace {

using core::CollOp;
using core::Engine;
using core::TuningTable;

TEST(BandBytes, EdgesMatchObsSizeBands) {
  for (std::size_t band = 0; band < obs::kSizeBands; ++band) {
    EXPECT_EQ(obs::size_band_of(band_lo_bytes(band)), band);
    EXPECT_EQ(obs::size_band_of(band_hi_bytes(band)), band);
  }
  EXPECT_EQ(band_lo_bytes(0), 0u);
  EXPECT_EQ(band_hi_bytes(obs::kSizeBands - 1), SIZE_MAX);
  EXPECT_THROW((void)band_lo_bytes(obs::kSizeBands), Error);
}

// ---- XcclMpi integration ----------------------------------------------------

void with_runtime(const std::function<void(core::XcclMpi&, fabric::RankContext&)>& body) {
  core::TuningTable table;
  table.set_rules(CollOp::Allreduce, {{16384, Engine::Mpi},
                                      {1u << 20, Engine::Hier},
                                      {SIZE_MAX, Engine::Xccl}});
  fabric::World world(
      fabric::WorldConfig{sim::thetagpu(), 2, /*devices_per_node=*/2});
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx, {.tuning = table});
    body(rt, ctx);
  });
}

TEST(RetuneRange, ChangesDispatchPick) {
  with_runtime([](core::XcclMpi& rt, fabric::RankContext& ctx) {
    auto& comm = rt.comm_world();
    device::DeviceBuffer send(ctx.device(), 8 << 20), recv(ctx.device(), 8 << 20);
    rt.allreduce(send.get(), recv.get(), 1024, mini::kFloat, ReduceOp::Sum,
                 comm);  // 4096 B -> static mpi
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
    rt.retune_range(CollOp::Allreduce, 0, 4096, Engine::Xccl);
    rt.allreduce(send.get(), recv.get(), 1024, mini::kFloat, ReduceOp::Sum,
                 comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);
    // Other sizes keep their picks: the retune split the table, not replaced.
    rt.allreduce(send.get(), recv.get(), 2 << 20, mini::kFloat, ReduceOp::Sum,
                 comm);  // 8 MB -> xccl tail
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);
  });
}

TEST(RetuneRange, InvalidatesOnlyTheRetunedBandPlans) {
  with_runtime([](core::XcclMpi& rt, fabric::RankContext& ctx) {
    auto& comm = rt.comm_world();
    device::DeviceBuffer send(ctx.device(), 8 << 20), recv(ctx.device(), 8 << 20);
    // Warm one plan per table regime: 4 KB (mpi), 256 KB (hier), 8 MB (xccl).
    for (std::size_t count : {std::size_t{1024}, std::size_t{65536},
                              std::size_t{2u << 20}}) {
      rt.allreduce(send.get(), recv.get(), count, mini::kFloat, ReduceOp::Sum,
                   comm);
    }
    rt.plan_cache().reset_stats();
    ASSERT_EQ(rt.plan_cache().size(), 3u);

    // Flip only the small band; the single-arm switch every online-tuner
    // step performs must not cost the other regimes their plans.
    const std::size_t dropped =
        rt.retune_range(CollOp::Allreduce, 0, 4096, Engine::Xccl);
    EXPECT_EQ(dropped, 1u);
    EXPECT_EQ(rt.plan_cache().size(), 2u);
    EXPECT_EQ(rt.plan_cache().stats().invalidations, 1u);

    // Untouched plans still hit; the retuned size rebuilds once then hits.
    for (std::size_t count : {std::size_t{65536}, std::size_t{2u << 20}}) {
      rt.allreduce(send.get(), recv.get(), count, mini::kFloat, ReduceOp::Sum,
                   comm);
    }
    EXPECT_EQ(rt.plan_cache().stats().hits, 2u);
    EXPECT_EQ(rt.plan_cache().stats().misses, 0u);
    rt.allreduce(send.get(), recv.get(), 1024, mini::kFloat, ReduceOp::Sum,
                 comm);
    EXPECT_EQ(rt.plan_cache().stats().misses, 1u);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);
  });
}

TEST(RetuneRange, RetuneInsideAPlanBandInvalidatesIt) {
  with_runtime([](core::XcclMpi& rt, fabric::RankContext& ctx) {
    auto& comm = rt.comm_world();
    device::DeviceBuffer send(ctx.device(), 1 << 20), recv(ctx.device(), 1 << 20);
    rt.allreduce(send.get(), recv.get(), 1024, mini::kFloat, ReduceOp::Sum,
                 comm);  // plan band [0, 16384]
    // A rewrite strictly inside the plan's validity band must still kill it
    // (the band no longer sits inside one homogeneous rule).
    const std::size_t dropped =
        rt.retune_range(CollOp::Allreduce, 2048, 8192, Engine::Xccl);
    EXPECT_EQ(dropped, 1u);
  });
}

TEST(RetuneRange, NoopRetuneKeepsMatchingPlans) {
  with_runtime([](core::XcclMpi& rt, fabric::RankContext& ctx) {
    auto& comm = rt.comm_world();
    device::DeviceBuffer send(ctx.device(), 1 << 20), recv(ctx.device(), 1 << 20);
    rt.allreduce(send.get(), recv.get(), 1024, mini::kFloat, ReduceOp::Sum,
                 comm);
    // Re-pointing the band at the engine it already selects drops nothing.
    EXPECT_EQ(rt.retune_range(CollOp::Allreduce, 0, 16384, Engine::Mpi), 0u);
  });
}

// Restoring the static table is set_tuning(original): the retune, every
// plan and the retuned pick all go.
TEST(RetuneRange, ClearAdaptiveRestoresStaticTable) {
  with_runtime([](core::XcclMpi& rt, fabric::RankContext& ctx) {
    auto& comm = rt.comm_world();
    device::DeviceBuffer send(ctx.device(), 1 << 20), recv(ctx.device(), 1 << 20);
    const core::TuningTable original = rt.tuning();
    rt.retune_range(CollOp::Allreduce, 0, 4096, Engine::Xccl);
    rt.allreduce(send.get(), recv.get(), 1024, mini::kFloat, ReduceOp::Sum,
                 comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);
    rt.set_tuning(original);
    EXPECT_EQ(rt.tuning().serialize(), original.serialize());
    EXPECT_EQ(rt.plan_cache().size(), 0u);
    rt.allreduce(send.get(), recv.get(), 1024, mini::kFloat, ReduceOp::Sum,
                 comm);
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Mpi);
  });
}

// set_tuning replaces the whole table: no retuned band survives it.
TEST(RetuneRange, SetTuningClearsTheOverlay) {
  with_runtime([](core::XcclMpi& rt, fabric::RankContext&) {
    rt.retune_range(CollOp::Allreduce, 0, 4096, Engine::Xccl);
    const auto uniform = core::TuningTable::uniform(Engine::Mpi);
    rt.set_tuning(uniform);
    EXPECT_EQ(rt.tuning().serialize(), uniform.serialize());
    EXPECT_EQ(rt.tuning().select(CollOp::Allreduce, 1024), Engine::Mpi);
  });
}

// ---- OnlineTuner ------------------------------------------------------------

/// Drive `steps` rounds of one-call-per-size traffic + one tuner step on a
/// 2x2 thetagpu world starting from `table`; returns rank 0's tuner state
/// via the inspect callback.
void run_tuner(const core::TuningTable& table, OnlineTunerConfig cfg,
               int steps, const std::vector<std::size_t>& sizes,
               const std::function<void(OnlineTuner&, core::XcclMpi&,
                                        mini::Comm&)>& inspect,
               bool settle = true) {
  obs::set_level(obs::Level::Decisions);
  obs::Registry::instance().reset();
  obs::DecisionLog::instance().clear();
  fabric::World world(
      fabric::WorldConfig{sim::thetagpu(), 2, /*devices_per_node=*/2});
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx, {.tuning = table});
    auto& comm = rt.comm_world();
    OnlineTuner tuner(cfg);
    device::DeviceBuffer send(ctx.device(), 8 << 20), recv(ctx.device(), 8 << 20);
    for (int s = 0; s < steps; ++s) {
      for (std::size_t bytes : sizes) {
        rt.allreduce(send.get(), recv.get(), bytes / sizeof(float),
                     mini::kFloat, ReduceOp::Sum, comm);
      }
      tuner.step(rt, comm);
    }
    if (settle) {
      // Revert any in-flight exploration so inspect sees the converged
      // table, not whichever challenger step N happened to install.
      tuner.freeze();
      tuner.step(rt, comm);
    }
    if (ctx.rank() == 0) inspect(tuner, rt, comm);
  });
}

OnlineTunerConfig fast_config() {
  OnlineTunerConfig cfg;
  cfg.epsilon = 0.5;
  cfg.min_samples = 4;
  cfg.halving_every = 8;
  cfg.seed = 0x7e57ULL;
  return cfg;
}

TEST(OnlineTuner, RecoversLargeBandFromMistunedTable) {
  // Static table pins everything to flat MPI; on a 2x2 GPU world the 4 MB
  // band is ~2x faster elsewhere, so the tuner must switch it.
  core::TuningTable mistuned;
  mistuned.set_rules(CollOp::Allreduce, {{SIZE_MAX, Engine::Mpi}});
  run_tuner(mistuned, fast_config(), 40, {2048, 4u << 20},
            [](OnlineTuner& tuner, core::XcclMpi& rt, mini::Comm&) {
              ASSERT_EQ(tuner.cells().size(), 2u);
              const CellState& big = tuner.cells().at({CollOp::Allreduce, 3});
              EXPECT_NE(big.leader, Engine::Mpi);
              EXPECT_GE(big.switches, 1u);
              EXPECT_NE(rt.tuning().select(CollOp::Allreduce, 4u << 20), Engine::Mpi);
              // The mutation trail is in the history...
              bool switched = false;
              for (const TuneEvent& e : tuner.history()) {
                switched |= e.kind == obs::TuneAudit::Switch && e.band == 3;
              }
              EXPECT_TRUE(switched);
              // ...and audited in the decision log, range edges included.
              bool audited = false;
              for (const auto& d : obs::DecisionLog::instance().records()) {
                audited |= d.tune == obs::TuneAudit::Switch &&
                           d.bytes == band_lo_bytes(3) &&
                           d.breakpoint == band_hi_bytes(3) &&
                           d.table_choice == Engine::Mpi;
              }
              EXPECT_TRUE(audited);
              // tune.* telemetry mirrors the history.
              EXPECT_GE(obs::Registry::instance()
                            .counter("tune.switches")
                            .value(),
                        1);
            });
}

TEST(OnlineTuner, FallbackTallySameAtEveryObsLevel) {
  // Runtime fallbacks reach the tuner through registry counters, so the
  // observability level cannot change what an arm is charged. The xCCL
  // backends refuse double complex: every xccl install falls back to MPI.
  core::TuningTable table;
  table.set_rules(CollOp::Allreduce, {{SIZE_MAX, Engine::Xccl}});
  const auto xccl_fallbacks = [&table](obs::Level level) {
    obs::set_level(level);
    obs::Registry::instance().reset();
    obs::DecisionLog::instance().clear();
    std::uint64_t fallbacks = 0;
    constexpr std::size_t kBytes = 64 << 10;
    fabric::World world(fabric::WorldConfig{sim::thetagpu(), 2, 2});
    world.run([&](fabric::RankContext& ctx) {
      core::XcclMpi rt(ctx, {.tuning = table});
      auto& comm = rt.comm_world();
      OnlineTuner tuner(fast_config());
      device::DeviceBuffer send(ctx.device(), kBytes), recv(ctx.device(), kBytes);
      for (int s = 0; s < 40; ++s) {
        rt.allreduce(send.get(), recv.get(), kBytes / mini::kDoubleComplex.size(),
                     mini::kDoubleComplex, ReduceOp::Sum, comm);
        rt.mpi().barrier(comm);  // every rank's call is counted before observe
        tuner.step(rt, comm);
      }
      if (ctx.rank() == 0) {
        fallbacks = tuner.cells()
                        .at({CollOp::Allreduce, obs::size_band_of(kBytes)})
                        .arms[static_cast<std::size_t>(Engine::Xccl)]
                        .fallbacks;
      }
    });
    return fallbacks;
  };
  const std::uint64_t at_metrics = xccl_fallbacks(obs::Level::Metrics);
  EXPECT_GT(at_metrics, 0u);
  EXPECT_EQ(xccl_fallbacks(obs::Level::Decisions), at_metrics);
  obs::DecisionLog::instance().clear();
  obs::set_level(obs::Level::Metrics);
}

TEST(OnlineTuner, HysteresisKeepsTiedLeader) {
  // With an impossible improvement bar no switch may ever fire, no matter
  // how long the loop runs: exploration reverts every time.
  core::TuningTable mistuned;
  mistuned.set_rules(CollOp::Allreduce, {{SIZE_MAX, Engine::Mpi}});
  OnlineTunerConfig cfg = fast_config();
  cfg.min_improvement = 1.0;  // nothing is 100% faster
  run_tuner(mistuned, cfg, 30, {4u << 20},
            [](OnlineTuner& tuner, core::XcclMpi& rt, mini::Comm&) {
              for (const TuneEvent& e : tuner.history()) {
                EXPECT_NE(e.kind, obs::TuneAudit::Switch);
              }
              const CellState& big = tuner.cells().at({CollOp::Allreduce, 3});
              EXPECT_EQ(big.leader, Engine::Mpi);
              EXPECT_EQ(rt.tuning().select(CollOp::Allreduce, 4u << 20), Engine::Mpi);
            });
}

TEST(OnlineTuner, FreezeSettlesInFlightExploration) {
  core::TuningTable mistuned;
  mistuned.set_rules(CollOp::Allreduce, {{SIZE_MAX, Engine::Mpi}});
  OnlineTunerConfig cfg = fast_config();
  cfg.epsilon = 1.0;          // always exploring
  cfg.min_samples = 1000000;  // never enough samples to conclude
  run_tuner(mistuned, cfg, 6, {4u << 20},
            [](OnlineTuner& tuner, core::XcclMpi& rt, mini::Comm& comm) {
              const CellState& before =
                  tuner.cells().at({CollOp::Allreduce, 3});
              ASSERT_TRUE(before.exploring);
              tuner.freeze();
              tuner.step(rt, comm);  // settling step
              const CellState& c = tuner.cells().at({CollOp::Allreduce, 3});
              EXPECT_FALSE(c.exploring);
              EXPECT_EQ(c.installed, c.leader);
              EXPECT_EQ(rt.tuning().select(CollOp::Allreduce, 4u << 20), c.leader);
              // Further frozen steps are empty but still collective-safe.
              const std::size_t mutations = tuner.history().size();
              tuner.step(rt, comm);
              EXPECT_EQ(tuner.history().size(), mutations);
            },
            /*settle=*/false);  // this test drives the settle itself
}

TEST(OnlineTuner, HierArmPreEliminatedForUnsupportedOps) {
  // Alltoall is outside the hier engine's set: its hier arm must be born
  // eliminated so exploration never wastes installs on remapped picks.
  core::TuningTable table;
  table.set_rules(CollOp::Alltoall, {{SIZE_MAX, Engine::Mpi}});
  obs::set_level(obs::Level::Decisions);
  obs::Registry::instance().reset();
  obs::DecisionLog::instance().clear();
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 2, 2});
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx, {.tuning = table});
    auto& comm = rt.comm_world();
    OnlineTuner tuner(fast_config());
    device::DeviceBuffer send(ctx.device(), 1 << 20), recv(ctx.device(), 1 << 20);
    for (int s = 0; s < 6; ++s) {
      rt.alltoall(send.get(), 256, mini::kFloat, recv.get(), 256, mini::kFloat,
                  comm);
      tuner.step(rt, comm);
    }
    if (ctx.rank() == 0) {
      const CellState& c = tuner.cells().at({CollOp::Alltoall, 0});
      EXPECT_EQ(c.arms[static_cast<std::size_t>(Engine::Hier)].status,
                ArmStatus::Eliminated);
    }
  });
}

TEST(OnlineTuner, ConstructorValidatesConfig) {
  const auto with = [](double epsilon, std::uint64_t halving_every) {
    OnlineTunerConfig c;
    c.epsilon = epsilon;
    c.halving_every = halving_every;
    return c;
  };
  EXPECT_NO_THROW(OnlineTuner{with(0.0, 1)});
  EXPECT_NO_THROW(OnlineTuner{with(1.0, 1)});
  EXPECT_THROW(OnlineTuner{with(1.5, 4)}, Error);
  EXPECT_THROW(OnlineTuner{with(-0.1, 4)}, Error);
  EXPECT_THROW(OnlineTuner{with(0.1, 0)}, Error);
  const OnlineTuner defaults;
  EXPECT_EQ(defaults.config().seed, 0x5eedu);
}

TEST(OnlineTunerConfigEnv, MasterSwitchParsing) {
  unsetenv("MPIXCCL_TUNE_ONLINE");
  EXPECT_FALSE(online_tuning_enabled());
  for (const char* off : {"", "0", "off", "false"}) {
    setenv("MPIXCCL_TUNE_ONLINE", off, 1);
    EXPECT_FALSE(online_tuning_enabled()) << "'" << off << "'";
  }
  for (const char* on : {"1", "on", "yes"}) {
    setenv("MPIXCCL_TUNE_ONLINE", on, 1);
    EXPECT_TRUE(online_tuning_enabled()) << "'" << on << "'";
  }
  setenv("MPIXCCL_TUNE_ONLINE", "true", 1);
  EXPECT_TRUE(online_tuning_enabled());
  // A misspelt value fails loudly, naming the variable and the value.
  for (const char* bad : {"of", "2", "ON", "yes "}) {
    setenv("MPIXCCL_TUNE_ONLINE", bad, 1);
    try {
      (void)online_tuning_enabled();
      ADD_FAILURE() << "'" << bad << "' did not throw";
    } catch (const Error& e) {
      const std::string want = std::string("MPIXCCL_TUNE_ONLINE='") + bad + "'";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
    }
  }
  unsetenv("MPIXCCL_TUNE_ONLINE");
}

TEST(TunerCApi, CreateStepReportDestroy) {
  obs::set_level(obs::Level::Decisions);
  obs::Registry::instance().reset();
  core::TuningTable table;
  table.set_rules(CollOp::Allreduce, {{SIZE_MAX, Engine::Mpi}});
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 2});
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx, {.tuning = table});
    auto& comm = rt.comm_world();
    mpixcclTuner_t tuner = mpixcclTunerCreate();
    device::DeviceBuffer send(ctx.device(), 1 << 20), recv(ctx.device(), 1 << 20);
    rt.allreduce(send.get(), recv.get(), 1024, mini::kFloat, ReduceOp::Sum,
                 comm);
    mpixcclTunerStep(tuner, &rt, &comm);
    mpixcclTunerFreeze(tuner);
    if (ctx.rank() == 0) {
      const std::string report = mpixcclTunerReport(tuner);
      EXPECT_NE(report.find("online tuner: 1 steps"), std::string::npos);
    }
    mpixcclTunerDestroy(tuner);
    EXPECT_THROW(mpixcclTunerStep(nullptr, &rt, &comm), Error);
  });
}

}  // namespace
}  // namespace mpixccl::tune
