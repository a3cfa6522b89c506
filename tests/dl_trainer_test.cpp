// Tests for the synthetic models and the Horovod-style trainer.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "dl/horovod.hpp"
#include "dl/model.hpp"
#include "fabric/world.hpp"
#include "obs/analyze.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "sim/profiles.hpp"
#include "sim/trace.hpp"
#include "tune/online.hpp"

namespace mpixccl::dl {
namespace {

TEST(Models, ParameterCountsAreRealistic) {
  // Real ResNet-50: 25.6M; VGG-16: 138M; BERT-base: 110M.
  EXPECT_NEAR(static_cast<double>(Model::resnet50().total_params()), 25.6e6,
              4.0e6);
  EXPECT_NEAR(static_cast<double>(Model::vgg16().total_params()), 138.0e6,
              10.0e6);
  EXPECT_NEAR(static_cast<double>(Model::bert_base().total_params()), 110.0e6,
              15.0e6);
  EXPECT_GT(Model::resnet50().layers.size(), 50u);
  EXPECT_GT(Model::bert_base().layers.size(), 90u);
}

TrainerConfig quick_config(omb::Flavor flavor) {
  TrainerConfig cfg;
  cfg.flavor = flavor;
  cfg.batch_size = 32;
  cfg.warmup_steps = 1;
  cfg.steps = 3;
  return cfg;
}

TEST(Trainer, ProducesPositiveThroughput) {
  const TrainerResult r =
      run_training(sim::mri(), 1, quick_config(omb::Flavor::HybridXccl));
  EXPECT_GT(r.images_per_sec, 0.0);
  EXPECT_GT(r.step_time_us, 0.0);
  EXPECT_GT(r.buckets_per_step, 3);
}

TEST(Trainer, OverlapBeatsNoOverlap) {
  TrainerConfig with = quick_config(omb::Flavor::PureXcclInMpi);
  TrainerConfig without = with;
  without.overlap = false;
  const double t_with =
      run_training(sim::thetagpu(), 1, with).images_per_sec;
  const double t_without =
      run_training(sim::thetagpu(), 1, without).images_per_sec;
  EXPECT_GT(t_with, t_without);
}

TEST(Trainer, LargerBatchAmortizesCommunication) {
  TrainerConfig small = quick_config(omb::Flavor::HybridXccl);
  small.batch_size = 16;
  TrainerConfig large = small;
  large.batch_size = 64;
  const TrainerResult r_small = run_training(sim::thetagpu(), 1, small);
  const TrainerResult r_large = run_training(sim::thetagpu(), 1, large);
  EXPECT_GE(r_large.images_per_sec, r_small.images_per_sec * 0.98);
}

TEST(Trainer, HybridBeatsNonOverlappedPureCcl) {
  // The paper's Fig. 8 shape: our runtime vs the vendor-CCL Horovod build
  // that reduces after backward (25% on AMD at the application level).
  TrainerConfig ours = quick_config(omb::Flavor::HybridXccl);
  TrainerConfig vendor = quick_config(omb::Flavor::PureCcl);
  vendor.overlap = false;
  const double t_ours = run_training(sim::mri(), 4, ours).images_per_sec;
  const double t_vendor = run_training(sim::mri(), 4, vendor).images_per_sec;
  EXPECT_GT(t_ours, t_vendor * 1.05);
}

TEST(Trainer, MscclBackendRuns) {
  TrainerConfig cfg = quick_config(omb::Flavor::PureXcclInMpi);
  cfg.backend = xccl::CclKind::Msccl;
  const TrainerResult r = run_training(sim::thetagpu(), 1, cfg);
  EXPECT_GT(r.images_per_sec, 0.0);
}

TEST(Trainer, HabanaMatchesPureHcclClosely) {
  // Fig. 9: xCCL over HCCL within ~1% of pure HCCL (both overlapped there).
  TrainerConfig ours = quick_config(omb::Flavor::PureXcclInMpi);
  TrainerConfig vendor = quick_config(omb::Flavor::PureCcl);
  const double t_ours = run_training(sim::voyager(), 1, ours).images_per_sec;
  const double t_vendor = run_training(sim::voyager(), 1, vendor).images_per_sec;
  EXPECT_NEAR(t_ours, t_vendor, t_vendor * 0.08);
}

TEST(Trainer, CommWaitDropsWithOverlap) {
  TrainerConfig with = quick_config(omb::Flavor::PureXcclInMpi);
  TrainerConfig without = with;
  without.overlap = false;
  const TrainerResult r_with = run_training(sim::thetagpu(), 2, with);
  const TrainerResult r_without = run_training(sim::thetagpu(), 2, without);
  // Without overlap the comm cost shows up during the bucket loop, not the
  // final wait; with overlap the wait absorbs only the unhidden tail.
  EXPECT_LT(r_with.step_time_us, r_without.step_time_us);
}

TEST(Trainer, PersistentMatchesOneShotTiming) {
  // The persistent path replays the same engines over the same bytes, so
  // virtual step time must match the per-step iallreduce dispatch; only
  // host-side overhead differs, which virtual clocks cannot see.
  TrainerConfig oneshot = quick_config(omb::Flavor::HybridXccl);
  TrainerConfig persistent = oneshot;
  persistent.persistent = true;
  const TrainerResult r_one = run_training(sim::thetagpu(), 1, oneshot);
  const TrainerResult r_per = run_training(sim::thetagpu(), 1, persistent);
  EXPECT_GT(r_per.images_per_sec, 0.0);
  EXPECT_EQ(r_per.buckets_per_step, r_one.buckets_per_step);
  EXPECT_NEAR(r_per.step_time_us, r_one.step_time_us,
              r_one.step_time_us * 0.02);
}

TEST(Trainer, PersistentRunsOnAllXcclMpiFlavors) {
  for (const omb::Flavor flavor :
       {omb::Flavor::HybridXccl, omb::Flavor::PureXcclInMpi,
        omb::Flavor::GpuAwareMpi}) {
    TrainerConfig cfg = quick_config(flavor);
    cfg.persistent = true;
    cfg.steps = 2;
    EXPECT_GT(run_training(sim::mri(), 1, cfg).images_per_sec, 0.0)
        << to_string(flavor);
  }
}

TEST(Trainer, FusionBytesControlsBucketCount) {
  TrainerConfig per_tensor = quick_config(omb::Flavor::PureXcclInMpi);
  per_tensor.fusion_bytes = 1;  // every layer flushes its own bucket
  per_tensor.steps = 2;
  TrainerConfig fused = per_tensor;
  fused.fusion_bytes = 8u << 20;
  const TrainerResult r_pt = run_training(sim::thetagpu(), 1, per_tensor);
  const TrainerResult r_f = run_training(sim::thetagpu(), 1, fused);
  EXPECT_EQ(r_pt.buckets_per_step,
            static_cast<int>(per_tensor.model.layers.size()));
  EXPECT_LT(r_f.buckets_per_step, r_pt.buckets_per_step);
  EXPECT_GT(r_f.images_per_sec, 0.0);
}

TEST(Trainer, FusionBytesEnvParsing) {
  unsetenv("MPIXCCL_FUSION_BYTES");
  EXPECT_EQ(default_fusion_bytes(), 2u << 20);
  setenv("MPIXCCL_FUSION_BYTES", "", 1);
  EXPECT_EQ(default_fusion_bytes(), 2u << 20);
  setenv("MPIXCCL_FUSION_BYTES", "4096", 1);
  EXPECT_EQ(default_fusion_bytes(), 4096u);
  // A malformed value fails loudly, naming the variable and the value.
  for (const char* bad : {"2M", "0", "abc", "-5", " 5", "99999999999999999999999"}) {
    setenv("MPIXCCL_FUSION_BYTES", bad, 1);
    try {
      (void)default_fusion_bytes();
      ADD_FAILURE() << "'" << bad << "' did not throw";
    } catch (const Error& e) {
      const std::string want = std::string("MPIXCCL_FUSION_BYTES='") + bad + "'";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
    }
  }
  unsetenv("MPIXCCL_FUSION_BYTES");
}

TEST(Trainer, FusedBucketReductionMatchesPerTensor) {
  // Gradient math is invariant under fusion: one persistent allreduce over
  // the concatenated bucket must produce bit-identical floats to a separate
  // allreduce per layer slice.
  const std::vector<std::size_t> layers = {300, 500, 220, 1000};
  const std::size_t total =
      std::accumulate(layers.begin(), layers.end(), std::size_t{0});
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 0});
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx);
    auto& comm = rt.comm_world();
    device::DeviceBuffer grads(ctx.device(), total * sizeof(float));
    device::DeviceBuffer fused(ctx.device(), total * sizeof(float));
    device::DeviceBuffer per_tensor(ctx.device(), total * sizeof(float));
    for (std::size_t i = 0; i < total; ++i) {
      grads.as<float>()[i] = static_cast<float>(ctx.rank() + 1) * 0.125f +
                             static_cast<float>(i % 29) * 0.0625f;
    }

    core::Persistent h =
        rt.allreduce_init(grads.as<float>(), fused.as<float>(), total,
                          mini::kFloat, ReduceOp::Sum, comm);
    h.start();
    h.wait();

    std::size_t off = 0;
    for (const std::size_t n : layers) {
      rt.allreduce(grads.as<float>() + off, per_tensor.as<float>() + off, n,
                   mini::kFloat, ReduceOp::Sum, comm);
      off += n;
    }
    EXPECT_EQ(
        std::memcmp(fused.get(), per_tensor.get(), total * sizeof(float)), 0);
  });
}


TEST(Trainer, AsyncAndPersistentBucketsFeedTelemetry) {
  // The trainer issues its buckets as iallreduce or persistent starts, never
  // as blocking calls; each must still close one completion record. Fleet
  // profiling is switched on directly (what MPIXCCL_FLEET=1 arms).
  sim::SystemProfile prof = sim::thetagpu();
  prof.devices_per_node = 2;  // thetagpu 2 x 2
  const int ranks = 4;
  for (const bool persistent : {false, true}) {
    SCOPED_TRACE(persistent ? "persistent" : "iallreduce");
    obs::Registry::instance().reset();
    obs::FlightRecorder::instance().clear();
    obs::fleet::reset();
    obs::fleet::set_profiling(true);
    auto& trace = sim::Trace::instance();
    trace.clear();
    trace.set_enabled(true);
    TrainerConfig cfg = quick_config(omb::Flavor::HybridXccl);
    cfg.persistent = persistent;
    const TrainerResult r = run_training(prof, 2, cfg);
    trace.set_enabled(false);
    obs::fleet::set_profiling(false);

    // Band latency: one sample per bucket, step and rank.
    const std::uint64_t calls = static_cast<std::uint64_t>(r.buckets_per_step) *
                                static_cast<std::uint64_t>(
                                    cfg.warmup_steps + cfg.steps) *
                                ranks;
    std::uint64_t samples = 0;
    for (const core::Engine e :
         {core::Engine::Mpi, core::Engine::Xccl, core::Engine::Hier}) {
      for (std::size_t band = 0; band < obs::kSizeBands; ++band) {
        samples += obs::Registry::instance()
                       .band_latency(core::CollOp::Allreduce, e, band)
                       .count;
      }
    }
    EXPECT_EQ(samples, calls);

    // Fleet board: per-(collective, band) skew rounds for the buckets.
    std::vector<obs::fleet::RankState> states;
    for (int rank = 0; rank < ranks; ++rank) {
      states.push_back(obs::fleet::local_rank_state(rank));
    }
    const obs::fleet::FleetSnapshot snap =
        obs::fleet::assemble(std::move(states), "thetagpu", "2x2");
    std::uint64_t rounds = 0;
    for (const obs::fleet::SkewCell& c : snap.skew) {
      if (c.op == core::CollOp::Allreduce) rounds += c.rounds;
    }
    EXPECT_EQ(rounds, calls / ranks);

    // Flight recorder and Chrome trace.
    bool flight = false;
    for (const obs::DispatchDecision& d :
         obs::FlightRecorder::instance().records()) {
      flight = flight || d.op == core::CollOp::Allreduce;
    }
    EXPECT_TRUE(flight);
    bool traced = false;
    for (const sim::TraceEvent& e : trace.events()) {
      traced = traced || e.name() == "allreduce";
    }
    EXPECT_TRUE(traced);

    // The online tuner scores arms from those samples.
    fabric::World world(fabric::WorldConfig{prof, 2, 0});
    world.run([&](fabric::RankContext& ctx) {
      core::XcclMpi rt(ctx);
      tune::OnlineTuner tuner;
      tuner.step(rt, rt.comm_world());
      if (ctx.rank() != 0) return;
      std::uint64_t seen = 0;
      for (const auto& [key, cell] : tuner.cells()) {
        if (key.first != core::CollOp::Allreduce) continue;
        for (const tune::ArmState& arm : cell.arms) seen += arm.samples;
      }
      EXPECT_GT(seen, 0u);
    });
    obs::fleet::reset();
    trace.clear();
  }
}

}  // namespace
}  // namespace mpixccl::dl
