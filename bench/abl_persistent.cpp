// Ablation: persistent collectives. Three panels quantify what the plan
// cache and the start/wait hot path buy:
//
//   1. cold vs warm (virtual us): allreduce_init compiles the plan — tuning
//      decision, CCL bootstrap, hier subcomm splits, staging — so the first
//      call pays it once and every start/wait after replays for the wire
//      cost alone;
//   2. one-shot vs persistent (host ns): steady-state dispatch overhead per
//      call once the plan cache is warm (virtual time cannot see this —
//      the same bytes move either way), as medians over alternating batches
//      of each;
//   3. fused vs per-tensor gradients (img/sec): the Horovod trainer with
//      bucket fusion + persistent handles against one allreduce per layer.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "dl/horovod.hpp"
#include "fabric/world.hpp"
#include "sim/profiles.hpp"

using namespace mpixccl;

int main() {
  bench::header("Ablation: persistent collectives",
                "plan cache + start/wait hot path + gradient fusion");

  const sim::SystemProfile prof = sim::thetagpu();
  const int replays = bench::fast_mode() ? 4 : 16;
  const int reps = 9;
  const int host_iters = bench::fast_mode() ? 200 : 1000;

  core::TuningTable table;
  table.set_rules(core::CollOp::Allreduce,
                  {{16384, core::Engine::Mpi},
                   {1u << 20, core::Engine::Hier},
                   {SIZE_MAX, core::Engine::Xccl}});

  // --- Panel 1: cold build + first call vs warm replay (virtual us) ---------
  const std::vector<std::size_t> sizes = {4096, 262144, 4u << 20};
  omb::Series cold, warm;
  double oneshot_ns = 0.0, persistent_ns = 0.0;
  fabric::World world(fabric::WorldConfig{prof, 2, /*devices_per_node=*/2});
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx, {.tuning = table});
    auto& comm = rt.comm_world();
    device::DeviceBuffer send(ctx.device(), sizes.back());
    device::DeviceBuffer recv(ctx.device(), sizes.back());

    for (const std::size_t bytes : sizes) {
      const std::size_t count = bytes / sizeof(float);
      ctx.sync_clocks();
      double t0 = ctx.clock().now();
      core::Persistent h = rt.allreduce_init(
          send.as<float>(), recv.as<float>(), count, mini::kFloat,
          ReduceOp::Sum, comm);
      h.start();
      h.wait();
      ctx.sync_clocks();
      const double cold_us = ctx.clock().now() - t0;

      ctx.sync_clocks();
      t0 = ctx.clock().now();
      for (int i = 0; i < replays; ++i) {
        h.start();
        h.wait();
      }
      ctx.sync_clocks();
      const double warm_us = (ctx.clock().now() - t0) / replays;
      if (ctx.rank() == 0) {
        cold.push_back({bytes, cold_us});
        warm.push_back({bytes, warm_us});
      }
    }

    // --- Panel 2: steady-state dispatch, host ns per call -------------------
    const std::size_t count = 1024;
    rt.allreduce(send.get(), recv.get(), count, mini::kFloat, ReduceOp::Sum,
                 comm);  // warm the plan cache
    core::Persistent h = rt.allreduce_init(send.as<float>(), recv.as<float>(),
                                           count, mini::kFloat, ReduceOp::Sum,
                                           comm);
    // Batches of one-shot and persistent calls alternate, so both medians
    // see the same load on the machine.
    const auto [one, per] = bench::paired_median_ns(
        reps, host_iters,
        [&] {
          rt.allreduce(send.get(), recv.get(), count, mini::kFloat, ReduceOp::Sum,
                       comm);
        },
        [&] {
          h.start();
          h.wait();
        });
    if (ctx.rank() == 0) {
      oneshot_ns = one;
      persistent_ns = per;
    }
  });

  omb::print_series_table("persistent cold vs warm", "us",
                          {{"cold_build_first", cold}, {"warm_replay", warm}});
  omb::print_series_table(
      "steady-state dispatch", "ns",
      {{"oneshot", {{4096, oneshot_ns}}},
       {"persistent", {{4096, persistent_ns}}}});

  // --- Panel 3: fused buckets vs per-tensor reductions ---------------------
  dl::TrainerConfig cfg;
  cfg.persistent = true;
  cfg.warmup_steps = 1;
  cfg.steps = bench::fast_mode() ? 2 : 5;
  const dl::TrainerResult fused = dl::run_training(prof, 1, cfg);
  cfg.fusion_bytes = 1;  // every layer flushes its own bucket
  const dl::TrainerResult per_tensor = dl::run_training(prof, 1, cfg);
  omb::print_series_table(
      "trainer gradient reduction", "img/sec",
      {{"fused_persistent",
        {{static_cast<std::size_t>(fused.buckets_per_step),
          fused.images_per_sec}}},
       {"per_tensor",
        {{static_cast<std::size_t>(per_tensor.buckets_per_step),
          per_tensor.images_per_sec}}}});
  std::printf("buckets/step: fused=%d per-tensor=%d\n\n",
              fused.buckets_per_step, per_tensor.buckets_per_step);

  const double cold_big = bench::at(cold, sizes.back());
  const double warm_big = bench::at(warm, sizes.back());
  bench::shape_check("plan build amortizes: warm replay beats cold first call",
                     warm_big < cold_big);
  bench::shape_check("persistent start/wait no slower than one-shot dispatch",
                     persistent_ns <= oneshot_ns * 1.10);
  bench::shape_check("fused buckets outrun per-tensor reductions",
                     fused.images_per_sec > per_tensor.images_per_sec);
  return 0;
}
