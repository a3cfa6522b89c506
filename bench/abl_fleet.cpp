// Ablation: fleet health telemetry. Three panels quantify what the
// cross-rank telemetry layer costs and what it can attribute:
//
//   1. hot-path cost (host ns/call): dispatch overhead with the fleet layer
//      disabled (the always-on relaxed seq bump) vs arrival profiling on —
//      the "observability tax" a production run pays;
//   2. straggler attribution: one rank's local work slowed 5x via the fault
//      injector; the gathered fleet snapshot must name that rank as the top
//      straggler and point at the hier level where the skew concentrates;
//   3. the versioned mpixccl.fleet.v1 snapshot itself, written to
//      MPIXCCL_FLEET_OUT when set (CI validates the document's shape).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "core/fleet_gather.hpp"
#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "obs/decision.hpp"
#include "obs/fleet.hpp"
#include "sim/fault.hpp"
#include "sim/profiles.hpp"

using namespace mpixccl;

namespace {

core::TuningTable three_engine_table() {
  core::TuningTable table;
  table.set_rules(core::CollOp::Allreduce,
                  {{16384, core::Engine::Mpi},
                   {1u << 20, core::Engine::Hier},
                   {SIZE_MAX, core::Engine::Xccl}});
  return table;
}

}  // namespace

int main() {
  bench::header("Ablation: fleet health telemetry",
                "arrival-skew profiling, straggler attribution, fleet.v1");

  const sim::SystemProfile prof = sim::thetagpu();
  const int host_iters = bench::fast_mode() ? 200 : 1000;
  const int rounds = bench::fast_mode() ? 6 : 16;
  const core::TuningTable table = three_engine_table();

  // --- Panel 1: dispatch cost, fleet off vs profiling on (host ns) ----------
  obs::fleet::reset();
  obs::fleet::set_profiling(false);
  double off_ns = 0.0, on_ns = 0.0;
  {
    fabric::World world(fabric::WorldConfig{prof, 1, /*devices_per_node=*/2});
    world.run([&](fabric::RankContext& ctx) {
      core::XcclMpi rt(ctx, {.tuning = table});
      auto& comm = rt.comm_world();
      device::DeviceBuffer send(ctx.device(), 4096);
      device::DeviceBuffer recv(ctx.device(), 4096);
      const auto run = [&] {
        const double t0 = bench::now_ns();
        for (int i = 0; i < host_iters; ++i) {
          rt.allreduce(send.get(), recv.get(), 1024, mini::kFloat,
                       ReduceOp::Sum, comm);
        }
        return (bench::now_ns() - t0) / host_iters;
      };
      rt.allreduce(send.get(), recv.get(), 1024, mini::kFloat, ReduceOp::Sum,
                   comm);  // warm the plan cache
      const double off = run();
      ctx.barrier();
      if (ctx.rank() == 0) obs::fleet::set_profiling(true);
      ctx.barrier();
      const double on = run();
      if (ctx.rank() == 0) {
        off_ns = off;
        on_ns = on;
        obs::fleet::set_profiling(false);
      }
      ctx.barrier();
    });
  }
  std::printf("dispatch hot path (2 ranks, 4KB allreduce, host ns/call):\n");
  std::printf("  fleet disabled : %10.1f ns\n", off_ns);
  std::printf("  profiling on   : %10.1f ns\n\n", on_ns);

  // --- Panel 2: straggler attribution under a 5x slowdown of rank 3 ---------
  obs::fleet::reset();
  obs::fleet::set_profiling(true);
  obs::DecisionLog::instance().set_enabled(true);
  obs::fleet::FleetSnapshot snap;
  {
    fabric::WorldConfig wc{prof, 2, /*devices_per_node=*/2};
    wc.faults = "slow=3:5";
    fabric::World world(wc);
    world.run([&](fabric::RankContext& ctx) {
      core::XcclMpi rt(ctx, {.tuning = table});
      auto& comm = rt.comm_world();
      device::DeviceBuffer send(ctx.device(), 4u << 20);
      device::DeviceBuffer recv(ctx.device(), 4u << 20);
      for (int s = 0; s < rounds; ++s) {
        for (const std::size_t bytes :
             {std::size_t{4096}, std::size_t{262144}, std::size_t{4u << 20}}) {
          // Rank-local compute phase: the injected clock scale stretches it
          // 5x on rank 3, so rank 3 arrives late at the next collective.
          ctx.clock().advance(200.0);
          rt.allreduce(send.get(), recv.get(), bytes / sizeof(float),
                       mini::kFloat, ReduceOp::Sum, comm);
        }
      }
      obs::fleet::FleetSnapshot local = core::gather_fleet(rt, comm);
      if (ctx.rank() == 0) snap = std::move(local);
    });
  }
  sim::FaultInjector::instance().clear();
  obs::fleet::set_profiling(false);
  obs::DecisionLog::instance().set_enabled(false);

  std::printf("%s\n", snap.report().c_str());

  // --- Panel 3: the versioned snapshot, for CI validation -------------------
  const std::string json = snap.to_json();
  if (const char* out = std::getenv("MPIXCCL_FLEET_OUT"); out != nullptr) {
    std::ofstream ofs(out);
    if (!ofs.good()) {
      std::fprintf(stderr, "abl_fleet: cannot open %s\n", out);
      return 1;
    }
    ofs << json << '\n';
    if (!ofs.good()) {
      std::fprintf(stderr, "abl_fleet: failed writing %s\n", out);
      return 1;
    }
    std::printf("fleet snapshot: %s (%zu bytes)\n\n", out, json.size());
  }

  const bool named_straggler =
      !snap.stragglers.empty() && snap.stragglers.front().rank == 3;
  const bool level_attributed =
      !snap.stragglers.empty() && !snap.stragglers.front().level.empty();
  bench::shape_check("slowed rank named top straggler", named_straggler);
  bench::shape_check(
      "straggler dominates fleet lateness (share > 0.8)",
      !snap.stragglers.empty() && snap.stragglers.front().share > 0.8);
  bench::shape_check("skew attributed to a hier level", level_attributed);
  bench::shape_check("snapshot carries the fleet.v1 schema",
                     json.rfind("{\"schema\":\"mpixccl.fleet.v1\"", 0) == 0);
  return 0;
}
