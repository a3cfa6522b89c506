// Microbench: per-call dispatch overhead of the collective hot path, in host
// nanoseconds. Virtual time cannot see this cost — tuning lookup, decision
// construction and plan-cache probing all happen between clock advances — so
// this bench times the machinery itself with the host steady clock:
//
//   * tuning.select_entry   the size-class rule walk per dispatch
//   * plan.cache.find       a plan-cache hit (the persistent replay lookup)
//   * decision.push         appending one record to a rank's call journal
//   * span off / traced     one hier level span (obs::Span) with tracing and
//                           fleet profiling off, and with tracing on
//   * oneshot allreduce     full dispatch per call (cache-hit steady state)
//   * persistent start/wait the same collective through a prebuilt handle,
//                           its batches alternating with the one-shot ones
//   * oneshot allreduce 1x4 the one-shot call on four ranks at once, where
//                           every rank thread takes its peers' match locks
//   * registry lookup 4t    one buffer classification with four threads
//                           classifying at the same time
//
// Emits mpixccl.bench.v1 via MPIXCCL_BENCH_JSON; the committed
// BENCH_dispatch.json baseline gates regressions through `mpixccl perf diff`
// (with wide thresholds — host time on shared CI is noisy).

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/plan.hpp"
#include "core/xccl_mpi.hpp"
#include "device/buffer_registry.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "obs/decision.hpp"
#include "obs/obs.hpp"
#include "sim/profiles.hpp"
#include "sim/trace.hpp"

using namespace mpixccl;

namespace {

constexpr std::size_t kBytes = 4096;  ///< the size class every series uses

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-call ns of one batch of `iters` calls of `body`.
template <typename F>
double batch_ns(int iters, F& body) {
  const double t0 = now_ns();
  for (int i = 0; i < iters; ++i) body();
  return (now_ns() - t0) / iters;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Median per-call ns over `reps` batches of `iters` calls of `body`.
template <typename F>
double median_ns(int reps, int iters, F&& body) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) samples.push_back(batch_ns(iters, body));
  return median(samples);
}

/// median_ns of `a` and of `b`, measured under one load: each repetition
/// runs one batch of each, and which runs first alternates.
template <typename A, typename B>
std::pair<double, double> paired_median_ns(int reps, int iters, A&& a, B&& b) {
  std::vector<double> sa;
  std::vector<double> sb;
  for (int r = 0; r < reps; ++r) {
    if (r % 2 == 0) sa.push_back(batch_ns(iters, a));
    sb.push_back(batch_ns(iters, b));
    if (r % 2 == 1) sa.push_back(batch_ns(iters, a));
  }
  return {median(sa), median(sb)};
}

/// Rank 0's median per-call ns of a warm one-shot 4 KB allreduce on
/// thetagpu with `ranks` ranks on one node.
double oneshot_allreduce_ns(const core::TuningTable& table, int ranks, int reps,
                            int iters) {
  double ns = 0.0;
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, ranks});
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx, {.tuning = table});
    auto& comm = rt.comm_world();
    device::DeviceBuffer send(ctx.device(), kBytes);
    device::DeviceBuffer recv(ctx.device(), kBytes);
    const std::size_t count = kBytes / sizeof(float);
    auto call = [&] {
      rt.allreduce(send.get(), recv.get(), count, mini::kFloat, ReduceOp::Sum, comm);
    };
    call();  // warm the plan cache so the loop measures the hit path
    const double one = median_ns(reps, iters, call);
    if (ctx.rank() == 0) ns = one;
  });
  return ns;
}

/// Median per-lookup ns of thread 0 while `threads` threads classify the
/// same mix at once: interior pointers of 16 registered allocations and 16
/// host pointers.
double registry_lookup_ns(int threads, int reps, int iters) {
  constexpr std::size_t kAllocs = 16;
  auto& reg = device::BufferRegistry::instance();
  std::vector<std::vector<std::byte>> mem(kAllocs, std::vector<std::byte>(kBytes));
  std::array<std::byte, kAllocs> host{};
  std::vector<const void*> ptrs;
  for (std::size_t i = 0; i < kAllocs; ++i) {
    reg.add(mem[i].data(), kBytes, Vendor::Nvidia, static_cast<int>(i));
    ptrs.push_back(mem[i].data() + i * 97);
    ptrs.push_back(&host[i]);
  }
  std::atomic<int> ready{0};
  double ns = 0.0;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      std::size_t i = 0;
      volatile bool sink = false;
      const double one = median_ns(reps, iters, [&] {
        sink = reg.lookup(ptrs[i++ % ptrs.size()]).has_value();
      });
      if (t == 0) ns = one;
    });
  }
  for (std::thread& th : pool) th.join();
  for (auto& m : mem) reg.remove(m.data());
  return ns;
}

}  // namespace

int main() {
  bench::header("Micro: dispatch overhead (host ns/call)",
                "the start/wait hot path the persistent API buys");

  const int reps = 9;
  const int iters = bench::fast_mode() ? 500 : 2000;
  const int e2e_iters = bench::fast_mode() ? 200 : 1000;

  // --- Standalone components (no world needed) ------------------------------
  core::TuningTable table;
  table.set_rules(core::CollOp::Allreduce,
                  {{16384, core::Engine::Mpi},
                   {1u << 20, core::Engine::Hier},
                   {SIZE_MAX, core::Engine::Xccl}});
  volatile int sink = 0;
  const double select_ns = median_ns(reps, iters, [&] {
    sink = static_cast<int>(
        table.select_entry(core::CollOp::Allreduce, kBytes).engine);
  });

  core::PlanCache cache;
  {
    auto plan = std::make_shared<core::Plan>();
    plan->key = core::PlanKey{core::CollOp::Allreduce, DataType::Float32,
                              ReduceOp::Sum, true,
                              core::plan_size_class(kBytes), 1};
    plan->max_bytes = SIZE_MAX;
    cache.insert(std::move(plan));
  }
  const core::PlanKey probe{core::CollOp::Allreduce, DataType::Float32,
                            ReduceOp::Sum, true, core::plan_size_class(kBytes),
                            1};
  const double find_ns = median_ns(reps, iters, [&] {
    sink = cache.find(probe, kBytes) != nullptr;
  });

  obs::DecisionLog::instance().set_enabled(true);
  const double push_ns = median_ns(reps, iters, [&] {
    obs::DispatchDecision d;
    d.op = core::CollOp::Allreduce;
    d.bytes = kBytes;
    obs::DecisionLog::instance().push(d);
  });
  obs::DecisionLog::instance().clear();

  // One hier stage span per iteration. Off, it costs the two relaxed flag
  // loads; traced, it also appends one event to rank 0's trace ring (which
  // wraps at its capacity, so the loop measures the steady state).
  const bool was_tracing = sim::Trace::enabled();
  const bool was_profiling = obs::fleet::profiling_enabled();
  sim::Trace::set_enabled(false);
  obs::fleet::set_profiling(false);
  sim::VirtualClock clock;
  const std::uint16_t node = sim::levels().intern("node");
  const auto stage_span = [&] {
    obs::Span span(0, clock, obs::SpanName::AllreducePipe, node);
    clock.advance(1.0);
  };
  const double span_off_ns = median_ns(reps, iters, stage_span);
  sim::Trace::set_enabled(true);
  const double span_traced_ns = median_ns(reps, iters, stage_span);
  sim::Trace::instance().clear();
  sim::Trace::set_enabled(was_tracing);
  obs::fleet::set_profiling(was_profiling);

  // --- End-to-end: one-shot vs persistent start/wait ------------------------
  // Two ranks keep thread contention out of the host timing; both paths move
  // the same simulated bytes through the same engine, so the delta is the
  // per-call dispatch machinery the persistent handle skips.
  double oneshot_ns = 0.0;
  double persistent_ns = 0.0;
  fabric::World world(
      fabric::WorldConfig{sim::thetagpu(), 1, /*devices_per_node=*/2});
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx, {.tuning = table});
    auto& comm = rt.comm_world();
    device::DeviceBuffer send(ctx.device(), kBytes);
    device::DeviceBuffer recv(ctx.device(), kBytes);
    const std::size_t count = kBytes / sizeof(float);

    // Warm the plan cache so the one-shot batches measure the hit path.
    rt.allreduce(send.get(), recv.get(), count, mini::kFloat, ReduceOp::Sum,
                 comm);
    core::Persistent h = rt.allreduce_init(send.as<float>(), recv.as<float>(),
                                           count, mini::kFloat, ReduceOp::Sum,
                                           comm);
    // One batch of each per repetition, so the two medians see the same load.
    const auto [one, per] = paired_median_ns(
        reps, e2e_iters,
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

  // --- Contended: four rank threads on the small-message path at once -------
  // The rows above keep contention out on purpose; these two put it back:
  // the one-shot call with every rank taking its peers' match locks, and
  // buffer classification with four threads reading the registry.
  const double oneshot_4_ns = oneshot_allreduce_ns(table, 4, reps, e2e_iters);
  const double lookup_4_ns = registry_lookup_ns(4, reps, iters);

  omb::print_series_table(
      "dispatch overhead", "ns",
      {{"select_entry", {{kBytes, select_ns}}},
       {"plan_find_hit", {{kBytes, find_ns}}},
       {"decision_push", {{kBytes, push_ns}}},
       {"span_off", {{kBytes, span_off_ns}}},
       {"span_traced", {{kBytes, span_traced_ns}}},
       {"oneshot_allreduce", {{kBytes, oneshot_ns}}},
       {"persistent_start_wait", {{kBytes, persistent_ns}}},
       {"oneshot_allreduce_1x4", {{kBytes, oneshot_4_ns}}},
       {"registry_lookup_4t", {{kBytes, lookup_4_ns}}}});

  std::printf("per-call: oneshot=%.0fns persistent=%.0fns (%.2fx)\n\n",
              oneshot_ns, persistent_ns, oneshot_ns / persistent_ns);
  bench::shape_check("plan-cache hit costs under a microsecond",
                     find_ns < 1000.0);
  bench::shape_check("persistent start/wait no slower than one-shot dispatch",
                     persistent_ns <= oneshot_ns * 1.10);
  return 0;
}
