#include "ladder.hpp"

#include <cstring>
#include <map>
#include <memory>

#include "common/reduce.hpp"
#include "core/plan.hpp"
#include "core/xccl_mpi.hpp"
#include "dl/horovod.hpp"
#include "fabric/world.hpp"
#include "hier/hier.hpp"
#include "obs/analyze.hpp"
#include "obs/decision.hpp"
#include "sim/profiles.hpp"
#include "sim/trace.hpp"
#include "stats.hpp"

namespace mpixccl::e2e {
namespace {

constexpr int kReps = 5;
constexpr std::size_t kK = 1024;
constexpr std::size_t kM = 1024 * 1024;

/// Median over kReps batches of the host microseconds per call of `body`.
/// Collective bodies pass their rank context: every rank runs the batches
/// in step behind a real-time barrier, and rank 0's timing is the result.
template <typename F>
double per_call_us(fabric::RankContext* ctx, int iters, F&& body) {
  std::vector<double> per;
  for (int r = 0; r < kReps; ++r) {
    if (ctx != nullptr) ctx->barrier();
    const double t0 = now_us();
    for (int i = 0; i < iters; ++i) body();
    per.push_back((now_us() - t0) / iters);
  }
  return median(per);
}

/// What `body` adds on top of `base` per call: the median over kReps of
/// back-to-back batches of each, so slow drift of the host cancels.
template <typename F, typename G>
double added_us(fabric::RankContext& ctx, int iters, F&& base, G&& body) {
  std::vector<double> per;
  for (int r = 0; r < kReps; ++r) {
    ctx.barrier();
    const double t0 = now_us();
    for (int i = 0; i < iters; ++i) base();
    ctx.barrier();
    const double t1 = now_us();
    for (int i = 0; i < iters; ++i) body();
    per.push_back((now_us() - 2 * t1 + t0) / iters);
  }
  return median(per);
}

/// Rank 0's results; the other ranks only take part in the collectives.
class Sink {
 public:
  Sink(NamedValues& out, int rank) : out_(&out), on_(rank == 0) {}
  void put(std::string name, double v) {
    if (on_) out_->emplace_back(std::move(name), v);
  }

 private:
  NamedValues* out_;
  bool on_;
};

void zero(device::DeviceBuffer& a, device::DeviceBuffer& b) {
  std::memset(a.get(), 0, a.size());
  std::memset(b.get(), 0, b.size());
}

// thetagpu 1x4: fabric, MiniMPI, the CCL backend, core dispatch, plan build.
void thetagpu_1x4(NamedValues& out, HostTrace* trace) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 4, {}, {}});
  world.run([&](fabric::RankContext& ctx) {
    Sink sink(out, ctx.rank());
    HostTrace* t = ctx.rank() == 0 ? trace : nullptr;
    core::XcclMpi rt(ctx);
    mini::Mpi& mpi = rt.mpi();
    mini::Comm& comm = rt.comm_world();
    device::DeviceBuffer a(ctx.device(), kM);
    device::DeviceBuffer b(ctx.device(), kM);
    zero(a, b);

    struct Size {
      const char* label;
      std::size_t bytes;
      int iters;
    };
    for (const Size s : {Size{"4K", 4 * kK, 200}, Size{"1M", kM, 20}}) {
      // One-way time of a ping-pong between ranks 0 and 1; ranks 2 and 3
      // only join the barriers.
      ScopedSpan span(t, "ladder.fabric.p2p");
      const double round_trip = per_call_us(&ctx, s.iters, [&] {
        if (ctx.rank() == 0) {
          mpi.send(a.get(), s.bytes, mini::kByte, 1, 7, comm);
          mpi.recv(b.get(), s.bytes, mini::kByte, 1, 7, comm);
        } else if (ctx.rank() == 1) {
          mpi.recv(b.get(), s.bytes, mini::kByte, 0, 7, comm);
          mpi.send(a.get(), s.bytes, mini::kByte, 0, 7, comm);
        }
      });
      sink.put(std::string("fabric.p2p_host_us.") + s.label, round_trip / 2);
    }

    auto mpi_allreduce = [&](std::size_t bytes) {
      mpi.allreduce(a.get(), b.get(), bytes / 4, mini::kFloat, ReduceOp::Sum, comm);
    };
    for (const Size s : {Size{"4K", 4 * kK, 200}, Size{"64K", 64 * kK, 50},
                         Size{"1M", kM, 10}}) {
      ScopedSpan span(t, "ladder.mpi.allreduce");
      sink.put(std::string("mpi.allreduce_host_us.") + s.label,
               per_call_us(&ctx, s.iters, [&] { mpi_allreduce(s.bytes); }));
    }

    xccl::CclComm cc;
    throw_if_error(rt.backend().comm_init_rank(cc, ctx.size(),
                                               xccl::UniqueId::derive(0xe2eb, 1),
                                               ctx.rank()),
                   "ladder: CCL communicator");
    auto xccl_allreduce = [&](std::size_t bytes) {
      throw_if_error(rt.backend().all_reduce(a.get(), b.get(), bytes / 4,
                                             DataType::Float32, ReduceOp::Sum, cc,
                                             ctx.stream()),
                     "ladder: CCL allreduce");
      ctx.stream().synchronize(ctx.clock());
    };
    for (const Size s : {Size{"64K", 64 * kK, 50}, Size{"1M", kM, 10}}) {
      ScopedSpan span(t, "ladder.xccl.all_reduce");
      sink.put(std::string("xccl.allreduce_host_us.") + s.label,
               per_call_us(&ctx, s.iters, [&] { xccl_allreduce(s.bytes); }));
    }

    // The default table sends 4 KB to MPI and 1 MB to the CCL, so each
    // difference is what XcclMpi adds on top of the engine it picked.
    for (const Size s : {Size{"4K", 4 * kK, 1000}, Size{"1M", kM, 20}}) {
      ScopedSpan span(t, "ladder.core.allreduce");
      auto engine = [&] {
        s.bytes == kM ? xccl_allreduce(s.bytes) : mpi_allreduce(s.bytes);
      };
      auto core = [&] {
        rt.allreduce(a.get(), b.get(), s.bytes / 4, mini::kFloat, ReduceOp::Sum, comm);
      };
      core();
      sink.put(std::string("core.dispatch_self_us.") + s.label,
               added_us(ctx, s.iters, engine, core));
    }

    // A fresh plan (cache emptied first) minus a cached one, at 1 MB.
    {
      ScopedSpan span(t, "ladder.plan.build");
      auto init = [&] {
        core::Persistent h = rt.allreduce_init(a.get(), b.get(), kM / 4, mini::kFloat,
                                               ReduceOp::Sum, comm);
        h.free();
      };
      init();
      sink.put("plan.build_host_us", added_us(ctx, 200, init, [&] {
                 rt.invalidate_plans();
                 init();
               }));
    }
  });
}

// thetagpu 2x2: the hier engine, nonblocking and persistent allreduce, and
// the virtual-time stage shares of hier allreduces.
void thetagpu_2x2(NamedValues& out, HostTrace* trace) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 2, 2, {}, {}});
  world.run([&](fabric::RankContext& ctx) {
    Sink sink(out, ctx.rank());
    HostTrace* t = ctx.rank() == 0 ? trace : nullptr;
    core::XcclMpi rt(ctx);
    mini::Comm& comm = rt.comm_world();
    device::DeviceBuffer a(ctx.device(), 4 * kM);
    device::DeviceBuffer b(ctx.device(), 4 * kM);
    zero(a, b);

    hier::HierEngine eng(rt.mpi());
    {
      ScopedSpan span(t, "ladder.hier.prepare");
      std::vector<mini::Comm> dups;
      dups.reserve(kReps);
      std::vector<double> per;
      for (int r = 0; r < kReps; ++r) {
        dups.push_back(rt.mpi().dup(comm));
        ctx.barrier();
        const double t0 = now_us();
        (void)eng.prepare(dups.back());
        per.push_back(now_us() - t0);
      }
      sink.put("hier.prepare_host_ms", median(per) * 1e-3);
    }
    hier::HierEngine::HierComms& hc = eng.prepare(comm);
    for (const auto& [label, bytes, iters] :
         {std::tuple{"1M", kM, 10}, std::tuple{"4M", 4 * kM, 5}}) {
      ScopedSpan span(t, "ladder.hier.allreduce");
      auto call = [&, bytes = bytes] {
        eng.allreduce(hc, a.get(), b.get(), bytes / 4, mini::kFloat, ReduceOp::Sum, comm);
      };
      call();
      sink.put(std::string("hier.allreduce_host_us.") + label,
               per_call_us(&ctx, iters, call));
    }

    const std::size_t n2m = 2 * kM / 4;
    {
      ScopedSpan span(t, "ladder.core.iallreduce");
      auto call = [&] {
        mini::Request r =
            rt.iallreduce(a.get(), b.get(), n2m, mini::kFloat, ReduceOp::Sum, comm);
        rt.wait(r);
      };
      call();
      sink.put("core.iallreduce_wait_host_us.2M", per_call_us(&ctx, 10, call));
    }
    {
      ScopedSpan span(t, "ladder.core.persistent");
      core::Persistent h =
          rt.allreduce_init(a.get(), b.get(), n2m, mini::kFloat, ReduceOp::Sum, comm);
      sink.put("core.persistent_start_wait_host_us.2M", per_call_us(&ctx, 10, [&] {
                 h.start();
                 h.wait();
               }));
      h.free();
    }

    // omb_large's table sends allreduces above 1 MB to hier, which runs the
    // pipelined schedule on this power-of-two chain. Attribute traced 4 MB
    // dispatches to its per-level stages.
    core::TuningTable table = rt.tuning();
    table.set_rules(core::CollOp::Allreduce, {{SIZE_MAX, core::Engine::Hier}});
    rt.set_tuning(table);
    auto hier_call = [&] {
      rt.allreduce(a.get(), b.get(), 4 * kM / 4, mini::kFloat, ReduceOp::Sum, comm);
    };
    hier_call();
    sim::Trace& tr = sim::Trace::instance();
    const bool was_on = tr.enabled();
    ctx.barrier();
    if (ctx.rank() == 0) {
      tr.clear();
      tr.set_enabled(true);
    }
    ctx.barrier();
    for (int i = 0; i < 4; ++i) hier_call();
    ctx.barrier();
    if (ctx.rank() != 0) return;
    const std::vector<sim::TraceEvent> events = tr.events();
    tr.set_enabled(was_on);
    tr.clear();
    // The per-level "allreduce.pipe.<level>" stages nest inside one
    // "allreduce.pipelined" span; the rest of the dispatch is "other".
    std::map<std::string, double> stage_us = {{"allreduce.pipe.node", 0.0},
                                              {"allreduce.pipe.net", 0.0}};
    double total = 0.0;
    for (const obs::DispatchAttribution& d : obs::attribute_dispatches(events, {})) {
      if (d.engine != "hier") continue;
      total += d.duration_us();
      for (const auto& [stage, us] : d.stage_us) {
        if (const auto it = stage_us.find(stage); it != stage_us.end()) it->second += us;
      }
    }
    double other = 1.0;
    for (const auto& [stage, us] : stage_us) {
      const double share = total > 0.0 ? us / total : 0.0;
      sink.put("hier.vt_stage_share." + stage, share);
      other -= share;
    }
    sink.put("hier.vt_stage_share.other", other);
  });
}

// voyager 1x4: int32 allreduce, which the table sends to HCCL (float-only)
// and which therefore falls back to MPI, against MPI called directly.
void voyager_1x4(NamedValues& out, HostTrace* trace) {
  fabric::World world(fabric::WorldConfig{sim::voyager(), 1, 4, {}, {}});
  world.run([&](fabric::RankContext& ctx) {
    Sink sink(out, ctx.rank());
    ScopedSpan span(ctx.rank() == 0 ? trace : nullptr, "ladder.core.fallback");
    core::XcclMpi rt(ctx);
    mini::Comm& comm = rt.comm_world();
    device::DeviceBuffer a(ctx.device(), kM);
    device::DeviceBuffer b(ctx.device(), kM);
    zero(a, b);
    const std::size_t n = kM / 4;
    auto core_call = [&] {
      rt.allreduce(a.get(), b.get(), n, mini::kInt, ReduceOp::Sum, comm);
    };
    core_call();
    require(rt.last_dispatch().fell_back,
            "ladder: voyager int32 allreduce was expected to fall back to MPI");
    sink.put("core.fallback_self_us.1M", added_us(ctx, 20, [&] {
               rt.mpi().allreduce(a.get(), b.get(), n, mini::kInt, ReduceOp::Sum, comm);
             }, core_call));
  });
}

// Single-thread costs: table lookup, plan-cache hit, decision-log append,
// and the memcpy / reduce kernels in and out of cache.
void local(NamedValues& out, HostTrace* trace) {
  volatile std::size_t sink = 0;
  {
    ScopedSpan span(trace, "ladder.tuning.select");
    const core::TuningTable table = core::TuningTable::default_for(sim::thetagpu());
    out.emplace_back("tuning.select_host_ns", 1e3 * per_call_us(nullptr, 20000, [&] {
      sink = table.select_entry(core::CollOp::Allreduce, 4 * kK).max_bytes;
    }));
  }
  {
    ScopedSpan span(trace, "ladder.plan.find");
    core::PlanCache cache;
    const core::PlanKey key{core::CollOp::Allreduce, DataType::Float32, ReduceOp::Sum,
                            true, core::plan_size_class(4 * kK), 1};
    auto plan = std::make_shared<core::Plan>();
    plan->key = key;
    cache.insert(std::move(plan));
    out.emplace_back("plan.find_host_ns", 1e3 * per_call_us(nullptr, 20000, [&] {
      sink = cache.find(key, 4 * kK) != nullptr;
    }));
  }
  {
    ScopedSpan span(trace, "ladder.obs.decision_push");
    obs::DecisionLog& log = obs::DecisionLog::instance();
    const bool was_on = log.enabled();
    log.set_enabled(true);
    obs::DispatchDecision d;
    d.bytes = 4 * kK;
    out.emplace_back("obs.decision_push_ns",
                     1e3 * per_call_us(nullptr, 20000, [&] { sink = log.push(d); }));
    log.set_enabled(was_on);
    log.clear();
  }
  // 512 MB per array is over 4x the 113 MB of L2 + L3 on the 4-core Xeon
  // this was sized on; 1 MB stays in L2.
  for (const auto& [label, bytes, iters] :
       {std::tuple{"1M", kM, 200}, std::tuple{"512M", 512 * kM, 1}}) {
    ScopedSpan span(trace, "ladder.common.kernels");
    const std::size_t n = bytes / sizeof(float);
    auto src = std::make_unique<float[]>(n);  // value-initialized: touched
    auto dst = std::make_unique<float[]>(n);
    const double copy_us = per_call_us(nullptr, iters, [&, bytes = bytes] {
      std::memcpy(dst.get(), src.get(), bytes);
    });
    const double reduce_us = per_call_us(nullptr, iters, [&] {
      throw_if_error(apply_reduce(DataType::Float32, ReduceOp::Sum, src.get(),
                                  dst.get(), n),
                     "ladder: reduce");
    });
    const auto gb = static_cast<double>(bytes) * 1e-9;
    out.emplace_back(std::string("common.memcpy_GBps.") + label, gb / (copy_us * 1e-6));
    out.emplace_back(std::string("common.reduce_GBps.") + label, gb / (reduce_us * 1e-6));
  }
}

// One dl::run_training on thetagpu 2x2 (1 warm-up + 2 steps).
void training(NamedValues& out, HostTrace* trace) {
  ScopedSpan span(trace, "ladder.dl.run_training");
  sim::SystemProfile profile = sim::thetagpu();
  profile.devices_per_node = 2;
  dl::TrainerConfig cfg;
  cfg.warmup_steps = 1;
  cfg.steps = 2;
  const double t0 = now_us();
  const dl::TrainerResult r = dl::run_training(profile, 2, cfg);
  out.emplace_back("dl.train_host_ms",
                   (now_us() - t0) * 1e-3 / (cfg.warmup_steps + cfg.steps));
  out.emplace_back("dl.vt_step_us", r.step_time_us);
  out.emplace_back("dl.vt_comm_wait_us", r.comm_wait_us);
  out.emplace_back("dl.vt_comm_wait_share", r.comm_wait_us / r.step_time_us);
  out.emplace_back("dl.buckets_per_step", r.buckets_per_step);
}

}  // namespace

NamedValues run_ladder(HostTrace* trace) {
  NamedValues out;
  ScopedSpan span(trace, "ladder");
  thetagpu_1x4(out, trace);
  thetagpu_2x2(out, trace);
  voyager_1x4(out, trace);
  local(out, trace);
  training(out, trace);
  return out;
}

}  // namespace mpixccl::e2e
