#include "workloads.hpp"

#include <sys/resource.h>

#include <barrier>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/xccl_mpi.hpp"
#include "core_clock.hpp"
#include "dl/horovod.hpp"
#include "dl/model.hpp"
#include "fabric/world.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/trace.hpp"
#include "verify.hpp"

namespace mpixccl::e2e {
namespace {

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Hypervisor steal share of all CPU time between two /proc/stat reads:
/// time the host gave this VM's vCPUs to other guests. 0 where unreadable.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTicks t;
  double v = 0.0;
  for (int field = 0; field < 10 && f >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Core clock samples are taken at most this often during a timed phase.
constexpr double kClockSampleEveryUs = 100000.0;

/// Real-time rendezvous of the rank threads. The completion step runs once
/// per crossing while every rank waits, so it resets process-wide counters
/// without racing the ranks, every rank reads the same stop decision, and
/// the core clock is sampled while no rank is inside a call. The time spent
/// sampling is paused time: it is left out of the phase's elapsed time.
class Gate {
 public:
  Gate(int ranks, double seconds, std::function<void()> on_first = {})
      : seconds_(seconds), on_first_(std::move(on_first)), barrier_(ranks, Step{this}) {}

  /// Collective. True once `seconds` (> 0) have passed since the first
  /// crossing, not counting paused time.
  bool cross() {
    barrier_.arrive_and_wait();
    return stop_;
  }
  /// now_us() at the first crossing.
  [[nodiscard]] double first_us() const { return first_us_; }
  /// Microseconds since the first crossing, not counting paused time.
  [[nodiscard]] double elapsed_us() const { return now_us() - first_us_ - paused_us_; }
  /// Core clock samples, one at the first crossing and then one at the
  /// first crossing after every kClockSampleEveryUs.
  [[nodiscard]] const std::vector<double>& clock_ghz() const { return clock_ghz_; }

 private:
  struct Step {
    Gate* g;
    void operator()() noexcept { g->step(); }
  };
  void step() noexcept {
    const double now = now_us();
    if (first_us_ < 0.0) {
      first_us_ = now;
      if (on_first_) on_first_();
    }
    if (clock_ghz_.empty() || now - last_sample_us_ >= kClockSampleEveryUs) {
      clock_ghz_.push_back(core_clock_ghz());
      last_sample_us_ = now_us();
      paused_us_ += last_sample_us_ - now;
    }
    stop_ = seconds_ > 0.0 && elapsed_us() >= seconds_ * 1e6;
  }

  double seconds_;
  std::function<void()> on_first_;
  double first_us_ = -1.0;
  double last_sample_us_ = 0.0;
  double paused_us_ = 0.0;
  std::vector<double> clock_ghz_;
  bool stop_ = false;
  std::barrier<Step> barrier_;
};

/// Per sample series: 8 MB, which omb_small fills in about 20 s.
constexpr std::size_t kSampleCapacity = std::size_t{1} << 20;

/// State the rank threads share during one timed phase.
struct Phase {
  Phase(int ranks, double seconds, std::uint64_t budget_, bool traced_)
      : gate(ranks, seconds,
             [this, traced_] {
               ticks0 = cpu_ticks();
               cpu0 = cpu_s();
               obs::Registry::instance().reset();
               if (traced_) {
                 obs::set_level(obs::Level::Trace);
                 sim::Trace::instance().clear();
               }
             }),
        budget(budget_),
        traced(traced_) {
    result.host_call_us = Samples(kSampleCapacity);
    result.vt_call_us = Samples(kSampleCapacity);
  }

  /// Collective stop check after `calls` calls; rank 0 marks its progress.
  bool check(std::uint64_t calls, bool r0) {
    const bool stop = gate.cross();
    if (r0) result.marks.emplace_back(static_cast<double>(calls), gate.elapsed_us() * 1e-6);
    return stop;
  }
  void fail(std::uint64_t call) {
    const std::lock_guard lock(mu);
    failed.insert(call);
  }
  void add_plan_stats(const core::PlanCacheStats& s) {
    const std::lock_guard lock(mu);
    result.plan.hits += s.hits;
    result.plan.misses += s.misses;
    result.plan.evictions += s.evictions;
    result.plan.invalidations += s.invalidations;
  }
  /// Rank 0, between the phase's last crossing and the next phase's first.
  void finish(std::uint64_t calls) {
    result.calls = calls;
    result.failed = failed.size();
    result.wall_s = gate.elapsed_us() * 1e-6;
    result.clock_ghz = gate.clock_ghz();
    result.cpu_s = cpu_s() - cpu0;
    const CpuTicks t = cpu_ticks();
    result.steal_pct = t.total > ticks0.total
                           ? 100.0 * (t.steal - ticks0.steal) / (t.total - ticks0.total)
                           : 0.0;
    for (core::Engine e : {core::Engine::Mpi, core::Engine::Xccl, core::Engine::Hier}) {
      result.engine_calls[static_cast<std::size_t>(e)] =
          obs::Registry::instance().engine_calls(e);
    }
  }

  CpuTicks ticks0;  ///< at the first crossing
  double cpu0 = 0.0;
  Gate gate;
  std::uint64_t budget;
  bool traced;
  PhaseResult result;  ///< samples written by rank 0 only
  std::mutex mu;
  std::set<std::uint64_t> failed;  ///< guarded by mu
};

using Phases = std::vector<std::unique_ptr<Phase>>;

/// Calls between two stop checks: long enough that the rendezvous costs
/// little, short enough that a phase overruns its time by a few ms.
constexpr std::uint64_t kCallsPerCheck = 64;

std::uint64_t input_salt(std::uint64_t seed) { return splitmix64(seed ^ 0xf111ull); }

core::XcclMpiOptions options_for(const WorkloadSpec& w, const sim::SystemProfile& p) {
  core::TuningTable t = core::TuningTable::default_for(p);
  if (w.id == Workload::OmbLarge) {
    t.set_rules(core::CollOp::Allreduce, {{16384, core::Engine::Mpi},
                                          {1u << 20, core::Engine::Xccl},
                                          {SIZE_MAX, core::Engine::Hier}});
  }
  core::XcclMpiOptions o;
  o.tuning = std::move(t);
  return o;
}

mini::Datatype datatype(Elem e) {
  switch (e) {
    case Elem::Float: return mini::kFloat;
    case Elem::Int32: return mini::kInt;
    case Elem::Double: return mini::kDouble;
  }
  return mini::kFloat;
}

const char* span_name(Op op) {
  switch (op) {
    case Op::Allreduce: return "core.allreduce";
    case Op::Bcast: return "core.bcast";
    case Op::Allgather: return "core.allgather";
    case Op::ReduceScatter: return "core.reduce_scatter_block";
    case Op::Allgatherv: return "core.allgatherv";
    case Op::Alltoallv: return "core.alltoallv";
    case Op::Gather: return "core.gather";
    case Op::Scatter: return "core.scatter";
  }
  return "core.?";
}

void issue(core::XcclMpi& rt, mini::Comm& comm, const Call& c, const Geometry& g,
           const void* send, void* out) {
  const mini::Datatype dt = datatype(c.elem);
  switch (c.op) {
    case Op::Allreduce: rt.allreduce(send, out, g.n, dt, ReduceOp::Sum, comm); break;
    case Op::Bcast: rt.bcast(out, g.n, dt, g.root, comm); break;
    case Op::Allgather: rt.allgather(send, g.n, dt, out, g.n, dt, comm); break;
    case Op::ReduceScatter:
      rt.reduce_scatter_block(send, out, g.n, dt, ReduceOp::Sum, comm);
      break;
    case Op::Allgatherv:
      rt.allgatherv(send, g.send_elems, dt, out, g.rcounts, g.rdispls, dt, comm);
      break;
    case Op::Alltoallv:
      rt.alltoallv(send, g.scounts, g.sdispls, dt, out, g.rcounts, g.rdispls, dt,
                   comm);
      break;
    case Op::Gather: rt.gather(send, g.n, dt, out, g.n, dt, g.root, comm); break;
    case Op::Scatter: rt.scatter(send, g.n, dt, out, g.n, dt, g.root, comm); break;
  }
}

// ---- Collective workloads ----------------------------------------------------

struct CollectiveRank {
  CollectiveRank(fabric::RankContext& ctx_, const WorkloadSpec& w_, std::uint64_t seed_)
      : ctx(ctx_),
        w(w_),
        seed(seed_),
        salt(input_salt(seed_)),
        rt(ctx_, options_for(w_, ctx_.profile())),
        bufs(ctx_.device(), w_, ctx_.size(), ctx_.rank(), salt) {
    comms.push_back(&rt.comm_world());
    if (w.comms == 3) {
      derived.reserve(2);
      derived.push_back(rt.dup(rt.comm_world()));
      derived.push_back(rt.split(rt.comm_world(), ctx.rank() / 2, ctx.rank()));
      for (mini::Comm& c : derived) comms.push_back(&c);
    }
    for (const mini::Comm* c : comms) {
      std::vector<int> m;
      for (int j = 0; j < c->size(); ++j) m.push_back(c->world_rank(j));
      members.push_back(std::move(m));
    }
  }

  void* output(const Call& c) const {
    return c.op == Op::Bcast ? bufs.bcast(c.host, c.elem) : bufs.recv(c.host);
  }

  /// One call of every shape the workload draws: plan builds, CCL
  /// bootstrap, hier splits and first touches all land in set-up.
  void warm() {
    for (Op op : w.ops) {
      for (std::size_t bytes : w.sizes) {
        for (Elem e : w.elems) {
          for (bool host : {false, true}) {
            if (host && !w.host_buffers) continue;
            for (int ci = 0; ci < w.comms; ++ci) {
              const Call c{op, bytes, e, host, ci, 0, false};
              mini::Comm& comm = *comms[static_cast<std::size_t>(ci)];
              plan_geometry(c, comm.size(), comm.rank(), geo);
              issue(rt, comm, c, geo, bufs.send(host, e), output(c));
            }
          }
        }
      }
    }
  }

  void run(Phase& ph, HostTrace* trace) {
    const bool r0 = ctx.rank() == 0;
    PhaseResult& res = ph.result;
    rt.plan_cache().reset_stats();
    ScopedSpan phase_span(trace, "bench.phase");
    std::uint64_t idx = 0;
    for (; idx < ph.budget; ++idx) {
      if (idx % kCallsPerCheck == 0 && ph.check(idx, r0)) break;
      const Call c = draw_call(w, seed, idx);
      const auto ci = static_cast<std::size_t>(c.comm);
      mini::Comm& comm = *comms[ci];
      plan_geometry(c, comm.size(), comm.rank(), geo);
      void* out = output(c);
      poison(c, geo, out);
      bool threw = false;
      const double t0 = now_us();
      const double vt0 = ctx.clock().now();
      try {
        ScopedSpan span(trace, span_name(c.op), idx);
        issue(rt, comm, c, geo, bufs.send(c.host, c.elem), out);
      } catch (const std::exception& e) {
        threw = true;
        MPIXCCL_LOG_ERROR("bench", "rank ", ctx.rank(), " call ", idx,
                          " threw: ", e.what());
      }
      const double t1 = now_us();
      if (r0) {
        res.host_call_us.push(t1 - t0);
        res.vt_call_us.push(ctx.clock().now() - vt0);
        ++res.rank0_calls;
        if (rt.last_dispatch().fell_back) ++res.rank0_fell_back;
      }
      if (threw || count_mismatches(c, geo, members[ci], salt, out) > 0) ph.fail(idx);
    }
    ph.check(idx, r0);
    ph.add_plan_stats(rt.plan_cache().stats());
    if (r0) ph.finish(idx);
  }

  fabric::RankContext& ctx;
  const WorkloadSpec& w;
  std::uint64_t seed;
  std::uint64_t salt;
  core::XcclMpi rt;
  RankBuffers bufs;
  std::vector<mini::Comm> derived;
  std::vector<mini::Comm*> comms;
  std::vector<std::vector<int>> members;
  Geometry geo;
};

// ---- Training workload -------------------------------------------------------

/// Horovod tensor-fusion buckets: runs of reversed layers capped at the
/// fusion threshold (the same grouping dl::run_training uses).
std::vector<std::size_t> bucket_params(const dl::Model& model, std::size_t fusion) {
  std::vector<std::size_t> out;
  std::size_t cur = 0;
  for (auto it = model.layers.rbegin(); it != model.layers.rend(); ++it) {
    cur += it->params;
    if (cur * sizeof(float) >= fusion) {
      out.push_back(cur);
      cur = 0;
    }
  }
  if (cur > 0) out.push_back(cur);
  return out;
}

constexpr int kBatch = 32;

/// The step loop of dl::run_training (forward kernel, per-bucket backward
/// kernel + iallreduce overlapping the rest of the backward pass, waitall,
/// optimizer), issuing the same virtual-time operations in the same order,
/// plus output checks: every bucket reduces into its own region, and the
/// inputs alternate between two patterns so a stale result fails.
struct TrainRank {
  TrainRank(fabric::RankContext& ctx_, std::uint64_t seed)
      : ctx(ctx_),
        salt(input_salt(seed)),
        model(dl::Model::resnet50()),
        rt(ctx_),
        buckets(bucket_params(model, dl::default_fusion_bytes())),
        compute(ctx_.profile().device.stream_sync_us) {
    std::size_t max_bucket = 0;
    std::size_t total = 0;
    for (std::size_t b : buckets) {
      offsets.push_back(total);
      total += b;
      max_bucket = std::max(max_bucket, b);
    }
    for (int parity = 0; parity < 2; ++parity) {
      send[parity] = device::DeviceBuffer(ctx.device(), max_bucket * sizeof(float));
      fill(Elem::Float, send[parity].get(), max_bucket, salt ^ parity, ctx.rank());
    }
    recv = device::DeviceBuffer(ctx.device(), total * sizeof(float));
    std::memset(recv.get(), 0, total * sizeof(float));
    for (int j = 0; j < ctx.size(); ++j) members.push_back(j);
    bwd_us_per_param = model.bwd_us_per_image * kBatch /
                       static_cast<double>(model.total_params());
    pending.reserve(buckets.size());
  }

  /// Untimed, unchecked steps (set-up): plans, CCL bootstrap, first touches.
  void warm(int steps) {
    for (int s = 0; s < steps; ++s) {
      step(static_cast<std::uint64_t>(s) * buckets.size(), nullptr, nullptr);
    }
  }

  /// One step. `first_call` numbers its bucket calls (full-check cadence,
  /// failure records); `ph` is null during warm-up, which checks nothing.
  void step(std::uint64_t first_call, Phase* ph, HostTrace* trace) {
    PhaseResult* res = ph != nullptr && ctx.rank() == 0 ? &ph->result : nullptr;
    auto& clock = ctx.clock();
    const int parity = static_cast<int>((first_call / buckets.size()) & 1);
    float* sbuf = send[parity].as<float>();
    const double t_step = now_us();
    ScopedSpan step_span(trace, "dl.step", first_call);
    ctx.device().launch_kernel(model.fwd_us_per_image * kBatch, compute, clock, {});
    for (std::size_t bi = 0; bi < buckets.size(); ++bi) {
      ctx.device().launch_kernel(bwd_us_per_param * static_cast<double>(buckets[bi]),
                                 compute, clock, {});
      clock.advance_to(compute.tail());
      const Call c = bucket_call(first_call + bi, bi);
      plan_geometry(c, ctx.size(), ctx.rank(), geo);
      poison(c, geo, recv.as<float>() + offsets[bi]);
      const double t0 = now_us();
      const double vt0 = clock.now();
      {
        ScopedSpan span(trace, "core.iallreduce", first_call + bi);
        pending.push_back(rt.iallreduce(sbuf, recv.as<float>() + offsets[bi],
                                        buckets[bi], mini::kFloat, ReduceOp::Sum,
                                        rt.comm_world()));
      }
      if (res != nullptr) {
        record(*res, now_us() - t0, clock.now() - vt0);
        ++res->rank0_calls;
        if (rt.last_dispatch().fell_back) ++res->rank0_fell_back;
      }
    }
    const double t0 = now_us();
    const double vt0 = clock.now();
    {
      ScopedSpan span(trace, "core.waitall", first_call);
      rt.waitall(pending);
    }
    if (res != nullptr) record(*res, now_us() - t0, clock.now() - vt0);
    pending.clear();
    ctx.device().launch_kernel(model.optimizer_us, compute, clock, {});
    compute.synchronize(clock);
    if (res != nullptr) res->host_step_ms.push_back((now_us() - t_step) * 1e-3);

    if (ph == nullptr) return;
    for (std::size_t bi = 0; bi < buckets.size(); ++bi) {
      const Call c = bucket_call(first_call + bi, bi);
      plan_geometry(c, ctx.size(), ctx.rank(), geo);
      if (count_mismatches(c, geo, members, salt ^ parity,
                           recv.as<float>() + offsets[bi]) > 0) {
        ph->fail(first_call + bi);
      }
    }
  }

  Call bucket_call(std::uint64_t call, std::size_t bi) const {
    return Call{Op::Allreduce, buckets[bi] * sizeof(float), Elem::Float, false, 0, 0,
                call % kFullCheckEvery == kFullCheckEvery - 1};
  }

  void record(PhaseResult& res, double host_us, double vt_us) {
    res.host_call_us.push(host_us);
    res.vt_call_us.push(vt_us);
  }

  /// Timed steps until the budget or the gate stops them; virtual images/s
  /// over the steps run uses the trainer's formula.
  void run(Phase& ph, HostTrace* trace) {
    const bool r0 = ctx.rank() == 0;
    rt.plan_cache().reset_stats();
    ScopedSpan phase_span(trace, "bench.phase");
    ctx.sync_clocks();
    const double vt_start = ctx.clock().now();
    std::uint64_t steps = 0;
    const std::uint64_t per_step = buckets.size();
    for (; steps < ph.budget; ++steps) {
      if (ph.check(steps * per_step, r0)) break;
      step(steps * per_step, &ph, trace);
    }
    ph.check(steps * per_step, r0);
    ctx.sync_clocks();
    const double step_us = (ctx.clock().now() - vt_start) / static_cast<double>(steps);
    ph.add_plan_stats(rt.plan_cache().stats());
    if (r0) {
      ph.finish(steps * per_step);
      ph.result.vt_img_per_s = kBatch * ctx.size() / (step_us * 1e-6);
    }
  }

  fabric::RankContext& ctx;
  std::uint64_t salt;
  dl::Model model;
  core::XcclMpi rt;
  std::vector<std::size_t> buckets;
  std::vector<std::size_t> offsets;
  device::DeviceBuffer send[2];
  device::DeviceBuffer recv;
  device::Stream compute;
  std::vector<int> members;
  double bwd_us_per_param = 0.0;
  std::vector<mini::Request> pending;
  Geometry geo;
};

fabric::WorldConfig world_config(const WorkloadSpec& w) {
  return fabric::WorldConfig{sim::profile_by_name(std::string(w.system)), w.nodes,
                             w.per_node, {}, {}};
}

constexpr int kTrainWarmupSteps = 2;
constexpr double kSetupSeconds = 1.5;
constexpr int kMaxSetupReps = 25;

}  // namespace

WorkloadResult run_workload(Workload id, const RunOptions& opt, HostTrace* trace) {
  const WorkloadSpec& w = workload_spec(id);
  const int ranks = w.nodes * w.per_node;
  const auto budget = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(w.default_calls) * opt.scale));
  const double phase_seconds = opt.seconds / (opt.traced ? 2.0 : 1.0);
  WorkloadResult result;
  double setup_spent = 0.0;
  for (int rep = 0;; ++rep) {
    // Set-ups of a few ms vary with thread start-up; repeat those more.
    const bool timed =
        rep + 1 >= opt.setup_reps &&
        (opt.setup_reps == 1 || setup_spent >= kSetupSeconds || rep + 1 >= kMaxSetupReps);
    Gate setup(ranks, 0.0);
    Phases phases;
    if (timed) {
      for (bool traced : {false, true}) {
        if (traced && !opt.traced) continue;
        phases.push_back(std::make_unique<Phase>(
            ranks, phase_seconds,
            opt.seconds > 0.0 ? UINT64_MAX : budget, traced));
      }
    }
    const double t0 = now_us();
    fabric::World world(world_config(w));
    world.run([&](fabric::RankContext& ctx) {
      auto trace_for = [&](const Phase& ph) {
        return ctx.rank() == 0 && ph.traced ? trace : nullptr;
      };
      if (id == Workload::Train) {
        TrainRank tr(ctx, opt.seed);
        tr.warm(kTrainWarmupSteps);
        setup.cross();
        for (auto& ph : phases) tr.run(*ph, trace_for(*ph));
      } else {
        CollectiveRank cr(ctx, w, opt.seed);
        cr.warm();
        setup.cross();
        for (auto& ph : phases) cr.run(*ph, trace_for(*ph));
      }
    });
    result.setup_s.push_back((setup.first_us() - t0) * 1e-6);
    result.setup_clock_ghz.push_back(setup.clock_ghz().front());
    setup_spent += result.setup_s.back();
    if (timed) {
      result.untraced = std::move(phases[0]->result);
      if (opt.traced) result.traced = std::move(phases[1]->result);
      break;
    }
  }
  if (opt.traced) obs::set_level(obs::Level::Metrics);
  return result;
}

double train_vt_img_per_s(const sim::SystemProfile& profile, int nodes,
                          int per_node, int warmup_steps, int steps,
                          std::uint64_t* failed) {
  fabric::World world(fabric::WorldConfig{profile, nodes, per_node, {}, {}});
  Phase ph(world.size(), 0.0, static_cast<std::uint64_t>(steps), false);
  world.run([&](fabric::RankContext& ctx) {
    TrainRank tr(ctx, 1);
    tr.warm(warmup_steps);
    tr.run(ph, nullptr);
  });
  if (failed != nullptr) *failed = ph.result.failed;
  return ph.result.vt_img_per_s;
}

}  // namespace mpixccl::e2e
