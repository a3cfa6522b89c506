#include "core/xccl_mpi.hpp"

#include <cstdlib>
#include <cstring>

#include "common/log.hpp"
#include "common/schedule.hpp"
#include "obs/analyze.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"

namespace mpixccl::core {

namespace {

/// The tuning and telemetry op of an MPI collective: a v-form shares the
/// op of its base collective except allgatherv and alltoallv.
CollOp op_of(mini::Coll c) {
  static constexpr CollOp kOps[] = {
      CollOp::Bcast,     CollOp::Reduce,     CollOp::Allreduce,  CollOp::Gather,
      CollOp::Gather,    CollOp::Scatter,    CollOp::Scatter,    CollOp::Allgather,
      CollOp::Allgatherv, CollOp::Alltoall,  CollOp::Alltoallv,  CollOp::ReduceScatter,
      CollOp::Scan,      CollOp::Scan};
  static_assert(std::size(kOps) == static_cast<std::size_t>(mini::Coll::Exscan) + 1);
  return kOps[static_cast<std::size_t>(c)];
}
}  // namespace

namespace {
TuningTable resolve_tuning(const XcclMpiOptions& options,
                           const sim::SystemProfile& profile) {
  if (options.tuning) return *options.tuning;
  if (const char* env = std::getenv("MPIXCCL_TUNING_FILE"); env != nullptr) {
    return TuningTable::load_file(env);
  }
  return TuningTable::default_for(profile);
}
}  // namespace

XcclMpi::XcclMpi(fabric::RankContext& ctx, XcclMpiOptions options)
    : mpi_(ctx, ctx.profile().mpi),
      options_(std::move(options)),
      tuning_(resolve_tuning(options_, ctx.profile())) {
  const xccl::CclKind kind =
      options_.backend.value_or(xccl::native_ccl(ctx.profile().vendor));
  const sim::CclProfile& cp =
      (kind == xccl::CclKind::Msccl && ctx.profile().msccl.has_value())
          ? *ctx.profile().msccl
          : ctx.profile().ccl;
  backend_ = xccl::make_backend(kind, ctx, cp);
  hier_ = std::make_unique<hier::HierEngine>(mpi_);
  if (options_.hier_levels) hier_->set_levels(*options_.hier_levels);
  auto& reg = obs::Registry::instance();
  ctr_plan_hit_ = &reg.counter("plan.cache.hit");
  ctr_plan_miss_ = &reg.counter("plan.cache.miss");
  ctr_plan_evict_ = &reg.counter("plan.cache.evict");
  ctr_plan_invalidate_ = &reg.counter("plan.cache.invalidate");
  // Identity stamp for exported snapshots: which rank out of how many, on
  // which profile/topology (degrades to rank -1 once a second distinct rank
  // constructs a runtime in this process — the threads-as-ranks norm).
  const sim::Topology& topo = ctx.topology();
  obs::set_snapshot_meta(
      ctx.rank(), topo.world_size(), ctx.profile().name,
      sim::describe_levels(topo.sub_levels()) + "(" +
          std::to_string(topo.devices_per_node()) + ").net(" +
          std::to_string(topo.nodes()) + ")");
  MPIXCCL_LOG_INFO("core", "rank ", ctx.rank(), ": MPI-xCCL over ",
                   backend_->name(), " (", ctx.profile().name, ")");
}

void XcclMpi::reset_stats() {
  stats_ = {};
  last_decision_ = {};
  plans_.reset_stats();
  // Flight records carry the id of the plan that routed them; entries from
  // this rank whose plan has since been evicted or invalidated would join
  // against nothing, so drop them with the counters they accompanied.
  obs::FlightRecorder::instance().purge_plan_records(rank(), plans_.live_ids());
}

void XcclMpi::invalidate_plans() {
  const std::size_t dropped = plans_.invalidate_all();
  if (dropped > 0) ctr_plan_invalidate_->add(dropped, rank());
}

bool XcclMpi::set_hier_levels(const std::string& spec) {
  if (!hier_->set_levels(spec)) return false;
  // Every plan holding a subcomm chain was built against the old hierarchy;
  // its splits (and any reserved scratch shape) are stale. Flat plans keep
  // their compiled state.
  const std::size_t dropped =
      plans_.invalidate_if([](const Plan& p) { return p.hier != nullptr; });
  if (dropped > 0) ctr_plan_invalidate_->add(dropped, rank());
  return true;
}

std::size_t XcclMpi::retune_range(CollOp op, std::size_t lo, std::size_t hi,
                                  Engine engine) {
  tuning_.set_range(op, lo, hi, engine);
  // Targeted invalidation: a plan survives iff its validity band still sits
  // inside a single rule whose engine matches the plan's original table
  // choice. Only Hybrid device plans consulted the table; everything else
  // decided independently of it and is untouched.
  const std::vector<TuningTable::Entry>& rules = *tuning_.rules(op);
  const std::size_t dropped = plans_.invalidate_if([&](const Plan& p) {
    if (p.key.op != op) return false;
    if (p.mode != Mode::Hybrid || !p.key.device) return false;
    for (const TuningTable::Entry& e : rules) {
      if (p.min_bytes <= e.max_bytes) {
        return p.max_bytes > e.max_bytes || e.engine != p.pick.table_choice;
      }
    }
    return true;
  });
  if (dropped > 0) ctr_plan_invalidate_->add(dropped, rank());
  return dropped;
}

EnginePick XcclMpi::pick_table(CollOp op, std::size_t bytes) const {
  const TuningTable::Entry e = tuning_.select_entry(op, bytes);
  EnginePick pick;
  pick.table_choice = e.engine;
  pick.breakpoint = e.max_bytes;
  pick.engine = e.engine;
  // A table may route an op the hierarchical engine does not implement;
  // remap to the flat CCL rather than failing (recorded as a redirect).
  if (pick.engine == Engine::Hier && !engine_hier_supports(op)) {
    pick.engine = Engine::Xccl;
    pick.reason = obs::FallbackReason::HierOpUnsupported;
  }
  return pick;
}

EnginePick XcclMpi::pick_classified(CollOp op, std::size_t bytes,
                                    bool device) const {
  if (options_.mode == Mode::PureMpi) return {};
  // Device Buffer Identify: CCLs only accept device memory; host buffers
  // always take the MPI path regardless of mode.
  if (!device) {
    return {Engine::Mpi, Engine::Mpi, 0, obs::FallbackReason::HostBuffer};
  }
  if (options_.mode == Mode::PureXccl) {
    return {Engine::Xccl, Engine::Xccl, 0, obs::FallbackReason::None};
  }
  return pick_table(op, bytes);
}

// ---- Plan/execute split -----------------------------------------------------

std::shared_ptr<const Plan> XcclMpi::plan_for(const mini::CollArgs& a,
                                              mini::Comm& comm) {
  const std::size_t bytes = a.bytes();
  PlanKey key;
  key.op = op_of(a.coll);
  key.base = a.dt.base;
  key.redop = a.redop;
  key.device = a.device();
  key.size_class = plan_size_class(bytes);
  key.comm_uid = comm.uid();
  if (std::shared_ptr<Plan> hit = plans_.find(key, bytes)) {
    // Chain validity: a hier plan is only good at the level-config epoch it
    // captured (the spec changing between reconfigurations must miss, not
    // replay stale subcommunicators). set_hier_levels purges eagerly; this
    // guards direct hier().set_levels() callers too.
    if (hit->hier == nullptr || hit->hier_epoch == hier_->config_epoch()) {
      ctr_plan_hit_->add(1, rank());
      return hit;
    }
  }
  // Every key component is identical on every member of `comm` for a given
  // call site (uids are rank-local values but assigned in the same order),
  // so hit/miss agrees across ranks and the collective build cannot skew.
  ctr_plan_miss_->add(1, rank());
  std::shared_ptr<Plan> plan = build_plan(key, key.op, bytes, comm);
  const std::size_t evicted = plans_.insert(plan);
  if (evicted > 0) ctr_plan_evict_->add(evicted, rank());
  return plan;
}

std::shared_ptr<Plan> XcclMpi::build_plan(const PlanKey& key, CollOp op,
                                          std::size_t bytes, mini::Comm& comm) {
  const double t0 = context().clock().now();
  obs::Span span(rank(), context().clock(), obs::SpanName::PlanBuild);
  auto plan = std::make_shared<Plan>();
  plan->key = key;
  plan->id = next_plan_id();
  plan->mode = options_.mode;
  plan->pick = pick_classified(op, bytes, key.device);
  // Validity band: the byte range over which the matched tuning rule (and
  // thus this plan's engine) holds. Only Hybrid device dispatches consult
  // the table; everything else decides independently of the byte count.
  if (options_.mode == Mode::Hybrid && key.device) {
    if (const auto* rules = tuning_.rules(op); rules != nullptr) {
      std::size_t lo = 0;
      for (const TuningTable::Entry& e : *rules) {
        // select_entry extends the last rule to SIZE_MAX.
        const std::size_t hi = (&e == &rules->back()) ? SIZE_MAX : e.max_bytes;
        if (bytes <= hi) {
          plan->min_bytes = lo;
          plan->max_bytes = hi;
          break;
        }
        lo = e.max_bytes + 1;
      }
    }
  }
  // Resolve per-communicator resources now so start()/cache hits never pay
  // the bootstrap or the splits. Both resolutions are collective on first
  // use, which is safe exactly because builds are rank-uniform (above).
  if (plan->pick.engine == Engine::Xccl) {
    plan->ccl = &cached_ccl_comm(ccl_comms_, mpi_, *backend_, comm, 0, ccl_comm_seq_);
  } else if (plan->pick.engine == Engine::Hier) {
    plan->hier = &hier_->prepare(comm);
    plan->hier_epoch = hier_->config_epoch();
    if (op == CollOp::Allreduce && plan->hier->usable && bytes > 0) {
      plan->resident_bytes = hier_->reserve_allreduce(
          *plan->hier, bytes / datatype_size(key.base), key.base);
    }
  }
  plan->build_us = context().clock().now() - t0;
  return plan;
}

// ---- The completion record --------------------------------------------------

XcclMpi::OpRecord::OpRecord(XcclMpi& rt, CollOp op, std::size_t bytes) {
  d_.rank = rt.rank();
  d_.op = op;
  d_.bytes = bytes;
  d_.enter_us = rt.context().clock().now();
  d_.call_seq = obs::fleet::dispatch_enter(d_.rank, op);
}

XcclMpi::OpRecord::~OpRecord() {
  if (!closed_) obs::fleet::dispatch_abort(d_.rank);
}

void XcclMpi::complete(OpRecord& rec, const EnginePick& pick,
                       const Completion& c, std::string_view level_path,
                       bool log) {
  rec.closed_ = true;
  obs::DispatchDecision& d = rec.d_;
  d.mode = options_.mode;
  d.breakpoint = pick.breakpoint;
  d.table_choice = pick.table_choice;
  d.engine = c.engine;
  d.reason = c.reason;
  d.fell_back = c.fell_back;
  d.composed = c.composed;
  d.level_path = level_path;
  // Issue time, inside [enter, done_us] for every flavour: attribution
  // joins decisions to dispatch spans on it.
  d.time_us = context().clock().now();
  d.done_us = c.done_us;
  switch (c.engine) {
    case Engine::Xccl:
      ++stats_.xccl_calls;
      stats_.xccl_bytes += d.bytes;
      break;
    case Engine::Hier:
      ++stats_.hier_calls;
      stats_.hier_bytes += d.bytes;
      break;
    case Engine::Mpi:
      ++stats_.mpi_calls;
      stats_.mpi_bytes += d.bytes;
      break;
  }
  if (c.fell_back) ++stats_.fallbacks;
  last_decision_ = std::move(d);

  // Every sink below reads the one finished record. The journal append comes
  // first because it stamps the decision-view seq the other sinks copy;
  // persistent replays keep seq 0, their init-time entry explains them.
  obs::DispatchDecision& done = last_decision_;
  obs::fleet::dispatch_exit(done, log);
  auto& reg = obs::Registry::instance();
  reg.record_call(done.op, done.engine, done.rank, done.bytes);
  reg.record_latency(done.op, done.engine, done.rank, done.bytes, done.elapsed_us());
  if (done.fell_back) {
    reg.record_fallback(done.op, done.table_choice, done.rank, done.bytes);
  }
  // Slow-call hook: the flight recorder keeps the top-K slowest dispatches
  // (fast path: one relaxed load, no copy).
  obs::FlightRecorder::instance().record(done);
  sim::Trace::instance().record({done.rank,
                                 sim::engine_span(done.op, done.engine),
                                 sim::kNoLevel, done.enter_us, done.done_us});
}

// ---- The dispatch ladder ----------------------------------------------------

xccl::CclComm& cached_ccl_comm(CclCommCache& cache, mini::Mpi& mpi, xccl::CclBackend& b,
                               mini::Comm& comm, fabric::ChannelId salt,
                               std::uint64_t& seq) {
  const fabric::ChannelId key = comm.p2p_channel();
  if (auto it = cache.find(key); it != cache.end()) return it->second;
  xccl::UniqueId id{};
  if (comm.rank() == 0) id = xccl::UniqueId::derive(key ^ salt, ++seq);
  mpi.bcast(&id, sizeof(id), mini::kByte, 0, comm);
  std::vector<int> world_ranks(static_cast<std::size_t>(comm.size()));
  for (int r = 0; r < comm.size(); ++r) {
    world_ranks[static_cast<std::size_t>(r)] = comm.world_rank(r);
  }
  xccl::CclComm cc;
  throw_if_error(b.comm_init_rank(cc, comm.size(), id, comm.rank(), world_ranks),
                 "CCL communicator bootstrap");
  return cache.emplace(key, std::move(cc)).first->second;
}

XcclResult launch_builtin(xccl::CclBackend& b, xccl::CclComm& cc, device::Stream& s,
                          const mini::CollArgs& a) {
  const std::size_t n = a.count * a.dt.count;
  switch (a.coll) {
    case mini::Coll::Allreduce:
      return b.all_reduce(a.sendbuf, a.recvbuf, n, a.dt.base, a.redop, cc, s);
    case mini::Coll::Bcast:
      return b.broadcast(a.recvbuf, n, a.dt.base, a.root, cc, s);
    case mini::Coll::Reduce:
      return b.reduce(a.sendbuf, a.recvbuf, n, a.dt.base, a.redop, a.root, cc,
                      s);
    case mini::Coll::Allgather:
      return b.all_gather(a.sendbuf, a.recvbuf, n, a.dt.base, cc, s);
    default:
      return b.reduce_scatter(a.sendbuf, a.recvbuf, n, a.dt.base, a.redop, cc,
                              s);
  }
}

Completion XcclMpi::xccl_rung(XcclResult r, const EnginePick& pick,
                              bool composed) {
  // Success keeps the pick's own reason: a hier->xccl remap made at pick
  // time (HierOpUnsupported) stays visible in the decision log.
  if (ok(r)) {
    return {Engine::Xccl, false, composed, pick.reason,
            context().stream().tail()};
  }
  if (!options_.allow_fallback || !is_fallback_result(r)) {
    throw_if_error(r, "XcclMpi xccl path");  // r is an error: always throws
  }
  MPIXCCL_LOG_DEBUG("core", "fallback to MPI: ", to_string(r));
  return {Engine::Mpi, true, false, obs::fallback_reason_of(r)};
}

Completion XcclMpi::settle(Completion c) {
  if (c.engine == Engine::Xccl) {
    context().stream().synchronize(context().clock());
  }
  c.done_us = context().clock().now();
  return c;
}

Completion XcclMpi::execute(const Plan& p, const mini::CollArgs& a,
                            mini::Comm& comm) {
  Completion c{.reason = p.pick.reason};
  if (p.pick.engine == Engine::Hier) {
    // The hierarchical engine is host-driven (its stages block on MiniMPI),
    // so like the MPI engine it completes before returning.
    if (hier_->run(*p.hier, a, comm)) {
      return {Engine::Hier, false, true, obs::FallbackReason::None,
              context().clock().now()};
    }
    // Not node-blocked (or op/type outside hier's set): flat MPI.
    c.fell_back = true;
    c.reason = p.hier->usable ? obs::FallbackReason::HierOpUnsupported
                              : obs::FallbackReason::HierTopoMismatch;
  } else if (p.pick.engine == Engine::Xccl) {
    if (a.coll == mini::Coll::Allgather && a.dt.size() != a.rdt.size()) {
      // Mixed element sizes: the 1:1 builtin cannot serve the call.
      c.reason = obs::FallbackReason::MixedDatatype;
    } else {
      c = xccl_rung(launch_builtin(*backend_, *p.ccl, context().stream(), a),
                    p.pick, /*composed=*/false);
      if (c.engine == Engine::Xccl) return c;
    }
  }
  // MiniMPI's nonblocking collectives complete eagerly, so the blocking
  // algorithm serves every flavour.
  mpi_.run(a, comm);
  c.done_us = context().clock().now();
  return c;
}

double XcclMpi::dispatch(mini::CollArgs a, mini::Comm& comm, bool blocking,
                         std::shared_ptr<const Plan>* bound) {
  // A persistent handle's arguments were resolved at init.
  if (bound == nullptr) a = mini::resolve(a, comm);
  OpRecord rec(*this, op_of(a.coll), a.bytes());
  std::shared_ptr<const Plan> fetched;
  std::shared_ptr<const Plan>& plan = bound != nullptr ? *bound : fetched;
  // One-shot calls and stale persistent plans go through the cache (and
  // log their decision); a live persistent plan replays as compiled.
  const bool fetch = plan == nullptr || plan->stale;
  if (fetch) plan = plan_for(a, comm);
  rec.d_.plan_id = plan->id;
  obs::fleet::note_plan(rank(), plan->id);
  Completion c = execute(*plan, a, comm);
  if (blocking) c = settle(c);
  const std::string_view level_path =
      c.engine == Engine::Hier ? std::string_view(plan->hier->level_path)
                               : std::string_view();
  complete(rec, plan->pick, c, level_path, fetch);
  return c.done_us;
}

void XcclMpi::barrier(mini::Comm& comm) {
  // Barriers carry no data: the MPI dissemination barrier is strictly
  // cheaper than a CCL launch, so the hybrid always routes it to MPI. There
  // is no CollOp for barrier: it counts in PathStats only, and leaves an
  // empty (MPI) last-dispatch record.
  last_decision_ = {};
  ++stats_.mpi_calls;
  mpi_.barrier(comm);
}

// ---- Built-in collectives: blocking, nonblocking, persistent ----------------

void XcclMpi::allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                        mini::Datatype dt, ReduceOp op, mini::Comm& comm) {
  dispatch({.coll = mini::Coll::Allreduce, .sendbuf = sendbuf, .recvbuf = recvbuf,
            .count = count, .dt = dt, .redop = op},
           comm, /*blocking=*/true);
}

void XcclMpi::bcast(void* buf, std::size_t count, mini::Datatype dt, int root,
                    mini::Comm& comm) {
  dispatch({.coll = mini::Coll::Bcast, .recvbuf = buf, .count = count, .dt = dt,
            .root = root},
           comm, /*blocking=*/true);
}

void XcclMpi::reduce(const void* sendbuf, void* recvbuf, std::size_t count,
                     mini::Datatype dt, ReduceOp op, int root, mini::Comm& comm) {
  dispatch({.coll = mini::Coll::Reduce, .sendbuf = sendbuf, .recvbuf = recvbuf,
            .count = count, .dt = dt, .redop = op, .root = root},
           comm, /*blocking=*/true);
}

void XcclMpi::allgather(const void* sendbuf, std::size_t sendcount,
                        mini::Datatype st, void* recvbuf, std::size_t recvcount,
                        mini::Datatype rt, mini::Comm& comm) {
  dispatch({.coll = mini::Coll::Allgather, .sendbuf = sendbuf, .recvbuf = recvbuf,
            .count = sendcount, .dt = st, .rcount = recvcount, .rdt = rt},
           comm, /*blocking=*/true);
}

void XcclMpi::reduce_scatter_block(const void* sendbuf, void* recvbuf,
                                   std::size_t recvcount, mini::Datatype dt,
                                   ReduceOp op, mini::Comm& comm) {
  dispatch({.coll = mini::Coll::ReduceScatterBlock, .sendbuf = sendbuf,
            .recvbuf = recvbuf, .count = recvcount, .dt = dt, .redop = op},
           comm, /*blocking=*/true);
}

mini::Request XcclMpi::iallreduce(const void* sendbuf, void* recvbuf,
                                  std::size_t count, mini::Datatype dt,
                                  ReduceOp op, mini::Comm& comm) {
  return mini::Request::completed(
      dispatch({.coll = mini::Coll::Allreduce, .sendbuf = sendbuf, .recvbuf = recvbuf,
                .count = count, .dt = dt, .redop = op},
               comm, /*blocking=*/false));
}

mini::Request XcclMpi::ibcast(void* buf, std::size_t count, mini::Datatype dt,
                              int root, mini::Comm& comm) {
  return mini::Request::completed(
      dispatch({.coll = mini::Coll::Bcast, .recvbuf = buf, .count = count, .dt = dt,
                .root = root},
               comm, /*blocking=*/false));
}

mini::Request XcclMpi::iallgather(const void* sendbuf, std::size_t sendcount,
                                  mini::Datatype st, void* recvbuf,
                                  std::size_t recvcount, mini::Datatype rt,
                                  mini::Comm& comm) {
  return mini::Request::completed(
      dispatch({.coll = mini::Coll::Allgather, .sendbuf = sendbuf, .recvbuf = recvbuf,
                .count = sendcount, .dt = st, .rcount = recvcount, .rdt = rt},
               comm, /*blocking=*/false));
}

mini::Request XcclMpi::ireduce(const void* sendbuf, void* recvbuf,
                               std::size_t count, mini::Datatype dt, ReduceOp op,
                               int root, mini::Comm& comm) {
  return mini::Request::completed(
      dispatch({.coll = mini::Coll::Reduce, .sendbuf = sendbuf, .recvbuf = recvbuf,
                .count = count, .dt = dt, .redop = op, .root = root},
               comm, /*blocking=*/false));
}

mini::Request XcclMpi::ireduce_scatter_block(const void* sendbuf,
                                            void* recvbuf,
                                            std::size_t recvcount,
                                            mini::Datatype dt, ReduceOp op,
                                            mini::Comm& comm) {
  return mini::Request::completed(
      dispatch({.coll = mini::Coll::ReduceScatterBlock, .sendbuf = sendbuf,
                .recvbuf = recvbuf, .count = recvcount, .dt = dt, .redop = op},
               comm, /*blocking=*/false));
}

Persistent XcclMpi::make_persistent(const mini::CollArgs& a, mini::Comm& comm) {
  Persistent h;
  h.rt_ = this;
  h.args_ = mini::resolve(a, comm);
  h.comm_ = &comm;
  h.plan_ = plan_for(h.args_, comm);
  // One init-time decision-log entry explains every subsequent start():
  // replays update last_decision() but stay out of the decision view.
  const Plan& p = *h.plan_;
  obs::DispatchDecision d;
  d.rank = rank();
  d.op = op_of(a.coll);
  d.bytes = h.args_.bytes();
  d.mode = p.mode;
  d.breakpoint = p.pick.breakpoint;
  d.table_choice = p.pick.table_choice;
  d.engine = p.pick.engine;
  d.reason = p.pick.reason;
  if (p.hier != nullptr && p.hier->usable) d.level_path = p.hier->level_path;
  d.time_us = context().clock().now();
  obs::DecisionLog::instance().push(d);
  return h;
}

Persistent XcclMpi::allreduce_init(const void* sendbuf, void* recvbuf,
                                   std::size_t count, mini::Datatype dt,
                                   ReduceOp op, mini::Comm& comm) {
  return make_persistent({.coll = mini::Coll::Allreduce, .sendbuf = sendbuf,
                          .recvbuf = recvbuf, .count = count, .dt = dt,
                          .redop = op},
                         comm);
}

Persistent XcclMpi::bcast_init(void* buf, std::size_t count, mini::Datatype dt,
                               int root, mini::Comm& comm) {
  return make_persistent({.coll = mini::Coll::Bcast, .recvbuf = buf, .count = count,
                          .dt = dt, .root = root},
                         comm);
}

Persistent XcclMpi::reduce_init(const void* sendbuf, void* recvbuf,
                                std::size_t count, mini::Datatype dt,
                                ReduceOp op, int root, mini::Comm& comm) {
  return make_persistent({.coll = mini::Coll::Reduce, .sendbuf = sendbuf,
                          .recvbuf = recvbuf, .count = count, .dt = dt,
                          .redop = op, .root = root},
                         comm);
}

Persistent XcclMpi::allgather_init(const void* sendbuf, std::size_t sendcount,
                                   mini::Datatype st, void* recvbuf,
                                   std::size_t recvcount, mini::Datatype rt,
                                   mini::Comm& comm) {
  return make_persistent({.coll = mini::Coll::Allgather, .sendbuf = sendbuf,
                          .recvbuf = recvbuf, .count = sendcount, .dt = st,
                          .rcount = recvcount, .rdt = rt},
                         comm);
}

Persistent XcclMpi::reduce_scatter_init(const void* sendbuf, void* recvbuf,
                                        std::size_t recvcount,
                                        mini::Datatype dt, ReduceOp op,
                                        mini::Comm& comm) {
  return make_persistent({.coll = mini::Coll::ReduceScatterBlock, .sendbuf = sendbuf,
                          .recvbuf = recvbuf, .count = recvcount, .dt = dt,
                          .redop = op},
                         comm);
}

// ---- Composed send/recv collectives (paper Sec. 3.3, Listing 1) -----------
// One path, compose(): each call picks its own engine (no plan), runs the
// ladder's xCCL rung as one group of sends and recvs when the pick says
// xCCL, the MPI algorithm otherwise or on fallback, and closes its record
// with blocking semantics.

XcclResult XcclMpi::x_group(obs::SpanName name, const mini::CollArgs& a,
                            std::span<const P2pMove> sends,
                            std::span<const P2pMove> recvs, mini::Comm& comm) {
  const mini::Datatype st = a.dt;
  const mini::Datatype rt = a.rdt;
  const auto& caps = backend_->capabilities();
  if (!caps.can_move(st.base) || !caps.can_move(rt.base)) {
    return XcclResult::UnsupportedDatatype;
  }
  xccl::CclComm& cc =
      cached_ccl_comm(ccl_comms_, mpi_, *backend_, comm, 0, ccl_comm_seq_);
  device::Stream& stream = context().stream();
  // The error names the group's stage, built only on failure.
  const auto check = [name](XcclResult r, std::string_view step) {
    if (ok(r)) return;
    throw_if_error(r, std::string(sim::span_info(name).name) + ' ' +
                          std::string(step));
  };

  obs::Span span(rank(), context().clock(), name);
  check(backend_->group_start(), "group_start");
  for (const P2pMove& m : sends) {
    check(backend_->send(at(a.sendbuf, m.off * st.size()), m.count * st.count, st.base,
                         m.peer, cc, stream),
          "send");
  }
  for (const P2pMove& m : recvs) {
    check(backend_->recv(at(a.recvbuf, m.off * rt.size()), m.count * rt.count, rt.base,
                         m.peer, cc, stream),
          "recv");
  }
  check(backend_->group_end(), "group_end");
  return XcclResult::Success;
}

void XcclMpi::compose(mini::CollArgs a, mini::Comm& comm) {
  a = mini::resolve(a, comm);
  const CollOp op = op_of(a.coll);
  // The record's bytes: the receive block for scatter, the largest send
  // block for alltoallv, the send block otherwise.
  std::size_t bytes = op == CollOp::Scatter ? a.rcount * a.rdt.size() : a.bytes();
  if (op == CollOp::Alltoallv) {
    for (std::size_t c : a.scounts) bytes = std::max(bytes, c * a.dt.size());
  }
  OpRecord rec(*this, op, bytes);
  // In-place alltoall(v) reads and writes the same blocks: MiniMPI snapshots
  // the buffer, the grouped xCCL composition cannot.
  EnginePick pick{.reason = obs::FallbackReason::InPlace};
  if (!a.snapshot) {
    const bool device = a.device();
    // A v-form's byte count differs by rank and a Hybrid device pick reads
    // it, so those ranks agree on the max: a divergent pick would deadlock.
    const bool ragged = a.coll == mini::Coll::Gatherv || a.coll == mini::Coll::Scatterv ||
                        a.coll == mini::Coll::Allgatherv ||
                        a.coll == mini::Coll::Alltoallv;
    std::size_t pick_bytes = bytes;
    if (ragged && options_.mode == Mode::Hybrid && device) {
      pick_bytes =
          static_cast<std::size_t>(mpi_.max_over_ranks(static_cast<double>(bytes), comm));
    }
    pick = pick_classified(op, pick_bytes, device);
  }
  Completion c{.reason = pick.reason};
  if (pick.engine == Engine::Xccl) {
    // One move per rank of `comm`: its block of the send or receive side.
    const auto per_peer = [&](bool send) {
      std::vector<P2pMove> out;
      out.reserve(static_cast<std::size_t>(comm.size()));
      for (int r = 0; r < comm.size(); ++r) {
        const mini::Block b = send ? a.send_block(r) : a.recv_block(r);
        out.push_back({r, b.off, b.count});
      }
      return out;
    };
    const bool root = comm.rank() == a.root;
    // The rooted forms' one move to or from the root needs no list.
    const P2pMove root_move{a.root, 0, op == CollOp::Gather ? a.count : a.rcount};
    const std::span<const P2pMove> to_or_from_root(&root_move, 1);
    std::vector<P2pMove> sends;
    std::vector<P2pMove> recvs;
    obs::SpanName name = obs::SpanName::AlltoallvGroup;
    if (op == CollOp::Gather) {
      name = obs::SpanName::GathervGroup;
      if (root) recvs = per_peer(false);
    } else if (op == CollOp::Scatter) {
      name = obs::SpanName::ScattervGroup;
      if (root) sends = per_peer(true);
    } else if (op == CollOp::Allgatherv) {
      // This rank's one block to every rank: no CCL builtin handles ragged
      // blocks.
      name = obs::SpanName::AllgathervGroup;
      for (int r = 0; r < comm.size(); ++r) sends.push_back({r, 0, a.count});
      recvs = per_peer(false);
    } else {
      sends = per_peer(true);
      recvs = per_peer(false);
    }
    c = xccl_rung(x_group(name, a, op == CollOp::Gather ? to_or_from_root : sends,
                          op == CollOp::Scatter ? to_or_from_root : recvs, comm),
                  pick, /*composed=*/true);
  }
  if (c.engine == Engine::Mpi) mpi_.run(a, comm);
  complete(rec, pick, settle(c));
}

void XcclMpi::alltoall(const void* sendbuf, std::size_t sendcount,
                       mini::Datatype st, void* recvbuf, std::size_t recvcount,
                       mini::Datatype rt, mini::Comm& comm) {
  compose({.coll = mini::Coll::Alltoall, .sendbuf = sendbuf, .recvbuf = recvbuf,
           .count = sendcount, .dt = st, .rcount = recvcount, .rdt = rt}, comm);
}

void XcclMpi::alltoallv(const void* sendbuf,
                        std::span<const std::size_t> sendcounts,
                        std::span<const std::size_t> sdispls, mini::Datatype st,
                        void* recvbuf, std::span<const std::size_t> recvcounts,
                        std::span<const std::size_t> rdispls, mini::Datatype rt,
                        mini::Comm& comm) {
  compose({.coll = mini::Coll::Alltoallv, .sendbuf = sendbuf, .recvbuf = recvbuf,
           .dt = st, .rdt = rt, .scounts = sendcounts, .sdispls = sdispls,
           .rcounts = recvcounts, .rdispls = rdispls}, comm);
}

void XcclMpi::gather(const void* sendbuf, std::size_t sendcount, mini::Datatype st,
                     void* recvbuf, std::size_t recvcount, mini::Datatype rt,
                     int root, mini::Comm& comm) {
  compose({.coll = mini::Coll::Gather, .sendbuf = sendbuf, .recvbuf = recvbuf,
           .count = sendcount, .dt = st, .rcount = recvcount, .rdt = rt,
           .root = root}, comm);
}

void XcclMpi::gatherv(const void* sendbuf, std::size_t sendcount,
                      mini::Datatype st, void* recvbuf,
                      std::span<const std::size_t> recvcounts,
                      std::span<const std::size_t> displs, mini::Datatype rt,
                      int root, mini::Comm& comm) {
  compose({.coll = mini::Coll::Gatherv, .sendbuf = sendbuf, .recvbuf = recvbuf,
           .count = sendcount, .dt = st, .rdt = rt, .root = root,
           .rcounts = recvcounts, .rdispls = displs}, comm);
}

void XcclMpi::scatter(const void* sendbuf, std::size_t sendcount,
                      mini::Datatype st, void* recvbuf, std::size_t recvcount,
                      mini::Datatype rt, int root, mini::Comm& comm) {
  compose({.coll = mini::Coll::Scatter, .sendbuf = sendbuf, .recvbuf = recvbuf,
           .count = sendcount, .dt = st, .rcount = recvcount, .rdt = rt,
           .root = root}, comm);
}

void XcclMpi::scatterv(const void* sendbuf,
                       std::span<const std::size_t> sendcounts,
                       std::span<const std::size_t> displs, mini::Datatype st,
                       void* recvbuf, std::size_t recvcount, mini::Datatype rt,
                       int root, mini::Comm& comm) {
  compose({.coll = mini::Coll::Scatterv, .sendbuf = sendbuf, .recvbuf = recvbuf,
           .dt = st, .rcount = recvcount, .rdt = rt, .root = root,
           .scounts = sendcounts, .sdispls = displs}, comm);
}

void XcclMpi::allgatherv(const void* sendbuf, std::size_t sendcount,
                         mini::Datatype st, void* recvbuf,
                         std::span<const std::size_t> recvcounts,
                         std::span<const std::size_t> displs, mini::Datatype rt,
                         mini::Comm& comm) {
  compose({.coll = mini::Coll::Allgatherv, .sendbuf = sendbuf, .recvbuf = recvbuf,
           .count = sendcount, .dt = st, .rdt = rt, .rcounts = recvcounts,
           .rdispls = displs}, comm);
}

void XcclMpi::scan(const void* sendbuf, void* recvbuf, std::size_t count,
                   mini::Datatype dt, ReduceOp op, mini::Comm& comm) {
  // No CCL builtin and a serial dependency chain: always MPI.
  OpRecord rec(*this, CollOp::Scan, count * dt.size());
  mpi_.scan(sendbuf, recvbuf, count, dt, op, comm);
  complete(rec, {}, settle({}));
}

void XcclMpi::exscan(const void* sendbuf, void* recvbuf, std::size_t count,
                     mini::Datatype dt, ReduceOp op, mini::Comm& comm) {
  OpRecord rec(*this, CollOp::Scan, count * dt.size());
  mpi_.exscan(sendbuf, recvbuf, count, dt, op, comm);
  complete(rec, {}, settle({}));
}

}  // namespace mpixccl::core
