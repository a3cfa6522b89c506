#include "core/xccl_mpi.hpp"

#include <cstdlib>
#include <cstring>

#include "common/log.hpp"
#include "device/buffer_registry.hpp"
#include "obs/analyze.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"

namespace mpixccl::core {

namespace {
const std::byte* cat(const void* p, std::size_t off) {
  return static_cast<const std::byte*>(p) + off;
}
std::byte* mat(void* p, std::size_t off) { return static_cast<std::byte*>(p) + off; }
}  // namespace

namespace {
TuningTable resolve_tuning(const XcclMpiOptions& options,
                           const sim::SystemProfile& profile) {
  if (options.tuning) return *options.tuning;
  if (options.tuning_file) return TuningTable::load_file(*options.tuning_file);
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
  if (options_.hier_single_copy_min) {
    hier_->set_single_copy_min(*options_.hier_single_copy_min);
  }
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
  if (!adaptive_.manages(op)) adapt_op(op);
  adaptive_.set_range(op, lo, hi, engine);
  // Targeted invalidation: a plan survives iff its validity band still sits
  // inside a single effective rule whose engine matches the plan's original
  // table choice. Only Hybrid device plans consulted the table; everything
  // else decided independently of it and is untouched.
  const auto* rules = effective_rules(op);
  const std::size_t dropped = plans_.invalidate_if([&](const Plan& p) {
    if (p.key.op != op) return false;
    if (p.mode != Mode::Hybrid || !p.key.device) return false;
    if (rules == nullptr) return true;
    for (const TuningTable::Entry& e : *rules) {
      if (p.min_bytes <= e.max_bytes) {
        return p.max_bytes > e.max_bytes || e.engine != p.pick.table_choice;
      }
    }
    return true;
  });
  if (dropped > 0) ctr_plan_invalidate_->add(dropped, rank());
  return dropped;
}

void XcclMpi::clear_adaptive() {
  if (adaptive_.empty()) return;
  adaptive_.clear();
  invalidate_plans();
}

bool XcclMpi::any_device_buffer(const void* a, const void* b) const {
  const auto& reg = device::BufferRegistry::instance();
  return (a != nullptr && reg.lookup(a).has_value()) ||
         (b != nullptr && reg.lookup(b).has_value());
}

EnginePick XcclMpi::pick_from_entry(CollOp op, const TuningTable::Entry& e) {
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

EnginePick XcclMpi::pick_table(CollOp op, std::size_t bytes) const {
  if (adaptive_.manages(op)) {
    return pick_from_entry(op, adaptive_.select_entry(op, bytes));
  }
  return pick_from_entry(op, tuning_.select_entry(op, bytes));
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

EnginePick XcclMpi::pick_engine(CollOp op, std::size_t bytes,
                                const void* a, const void* b) {
  return pick_classified(op, bytes, any_device_buffer(a, b));
}

EnginePick XcclMpi::pick_engine_agreed(CollOp op,
                                       std::size_t local_bytes,
                                       const void* a, const void* b,
                                       mini::Comm& comm) {
  const bool device = any_device_buffer(a, b);
  // Only a Hybrid device pick reads the byte count, so only it must agree.
  if (options_.mode == Mode::Hybrid && device) {
    local_bytes = static_cast<std::size_t>(
        mpi_.max_over_ranks(static_cast<double>(local_bytes), comm));
  }
  return pick_classified(op, local_bytes, device);
}

xccl::CclComm& XcclMpi::ccl_comm(mini::Comm& comm) {
  const fabric::ChannelId key = comm.p2p_channel();
  auto it = ccl_comms_.find(key);
  if (it != ccl_comms_.end()) return it->second;

  // Collective creation, mirroring the real bootstrap: the root generates a
  // unique id and broadcasts it over MPI; everyone joins.
  xccl::UniqueId id{};
  if (comm.rank() == 0) id = xccl::UniqueId::derive(key, ++ccl_comm_seq_);
  mpi_.bcast(&id, sizeof(id), mini::kByte, 0, comm);

  std::vector<int> world_ranks(static_cast<std::size_t>(comm.size()));
  for (int r = 0; r < comm.size(); ++r) {
    world_ranks[static_cast<std::size_t>(r)] = comm.world_rank(r);
  }
  xccl::CclComm cc;
  throw_if_error(
      backend_->comm_init_rank(cc, comm.size(), id, comm.rank(), world_ranks),
      "XcclMpi: CCL communicator bootstrap");
  return ccl_comms_.emplace(key, std::move(cc)).first->second;
}

// ---- Plan/execute split -----------------------------------------------------

std::shared_ptr<const Plan> XcclMpi::plan_for(const CallArgs& a,
                                              mini::Comm& comm) {
  const std::size_t bytes = a.bytes();
  PlanKey key;
  key.op = a.op;
  key.base = a.dt.base;
  key.redop = a.redop;
  key.device = any_device_buffer(a.sendbuf, a.recvbuf);
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
  std::shared_ptr<Plan> plan = build_plan(key, a.op, bytes, comm);
  const std::size_t evicted = plans_.insert(plan);
  if (evicted > 0) ctr_plan_evict_->add(evicted, rank());
  return plan;
}

std::shared_ptr<Plan> XcclMpi::build_plan(const PlanKey& key, CollOp op,
                                          std::size_t bytes, mini::Comm& comm) {
  const double t0 = context().clock().now();
  obs::Span span(rank(), context().clock(), "plan.build", "core.plan");
  auto plan = std::make_shared<Plan>();
  plan->key = key;
  plan->id = next_plan_id();
  plan->mode = options_.mode;
  plan->pick = pick_classified(op, bytes, key.device);
  // Validity band: the byte range over which the matched tuning rule (and
  // thus this plan's engine) holds. Only Hybrid device dispatches consult
  // the table; everything else decides independently of the byte count.
  if (options_.mode == Mode::Hybrid && key.device) {
    if (const auto* rules = effective_rules(op); rules != nullptr) {
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
    plan->ccl = &ccl_comm(comm);
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
  // Persistent replays keep seq 0: the init-time entry explains their
  // routing, and the replay path must not pay the ring lock.
  if (log) d.seq = obs::DecisionLog::instance().push(d);
  last_decision_ = std::move(d);

  // Every sink below reads the one finished record.
  const obs::DispatchDecision& done = last_decision_;
  auto& reg = obs::Registry::instance();
  reg.record_call(done.op, done.engine, done.rank, done.bytes);
  reg.record_latency(done.op, done.engine, done.bytes, done.elapsed_us());
  // Slow-call hook: the flight recorder keeps the top-K slowest dispatches
  // (fast path: one relaxed load, no copy).
  obs::FlightRecorder::instance().record(done);
  sim::Trace::instance().record(done.rank, to_string(done.op),
                                to_string(done.engine), done.enter_us,
                                done.done_us);
  obs::fleet::dispatch_exit(done);
}

// ---- The dispatch ladder ----------------------------------------------------

namespace {

/// Point MPI_IN_PLACE at the buffer the engines actually read.
CallArgs resolve_in_place(CallArgs a, int rank) {
  if (a.sendbuf != mini::kInPlace) return a;
  switch (a.op) {
    case CollOp::Allreduce: a.sendbuf = a.recvbuf; break;
    case CollOp::Reduce:
      if (rank == a.root) a.sendbuf = a.recvbuf;
      break;
    case CollOp::Allgather:
      a.sendbuf = cat(a.recvbuf,
                      static_cast<std::size_t>(rank) * a.rcount * a.rdt.size());
      a.count = a.rcount;
      a.dt = a.rdt;
      break;
    default: break;
  }
  return a;
}

bool run_hier(hier::HierEngine& h, hier::HierEngine::HierComms& hc,
              const CallArgs& a, mini::Comm& comm) {
  switch (a.op) {
    case CollOp::Allreduce:
      return h.allreduce(hc, a.sendbuf, a.recvbuf, a.count, a.dt, a.redop,
                         comm);
    case CollOp::Bcast:
      return h.bcast(hc, a.recvbuf, a.count, a.dt, a.root, comm);
    case CollOp::Reduce:
      return h.reduce(hc, a.sendbuf, a.recvbuf, a.count, a.dt, a.redop, a.root,
                      comm);
    case CollOp::Allgather:
      return h.allgather(hc, a.sendbuf, a.count, a.dt, a.recvbuf, a.rcount,
                         a.rdt, comm);
    default:
      return h.reduce_scatter_block(hc, a.sendbuf, a.recvbuf, a.count, a.dt,
                                    a.redop, comm);
  }
}

XcclResult launch_xccl(xccl::CclBackend& b, xccl::CclComm& cc,
                       device::Stream& s, const CallArgs& a) {
  const std::size_t n = a.count * a.dt.count;
  switch (a.op) {
    case CollOp::Allreduce:
      return b.all_reduce(a.sendbuf, a.recvbuf, n, a.dt.base, a.redop, cc, s);
    case CollOp::Bcast:
      return b.broadcast(a.recvbuf, n, a.dt.base, a.root, cc, s);
    case CollOp::Reduce:
      return b.reduce(a.sendbuf, a.recvbuf, n, a.dt.base, a.redop, a.root, cc,
                      s);
    case CollOp::Allgather:
      return b.all_gather(a.sendbuf, a.recvbuf, n, a.dt.base, cc, s);
    default:
      return b.reduce_scatter(a.sendbuf, a.recvbuf, n, a.dt.base, a.redop, cc,
                              s);
  }
}

/// The blocking MPI algorithm for every flavour: MiniMPI's nonblocking
/// collectives complete eagerly, so this is what they would run anyway.
void run_mpi(mini::Mpi& mpi, const CallArgs& a, mini::Comm& comm) {
  switch (a.op) {
    case CollOp::Allreduce:
      mpi.allreduce(a.sendbuf, a.recvbuf, a.count, a.dt, a.redop, comm);
      break;
    case CollOp::Bcast: mpi.bcast(a.recvbuf, a.count, a.dt, a.root, comm); break;
    case CollOp::Reduce:
      mpi.reduce(a.sendbuf, a.recvbuf, a.count, a.dt, a.redop, a.root, comm);
      break;
    case CollOp::Allgather:
      mpi.allgather(a.sendbuf, a.count, a.dt, a.recvbuf, a.rcount, a.rdt, comm);
      break;
    default:
      mpi.reduce_scatter_block(a.sendbuf, a.recvbuf, a.count, a.dt, a.redop,
                               comm);
      break;
  }
}

}  // namespace

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

Completion XcclMpi::execute(const Plan& p, const CallArgs& a,
                            mini::Comm& comm) {
  Completion c{.reason = p.pick.reason};
  if (p.pick.engine == Engine::Hier) {
    // The hierarchical engine is host-driven (its stages block on MiniMPI),
    // so like the MPI engine it completes before returning.
    if (run_hier(*hier_, *p.hier, a, comm)) {
      return {Engine::Hier, false, true, obs::FallbackReason::None,
              context().clock().now()};
    }
    // Not node-blocked (or op/type outside hier's set): flat MPI.
    c.fell_back = true;
    c.reason = p.hier->usable ? obs::FallbackReason::HierOpUnsupported
                              : obs::FallbackReason::HierTopoMismatch;
  } else if (p.pick.engine == Engine::Xccl) {
    if (a.op == CollOp::Allgather && a.dt.size() != a.rdt.size()) {
      // Mixed element sizes: the 1:1 builtin cannot serve the call.
      c.reason = obs::FallbackReason::MixedDatatype;
    } else {
      c = xccl_rung(launch_xccl(*backend_, *p.ccl, context().stream(), a),
                    p.pick, /*composed=*/false);
      if (c.engine == Engine::Xccl) return c;
    }
  }
  run_mpi(mpi_, a, comm);
  c.done_us = context().clock().now();
  return c;
}

double XcclMpi::dispatch(CallArgs a, mini::Comm& comm, bool blocking,
                         std::shared_ptr<const Plan>* bound) {
  a = resolve_in_place(a, comm.rank());
  OpRecord rec(*this, a.op, a.bytes());
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
  dispatch({.op = CollOp::Allreduce, .sendbuf = sendbuf, .recvbuf = recvbuf,
            .count = count, .dt = dt, .redop = op},
           comm, /*blocking=*/true);
}

void XcclMpi::bcast(void* buf, std::size_t count, mini::Datatype dt, int root,
                    mini::Comm& comm) {
  dispatch({.op = CollOp::Bcast, .recvbuf = buf, .count = count, .dt = dt,
            .root = root},
           comm, /*blocking=*/true);
}

void XcclMpi::reduce(const void* sendbuf, void* recvbuf, std::size_t count,
                     mini::Datatype dt, ReduceOp op, int root, mini::Comm& comm) {
  dispatch({.op = CollOp::Reduce, .sendbuf = sendbuf, .recvbuf = recvbuf,
            .count = count, .dt = dt, .redop = op, .root = root},
           comm, /*blocking=*/true);
}

void XcclMpi::allgather(const void* sendbuf, std::size_t sendcount,
                        mini::Datatype st, void* recvbuf, std::size_t recvcount,
                        mini::Datatype rt, mini::Comm& comm) {
  dispatch({.op = CollOp::Allgather, .sendbuf = sendbuf, .recvbuf = recvbuf,
            .count = sendcount, .dt = st, .rcount = recvcount, .rdt = rt},
           comm, /*blocking=*/true);
}

void XcclMpi::reduce_scatter_block(const void* sendbuf, void* recvbuf,
                                   std::size_t recvcount, mini::Datatype dt,
                                   ReduceOp op, mini::Comm& comm) {
  dispatch({.op = CollOp::ReduceScatter, .sendbuf = sendbuf, .recvbuf = recvbuf,
            .count = recvcount, .dt = dt, .redop = op},
           comm, /*blocking=*/true);
}

mini::Request XcclMpi::iallreduce(const void* sendbuf, void* recvbuf,
                                  std::size_t count, mini::Datatype dt,
                                  ReduceOp op, mini::Comm& comm) {
  return mini::Request::completed(
      dispatch({.op = CollOp::Allreduce, .sendbuf = sendbuf, .recvbuf = recvbuf,
                .count = count, .dt = dt, .redop = op},
               comm, /*blocking=*/false));
}

mini::Request XcclMpi::ibcast(void* buf, std::size_t count, mini::Datatype dt,
                              int root, mini::Comm& comm) {
  return mini::Request::completed(
      dispatch({.op = CollOp::Bcast, .recvbuf = buf, .count = count, .dt = dt,
                .root = root},
               comm, /*blocking=*/false));
}

mini::Request XcclMpi::iallgather(const void* sendbuf, std::size_t sendcount,
                                  mini::Datatype st, void* recvbuf,
                                  std::size_t recvcount, mini::Datatype rt,
                                  mini::Comm& comm) {
  return mini::Request::completed(
      dispatch({.op = CollOp::Allgather, .sendbuf = sendbuf, .recvbuf = recvbuf,
                .count = sendcount, .dt = st, .rcount = recvcount, .rdt = rt},
               comm, /*blocking=*/false));
}

mini::Request XcclMpi::ireduce(const void* sendbuf, void* recvbuf,
                               std::size_t count, mini::Datatype dt, ReduceOp op,
                               int root, mini::Comm& comm) {
  return mini::Request::completed(
      dispatch({.op = CollOp::Reduce, .sendbuf = sendbuf, .recvbuf = recvbuf,
                .count = count, .dt = dt, .redop = op, .root = root},
               comm, /*blocking=*/false));
}

mini::Request XcclMpi::ireduce_scatter_block(const void* sendbuf,
                                            void* recvbuf,
                                            std::size_t recvcount,
                                            mini::Datatype dt, ReduceOp op,
                                            mini::Comm& comm) {
  return mini::Request::completed(
      dispatch({.op = CollOp::ReduceScatter, .sendbuf = sendbuf,
                .recvbuf = recvbuf, .count = recvcount, .dt = dt, .redop = op},
               comm, /*blocking=*/false));
}

Persistent XcclMpi::make_persistent(CallArgs a, mini::Comm& comm) {
  Persistent h;
  h.rt_ = this;
  h.args_ = resolve_in_place(a, comm.rank());
  h.comm_ = &comm;
  h.plan_ = plan_for(h.args_, comm);
  // One init-time decision-log entry explains every subsequent start():
  // replays update last_decision() but never the ring.
  const Plan& p = *h.plan_;
  obs::DispatchDecision d;
  d.rank = rank();
  d.op = a.op;
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
  return make_persistent({.op = CollOp::Allreduce, .sendbuf = sendbuf,
                          .recvbuf = recvbuf, .count = count, .dt = dt,
                          .redop = op},
                         comm);
}

Persistent XcclMpi::bcast_init(void* buf, std::size_t count, mini::Datatype dt,
                               int root, mini::Comm& comm) {
  return make_persistent({.op = CollOp::Bcast, .recvbuf = buf, .count = count,
                          .dt = dt, .root = root},
                         comm);
}

Persistent XcclMpi::reduce_init(const void* sendbuf, void* recvbuf,
                                std::size_t count, mini::Datatype dt,
                                ReduceOp op, int root, mini::Comm& comm) {
  return make_persistent({.op = CollOp::Reduce, .sendbuf = sendbuf,
                          .recvbuf = recvbuf, .count = count, .dt = dt,
                          .redop = op, .root = root},
                         comm);
}

Persistent XcclMpi::allgather_init(const void* sendbuf, std::size_t sendcount,
                                   mini::Datatype st, void* recvbuf,
                                   std::size_t recvcount, mini::Datatype rt,
                                   mini::Comm& comm) {
  return make_persistent({.op = CollOp::Allgather, .sendbuf = sendbuf,
                          .recvbuf = recvbuf, .count = sendcount, .dt = st,
                          .rcount = recvcount, .rdt = rt},
                         comm);
}

Persistent XcclMpi::reduce_scatter_init(const void* sendbuf, void* recvbuf,
                                        std::size_t recvcount,
                                        mini::Datatype dt, ReduceOp op,
                                        mini::Comm& comm) {
  return make_persistent({.op = CollOp::ReduceScatter, .sendbuf = sendbuf,
                          .recvbuf = recvbuf, .count = recvcount, .dt = dt,
                          .redop = op},
                         comm);
}

// ---- Composed send/recv collectives (paper Sec. 3.3, Listing 1) -----------
// Each picks its own engine (no plan), runs the ladder's xCCL rung when the
// pick says xCCL, the MPI algorithm otherwise or on fallback, and closes
// its record with blocking semantics.

XcclResult XcclMpi::x_alltoallv(const void* sendbuf,
                                std::span<const std::size_t> sendcounts,
                                std::span<const std::size_t> sdispls,
                                mini::Datatype st, void* recvbuf,
                                std::span<const std::size_t> recvcounts,
                                std::span<const std::size_t> rdispls,
                                mini::Datatype rt, mini::Comm& comm) {
  const auto& caps = backend_->capabilities();
  if (!caps.can_move(st.base) || !caps.can_move(rt.base)) {
    return XcclResult::UnsupportedDatatype;
  }
  xccl::CclComm& cc = ccl_comm(comm);
  device::Stream& stream = context().stream();
  const std::size_t ssz = st.size();
  const std::size_t rsz = rt.size();

  // Listing 1: one group enclosing a send and a recv per peer.
  obs::Span span(rank(), context().clock(), "alltoallv.group", "xccl.stage");
  throw_if_error(backend_->group_start(), "x_alltoallv group_start");
  for (int r = 0; r < comm.size(); ++r) {
    const auto ur = static_cast<std::size_t>(r);
    throw_if_error(backend_->send(cat(sendbuf, sdispls[ur] * ssz),
                                  sendcounts[ur] * st.count, st.base, r, cc,
                                  stream),
                   "x_alltoallv send");
    throw_if_error(backend_->recv(mat(recvbuf, rdispls[ur] * rsz),
                                  recvcounts[ur] * rt.count, rt.base, r, cc,
                                  stream),
                   "x_alltoallv recv");
  }
  throw_if_error(backend_->group_end(), "x_alltoallv group_end");
  return XcclResult::Success;
}

void XcclMpi::alltoall(const void* sendbuf, std::size_t sendcount,
                       mini::Datatype st, void* recvbuf, std::size_t recvcount,
                       mini::Datatype rt, mini::Comm& comm) {
  // In-place alltoall reads and writes the same blocks; the MPI engine
  // snapshots the buffer, the grouped xCCL composition cannot.
  const bool in_place = sendbuf == mini::kInPlace;
  OpRecord rec(*this, CollOp::Alltoall,
               in_place ? recvcount * rt.size() : sendcount * st.size());
  const EnginePick pick =
      in_place ? EnginePick{.reason = obs::FallbackReason::InPlace}
               : pick_engine(CollOp::Alltoall, rec.d_.bytes, sendbuf, recvbuf);
  Completion c{.reason = pick.reason};
  if (pick.engine == Engine::Xccl) {
    const auto up = static_cast<std::size_t>(comm.size());
    std::vector<std::size_t> counts(up, sendcount);
    std::vector<std::size_t> sdispls(up);
    std::vector<std::size_t> rdispls(up);
    for (std::size_t r = 0; r < up; ++r) {
      sdispls[r] = r * sendcount;
      rdispls[r] = r * recvcount;
    }
    c = xccl_rung(x_alltoallv(sendbuf, counts, sdispls, st, recvbuf, counts,
                              rdispls, rt, comm),
                  pick, /*composed=*/true);
  }
  if (c.engine == Engine::Mpi) {
    mpi_.alltoall(sendbuf, sendcount, st, recvbuf, recvcount, rt, comm);
  }
  complete(rec, pick, settle(c));
}

void XcclMpi::alltoallv(const void* sendbuf,
                        std::span<const std::size_t> sendcounts,
                        std::span<const std::size_t> sdispls, mini::Datatype st,
                        void* recvbuf, std::span<const std::size_t> recvcounts,
                        std::span<const std::size_t> rdispls, mini::Datatype rt,
                        mini::Comm& comm) {
  std::size_t max_block = 0;
  for (std::size_t c : sendcounts) max_block = std::max(max_block, c * st.size());
  OpRecord rec(*this, CollOp::Alltoallv, max_block);
  const EnginePick pick =
      pick_engine_agreed(CollOp::Alltoallv, max_block, sendbuf, recvbuf, comm);
  Completion c{.reason = pick.reason};
  if (pick.engine == Engine::Xccl) {
    c = xccl_rung(x_alltoallv(sendbuf, sendcounts, sdispls, st, recvbuf,
                              recvcounts, rdispls, rt, comm),
                  pick, /*composed=*/true);
  }
  if (c.engine == Engine::Mpi) {
    mpi_.alltoallv(sendbuf, sendcounts, sdispls, st, recvbuf, recvcounts,
                   rdispls, rt, comm);
  }
  complete(rec, pick, settle(c));
}

XcclResult XcclMpi::x_gatherv(const void* sendbuf, std::size_t sendcount,
                              mini::Datatype st, void* recvbuf,
                              std::span<const std::size_t> recvcounts,
                              std::span<const std::size_t> displs,
                              mini::Datatype rt, int root, mini::Comm& comm) {
  const auto& caps = backend_->capabilities();
  if (!caps.can_move(st.base) || !caps.can_move(rt.base)) {
    return XcclResult::UnsupportedDatatype;
  }
  xccl::CclComm& cc = ccl_comm(comm);
  device::Stream& stream = context().stream();

  obs::Span span(rank(), context().clock(), "gatherv.group", "xccl.stage");
  throw_if_error(backend_->group_start(), "x_gatherv group_start");
  throw_if_error(backend_->send(sendbuf, sendcount * st.count, st.base, root, cc,
                                stream),
                 "x_gatherv send");
  if (comm.rank() == root) {
    const std::size_t rsz = rt.size();
    for (int r = 0; r < comm.size(); ++r) {
      const auto ur = static_cast<std::size_t>(r);
      throw_if_error(backend_->recv(mat(recvbuf, displs[ur] * rsz),
                                    recvcounts[ur] * rt.count, rt.base, r, cc,
                                    stream),
                     "x_gatherv recv");
    }
  }
  throw_if_error(backend_->group_end(), "x_gatherv group_end");
  return XcclResult::Success;
}

void XcclMpi::gather(const void* sendbuf, std::size_t sendcount, mini::Datatype st,
                     void* recvbuf, std::size_t recvcount, mini::Datatype rt,
                     int root, mini::Comm& comm) {
  OpRecord rec(*this, CollOp::Gather, sendcount * st.size());
  const EnginePick pick =
      pick_engine(CollOp::Gather, rec.d_.bytes, sendbuf, recvbuf);
  Completion c{.reason = pick.reason};
  if (pick.engine == Engine::Xccl) {
    const auto up = static_cast<std::size_t>(comm.size());
    std::vector<std::size_t> counts(up, recvcount);
    std::vector<std::size_t> displs(up);
    for (std::size_t r = 0; r < up; ++r) displs[r] = r * recvcount;
    c = xccl_rung(x_gatherv(sendbuf, sendcount, st, recvbuf, counts, displs, rt,
                            root, comm),
                  pick, /*composed=*/true);
  }
  if (c.engine == Engine::Mpi) {
    mpi_.gather(sendbuf, sendcount, st, recvbuf, recvcount, rt, root, comm);
  }
  complete(rec, pick, settle(c));
}

void XcclMpi::gatherv(const void* sendbuf, std::size_t sendcount,
                      mini::Datatype st, void* recvbuf,
                      std::span<const std::size_t> recvcounts,
                      std::span<const std::size_t> displs, mini::Datatype rt,
                      int root, mini::Comm& comm) {
  OpRecord rec(*this, CollOp::Gather, sendcount * st.size());
  const EnginePick pick =
      pick_engine_agreed(CollOp::Gather, rec.d_.bytes, sendbuf, recvbuf, comm);
  Completion c{.reason = pick.reason};
  if (pick.engine == Engine::Xccl) {
    c = xccl_rung(x_gatherv(sendbuf, sendcount, st, recvbuf, recvcounts, displs,
                            rt, root, comm),
                  pick, /*composed=*/true);
  }
  if (c.engine == Engine::Mpi) {
    mpi_.gatherv(sendbuf, sendcount, st, recvbuf, recvcounts, displs, rt, root,
                 comm);
  }
  complete(rec, pick, settle(c));
}

XcclResult XcclMpi::x_scatterv(const void* sendbuf,
                               std::span<const std::size_t> sendcounts,
                               std::span<const std::size_t> displs,
                               mini::Datatype st, void* recvbuf,
                               std::size_t recvcount, mini::Datatype rt, int root,
                               mini::Comm& comm) {
  const auto& caps = backend_->capabilities();
  if (!caps.can_move(st.base) || !caps.can_move(rt.base)) {
    return XcclResult::UnsupportedDatatype;
  }
  xccl::CclComm& cc = ccl_comm(comm);
  device::Stream& stream = context().stream();

  obs::Span span(rank(), context().clock(), "scatterv.group", "xccl.stage");
  throw_if_error(backend_->group_start(), "x_scatterv group_start");
  if (comm.rank() == root) {
    const std::size_t ssz = st.size();
    for (int r = 0; r < comm.size(); ++r) {
      const auto ur = static_cast<std::size_t>(r);
      throw_if_error(backend_->send(cat(sendbuf, displs[ur] * ssz),
                                    sendcounts[ur] * st.count, st.base, r, cc,
                                    stream),
                     "x_scatterv send");
    }
  }
  throw_if_error(backend_->recv(recvbuf, recvcount * rt.count, rt.base, root, cc,
                                stream),
                 "x_scatterv recv");
  throw_if_error(backend_->group_end(), "x_scatterv group_end");
  return XcclResult::Success;
}

void XcclMpi::scatter(const void* sendbuf, std::size_t sendcount,
                      mini::Datatype st, void* recvbuf, std::size_t recvcount,
                      mini::Datatype rt, int root, mini::Comm& comm) {
  OpRecord rec(*this, CollOp::Scatter, recvcount * rt.size());
  const EnginePick pick =
      pick_engine(CollOp::Scatter, rec.d_.bytes, sendbuf, recvbuf);
  Completion c{.reason = pick.reason};
  if (pick.engine == Engine::Xccl) {
    const auto up = static_cast<std::size_t>(comm.size());
    std::vector<std::size_t> counts(up, sendcount);
    std::vector<std::size_t> displs(up);
    for (std::size_t r = 0; r < up; ++r) displs[r] = r * sendcount;
    c = xccl_rung(x_scatterv(sendbuf, counts, displs, st, recvbuf, recvcount, rt,
                             root, comm),
                  pick, /*composed=*/true);
  }
  if (c.engine == Engine::Mpi) {
    mpi_.scatter(sendbuf, sendcount, st, recvbuf, recvcount, rt, root, comm);
  }
  complete(rec, pick, settle(c));
}

void XcclMpi::scatterv(const void* sendbuf,
                       std::span<const std::size_t> sendcounts,
                       std::span<const std::size_t> displs, mini::Datatype st,
                       void* recvbuf, std::size_t recvcount, mini::Datatype rt,
                       int root, mini::Comm& comm) {
  OpRecord rec(*this, CollOp::Scatter, recvcount * rt.size());
  const EnginePick pick =
      pick_engine_agreed(CollOp::Scatter, rec.d_.bytes, sendbuf, recvbuf, comm);
  Completion c{.reason = pick.reason};
  if (pick.engine == Engine::Xccl) {
    c = xccl_rung(x_scatterv(sendbuf, sendcounts, displs, st, recvbuf, recvcount,
                             rt, root, comm),
                  pick, /*composed=*/true);
  }
  if (c.engine == Engine::Mpi) {
    mpi_.scatterv(sendbuf, sendcounts, displs, st, recvbuf, recvcount, rt, root,
                  comm);
  }
  complete(rec, pick, settle(c));
}

XcclResult XcclMpi::x_allgatherv(const void* sendbuf, std::size_t sendcount,
                                 mini::Datatype st, void* recvbuf,
                                 std::span<const std::size_t> recvcounts,
                                 std::span<const std::size_t> displs,
                                 mini::Datatype rt, mini::Comm& comm) {
  const auto& caps = backend_->capabilities();
  if (!caps.can_move(st.base) || !caps.can_move(rt.base)) {
    return XcclResult::UnsupportedDatatype;
  }
  xccl::CclComm& cc = ccl_comm(comm);
  device::Stream& stream = context().stream();
  const std::size_t rsz = rt.size();

  // Every rank sends its block to everyone and receives all blocks (no CCL
  // builtin handles ragged blocks).
  obs::Span span(rank(), context().clock(), "allgatherv.group", "xccl.stage");
  throw_if_error(backend_->group_start(), "allgatherv group_start");
  for (int r = 0; r < comm.size(); ++r) {
    const auto ur = static_cast<std::size_t>(r);
    throw_if_error(backend_->send(sendbuf, sendcount * st.count, st.base, r, cc,
                                  stream),
                   "allgatherv send");
    throw_if_error(backend_->recv(mat(recvbuf, displs[ur] * rsz),
                                  recvcounts[ur] * rt.count, rt.base, r, cc,
                                  stream),
                   "allgatherv recv");
  }
  throw_if_error(backend_->group_end(), "allgatherv group_end");
  return XcclResult::Success;
}

void XcclMpi::allgatherv(const void* sendbuf, std::size_t sendcount,
                         mini::Datatype st, void* recvbuf,
                         std::span<const std::size_t> recvcounts,
                         std::span<const std::size_t> displs, mini::Datatype rt,
                         mini::Comm& comm) {
  OpRecord rec(*this, CollOp::Allgatherv, sendcount * st.size());
  const EnginePick pick = pick_engine_agreed(CollOp::Allgatherv, rec.d_.bytes,
                                             sendbuf, recvbuf, comm);
  Completion c{.reason = pick.reason};
  if (pick.engine == Engine::Xccl) {
    c = xccl_rung(x_allgatherv(sendbuf, sendcount, st, recvbuf, recvcounts,
                               displs, rt, comm),
                  pick, /*composed=*/true);
  }
  if (c.engine == Engine::Mpi) {
    mpi_.allgatherv(sendbuf, sendcount, st, recvbuf, recvcounts, displs, rt,
                    comm);
  }
  complete(rec, pick, settle(c));
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
