#pragma once
// MPI-xCCL: the paper's contribution. An MPI-standard-shaped runtime whose
// collectives dispatch, per call, to either the GPU-aware MPI algorithms or
// a vendor CCL backend through the xCCL abstraction layer (paper Fig. 2).
//
// What the layer does per collective call:
//   0. Entry check — mini::resolve (mpi/coll_args.hpp) validates the
//      arguments and resolves MPI_IN_PLACE before anything below sees them.
//   1. Device Buffer Identify — mini::resolve classifies each buffer once,
//      at the entry (a persistent handle's at *_init); everything below reads
//      the kinds from the resolved arguments. Host buffers always ride the
//      MPI path (CCLs require device memory).
//   2. Datatype / reduce-op support check against the backend Capabilities;
//      unsupported combinations transparently fall back to MPI (the paper's
//      automatic error handling, e.g. MPI_DOUBLE_COMPLEX for FFT codes on
//      NCCL, or anything non-float on HCCL).
//   3. Hybrid selection — consult the tuning table (offline-tuned message
//      size thresholds) to pick MPI vs xCCL in Hybrid mode. There is one
//      table per runtime; the online tuner (src/tune/) rewrites byte ranges
//      of it in place through retune_range().
//   4. Communicator maintenance — lazily create and cache one CCL
//      communicator per MPI communicator (unique id generated at the root
//      and broadcast over MPI, like the real bootstrap).
//   5. Execute: built-in CCL collectives map 1:1 (xcclAllReduce & friends);
//      everything else (Alltoall(v), Gather(v), Scatter(v), ...) is composed
//      from xcclSend/xcclRecv inside xcclGroupStart/End (paper Listing 1).
//      The five built-ins share one ladder, execute(): hier -> xCCL -> MPI,
//      returning a Completion (serving engine, fallback reason, done time).
//   6. Blocking MPI semantics come from synchronizing the stream; the
//      nonblocking variants (MPI_Iallreduce, ...) and persistent starts
//      return requests that complete at the stream's tail, preserving
//      communication/compute overlap in virtual time. Every flavour closes
//      one completion record (complete()) that feeds every telemetry sink.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "core/plan.hpp"
#include "core/tuning.hpp"
#include "hier/hier.hpp"
#include "mpi/mpi.hpp"
#include "obs/decision.hpp"
#include "sim/trace.hpp"
#include "xccl/backend.hpp"

namespace mpixccl::obs {
class Counter;
}  // namespace mpixccl::obs

namespace mpixccl::core {

class Persistent;

// Mode (Hybrid / PureXccl / PureMpi) lives in core/tuning.hpp alongside the
// other enums the observability layer shares.

/// What actually served the last collective (introspection for tests and
/// benches).
struct Dispatch {
  Engine engine = Engine::Mpi;
  bool fell_back = false;   ///< chose xccl/hier, bounced back to MPI
  bool composed = false;    ///< served by group send/recv or staged composition
};

/// Launch one of the five built-in collectives (allreduce, bcast, reduce,
/// allgather, reduce_scatter_block) from resolved arguments: each maps 1:1
/// onto its CCL builtin.
XcclResult launch_builtin(xccl::CclBackend& b, xccl::CclComm& cc, device::Stream& s,
                          const mini::CollArgs& a);

/// CCL communicators keyed by the p2p channel of the MPI communicator they
/// span.
using CclCommCache = std::map<fabric::ChannelId, xccl::CclComm>;

/// The CCL communicator over `comm` from `cache`, bootstrapped on first use
/// as a real launcher does: comm rank 0 derives the unique id from the
/// channel xor `salt` and its next `seq`, broadcasts it over `mpi`, and
/// every rank joins with its world ranks. Collective on first use.
xccl::CclComm& cached_ccl_comm(CclCommCache& cache, mini::Mpi& mpi, xccl::CclBackend& b,
                               mini::Comm& comm, fabric::ChannelId salt,
                               std::uint64_t& seq);

/// How one dispatch ended: the engine that served it and the virtual time
/// its result is ready (the stream tail for an unsynchronized xCCL launch).
struct Completion {
  Engine engine = Engine::Mpi;
  bool fell_back = false;
  bool composed = false;
  obs::FallbackReason reason = obs::FallbackReason::None;
  double done_us = 0.0;
};

/// Per-engine call and byte counters (one XcclMpi instance = one rank's
/// view; the process-wide merge lives in obs::Registry).
struct PathStats {
  std::uint64_t mpi_calls = 0;
  std::uint64_t xccl_calls = 0;
  std::uint64_t hier_calls = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t mpi_bytes = 0;
  std::uint64_t xccl_bytes = 0;
  std::uint64_t hier_bytes = 0;
};

struct XcclMpiOptions {
  Mode mode = Mode::Hybrid;
  /// Backend override (e.g. force MSCCL on an NVIDIA system); default is
  /// the vendor-native CCL.
  std::optional<xccl::CclKind> backend;
  /// Tuning table override (TuningTable::load_file reads a saved one). Without
  /// it the table comes from the file MPIXCCL_TUNING_FILE names, else from
  /// TuningTable::default_for(profile).
  std::optional<TuningTable> tuning;
  /// Disable the automatic MPI fallback (capability errors then surface as
  /// exceptions) — only for testing the fallback machinery itself.
  bool allow_fallback = true;
  /// Sub-node level chain for the hierarchical engine ("socket:2,numa:2",
  /// see sim::parse_level_spec; "node" forces flat two-level). Overrides
  /// both the world topology's chain and MPIXCCL_HIER_LEVELS.
  std::optional<std::string> hier_levels;
};

class XcclMpi {
 public:
  explicit XcclMpi(fabric::RankContext& ctx, XcclMpiOptions options = {});

  [[nodiscard]] mini::Comm& comm_world() { return mpi_.comm_world(); }
  [[nodiscard]] int rank() const { return mpi_.rank(); }
  [[nodiscard]] int size() const { return mpi_.size(); }
  [[nodiscard]] fabric::RankContext& context() { return mpi_.context(); }
  [[nodiscard]] mini::Mpi& mpi() { return mpi_; }
  [[nodiscard]] xccl::CclBackend& backend() { return *backend_; }
  [[nodiscard]] hier::HierEngine& hier() { return *hier_; }
  [[nodiscard]] const XcclMpiOptions& options() const { return options_; }
  [[nodiscard]] const TuningTable& tuning() const { return tuning_; }
  /// Swapping the table (or mode) changes what future picks would decide,
  /// so both invalidate every cached plan. The new table replaces any
  /// ranges the online tuner retuned.
  void set_tuning(TuningTable t) {
    tuning_ = std::move(t);
    invalidate_plans();
  }
  void set_mode(Mode m) {
    if (m == options_.mode) return;
    options_.mode = m;
    invalidate_plans();
  }
  /// Reconfigure the hierarchical engine's level chain at runtime. Must be
  /// called uniformly on every rank (the next dispatch rebuilds the splits
  /// collectively). When the chain actually changes, every plan holding a
  /// subcomm chain is purged — stale splits from the old hierarchy must
  /// never serve another dispatch. Returns true on an effective change.
  bool set_hier_levels(const std::string& spec);

  // ---- Online retuning (driven by tune::OnlineTuner) -----------------------
  /// Point every message in [lo, hi] at `engine` in this runtime's table,
  /// purging only the cached plans whose pick the rewrite changed. Must be
  /// called uniformly on every rank sharing a communicator — a divergent
  /// table would send ranks down different engine channels. Returns the
  /// number of plans purged.
  std::size_t retune_range(CollOp op, std::size_t lo, std::size_t hi,
                           Engine engine);

  // ---- Communicators (delegate to MiniMPI) --------------------------------
  mini::Comm dup(mini::Comm& comm) { return mpi_.dup(comm); }
  mini::Comm split(mini::Comm& comm, int color, int key) {
    return mpi_.split(comm, color, key);
  }

  // ---- Point-to-point (always the MPI engine) ------------------------------
  void send(const void* buf, std::size_t count, mini::Datatype dt, int dst,
            int tag, mini::Comm& comm) {
    mpi_.send(buf, count, dt, dst, tag, comm);
  }
  mini::RecvStatus recv(void* buf, std::size_t count, mini::Datatype dt, int src,
                        int tag, mini::Comm& comm) {
    return mpi_.recv(buf, count, dt, src, tag, comm);
  }
  mini::Request isend(const void* buf, std::size_t count, mini::Datatype dt,
                      int dst, int tag, mini::Comm& comm) {
    return mpi_.isend(buf, count, dt, dst, tag, comm);
  }
  mini::Request irecv(void* buf, std::size_t count, mini::Datatype dt, int src,
                      int tag, mini::Comm& comm) {
    return mpi_.irecv(buf, count, dt, src, tag, comm);
  }
  mini::RecvStatus wait(mini::Request& req) { return mpi_.wait(req); }
  void waitall(std::span<mini::Request> reqs) { mpi_.waitall(reqs); }

  // ---- Collectives (hybrid dispatch) ---------------------------------------
  void barrier(mini::Comm& comm);
  void bcast(void* buf, std::size_t count, mini::Datatype dt, int root,
             mini::Comm& comm);
  void reduce(const void* sendbuf, void* recvbuf, std::size_t count,
              mini::Datatype dt, ReduceOp op, int root, mini::Comm& comm);
  void allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                 mini::Datatype dt, ReduceOp op, mini::Comm& comm);
  void allgather(const void* sendbuf, std::size_t sendcount, mini::Datatype st,
                 void* recvbuf, std::size_t recvcount, mini::Datatype rt,
                 mini::Comm& comm);
  void allgatherv(const void* sendbuf, std::size_t sendcount, mini::Datatype st,
                  void* recvbuf, std::span<const std::size_t> recvcounts,
                  std::span<const std::size_t> displs, mini::Datatype rt,
                  mini::Comm& comm);
  void alltoall(const void* sendbuf, std::size_t sendcount, mini::Datatype st,
                void* recvbuf, std::size_t recvcount, mini::Datatype rt,
                mini::Comm& comm);
  void alltoallv(const void* sendbuf, std::span<const std::size_t> sendcounts,
                 std::span<const std::size_t> sdispls, mini::Datatype st,
                 void* recvbuf, std::span<const std::size_t> recvcounts,
                 std::span<const std::size_t> rdispls, mini::Datatype rt,
                 mini::Comm& comm);
  void gather(const void* sendbuf, std::size_t sendcount, mini::Datatype st,
              void* recvbuf, std::size_t recvcount, mini::Datatype rt, int root,
              mini::Comm& comm);
  void gatherv(const void* sendbuf, std::size_t sendcount, mini::Datatype st,
               void* recvbuf, std::span<const std::size_t> recvcounts,
               std::span<const std::size_t> displs, mini::Datatype rt, int root,
               mini::Comm& comm);
  void scatter(const void* sendbuf, std::size_t sendcount, mini::Datatype st,
               void* recvbuf, std::size_t recvcount, mini::Datatype rt, int root,
               mini::Comm& comm);
  void scatterv(const void* sendbuf, std::span<const std::size_t> sendcounts,
                std::span<const std::size_t> displs, mini::Datatype st,
                void* recvbuf, std::size_t recvcount, mini::Datatype rt, int root,
                mini::Comm& comm);
  void reduce_scatter_block(const void* sendbuf, void* recvbuf,
                            std::size_t recvcount, mini::Datatype dt, ReduceOp op,
                            mini::Comm& comm);
  void scan(const void* sendbuf, void* recvbuf, std::size_t count,
            mini::Datatype dt, ReduceOp op, mini::Comm& comm);
  void exscan(const void* sendbuf, void* recvbuf, std::size_t count,
              mini::Datatype dt, ReduceOp op, mini::Comm& comm);

  // ---- Persistent collectives (plan compiled once, replayed by start) -------
  // MPI_Allreduce_init-shaped: init captures the tuning decision, engine,
  // CCL communicator / hier subcomm handles and pre-sized staging for the
  // bound (buffers, count, datatype, communicator) tuple; start() is a thin
  // replay that skips tuning lookup and comm-split. A retune, table or mode
  // swap, or hier reconfiguration marks the plan stale, and the next start()
  // recompiles it through the plan cache (so those calls must stay uniform
  // across ranks, as they already must). The caller keeps `comm` (and the
  // buffers) alive for the handle's life; start/wait pairs must not overlap
  // on one handle. xCCL-engine starts launch on the stream without
  // synchronizing (wait() absorbs the tail), so persistent reductions
  // overlap compute exactly like iallreduce.
  Persistent allreduce_init(const void* sendbuf, void* recvbuf,
                            std::size_t count, mini::Datatype dt, ReduceOp op,
                            mini::Comm& comm);
  Persistent bcast_init(void* buf, std::size_t count, mini::Datatype dt,
                        int root, mini::Comm& comm);
  Persistent reduce_init(const void* sendbuf, void* recvbuf, std::size_t count,
                         mini::Datatype dt, ReduceOp op, int root,
                         mini::Comm& comm);
  Persistent allgather_init(const void* sendbuf, std::size_t sendcount,
                            mini::Datatype st, void* recvbuf,
                            std::size_t recvcount, mini::Datatype rt,
                            mini::Comm& comm);
  Persistent reduce_scatter_init(const void* sendbuf, void* recvbuf,
                                 std::size_t recvcount, mini::Datatype dt,
                                 ReduceOp op, mini::Comm& comm);

  // ---- Nonblocking collectives (paper advantage #4) -------------------------
  // The xCCL engine launches on the stream without synchronizing, so the
  // request overlaps with subsequent compute; the host-driven hier and MPI
  // engines complete before returning (see mini::Mpi).
  mini::Request iallreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                           mini::Datatype dt, ReduceOp op, mini::Comm& comm);
  mini::Request ibcast(void* buf, std::size_t count, mini::Datatype dt, int root,
                       mini::Comm& comm);
  mini::Request iallgather(const void* sendbuf, std::size_t sendcount,
                           mini::Datatype st, void* recvbuf,
                           std::size_t recvcount, mini::Datatype rt,
                           mini::Comm& comm);
  mini::Request ireduce(const void* sendbuf, void* recvbuf, std::size_t count,
                        mini::Datatype dt, ReduceOp op, int root,
                        mini::Comm& comm);
  mini::Request ireduce_scatter_block(const void* sendbuf, void* recvbuf,
                                     std::size_t recvcount, mini::Datatype dt,
                                     ReduceOp op, mini::Comm& comm);

  // ---- Introspection ---------------------------------------------------------
  [[nodiscard]] Dispatch last_dispatch() const {
    return {last_decision_.engine, last_decision_.fell_back,
            last_decision_.composed};
  }
  /// Fully explained record of the last collective dispatch on this rank
  /// (breakpoint consulted, table answer, fallback reason). Unlike the
  /// process-wide obs::DecisionLog, this is always populated.
  [[nodiscard]] const obs::DispatchDecision& last_decision() const {
    return last_decision_;
  }
  [[nodiscard]] const PathStats& stats() const { return stats_; }
  /// Reset every per-instance view in one motion: path stats, the
  /// last-dispatch record, the plan-cache counters, and this rank's
  /// flight-recorder entries referencing freed plans. Process-wide state
  /// (obs::Registry, whose per-(collective, engine) table obs::report()
  /// renders, and obs::DecisionLog) is reset separately.
  void reset_stats();

  /// The CCL communicator cache size (tests).
  [[nodiscard]] std::size_t ccl_comm_cache_size() const { return ccl_comms_.size(); }

  /// The compiled-plan cache (one per runtime instance = one rank).
  [[nodiscard]] const PlanCache& plan_cache() const { return plans_; }
  [[nodiscard]] PlanCache& plan_cache() { return plans_; }
  /// Drop every cached plan (also triggered by set_tuning / set_mode).
  void invalidate_plans();

 private:
  friend class Persistent;

  /// The tuning table's pick, remapping unsupported hier choices to Xccl
  /// (recorded as a redirect).
  [[nodiscard]] EnginePick pick_table(CollOp op, std::size_t bytes) const;

  /// Decide the engine for a collective touching `bytes` bytes once the
  /// buffer class is known. `bytes` must be identical on every rank.
  EnginePick pick_classified(CollOp op, std::size_t bytes, bool device) const;

  // ---- Plan/execute split ---------------------------------------------------
  /// Fetch the cached plan for this call or build one (resolving the CCL
  /// communicator / hier splits under a "plan.build" span). The build is
  /// collective on a cache miss, so lookups must be issued in the same
  /// order on every member — true for MPI-ordered collectives.
  std::shared_ptr<const Plan> plan_for(const mini::CollArgs& a, mini::Comm& comm);
  std::shared_ptr<Plan> build_plan(const PlanKey& key, CollOp op,
                                   std::size_t bytes, mini::Comm& comm);

  /// The dispatch ladder of the built-in collectives: the plan's engine
  /// (hier or xCCL) when it serves the call, else the MPI algorithm, with
  /// the reason it fell back. An xCCL launch is left on the stream.
  Completion execute(const Plan& p, const mini::CollArgs& a, mini::Comm& comm);
  /// The ladder's xCCL rung, shared with the composed collectives: a served
  /// launch completes at the stream tail; a capability error maps to an MPI
  /// completion carrying its reason (or throws when fallback is disabled).
  Completion xccl_rung(XcclResult r, const EnginePick& pick, bool composed);
  /// Blocking semantics: synchronize an xCCL completion's stream; the call
  /// is done now.
  Completion settle(Completion c);

  /// Every flavour of a built-in collective: resolve the arguments
  /// (mini::resolve), open the record, resolve the plan, execute(), close the
  /// record. `bound` is a persistent handle's plan and its arguments are
  /// already resolved; it replays unless an invalidation marked it stale, and
  /// replays stay out of the decision view. Returns the completion time.
  double dispatch(mini::CollArgs a, mini::Comm& comm, bool blocking,
                  std::shared_ptr<const Plan>* bound = nullptr);

  Persistent make_persistent(const mini::CollArgs& a, mini::Comm& comm);

  /// Every composed collective (gather(v), scatter(v), allgatherv,
  /// alltoall(v)): resolve the arguments, pick the engine (v-forms agree on
  /// it across ranks), run the xCCL rung as one group of sends and recvs,
  /// the MPI algorithm otherwise or on fallback, and close the record with
  /// blocking semantics.
  void compose(mini::CollArgs a, mini::Comm& comm);

  /// Get or create (collectively!) the CCL communicator for `comm`.

  /// One collective call's record under construction: the decision it
  /// becomes, opened at call entry (rank, op, bytes, enter time, fleet
  /// call_seq) and closed once by complete(). A record that unwinds
  /// unclosed (the call threw) records nothing — otherwise the sample would
  /// be attributed to the PREVIOUS call — and only clears the fleet
  /// in-flight flag.
  class OpRecord {
   public:
    OpRecord(XcclMpi& rt, CollOp op, std::size_t bytes);
    ~OpRecord();
    OpRecord(const OpRecord&) = delete;
    OpRecord& operator=(const OpRecord&) = delete;

   private:
    friend class XcclMpi;
    obs::DispatchDecision d_;
    bool closed_ = false;
  };

  /// Close `rec` with how the call completed: the single place that feeds
  /// last_dispatch()/last_decision(), PathStats, the registry (call,
  /// latency, fallback), the rank's call journal (in the decision view when
  /// `log`), the flight recorder and sim::Trace, all from the one finished
  /// record. The latency spans call entry to c.done_us.
  void complete(OpRecord& rec, const EnginePick& pick, const Completion& c,
                std::string_view level_path = {}, bool log = true);

  /// One point-to-point move of a composed collective: `count` elements to
  /// or from communicator rank `peer`, at element offset `off` of the buffer.
  struct P2pMove {
    int peer;
    std::size_t off;
    std::size_t count;
  };
  /// Run `sends` (from a.sendbuf, type a.dt) and `recvs` (into a.recvbuf,
  /// type a.rdt) as one xCCL group under the `name` stage span: the composed
  /// (send/recv) collectives of paper Sec. 3.3, Listing 1. Returns a
  /// fallback-able XcclResult.
  XcclResult x_group(sim::SpanName name, const mini::CollArgs& a,
                     std::span<const P2pMove> sends, std::span<const P2pMove> recvs,
                     mini::Comm& comm);

  mini::Mpi mpi_;
  XcclMpiOptions options_;
  TuningTable tuning_;  ///< offline-tuned; the online tuner rewrites it in place
  std::unique_ptr<xccl::CclBackend> backend_;
  std::unique_ptr<hier::HierEngine> hier_;
  CclCommCache ccl_comms_;
  std::uint64_t ccl_comm_seq_ = 0;
  PlanCache plans_;
  // Cached registry counter refs (stable across Registry::reset): the plan
  // hot path must not pay the by-name map lookup per call.
  obs::Counter* ctr_plan_hit_ = nullptr;
  obs::Counter* ctr_plan_miss_ = nullptr;
  obs::Counter* ctr_plan_evict_ = nullptr;
  obs::Counter* ctr_plan_invalidate_ = nullptr;
  obs::DispatchDecision last_decision_;
  PathStats stats_;
};

/// A compiled persistent collective: one plan plus the bound argument tuple.
/// Obtained from XcclMpi::*_init; movable, not copyable (a moved-from handle
/// is empty). The referenced XcclMpi, communicator and buffers must outlive
/// the handle (or free() it first). start()/wait() must alternate; free()
/// releases the plan reference (letting an evicted plan die) and is
/// idempotent.
class Persistent {
 public:
  Persistent() = default;
  Persistent(Persistent&&) = default;
  Persistent& operator=(Persistent&&) = default;
  Persistent(const Persistent&) = delete;
  Persistent& operator=(const Persistent&) = delete;

  /// Replay of the compiled plan through the one dispatch ladder: no tuning
  /// lookup, no decision-log append, no comm resolution (unless the plan
  /// went stale). xCCL launches return with the work on the stream; wait()
  /// completes it.
  void start() {
    require(valid(), "Persistent::start: empty handle (freed or moved-from)");
    require(!active(), "Persistent::start: previous start not yet waited");
    req_ = mini::Request::completed(
        rt_->dispatch(args_, *comm_, /*blocking=*/false, &plan_));
  }
  void wait() {
    require(active(), "Persistent::wait: no start in flight");
    rt_->wait(req_);
  }
  /// Release the plan reference. Must not be active; safe to call twice.
  void free() {
    require(!active(), "Persistent::free: operation still in flight");
    plan_.reset();
  }

  [[nodiscard]] bool valid() const { return plan_ != nullptr; }
  [[nodiscard]] bool active() const { return valid() && req_.valid(); }
  [[nodiscard]] const Plan& plan() const { return *plan_; }

 private:
  friend class XcclMpi;

  XcclMpi* rt_ = nullptr;
  std::shared_ptr<const Plan> plan_;
  mini::CollArgs args_;  ///< resolved at init
  mini::Comm* comm_ = nullptr;
  mini::Request req_;  ///< in flight between start() and wait()
};

}  // namespace mpixccl::core
