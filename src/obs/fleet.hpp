#pragma once
// Fleet health telemetry: the cross-rank half of the observability layer.
//
// The metrics registry (metrics.hpp) deliberately aggregates across ranks,
// so it can say *which engine* is slow but never *which rank* is holding a
// collective back. This header adds the rank-resolved view:
//
//  * Arrival-skew profiling — every completed dispatch appends its
//    DispatchDecision (call_seq, enter and done times, routing) to a bounded
//    per-rank ring. Because every rank issues uniform collectives in the
//    same order, `call_seq` aligns round k across ranks; the reducer joins
//    rounds on it and folds the per-round arrival spread into
//    per-(collective, size-band) skew histograms, an imbalance score, and a
//    straggler board naming the worst ranks. Hier dispatches additionally
//    feed per-level stage times (LevelSpan), so the board can say *which
//    level of the chain* the skew concentrates in.
//  * Fleet snapshot protocol — core::gather_fleet() (core/fleet_gather.hpp)
//    serializes every rank's state (call ring, level times, heartbeat) and
//    gathers the blobs to rank 0 over the library's own collectives;
//    assemble() reduces them into a FleetSnapshot renderable as versioned
//    "mpixccl.fleet.v1" JSON or a human report.
//  * Hang watchdog — every dispatch beats a per-rank heartbeat slot (last
//    seq/op/bytes/engine/plan, wall-clock instant). A monitor thread checks
//    the slots in *real* time (rank threads genuinely block on each other's
//    futures, so a stalled rank stalls its peers' wall clocks too); past
//    MPIXCCL_WATCHDOG_TIMEOUT_MS it dumps the heartbeat table, the blamed
//    rank's decision-ring tail (level path, in-flight plan id) and then
//    warns or aborts per policy.
//
// Skew profiling works in virtual microseconds (deterministic, replayable);
// only the watchdog reads the wall clock. Everything is off by default:
// with neither profiling nor a watchdog armed, a dispatch costs two relaxed
// loads and one relaxed counter bump.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/tuning.hpp"
#include "obs/decision.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace mpixccl::obs::fleet {

/// Hard cap on ranks with per-rank fleet state (heartbeat slots are a fixed
/// array so the hot path never allocates or locks).
inline constexpr int kMaxRanks = 512;

// ---- Activation -------------------------------------------------------------

/// Call-ring/level profiling switch (MPIXCCL_FLEET=1 or programmatic).
[[nodiscard]] bool profiling_enabled();
void set_profiling(bool on);

/// Per-rank call-ring capacity: skew is computed over the most recent
/// kRingCapacity dispatches per rank.
inline constexpr std::size_t kRingCapacity = 1024;

/// Drop all recorded per-rank state (rings, level times, heartbeats).
/// Not thread-safe against in-flight dispatches — call between world runs.
void reset();

// ---- Hot-path hooks (called from core dispatch) -----------------------------

/// Dispatch entry: bumps the rank's dispatch counter, applies any injected
/// stall (sim::FaultInjector) and beats the heartbeat. Returns the 1-based
/// dispatch seq for this rank (the record's call_seq).
std::uint64_t dispatch_enter(int rank, core::CollOp op);

/// Dispatch exit: completes the heartbeat with the engine/bytes the call
/// actually ran on and, when profiling, appends the closed record to the
/// rank's call ring (one lock per call).
void dispatch_exit(const DispatchDecision& d);

/// Dispatch unwound without completing (threw before its record closed):
/// clear the in-flight flag so the watchdog does not blame a rank that
/// already threw. Nothing reaches the call ring.
void dispatch_abort(int rank);

/// Plan-cache resolution hook: remember the plan id the in-flight dispatch
/// is executing (the watchdog dumps it for a stalled rank).
void note_plan(int rank, std::uint64_t plan_id);

/// Application-level heartbeat (DL trainer step): proves liveness between
/// collectives so a watchdog timeout spanning a long compute phase does not
/// fire spuriously.
void app_beat(int rank);

/// Per-level stage time for hier dispatches (LevelSpan's sink).
void record_level(int rank, std::string_view level, double us);

/// RAII probe around one hier per-level stage: emits the same trace span as
/// obs::Span (named "<stage>.<level>", category "hier.stage") *and* feeds
/// the stage's virtual duration into the per-(rank, level) fleet table when
/// profiling is on. Free when both tracing and profiling are off.
class LevelSpan {
 public:
  LevelSpan(int rank, const sim::VirtualClock& clock, std::string_view stage,
            std::string_view level);
  ~LevelSpan();
  LevelSpan(const LevelSpan&) = delete;
  LevelSpan& operator=(const LevelSpan&) = delete;

 private:
  const sim::VirtualClock* clock_ = nullptr;
  int rank_ = 0;
  double t0_ = 0.0;
  bool trace_ = false;
  bool fleet_ = false;
  std::string stage_;
  std::string level_;
};

// ---- Rank-local state and its wire format -----------------------------------

/// Heartbeat slot contents at capture time.
struct HeartbeatView {
  std::uint64_t enter_seq = 0;  ///< dispatches entered
  std::uint64_t done_seq = 0;   ///< dispatches completed
  bool in_flight = false;
  core::CollOp op = core::CollOp::Allreduce;  ///< last dispatched op
  core::Engine engine = core::Engine::Mpi;    ///< last completed engine
  std::uint64_t bytes = 0;
  std::uint64_t plan_id = 0;  ///< 0 = no plan-cache involvement
  double age_ms = 0.0;        ///< wall-clock ms since the last beat
};

/// Per-level stage-time accumulation on one rank.
struct LevelTime {
  std::string level;
  double us = 0.0;
  std::uint64_t calls = 0;
};

/// Everything one rank contributes to a fleet snapshot.
struct RankState {
  int rank = -1;
  HeartbeatView heartbeat;
  std::vector<DispatchDecision> calls;  ///< completed dispatches, oldest first
  std::vector<LevelTime> levels;
};

/// Capture this rank's state right now (call-ring copy, heartbeat read).
[[nodiscard]] RankState local_rank_state(int rank);

/// Compact versioned binary blob for the gather protocol (rank-portable:
/// fixed-width little-endian fields, length-prefixed strings).
[[nodiscard]] std::string serialize(const RankState& s);
/// Throws Error on a bad magic/truncated blob.
[[nodiscard]] RankState deserialize(std::string_view blob);

// ---- Fleet-wide reduction ---------------------------------------------------

/// Arrival-skew aggregate for one (collective, size-band) cell.
struct SkewCell {
  core::CollOp op = core::CollOp::Allreduce;
  std::uint8_t band = 0;
  std::uint64_t rounds = 0;        ///< seq-joined rounds seen on all ranks
  HistogramSnapshot skew_us;       ///< per-round max(enter) - min(enter)
  double mean_skew_us = 0.0;
  double mean_duration_us = 0.0;   ///< mean per-round mean(done - enter)
  double imbalance = 0.0;          ///< mean skew / mean duration
  int worst_rank = -1;             ///< most often last to arrive
  std::uint64_t worst_count = 0;
};

/// Cross-rank spread of one hier level's accumulated stage time. A slow
/// rank inflates its *peers'* stage time at the levels that wait on it, so
/// the level with the widest spread is where the skew concentrates.
struct LevelRow {
  std::string level;
  double mean_us = 0.0;
  double spread_us = 0.0;  ///< max - min across ranks
  int max_rank = -1;       ///< rank with the largest accumulated time
};

/// One straggler-board row (sorted by lateness, worst first).
struct StragglerRow {
  int rank = -1;
  std::uint64_t times_last = 0;  ///< rounds where this rank arrived last
  double lateness_us = 0.0;      ///< sum over rounds of (enter - min enter)
  double share = 0.0;            ///< fraction of total fleet lateness
  std::string level;             ///< hier level where the skew concentrates
  double level_spread_us = 0.0;  ///< that level's cross-rank spread
};

/// The reduced cross-rank view rank 0 assembles from the gathered blobs.
struct FleetSnapshot {
  int world_size = 0;
  std::string profile;
  std::string topology;
  std::vector<RankState> ranks;            ///< sorted by rank
  HistogramSnapshot fleet_latency_us;      ///< all ranks' dispatch latencies,
                                           ///< merged with merge_histograms()
  std::vector<SkewCell> skew;              ///< non-empty cells only
  std::vector<LevelRow> levels;            ///< sorted by spread, widest first
  std::vector<StragglerRow> stragglers;    ///< sorted by lateness

  /// Versioned "mpixccl.fleet.v1" document; each rank's "decision_tail"
  /// renders its last 16 calls.
  [[nodiscard]] std::string to_json() const;
  /// Human tables for `mpixccl health`.
  [[nodiscard]] std::string report() const;
};

/// Reduce gathered per-rank states (any order) into the fleet view.
[[nodiscard]] FleetSnapshot assemble(std::vector<RankState> ranks,
                                     std::string profile,
                                     std::string topology);

// ---- Hang watchdog ----------------------------------------------------------

struct WatchdogConfig {
  double timeout_ms = 0.0;    ///< <= 0 disables start()
  double poll_ms = 0.0;       ///< 0 -> timeout/4, clamped to [1, 250]
  bool abort_on_hang = false; ///< MPIXCCL_WATCHDOG_ABORT=1: abort() on fire

  /// MPIXCCL_WATCHDOG_TIMEOUT_MS / _ABORT (the poll period derives from the
  /// timeout). Throws Error naming the variable and value on a timeout that
  /// is malformed, non-finite or negative, and on an abort flag other than
  /// 0/1.
  [[nodiscard]] static WatchdogConfig from_env();
};

struct HangReport {
  int rank = -1;               ///< blamed (least-progressed) rank
  std::uint64_t enter_seq = 0; ///< dispatches that rank has entered
  double stalled_ms = 0.0;     ///< wall-clock ms since its last beat
  std::string text;            ///< full dump: heartbeat table + decision tail
};

/// Monitor-thread watchdog over the heartbeat slots. start() arms the
/// heartbeats and (so the dump has something to show) the decision log;
/// stop() joins the thread. One instance per process.
class Watchdog {
 public:
  static Watchdog& instance();

  void start(const WatchdogConfig& cfg);
  void stop();
  [[nodiscard]] bool running() const;

  [[nodiscard]] std::uint64_t fires() const;
  [[nodiscard]] std::string last_report() const;

  /// Replace the default fire action (MPIXCCL_LOG_WARN of the dump) —
  /// tests capture the report deterministically. nullptr restores the
  /// default. The abort policy still applies after the callback.
  void set_on_hang(std::function<void(const HangReport&)> cb);

 private:
  Watchdog() = default;
};

}  // namespace mpixccl::obs::fleet
