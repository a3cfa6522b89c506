#pragma once
// Perf-analysis layer: turns the raw telemetry the observability subsystem
// collects (metrics registry, decision log, sim::Trace spans) into
// *answers*, closing the telemetry→decision loop:
//
//  * Flight recorder — a bounded top-K table of the slowest collective
//    dispatches, each kept as its DispatchDecision, so one record answers
//    both "why was this call slow" and "why was it routed there". Always on
//    (the fast path is one relaxed load against the current K-th
//    threshold); exported inside the metrics snapshot.
//  * Critical-path attribution — analyzes trace spans to attribute each
//    dispatch's latency to its recorded child stages (hier's intra_rs /
//    inter_ar / intra_ag, xccl group compositions), reporting per-stage
//    shares, coverage and the longest idle gap per (collective, size-band).
//  * `top` report — hottest (collective, engine, size-band) rows by total
//    virtual time, with p50/p90/p99 from the registry's band histograms.
//  * Bench-regression gate — the `mpixccl.bench.v1` result schema every
//    fig*/abl* bench emits (via omb::ResultLog), a parser for it, and a
//    per-point diff with noise thresholds powering `mpixccl perf diff`
//    and the CI gate against the committed BENCH_core.json baseline.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/decision.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"

namespace mpixccl::obs {

// ---- Flight recorder --------------------------------------------------------

/// Process-wide bounded table of the K slowest dispatches, each kept as the
/// dispatch's own record (routing, timing and plan id in one). Recording is
/// always on: calls faster than the current K-th entry bounce off one
/// relaxed atomic load without taking the lock or copying the record.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 16;

  static FlightRecorder& instance();

  /// Drops the fastest retained entries when shrinking.
  void set_capacity(std::size_t k);
  [[nodiscard]] std::size_t capacity() const;

  void record(const DispatchDecision& d);
  /// Retained records, slowest first.
  [[nodiscard]] std::vector<DispatchDecision> records() const;
  void clear();
  /// Drop `rank`'s records whose plan_id is set but absent from `live` —
  /// they reference a plan that has been evicted or invalidated, so the
  /// join they exist for can no longer resolve. Other ranks' records are
  /// untouched (the recorder is process-wide, XcclMpi instances per-rank).
  /// Returns the number of records removed.
  std::size_t purge_plan_records(int rank,
                                 const std::vector<std::uint64_t>& live);

  /// Raw JSON `"flight_recorder":[...]` top-level field, ready for
  /// MetricsSnapshot::to_json(extra_fields).
  [[nodiscard]] std::string to_json_field() const;
  /// Human-readable table, slowest first.
  [[nodiscard]] std::string report() const;

 private:
  FlightRecorder() = default;
  /// Reset the admission floor from the table (holding mu_).
  void refloor();

  mutable std::mutex mu_;
  std::atomic<double> floor_{0.0};  ///< K-th elapsed once full, else 0
  std::vector<DispatchDecision> top_;  ///< sorted by elapsed, descending
  std::size_t capacity_ = kDefaultCapacity;
};

// ---- Critical-path attribution ----------------------------------------------

/// One top-level dispatch span with its latency attributed to child stages.
struct DispatchAttribution {
  int rank = 0;
  std::string op;      ///< span name, e.g. "allreduce"
  std::string engine;  ///< span category: "mpi" / "xccl" / "hier"
  double begin_us = 0.0;
  double end_us = 0.0;
  /// Union length of the child stage spans inside this dispatch.
  double attributed_us = 0.0;
  /// Longest sub-interval of the dispatch no child stage covers.
  double longest_gap_us = 0.0;
  /// (stage name, total us) for every child stage, insertion-ordered.
  std::vector<std::pair<std::string, double>> stage_us;
  bool joined = false;        ///< a DispatchDecision matched this span
  DispatchDecision decision;  ///< valid when joined

  [[nodiscard]] double duration_us() const { return end_us - begin_us; }
  [[nodiscard]] double coverage() const {
    return duration_us() > 0.0 ? attributed_us / duration_us()
                               : (stage_us.empty() ? 0.0 : 1.0);
  }
};

/// Pair every top-level dispatch span (category is an engine name) with the
/// stage spans (category "*.stage") nested inside it on the same rank, and
/// join each with the DispatchDecision recorded during it (matched by rank,
/// op and completion time). Decisions typically come from
/// DecisionLog::instance().records(); pass {} to skip the join.
std::vector<DispatchAttribution> attribute_dispatches(
    const std::vector<sim::TraceEvent>& events,
    const std::vector<DispatchDecision>& decisions);

/// Aggregate attribution per (collective, size-band): stage shares of total
/// dispatch time, mean coverage, and the longest idle gap seen — the
/// evidence hier-engine tuning reads. Spans with no recorded stages are
/// summarized in a trailing note.
std::string critical_path_report(const std::vector<DispatchAttribution>& attrs);

// ---- Hottest-rows report ----------------------------------------------------

/// Rank (collective, engine, size-band) rows by total virtual latency; each
/// row carries calls, total us and p50/p90/p99. Rows without band data
/// (latency recorded through the byte-less overload) fall back to one "all"
/// band from the plain latency histogram.
std::string top_report(const MetricsSnapshot& snap, std::size_t max_rows = 20);

// ---- Composite export -------------------------------------------------------

/// Metrics snapshot JSON with the flight recorder riding along (the file
/// obs::flush() writes for MPIXCCL_METRICS_FILE).
void save_metrics_json(const std::string& path);

// ---- Bench results ("mpixccl.bench.v1") and the regression diff -------------

struct BenchPoint {
  std::string table;   ///< table title, e.g. "Fig 5: allreduce w/ NCCL ..."
  std::string series;  ///< series name within the table, e.g. "hybrid-xccl"
  std::string unit;    ///< "us", "MBps", ...
  std::size_t bytes = 0;
  double value = 0.0;

  /// Identity of a point across runs (table + series + message size).
  [[nodiscard]] std::string key() const;
  /// Regression direction: latency-like units regress upward, bandwidth /
  /// rate series regress downward.
  [[nodiscard]] bool lower_is_better() const;
};

struct BenchDoc {
  std::string schema = "mpixccl.bench.v1";
  std::string bench;  ///< which binary produced it
  std::vector<BenchPoint> points;
};

/// Render / parse the v1 schema. parse throws Error on malformed input or a
/// wrong schema tag.
std::string bench_json(const BenchDoc& doc);
BenchDoc parse_bench_json(std::string_view text);
BenchDoc load_bench_json(const std::string& path);

struct DiffOptions {
  /// Per-point noise threshold: a point regresses only when it is worse by
  /// more than rel_threshold relative AND abs_floor absolute (in the
  /// point's unit) — the virtual-time sim is deterministic, but the floor
  /// keeps sub-microsecond jitter in future backends from tripping the gate.
  double rel_threshold = 0.10;
  double abs_floor = 0.5;
};

struct PointDiff {
  BenchPoint base;
  double current = 0.0;
  double delta_rel = 0.0;  ///< (current - base) / base, sign as measured
  bool regressed = false;
  bool improved = false;
};

struct BenchDiff {
  std::vector<PointDiff> points;           ///< baseline ∩ current
  std::vector<std::string> missing;        ///< in baseline, not in current
  std::vector<std::string> added;          ///< in current, not in baseline
  int regressions = 0;
  int improvements = 0;

  [[nodiscard]] bool ok() const { return regressions == 0 && missing.empty(); }
  /// Human-readable verdict; names every regressed point.
  [[nodiscard]] std::string report() const;
};

BenchDiff bench_diff(const BenchDoc& baseline, const BenchDoc& current,
                     const DiffOptions& opt = {});

}  // namespace mpixccl::obs
