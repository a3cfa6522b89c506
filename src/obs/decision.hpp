#pragma once
// Dispatch-decision log: the qualitative half of the observability layer.
// Every collective call through XcclMpi records *why* it landed on the
// engine it did — the tuning-table breakpoint consulted, the capability
// check outcome, and a machine-readable fallback reason — queryable as
// structured records and renderable as a "why" report. This is the
// after-the-fact answer to the paper's central questions (which engine
// served which call, where the crossover sat, what the transparent fallback
// absorbed) that last_dispatch() alone cannot give.
//
// The records live in the per-rank call journal (fleet.hpp); DecisionLog is
// its decision view, on at Level::Decisions and above: the records that took
// a process-wide seq, merged across ranks in seq order.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/tuning.hpp"

namespace mpixccl::obs {

/// Why a call did not run on the engine the mode/table first named. `None`
/// means the picked engine served the call (including deliberate MPI picks:
/// the breakpoint field explains those).
enum class FallbackReason : std::uint8_t {
  None,
  HostBuffer,         ///< host memory: CCLs require device buffers
  DtypeUnsupported,   ///< backend capability check refused the datatype
  OpUnsupported,      ///< backend capability check refused the reduce op
  HierTopoMismatch,   ///< hier picked, but comm not node-blocked / too small
  HierOpUnsupported,  ///< table said hier for an op/dtype outside hier's set
  InPlace,            ///< in-place buffers cannot ride the composed path
  MixedDatatype,      ///< send/recv element sizes differ; composition needs 1:1
};

inline constexpr std::size_t kFallbackReasonCount = 8;

constexpr std::string_view to_string(FallbackReason r) {
  switch (r) {
    case FallbackReason::None: return "none";
    case FallbackReason::HostBuffer: return "host_buffer";
    case FallbackReason::DtypeUnsupported: return "dtype_unsupported";
    case FallbackReason::OpUnsupported: return "op_unsupported";
    case FallbackReason::HierTopoMismatch: return "hier_topo_mismatch";
    case FallbackReason::HierOpUnsupported: return "hier_op_unsupported";
    case FallbackReason::InPlace: return "in_place";
    case FallbackReason::MixedDatatype: return "mixed_datatype";
  }
  return "?";
}

/// Map the CCL result codes that legally drive the MPI fallback to reasons.
constexpr FallbackReason fallback_reason_of(XcclResult r) {
  switch (r) {
    case XcclResult::UnsupportedDatatype: return FallbackReason::DtypeUnsupported;
    case XcclResult::UnsupportedOperation: return FallbackReason::OpUnsupported;
    default: return FallbackReason::None;
  }
}

/// Online-tuner audit stamp. Table mutations flow through the same log as
/// dispatch decisions so every engine switch is explainable next to the
/// calls it rerouted; `None` marks an ordinary dispatch record. Audit
/// records reuse the decision fields: `bytes`/`breakpoint` carry the
/// retuned range [lo, hi], `table_choice` the engine the range pointed at
/// before the mutation, `engine` the one it points at after.
enum class TuneAudit : std::uint8_t {
  None,       ///< not an audit record: a normal dispatch decision
  Explore,    ///< epsilon-greedy trial install (or its revert)
  Switch,     ///< challenger beat the leader past hysteresis; promoted
  Eliminate,  ///< successive halving retired an arm's engine
};

constexpr std::string_view to_string(TuneAudit a) {
  switch (a) {
    case TuneAudit::None: return "none";
    case TuneAudit::Explore: return "explore";
    case TuneAudit::Switch: return "switch";
    case TuneAudit::Eliminate: return "eliminate";
  }
  return "?";
}

/// One dispatch decision, fully explained: the single per-call record. It is
/// built once by XcclMpi::complete() and read, without conversion, by every
/// per-call sink (call journal, flight recorder, trace, registry).
struct DispatchDecision {
  /// Process-wide decision-view number, set at journal append; 0 outside the
  /// view (persistent replays, records appended while it is off).
  std::uint64_t seq = 0;
  /// Per-rank dispatch number (1-based). Uniform collectives are issued in
  /// the same order on every rank, so call_seq k is round k fleet-wide; 0 on
  /// records no dispatch closed (tuner audits, persistent inits).
  std::uint64_t call_seq = 0;
  int rank = 0;
  core::CollOp op = core::CollOp::Allreduce;
  std::size_t bytes = 0;
  core::Mode mode = core::Mode::Hybrid;
  /// max_bytes of the tuning-table rule that matched (SIZE_MAX for the
  /// catch-all "max" rule); 0 when the table was not consulted (pure modes,
  /// host buffers).
  std::size_t breakpoint = 0;
  core::Engine table_choice = core::Engine::Mpi;  ///< raw mode/table answer
  core::Engine engine = core::Engine::Mpi;        ///< engine that served the call
  FallbackReason reason = FallbackReason::None;
  bool fell_back = false;  ///< engine attempt bounced back to MPI at runtime
  bool composed = false;   ///< group send/recv or staged composition
  /// Subcommunicator chain a hier dispatch ran over, innermost dim first
  /// (e.g. "numa(2).socket(2).node(2).net(2)"); empty for flat engines.
  std::string level_path;
  double time_us = 0.0;    ///< virtual time at completion of the decision
  double enter_us = 0.0;   ///< virtual time at call entry
  double done_us = 0.0;    ///< virtual time the result is ready
  /// Compiled plan that routed the call; 0 for planless paths (composed
  /// collectives, scan).
  std::uint64_t plan_id = 0;
  /// Non-None marks an online-tuner table mutation rather than a dispatch
  /// (excluded from the per-engine/per-reason dispatch tallies).
  TuneAudit tune = TuneAudit::None;

  [[nodiscard]] double elapsed_us() const { return done_us - enter_us; }
};

/// Render one decision as a single human-readable line.
std::string to_line(const DispatchDecision& d);

/// Process-wide view of the decision records in every rank's call journal.
class DecisionLog {
 public:
  static DecisionLog& instance();

  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const;

  /// Append one record to rank d.rank's journal (no-op while disabled).
  /// Assigns `seq` and returns it (0 when disabled).
  std::uint64_t push(DispatchDecision d);

  /// Records the journals still hold, in seq order.
  [[nodiscard]] std::vector<DispatchDecision> records() const;
  /// Total records ever appended (including those the rings have dropped).
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] std::size_t size() const;
  /// Appended-record counts per fallback reason (index by FallbackReason).
  [[nodiscard]] std::array<std::uint64_t, kFallbackReasonCount> reason_counts()
      const;

  /// Empties every rank's journal (fleet call views included).
  void clear();

  /// The "why" report: per-engine and per-reason totals plus the most
  /// recent decisions, one line each.
  [[nodiscard]] std::string why_report(std::size_t max_recent = 32) const;
  void save_report(const std::string& path, std::size_t max_recent = 512) const;

 private:
  DecisionLog() = default;
};

}  // namespace mpixccl::obs
