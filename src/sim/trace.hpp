#pragma once
// Virtual-time tracing: collect per-rank operation spans and export them in
// the Chrome tracing format (chrome://tracing / Perfetto), with one track
// per rank and virtual microseconds on the time axis. This is the simulator
// equivalent of NCCL_DEBUG/NVTX timelines: it makes overlap, stream
// serialization and hybrid dispatch visually inspectable.
//
// Tracing is off by default (zero overhead beyond one relaxed load); enable
// it around a region of interest, then save_chrome_json().
//
// A span is a fixed-size POD: a name id from one closed vocabulary (the
// SpanName table, or the (collective, engine) pair of a dispatch), an
// optional interned hier level id, and its virtual begin/end. Names are
// built only where spans are read. Each rank appends to its own bounded
// ring of kRankCapacity spans behind its own lock, so a long trainer run
// with MPIXCCL_TRACE_FILE set keeps every rank's newest spans, and the
// export metadata carries how many older spans the rings dropped.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/tuning.hpp"

namespace mpixccl::sim {

/// Named spans; span_info() gives each one's Chrome name and category. The
/// hier per-level stages (AllreduceRs..Rs) carry a level and render as
/// "<name>.<level>", e.g. "allreduce.rs.node".
enum class SpanName : std::uint16_t {
  PlanBuild, TrainStep,
  AlltoallvGroup, GathervGroup, ScattervGroup, AllgathervGroup,
  HierCommSetup, AllreducePipelined,
  AllreduceRs, AllreduceAr, AllreduceAg, AllreduceCicoReduce, AllreduceCicoAr,
  AllreduceCicoBcast, AllreducePipe, BcastLeader, BcastScatter, Bcast, BcastAg,
  Reduce, Allgather, Rs,
};
inline constexpr std::uint16_t kSpanNameCount =
    static_cast<std::uint16_t>(SpanName::Rs) + 1;

struct SpanInfo {
  std::string_view name;
  std::string_view category;
  bool stage;  ///< nests in a dispatch span; critical-path attribution sums it
};
[[nodiscard]] const SpanInfo& span_info(SpanName s);

constexpr std::uint16_t span_id(SpanName s) {
  return static_cast<std::uint16_t>(s);
}

/// Span id of a dispatch: Chrome name = the collective, cat = the engine.
constexpr std::uint16_t engine_span(core::CollOp op, core::Engine e) {
  return static_cast<std::uint16_t>(kSpanNameCount +
                                    static_cast<unsigned>(op) * 3 +
                                    static_cast<unsigned>(e));
}

inline constexpr std::uint16_t kNoLevel = UINT16_MAX;

/// Append-only table of hier level names (thread-safe; an id names the same
/// level for the table's life). Level names come from MPIXCCL_HIER_LEVELS,
/// which is outside input, so the table is bounded: interning a
/// kCapacity+1-th distinct name throws Error naming it.
class LevelTable {
 public:
  static constexpr std::size_t kCapacity = 64;

  [[nodiscard]] std::uint16_t intern(std::string_view name);
  /// The name `id` was interned under; throws Error for an unknown id.
  [[nodiscard]] std::string_view name(std::uint16_t id) const;

 private:
  std::mutex mu_;  ///< serializes intern()
  std::array<std::string, kCapacity> names_;
  std::atomic<std::size_t> count_{0};  ///< published after the slot is set
};

/// The process-wide table span level ids index.
[[nodiscard]] LevelTable& levels();

struct TraceEvent {
  std::int32_t rank = 0;
  std::uint16_t span = 0;          ///< span_id() or engine_span()
  std::uint16_t level = kNoLevel;  ///< levels() id
  double begin_us = 0.0;
  double end_us = 0.0;

  [[nodiscard]] bool is_engine() const { return span >= kSpanNameCount; }
  [[nodiscard]] bool is_stage() const {
    return !is_engine() && span_info(static_cast<SpanName>(span)).stage;
  }
  /// Chrome "name", e.g. "allreduce", "plan.build", "allreduce.rs.node".
  [[nodiscard]] std::string name() const;
  /// Chrome "cat", e.g. "xccl", "core.plan", "hier.stage".
  [[nodiscard]] std::string_view category() const;
};

/// Process-wide trace collector (thread-safe; rank threads append).
class Trace {
 public:
  /// Spans each rank's ring keeps; older ones are evicted.
  static constexpr std::size_t kRankCapacity = 16384;
  static constexpr int kMaxRanks = 512;  ///< higher ranks are not traced

  static Trace& instance();

  // One process-wide flag: the off-path (every instrumented span in every
  // rank thread) is one relaxed load. The rings have their own locks.
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Append one closed span to rank e.rank's ring (no-op while disabled).
  /// Once that ring is full its oldest span is evicted and counted as
  /// dropped; other ranks' rings are untouched.
  void record(const TraceEvent& e);

  /// Spans evicted by ring wrap since the last clear(), over all ranks.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Spans ever recorded since the last clear() (retained + dropped).
  [[nodiscard]] std::uint64_t total() const { return size() + dropped(); }

  void clear();
  [[nodiscard]] std::size_t size() const;
  /// Retained spans rank by rank, each rank's oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Render the Chrome tracing JSON ("X" complete events; tid = rank).
  /// otherData carries {retainedEvents, droppedEvents, totalEvents}.
  [[nodiscard]] std::string to_chrome_json() const;
  void save_chrome_json(const std::string& path) const;

 private:
  Trace() = default;

  struct alignas(64) Ring {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;  ///< grown on first use; circular once full
    std::size_t head = 0;            ///< oldest span once wrapped
    std::uint64_t dropped = 0;
  };

  static inline std::atomic<bool> enabled_{false};
  Ring rings_[kMaxRanks];
};

}  // namespace mpixccl::sim
