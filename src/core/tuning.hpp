#pragma once
// Hybrid-design tuning tables (paper Sec. 3.4).
//
// A TuningTable answers, per (collective, message size), whether the MPI
// algorithms or the xCCL backend should serve the call. Tables are tuned
// offline (see tuner.hpp) and consulted at runtime by XcclMpi in Hybrid
// mode; the defaults encode the crossovers the paper reports (MPI wins small
// messages because CCL launch overheads dominate; xCCL wins large messages
// on bandwidth).

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "sim/profiles.hpp"

namespace mpixccl::core {

/// Collective operations the hybrid dispatcher distinguishes.
enum class CollOp : std::uint8_t {
  Allreduce,
  Bcast,
  Reduce,
  Allgather,
  Allgatherv,
  ReduceScatter,
  Alltoall,
  Alltoallv,
  Gather,
  Scatter,
  Scan,
};

constexpr std::string_view to_string(CollOp op) {
  switch (op) {
    case CollOp::Allreduce: return "allreduce";
    case CollOp::Bcast: return "bcast";
    case CollOp::Reduce: return "reduce";
    case CollOp::Allgather: return "allgather";
    case CollOp::Allgatherv: return "allgatherv";
    case CollOp::ReduceScatter: return "reduce_scatter";
    case CollOp::Alltoall: return "alltoall";
    case CollOp::Alltoallv: return "alltoallv";
    case CollOp::Gather: return "gather";
    case CollOp::Scatter: return "scatter";
    case CollOp::Scan: return "scan";
  }
  return "?";
}

/// All CollOp values (iteration helper for tuners and benches).
inline constexpr CollOp kAllCollOps[] = {
    CollOp::Allreduce,  CollOp::Bcast,    CollOp::Reduce,   CollOp::Allgather,
    CollOp::Allgatherv, CollOp::ReduceScatter, CollOp::Alltoall,
    CollOp::Alltoallv,  CollOp::Gather,   CollOp::Scatter,  CollOp::Scan,
};

/// Which engine serves a call: the flat MiniMPI algorithms, the flat xCCL
/// backend, or the topology-aware hierarchical engine (src/hier/).
enum class Engine : std::uint8_t { Mpi, Xccl, Hier };

/// Runtime dispatch mode (lives here, beside the enums every layer shares,
/// so the observability records can name it without a core dependency).
enum class Mode : std::uint8_t {
  Hybrid,    ///< tuning-table selection (the paper's "Proposed Hybrid xCCL")
  PureXccl,  ///< always CCL when legal (the paper's "Proposed xCCL w/ Pure ...")
  PureMpi,   ///< never CCL (a traditional GPU-aware MPI)
};

constexpr std::string_view to_string(Mode m) {
  switch (m) {
    case Mode::Hybrid: return "hybrid";
    case Mode::PureXccl: return "pure_xccl";
    case Mode::PureMpi: return "pure_mpi";
  }
  return "?";
}

constexpr std::string_view to_string(Engine e) {
  switch (e) {
    case Engine::Mpi: return "mpi";
    case Engine::Xccl: return "xccl";
    case Engine::Hier: return "hier";
  }
  return "?";
}

/// True for the collectives the hierarchical engine implements. Tables may
/// still name `hier` for other ops; the dispatcher remaps those to Xccl.
constexpr bool engine_hier_supports(CollOp op) {
  switch (op) {
    case CollOp::Allreduce:
    case CollOp::Bcast:
    case CollOp::Reduce:
    case CollOp::Allgather:
    case CollOp::ReduceScatter: return true;
    default: return false;
  }
}

/// Per-collective sorted breakpoints: a message of `bytes` is served by the
/// engine of the first entry with bytes <= max_bytes (entries sorted by
/// max_bytes ascending; the last entry has max_bytes == SIZE_MAX).
class TuningTable {
 public:
  struct Entry {
    std::size_t max_bytes;
    Engine engine;
  };

  /// Everything on one engine (pure modes).
  static TuningTable uniform(Engine engine);

  /// The offline-tuned defaults for a system profile: MPI below the
  /// per-collective crossover, xCCL above.
  static TuningTable default_for(const sim::SystemProfile& profile);

  /// Engine for (op, message bytes). Ops without rules default to Xccl.
  [[nodiscard]] Engine select(CollOp op, std::size_t bytes) const;

  /// Like select(), but also report the matching rule itself (its max_bytes
  /// is the breakpoint the decision log records). Ops without rules yield
  /// the implicit catch-all {SIZE_MAX, Xccl}.
  [[nodiscard]] Entry select_entry(CollOp op, std::size_t bytes) const;

  /// Replace the rule list for one collective (entries will be sorted; the
  /// final entry is extended to SIZE_MAX).
  void set_rules(CollOp op, std::vector<Entry> entries);

  /// Rewrite the rules so every message in [lo, hi] selects `engine` while
  /// selection outside the range is unchanged: the covering rules are split
  /// at the range edges and adjacent same-engine intervals are merged back.
  /// An op without rules starts from the implicit catch-all {SIZE_MAX, Xccl}.
  /// This is how the online tuner (src/tune/) rewrites a runtime's table.
  void set_range(CollOp op, std::size_t lo, std::size_t hi, Engine engine);

  [[nodiscard]] const std::vector<Entry>* rules(CollOp op) const;

  /// Human/machine-readable round trip, e.g.
  ///   "allreduce:16384=mpi,max=xccl;bcast:8192=mpi,max=xccl"
  [[nodiscard]] std::string serialize() const;
  static TuningTable deserialize(const std::string& text);

  /// File round trip (the offline-tuned tables the paper ships with the
  /// runtime). Format: the serialize() text, '#' comment lines allowed.
  void save_file(const std::string& path) const;
  static TuningTable load_file(const std::string& path);

 private:
  std::map<CollOp, std::vector<Entry>> rules_;
};

}  // namespace mpixccl::core
