#pragma once
// What mpixccl_bench runs and reports: the four workloads, the seeded call
// sequence each one issues, and the metric tables (name, unit, clock,
// direction, regression bound, and for layer metrics the end-to-end metric
// each one should move).
//
// BENCHMARK.json at the repository root lists the gated host-clock
// end-to-end rows that apply to every workload, and every layer row but the
// two virtual times; smoke_test.py checks that the benchmark emits each one
// with the same unit and bound.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace mpixccl::e2e {

enum class Workload : std::uint8_t { OmbSmall, OmbLarge, Train, Churn };
inline constexpr Workload kAllWorkloads[] = {Workload::OmbSmall, Workload::OmbLarge,
                                             Workload::Train, Workload::Churn};
std::string_view to_string(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

/// Collectives the workloads draw from.
enum class Op : std::uint8_t {
  Allreduce, Bcast, Allgather, ReduceScatter, Allgatherv, Alltoallv, Gather, Scatter
};
std::string_view to_string(Op op);

/// Element types (all carry small integers, so every reduction is exact).
enum class Elem : std::uint8_t { Float, Int32, Double };
std::size_t elem_size(Elem e);

/// One workload: its simulated world and the shapes its calls draw from.
/// A call's size is the bytes of the largest buffer it touches: the whole
/// buffer of allreduce and bcast, the p blocks of one rank's receive (or the
/// root's send) for the others.
struct WorkloadSpec {
  Workload id;
  std::string_view system;  ///< sim profile name
  int nodes;
  int per_node;
  std::vector<Op> ops;
  std::vector<std::size_t> sizes;
  std::vector<Elem> elems;
  bool host_buffers;  ///< draw device and host buffers, else device only
  int comms;          ///< 1: world only; 3: world, a dup and a 2-way split
  /// Calls per timed phase at --scale 1 (train: steps).
  std::uint64_t default_calls;
};
const WorkloadSpec& workload_spec(Workload w);

/// One collective call, identical on every rank for a given (seed, index).
struct Call {
  Op op = Op::Allreduce;
  std::size_t bytes = 0;
  Elem elem = Elem::Float;
  bool host = false;
  int comm = 0;
  std::uint32_t root_draw = 0;  ///< root = root_draw % comm size
  bool full_check = false;      ///< verify every output element, not a sample
};
/// Every 256th call checks its whole output buffer.
inline constexpr std::uint64_t kFullCheckEvery = 256;
Call draw_call(const WorkloadSpec& w, std::uint64_t seed, std::uint64_t index);

enum class Clock : std::uint8_t { Host, Virtual, None };
enum class Better : std::uint8_t { Lower, Higher };

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  Clock clock;
  Better better;
  /// Relative worsening `compare` tolerates. 0 means compared exactly.
  double bound;
  /// False for rows that are printed but never judged.
  bool gated;
};
std::span<const MetricSpec> end_to_end_metrics();
const MetricSpec* find_end_to_end(std::string_view name);

/// A per-layer metric and the end-to-end metric it should move.
struct LayerSpec {
  std::string_view name;
  std::string_view unit;
  Clock clock;
  std::string_view moves;  ///< "<metric> on <workload>", or a note
};
std::span<const LayerSpec> layer_metrics();
const LayerSpec* find_layer(std::string_view name);

}  // namespace mpixccl::e2e
