#pragma once
// The four closed-loop workloads. Each runs in its own simulated world with
// one thread per rank; every rank issues its next call only after the
// previous one returned. Rank 0 times each library call on the host clock
// and on its virtual clock; every rank checks its own outputs.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/plan.hpp"
#include "host_trace.hpp"
#include "sim/profiles.hpp"
#include "spec.hpp"
#include "stats.hpp"

namespace mpixccl::e2e {

struct RunOptions {
  std::uint64_t seed = 1;
  double scale = 1.0;      ///< multiplies the default call counts
  double seconds = 0.0;    ///< > 0: the timed phases share this wall time instead
  bool traced = false;     ///< add a phase with obs tracing and host spans on
  /// Set-up is repeated at least this often (and, when above 1, until it
  /// has taken 1.5 s) and its median reported.
  int setup_reps = 5;
};

/// One timed phase of one workload.
struct PhaseResult {
  std::uint64_t calls = 0;   ///< collective calls every rank completed
  std::uint64_t failed = 0;  ///< calls that threw or produced a wrong output
  double wall_s = 0.0;       ///< without the time spent sampling the core clock
  double cpu_s = 0.0;        ///< process CPU time over the same interval
  double steal_pct = 0.0;    ///< hypervisor steal, % of all vCPU time
  Samples host_call_us;  ///< rank 0, per library call
  Samples vt_call_us;    ///< rank 0, virtual time per call
  std::vector<double> host_step_ms;  ///< train only, rank 0 per step
  /// (calls completed, wall seconds into the phase) at every stop check of
  /// rank 0.
  std::vector<std::pair<double, double>> marks;
  std::vector<double> clock_ghz;     ///< core clock samples over the phase
  double vt_img_per_s = 0.0;         ///< train only
  std::uint64_t rank0_calls = 0;
  std::uint64_t rank0_fell_back = 0;  ///< rank 0 calls with last_dispatch().fell_back
  std::array<std::uint64_t, 3> engine_calls{};  ///< obs::Registry, by core::Engine
  core::PlanCacheStats plan;  ///< summed over ranks
};

struct WorkloadResult {
  std::vector<double> setup_s;          ///< wall time of each set-up
  std::vector<double> setup_clock_ghz;  ///< core clock sampled as each set-up ended
  PhaseResult untraced;
  std::optional<PhaseResult> traced;
};

/// Run one workload. Host spans of the traced phase go to `trace`.
WorkloadResult run_workload(Workload w, const RunOptions& opt, HostTrace* trace);

/// The training loop of train_resnet50 on an arbitrary thetagpu-like world,
/// with fixed warm-up and step counts: its virtual images/s (the trainer
/// cross-check compares this with dl::run_training).
double train_vt_img_per_s(const sim::SystemProfile& profile, int nodes,
                          int per_node, int warmup_steps, int steps,
                          std::uint64_t* failed = nullptr);

}  // namespace mpixccl::e2e
