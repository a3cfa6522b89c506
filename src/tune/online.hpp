#pragma once
// Online tuning controller: closes the measure -> decide loop over the
// observability layer. The offline tuner (core/tuner.hpp) picks static
// breakpoints once; production systems never get that luxury again after a
// topology or workload shift. The OnlineTuner watches the live per-
// (collective, engine, size-band) latency distributions and runtime-fallback
// counters in obs::Registry, and rewrites byte ranges of the runtime's one
// TuningTable in place (XcclMpi::retune_range) so each (collective,
// size-band) arm converges onto the engine that is actually fastest here
// and now. A new cell's leader is the engine the table already picks.
//
// Per (collective, size-band) cell the controller runs a three-armed bandit
// over {flat-MPI, flat-xCCL, hier}:
//   - epsilon-greedy exploration: with probability epsilon per step, a
//     non-leader arm's engine is installed for the cell's byte range so the
//     registry accumulates samples for it;
//   - successive-halving elimination: at every halving checkpoint, arms
//     whose mean latency exceeds best * eliminate_factor are retired, as
//     are arms whose installs only ever produced runtime fallbacks
//     (registry fallback counters, whatever the observability level);
//   - hysteresis: a challenger only replaces the leader once it has at
//     least min_samples samples AND its mean latency beats the leader's by
//     min_improvement — no flapping between statistically tied engines.
//
// Rank discipline: step() is collective. Rank 0 alone reads the (process-
// wide, racy-by-nature) telemetry and decides; the decisions are broadcast
// as a directive batch over MPI and applied identically on every rank, so
// engine picks can never diverge across ranks (a divergent pick deadlocks
// across engine channels). Every table mutation lands in the decision log
// as a machine-readable TuneAudit record.

#include <array>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/tuning.hpp"
#include "core/xccl_mpi.hpp"
#include "obs/decision.hpp"
#include "obs/metrics.hpp"

namespace mpixccl::tune {

/// Master switch: MPIXCCL_TUNE_ONLINE=1 (or on, yes, true) turns the
/// controller on in the trainer and CLI surfaces; unset, empty, 0, off or
/// false leave it off, and any other value throws Error naming it.
[[nodiscard]] bool online_tuning_enabled();

struct OnlineTunerConfig {
  double epsilon = 0.10;         ///< per-cell exploration probability per step
  std::uint64_t min_samples = 8; ///< hysteresis: challenger samples required
  double min_improvement = 0.05; ///< hysteresis: relative mean-latency gain required
  double eliminate_factor = 2.5; ///< halving: retire arms slower than best*this
  std::uint64_t halving_every = 4;  ///< steps between elimination checkpoints
  std::uint64_t seed = 0x5eedULL;   ///< exploration RNG seed (rank 0 only)
};

/// Byte range of obs size band `band` (see obs::size_band_of): the range an
/// arm's retunes cover.
[[nodiscard]] std::size_t band_lo_bytes(std::size_t band);
[[nodiscard]] std::size_t band_hi_bytes(std::size_t band);

enum class ArmStatus : std::uint8_t {
  Active,      ///< still in the race
  Leader,      ///< currently installed for the cell's range
  Eliminated,  ///< retired by successive halving; never explored again
};

constexpr std::string_view to_string(ArmStatus s) {
  switch (s) {
    case ArmStatus::Active: return "active";
    case ArmStatus::Leader: return "leader";
    case ArmStatus::Eliminated: return "eliminated";
  }
  return "?";
}

/// One engine's standing within a cell.
struct ArmState {
  core::Engine engine = core::Engine::Mpi;
  ArmStatus status = ArmStatus::Active;
  std::uint64_t samples = 0;  ///< latency samples seen in the registry
  /// Mean dispatch latency. The mean, not the p50: the band histograms are
  /// log2-binned, so engines within ~1.4x of each other collapse into the
  /// same p50 bucket — but the histogram sum is exact, so the mean resolves
  /// differences well inside the hysteresis threshold.
  double avg_us = 0.0;  ///< 0 until sampled
  std::uint64_t fallbacks = 0;  ///< runtime fallbacks charged (registry)
  std::uint64_t explores = 0;   ///< times installed as an exploration
};

/// One (collective, size-band) bandit cell.
struct CellState {
  core::CollOp op = core::CollOp::Allreduce;
  std::size_t band = 0;
  std::array<ArmState, 3> arms{};  ///< indexed by Engine
  core::Engine leader = core::Engine::Mpi;
  bool exploring = false;  ///< a non-leader arm is currently installed
  core::Engine installed = core::Engine::Mpi;  ///< engine the range points at
  std::uint64_t explore_start = 0;  ///< step the current install began
  std::uint64_t switches = 0;
};

/// One applied table mutation (the switch history `mpixccl tune --online`
/// renders; Switch entries are what the bench audits against the decision log).
struct TuneEvent {
  obs::TuneAudit kind = obs::TuneAudit::Explore;
  core::CollOp op = core::CollOp::Allreduce;
  std::size_t band = 0;
  core::Engine from = core::Engine::Mpi;
  core::Engine to = core::Engine::Mpi;
  std::uint64_t step = 0;
};

class OnlineTuner {
 public:
  explicit OnlineTuner(OnlineTunerConfig config = {});

  /// One control round. Collective over `comm`: every rank of `rt`'s world
  /// must call it at the same point (rank 0 decides, the directive batch is
  /// broadcast, every rank applies it to its own runtime). Call between
  /// workload phases — e.g. once per training step.
  void step(core::XcclMpi& rt, mini::Comm& comm);

  /// Stop mutating the table. The next step() reverts any in-flight
  /// exploration so the table points every cell at its leader; frozen steps
  /// after that broadcast an empty batch (the call stays collective either
  /// way). Converged-latency measurements freeze, run one settling step,
  /// then time — exploration cannot perturb them.
  void freeze() { frozen_ = true; }
  void unfreeze() { frozen_ = false; }

  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] const std::map<std::pair<core::CollOp, std::size_t>,
                               CellState>&
  cells() const {
    return cells_;
  }
  [[nodiscard]] const std::vector<TuneEvent>& history() const {
    return history_;
  }
  [[nodiscard]] const OnlineTunerConfig& config() const { return config_; }

  /// Per-arm live report (`mpixccl tune --online`): one row per cell with
  /// arm states, samples, mean latencies, and the switch history tail.
  [[nodiscard]] std::string report() const;

 private:
  // Rank 0 only: refresh arm stats from the registry, then
  // decide this round's mutations as a serialized directive batch.
  void observe(core::XcclMpi& rt);
  [[nodiscard]] std::string decide();
  // All ranks: apply the broadcast batch; rank 0 also writes audit records
  // and bumps the tune.* metrics (they are process-wide).
  void apply(const std::string& directives, core::XcclMpi& rt, bool audit);

  CellState& cell(core::CollOp op, std::size_t band);

  OnlineTunerConfig config_;
  std::mt19937_64 rng_;
  std::map<std::pair<core::CollOp, std::size_t>, CellState> cells_;
  std::vector<TuneEvent> history_;
  std::uint64_t steps_ = 0;
  bool frozen_ = false;
};

// ---- C-shaped API (mirrors the xcclOp_t flavor in xccl/capi.hpp) -----------
// For host languages that bind the C surface: an opaque tuner handle whose
// lifetime the caller manages explicitly.

using mpixcclTuner_t = OnlineTuner*;

[[nodiscard]] mpixcclTuner_t mpixcclTunerCreate();
void mpixcclTunerStep(mpixcclTuner_t tuner, core::XcclMpi* rt,
                      mini::Comm* comm);
void mpixcclTunerFreeze(mpixcclTuner_t tuner);
/// Caller owns the returned report buffer lifetime via std::string.
[[nodiscard]] std::string mpixcclTunerReport(mpixcclTuner_t tuner);
void mpixcclTunerDestroy(mpixcclTuner_t tuner);

}  // namespace mpixccl::tune
