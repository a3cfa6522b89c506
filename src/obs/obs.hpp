#pragma once
// Unified observability surface for MPI-xCCL: one switchboard over the
// metrics registry (metrics.hpp), the dispatch-decision log (decision.hpp)
// and the virtual-time tracer (sim/trace.hpp).
//
//   Level::Off        nothing beyond the always-on lock-free registry
//   Level::Metrics    registry + exporters active (the default)
//   Level::Decisions  + dispatch-decision log
//   Level::Trace      + sim::Trace spans (Chrome/Perfetto timeline)
//
// Environment activation (read once by init_from_env(), which every bench,
// harness entry point and the CLI call):
//   MPIXCCL_OBS_LEVEL      off|metrics|decisions|trace (or 0..3)
//   MPIXCCL_METRICS_FILE   write the metrics snapshot here at exit
//                          (JSON; a sibling .csv is written next to it)
//   MPIXCCL_TRACE_FILE     write the Chrome-trace JSON here at exit
//                          (implies Level::Trace)
//   MPIXCCL_DECISIONS_FILE write the decision "why" report here at exit
//                          (implies Level::Decisions)

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/decision.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace mpixccl::obs {

enum class Level : std::uint8_t { Off = 0, Metrics = 1, Decisions = 2, Trace = 3 };

constexpr std::string_view to_string(Level l) {
  switch (l) {
    case Level::Off: return "off";
    case Level::Metrics: return "metrics";
    case Level::Decisions: return "decisions";
    case Level::Trace: return "trace";
  }
  return "?";
}

/// Current level (atomic; hot paths read derived flags instead).
[[nodiscard]] Level level();

/// Set the level and propagate: enables the decision log at >= Decisions and
/// sim::Trace at Trace. Dropping the level disables only what set_level
/// itself enabled (a trace turned on directly via sim::Trace stays on).
void set_level(Level l);

/// Parse "off"/"metrics"/"decisions"/"trace" or "0".."3".
[[nodiscard]] std::optional<Level> parse_level(std::string_view text);

/// Read a 0/1 switch variable (MPIXCCL_FLEET, MPIXCCL_WATCHDOG_ABORT): unset
/// or empty is off; any other value throws Error naming variable and value.
[[nodiscard]] bool env_switch(const char* name);

/// The MPIXCCL_* observability environment, as read right now.
struct EnvConfig {
  std::optional<Level> level;  ///< MPIXCCL_OBS_LEVEL, if set
  std::string metrics_file;    ///< MPIXCCL_METRICS_FILE
  std::string trace_file;      ///< MPIXCCL_TRACE_FILE
  std::string decisions_file;  ///< MPIXCCL_DECISIONS_FILE

  [[nodiscard]] bool any_export() const {
    return !metrics_file.empty() || !trace_file.empty() ||
           !decisions_file.empty();
  }
};

/// Throws Error naming the variable and value on an unknown
/// MPIXCCL_OBS_LEVEL (a typo must not silently keep the default level).
[[nodiscard]] EnvConfig env_config();

/// Apply the environment once per process (idempotent): set the level
/// (export files imply the level they need), arm the fleet telemetry layer
/// (MPIXCCL_FLEET=1 enables call-ring profiling, MPIXCCL_WATCHDOG_TIMEOUT_MS
/// starts the hang watchdog), and register an atexit hook that writes every
/// configured export file — so any bench or harness run "emits snapshots for
/// free" when the variables are set. The exit hook makes the process exit
/// with status 1 (after a clear stderr message) when any export file cannot
/// be written: a run whose requested artifacts are missing must not look
/// green to the harness that asked for them. A malformed variable throws
/// Error before any of it is applied.
void init_from_env();

/// Write all env-configured artifacts now (also runs at exit). Safe to call
/// repeatedly; later calls overwrite with fresher snapshots. Never throws:
/// returns one human-readable message per artifact that could not be
/// written (empty = everything requested is on disk), so callers — the CLI,
/// the exit hook — choose between reporting and exiting nonzero.
[[nodiscard]] std::vector<std::string> flush();

/// Merged human-readable report: per-(collective, engine) calls / bytes /
/// mean size / mean virtual latency from the registry, followed by the
/// decision-log summary when enabled. Fed by XcclMpi's per-call completion
/// record, so it covers blocking, nonblocking and persistent calls alike.
[[nodiscard]] std::string report();

/// RAII span feeding sim::Trace: captures virtual begin/end times around a
/// scope and records them on the rank's track. Free when tracing is off
/// (one atomic load, no strings).
class Span {
 public:
  Span(int rank, const sim::VirtualClock& clock, std::string_view name,
       std::string_view category);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const sim::VirtualClock* clock_ = nullptr;
  int rank_ = 0;
  double t0_ = 0.0;
  bool armed_ = false;
  std::string name_;
  std::string category_;
};

}  // namespace mpixccl::obs
