#include "obs/obs.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>

#include "common/status.hpp"
#include "obs/analyze.hpp"
#include "obs/fleet.hpp"
#include "sim/trace.hpp"

namespace mpixccl::obs {

namespace {

std::atomic<Level> g_level{Level::Metrics};
// Whether set_level (not a direct sim::Trace user) turned the tracer on, so
// lowering the level does not stomp an externally enabled trace.
std::atomic<bool> g_obs_armed_trace{false};

std::once_flag g_env_once;
std::mutex g_cfg_mu;
EnvConfig g_cfg;  // the config flush() writes; set by init_from_env()

std::string env_str(const char* name) {
  const char* v = std::getenv(name);
  return v ? std::string(v) : std::string();
}

std::string csv_sibling(const std::string& json_path) {
  const auto dot = json_path.rfind('.');
  const auto slash = json_path.rfind('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return json_path + ".csv";
  }
  return json_path.substr(0, dot) + ".csv";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

Level level() { return g_level.load(std::memory_order_acquire); }

void set_level(Level l) {
  g_level.store(l, std::memory_order_release);
  DecisionLog::instance().set_enabled(l >= Level::Decisions);
  auto& trace = sim::Trace::instance();
  if (l >= Level::Trace) {
    if (!trace.enabled()) {
      trace.set_enabled(true);
      g_obs_armed_trace.store(true, std::memory_order_release);
    }
  } else if (g_obs_armed_trace.exchange(false, std::memory_order_acq_rel)) {
    trace.set_enabled(false);
  }
}

std::optional<Level> parse_level(std::string_view text) {
  if (text == "off" || text == "0") return Level::Off;
  if (text == "metrics" || text == "1") return Level::Metrics;
  if (text == "decisions" || text == "2") return Level::Decisions;
  if (text == "trace" || text == "3") return Level::Trace;
  return std::nullopt;
}

bool env_switch(const char* name) {
  const std::string v = env_str(name);
  if (v.empty() || v == "0") return false;
  if (v == "1") return true;
  throw Error(std::string("obs: malformed ") + name + "='" + v +
              "' (want 0 or 1)");
}

EnvConfig env_config() {
  EnvConfig cfg;
  if (const std::string l = env_str("MPIXCCL_OBS_LEVEL"); !l.empty()) {
    cfg.level = parse_level(l);
    if (!cfg.level) {
      throw Error("obs: unknown MPIXCCL_OBS_LEVEL='" + l +
                  "' (want off|metrics|decisions|trace or 0..3)");
    }
  }
  cfg.metrics_file = env_str("MPIXCCL_METRICS_FILE");
  cfg.trace_file = env_str("MPIXCCL_TRACE_FILE");
  cfg.decisions_file = env_str("MPIXCCL_DECISIONS_FILE");
  return cfg;
}

void init_from_env() {
  std::call_once(g_env_once, [] {
    // Parse everything before applying anything: a malformed variable
    // throws with the process state untouched.
    EnvConfig cfg = env_config();
    const bool fleet_profiling = env_switch("MPIXCCL_FLEET");
    const fleet::WatchdogConfig wd = fleet::WatchdogConfig::from_env();
    Level l = level();
    if (cfg.level) {
      l = *cfg.level;
    } else {
      // Requested artifacts imply the level that produces them.
      if (!cfg.decisions_file.empty()) l = std::max(l, Level::Decisions);
      if (!cfg.trace_file.empty()) l = std::max(l, Level::Trace);
    }
    set_level(l);
    {
      std::lock_guard lock(g_cfg_mu);
      g_cfg = std::move(cfg);
    }
    bool any;
    {
      std::lock_guard lock(g_cfg_mu);
      any = g_cfg.any_export();
    }
    if (any) {
      // Force-construct every singleton flush() touches BEFORE registering
      // the exit handler: atexit handlers and static destructors run LIFO,
      // so a singleton first constructed after this registration would be
      // destroyed before flush() runs and flush() would touch a dead object.
      Registry::instance();
      DecisionLog::instance();
      FlightRecorder::instance();
      sim::Trace::instance();
      std::atexit([] {
        const std::vector<std::string> errors = flush();
        if (errors.empty()) return;
        for (const std::string& e : errors) {
          std::fprintf(stderr, "mpixccl obs: %s\n", e.c_str());
        }
        // Exiting from an atexit handler: exit() here would recurse, and
        // returning would report success for a run whose requested
        // artifacts were silently dropped.
        std::_Exit(1);
      });
    }

    // Fleet telemetry layer (obs/fleet.hpp): arrival-skew profiling and the
    // hang watchdog, both off unless asked for.
    if (fleet_profiling) fleet::set_profiling(true);
    if (wd.timeout_ms > 0.0) fleet::Watchdog::instance().start(wd);
  });
}

std::vector<std::string> flush() {
  EnvConfig cfg;
  {
    std::lock_guard lock(g_cfg_mu);
    cfg = g_cfg;
  }
  std::vector<std::string> errors;
  const auto attempt = [&errors](const char* what, const std::string& path,
                                 const auto& write) {
    try {
      write();
    } catch (const std::exception& e) {
      errors.push_back(std::string(what) + " export to '" + path +
                       "' failed: " + e.what());
    }
  };
  if (!cfg.metrics_file.empty()) {
    // The composite export: the registry snapshot with the flight-recorder
    // top-K riding along as a top-level field.
    attempt("metrics", cfg.metrics_file,
            [&] { save_metrics_json(cfg.metrics_file); });
    const std::string csv = csv_sibling(cfg.metrics_file);
    attempt("metrics CSV", csv, [&] { Registry::instance().save_csv(csv); });
  }
  if (!cfg.trace_file.empty()) {
    attempt("trace", cfg.trace_file,
            [&] { sim::Trace::instance().save_chrome_json(cfg.trace_file); });
  }
  if (!cfg.decisions_file.empty()) {
    attempt("decisions", cfg.decisions_file,
            [&] { DecisionLog::instance().save_report(cfg.decisions_file); });
  }
  return errors;
}

std::string report() {
  std::ostringstream os;
  os << "observability report (level=" << to_string(level()) << ")\n";
  const MetricsSnapshot s = Registry::instance().snapshot();
  os << "collectives (process-wide, all ranks merged):\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-16s %-5s %10s %14s %12s %14s\n",
                "op", "eng", "calls", "bytes", "avg-bytes", "avg-us");
  os << line;
  if (s.collectives.empty()) os << "  (no collective calls recorded)\n";
  for (const CollRow& r : s.collectives) {
    std::snprintf(line, sizeof(line), "  %-16s %-5s %10llu %14llu %12s %14s\n",
                  std::string(to_string(r.op)).c_str(),
                  std::string(to_string(r.engine)).c_str(),
                  static_cast<unsigned long long>(r.calls),
                  static_cast<unsigned long long>(r.bytes),
                  num(r.size_hist.avg()).c_str(),
                  num(r.latency_us_hist.avg()).c_str());
    os << line;
  }
  if (!s.counters.empty() || !s.gauges.empty() || !s.histograms.empty()) {
    os << "named metrics:\n";
    for (const NamedValue& v : s.counters) {
      os << "  counter " << v.name << " = " << num(v.value) << '\n';
    }
    for (const NamedValue& v : s.gauges) {
      os << "  gauge " << v.name << " = " << num(v.value) << '\n';
    }
    for (const auto& [name, h] : s.histograms) {
      os << "  histogram " << name << ": count=" << h.count
         << " avg=" << num(h.avg()) << '\n';
    }
  }
  auto& dlog = DecisionLog::instance();
  if (dlog.enabled() || dlog.total() > 0) {
    os << dlog.why_report();
  } else {
    os << "dispatch decisions: disabled (MPIXCCL_OBS_LEVEL=decisions)\n";
  }
  return os.str();
}

Span::Span(int rank, const sim::VirtualClock& clock, std::string_view name,
           std::string_view category) {
  if (!sim::Trace::instance().enabled()) return;
  armed_ = true;
  clock_ = &clock;
  rank_ = rank;
  t0_ = clock.now();
  name_ = name;
  category_ = category;
}

Span::~Span() {
  if (!armed_) return;
  sim::Trace::instance().record(rank_, name_, category_, t0_, clock_->now());
}

}  // namespace mpixccl::obs
