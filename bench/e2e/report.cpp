#include "report.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/format.hpp"
#include "core_clock.hpp"
#include "stats.hpp"

namespace mpixccl::e2e {
namespace {

std::string_view to_string(Clock c) {
  switch (c) {
    case Clock::Host: return "host";
    case Clock::Virtual: return "virtual";
    case Clock::None: return "-";
  }
  return "?";
}

std::string_view unit_of(std::string_view name) {
  if (const MetricSpec* m = find_end_to_end(name)) return m->unit;
  if (const LayerSpec* l = find_layer(name)) return l->unit;
  return "";
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Gated host metrics are medians over windows of the timed phase, so a
// stall on a shared host shifts one window, not the result.
constexpr std::size_t kWindows = 10;

/// Windows of at least 200 samples, so each window's p90 has 20 above it.
std::size_t latency_windows(const Samples& s) {
  return std::clamp<std::size_t>(s.values().size() / 200, 1, kWindows);
}

double host_p50(const PhaseResult& r) {
  return windowed_quantile(r.host_call_us.values(), 0.5, latency_windows(r.host_call_us));
}

}  // namespace

void add_points(obs::BenchDoc& doc, Workload w, const WorkloadResult& r,
                double peak_rss_mb, const NamedValues& ladder) {
  auto put = [&](const std::string& name, double v) {
    doc.points.push_back(obs::BenchPoint{std::string(to_string(w)), name,
                                         std::string(unit_of(name)), 0, v});
  };
  const PhaseResult& u = r.untraced;
  // Host times at the reference clock: wall time x measured / reference GHz.
  std::vector<double> setup_ref;
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    setup_ref.push_back(r.setup_s[i] * r.setup_clock_ghz[i] / kReferenceGhz);
  }
  const double ghz = median(u.clock_ghz);
  const double to_ref = ghz / kReferenceGhz;
  const double rate = windowed_rate(u.marks, kWindows);
  const double p50 = host_p50(u);
  put("setup_s", median(setup_ref));
  put("calls_per_s", rate / to_ref);
  put("host_call_us.p50", p50 * to_ref);
  put("host_call_us.p90", to_ref * windowed_quantile(u.host_call_us.values(), 0.9,
                                                     latency_windows(u.host_call_us)));
  std::vector<double> host = u.host_call_us.copy();
  if (highest_reportable_quantile(host.size()) >= 0.99) {
    put("host_call_us.p99", quantile(host, 0.99) * to_ref);
  }
  put("host_call_us.n", static_cast<double>(u.host_call_us.count()));
  if (w == Workload::Train) {
    std::vector<double> steps = u.host_step_ms;
    const std::size_t step_windows =
        std::clamp<std::size_t>(steps.size() / 10, 1, kWindows);
    put("host_step_ms.p50", windowed_quantile(steps, 0.5, step_windows) * to_ref);
    put("host_step_ms.p90", quantile(steps, 0.9) * to_ref);
  }
  put("host_clock_ghz", ghz);
  put("setup_s.wall", median(r.setup_s));
  put("calls_per_s.wall", rate);
  put("host_call_us.p50.wall", p50);
  put("peak_rss_mb", peak_rss_mb);
  put("host_steal_pct", u.steal_pct);
  std::vector<double> vt = u.vt_call_us.copy();
  put("vt_call_us.p50", quantile(vt, 0.5));
  put("vt_call_us.p99", quantile(vt, 0.99));
  if (w == Workload::Train) put("vt_img_per_s", u.vt_img_per_s);

  std::uint64_t attempted = u.calls;
  std::uint64_t failed = u.failed;
  if (r.traced) {
    attempted += r.traced->calls;
    failed += r.traced->failed;
  }
  put("fail_ratio", ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  put("attempted", static_cast<double>(attempted));
  put("failed", static_cast<double>(failed));

  if (!r.traced) return;
  const PhaseResult& t = *r.traced;
  put("host.busy_cores", ratio(t.cpu_s, t.wall_s));
  put("core.fallback_ratio", ratio(static_cast<double>(t.rank0_fell_back),
                                   static_cast<double>(t.rank0_calls)));
  double engine_total = 0.0;
  for (std::uint64_t c : t.engine_calls) engine_total += static_cast<double>(c);
  const char* engines[] = {"mpi", "xccl", "hier"};
  for (std::size_t e = 0; e < 3; ++e) {
    put(std::string("core.engine_share.") + engines[e],
        ratio(static_cast<double>(t.engine_calls[e]), engine_total));
  }
  put("plan.hit_ratio", ratio(static_cast<double>(t.plan.hits),
                              static_cast<double>(t.plan.hits + t.plan.misses)));
  put("plan.evict_per_kcall", ratio(static_cast<double>(t.plan.evictions),
                                    static_cast<double>(t.calls) * 1e-3));
  put("obs.trace_overhead_pct", 100.0 * (ratio(host_p50(t), host_p50(u)) - 1.0));
  for (const auto& [name, v] : ladder) put(name, v);
}

std::string human_report(const obs::BenchDoc& doc) {
  std::map<std::string, fmt::Table> tables;
  for (const obs::BenchPoint& p : doc.points) {
    auto it = tables.find(p.table);
    if (it == tables.end()) {
      it = tables.emplace(p.table, fmt::Table({"metric", "value", "unit", "clock"}))
               .first;
    }
    Clock clock = Clock::None;
    if (const MetricSpec* m = find_end_to_end(p.series)) clock = m->clock;
    if (const LayerSpec* l = find_layer(p.series)) clock = l->clock;
    it->second.add_row({p.series, fmt::json_double(p.value), p.unit,
                        std::string(to_string(clock))});
  }
  std::ostringstream os;
  for (const auto& [workload, table] : tables) {
    os << "== " << workload << "\n" << table.str() << "\n";
  }
  return os.str();
}

std::string layers_json(const obs::BenchDoc& doc) {
  std::map<std::string, std::vector<const obs::BenchPoint*>> by_workload;
  for (const obs::BenchPoint& p : doc.points) {
    if (find_layer(p.series) != nullptr) by_workload[p.table].push_back(&p);
  }
  std::ostringstream os;
  os << "{\"schema\":\"mpixccl.layers.v1\",\"workloads\":{";
  bool first_w = true;
  for (const auto& [workload, points] : by_workload) {
    os << (first_w ? "" : ",") << "\n\"" << fmt::json_escape(workload) << "\":{";
    first_w = false;
    bool first = true;
    for (const obs::BenchPoint* p : points) {
      const LayerSpec& l = *find_layer(p->series);
      os << (first ? "" : ",") << "\n  \"" << fmt::json_escape(p->series)
         << "\":{\"value\":" << fmt::json_double(p->value) << ",\"unit\":\""
         << fmt::json_escape(l.unit) << "\",\"clock\":\"" << to_string(l.clock)
         << "\",\"moves\":\"" << fmt::json_escape(l.moves) << "\"}";
      first = false;
    }
    os << "}";
  }
  os << "}}\n";
  return os.str();
}

int compare(const std::vector<obs::BenchDoc>& base,
            const std::vector<obs::BenchDoc>& cand, std::string& report) {
  using Key = std::pair<std::string, std::string>;
  auto collect = [](const std::vector<obs::BenchDoc>& docs) {
    std::map<Key, std::vector<double>> out;
    for (const obs::BenchDoc& d : docs) {
      for (const obs::BenchPoint& p : d.points) {
        const MetricSpec* m = find_end_to_end(p.series);
        if (m != nullptr && m->gated) out[{p.table, p.series}].push_back(p.value);
      }
    }
    return out;
  };
  const auto b = collect(base);
  const auto c = collect(cand);
  fmt::Table table({"workload", "metric", "base", "cand", "delta", "bound", "verdict"});
  int worse = 0;
  for (const auto& [key, bvals] : b) {
    const auto it = c.find(key);
    if (it == c.end()) {
      table.add_row({key.first, key.second, fmt::json_double(median(bvals)), "missing",
                     "", "", "unresolved"});
      continue;
    }
    const MetricSpec& m = *find_end_to_end(key.second);
    const Verdict v = judge(m, bvals, it->second);
    worse += v == Verdict::Worse ? 1 : 0;
    const double bm = median(bvals);
    const double cm = median(it->second);
    table.add_row({key.first, key.second, fmt::json_double(bm), fmt::json_double(cm),
                   bm != 0.0 ? fmt::fixed(100.0 * (cm - bm) / bm, 1) + "%" : "",
                   m.bound == 0.0 ? "exact" : fmt::fixed(100.0 * m.bound, 0) + "%",
                   std::string(to_string(v))});
  }
  report = table.str() + (worse > 0 ? std::to_string(worse) + " worse\n" : "no worse\n");
  return worse > 0 ? 1 : 0;
}

}  // namespace mpixccl::e2e
