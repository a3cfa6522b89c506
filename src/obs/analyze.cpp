#include "obs/analyze.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/format.hpp"
#include "common/status.hpp"

namespace mpixccl::obs {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

}  // namespace

// ---- Flight recorder --------------------------------------------------------

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder f;
  return f;
}

void FlightRecorder::set_capacity(std::size_t k) {
  require(k > 0, "FlightRecorder::set_capacity: capacity must be positive");
  std::lock_guard lock(mu_);
  capacity_ = k;
  if (top_.size() > k) top_.resize(k);
  floor_.store(top_.size() == capacity_ ? top_.back().elapsed_us() : 0.0,
               std::memory_order_relaxed);
}

std::size_t FlightRecorder::capacity() const {
  std::lock_guard lock(mu_);
  return capacity_;
}

void FlightRecorder::record(const DispatchDecision& d) {
  const double elapsed = d.elapsed_us();
  // Fast path: once the table is full, anything faster than the K-th entry
  // cannot enter — one relaxed load, no lock, on the typical dispatch.
  if (elapsed <= floor_.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(mu_);
  if (top_.size() >= capacity_ && elapsed <= top_.back().elapsed_us()) return;
  const auto pos = std::find_if(top_.begin(), top_.end(),
                                [&](const DispatchDecision& t) {
                                  return t.elapsed_us() < elapsed;
                                });
  top_.insert(pos, d);
  if (top_.size() > capacity_) top_.pop_back();
  floor_.store(top_.size() == capacity_ ? top_.back().elapsed_us() : 0.0,
               std::memory_order_relaxed);
}

std::vector<DispatchDecision> FlightRecorder::records() const {
  std::lock_guard lock(mu_);
  return top_;
}

void FlightRecorder::clear() {
  std::lock_guard lock(mu_);
  top_.clear();
  floor_.store(0.0, std::memory_order_relaxed);
}

std::size_t FlightRecorder::purge_plan_records(
    int rank, const std::vector<std::uint64_t>& live) {
  std::lock_guard lock(mu_);
  const std::size_t before = top_.size();
  top_.erase(std::remove_if(top_.begin(), top_.end(),
                            [&](const DispatchDecision& d) {
                              if (d.rank != rank || d.plan_id == 0) return false;
                              return std::find(live.begin(), live.end(),
                                               d.plan_id) == live.end();
                            }),
             top_.end());
  // Removals can reopen the table: recompute the admission floor so future
  // records are not bounced off a threshold set by a purged entry.
  floor_.store(top_.size() == capacity_ ? top_.back().elapsed_us() : 0.0,
               std::memory_order_relaxed);
  return before - top_.size();
}

std::string FlightRecorder::to_json_field() const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  os << "\"flight_recorder\":[";
  bool first = true;
  for (const DispatchDecision& d : top_) {
    if (!first) os << ',';
    first = false;
    // The exported shape predates the single record: the routing fields
    // render under "decision", the call's identity and timing beside it.
    os << "{\"op\":\"" << to_string(d.op) << "\",\"engine\":\""
       << to_string(d.engine) << "\",\"bytes\":" << d.bytes
       << ",\"rank\":" << d.rank << ",\"begin_us\":" << num(d.enter_us)
       << ",\"end_us\":" << num(d.done_us)
       << ",\"elapsed_us\":" << num(d.elapsed_us())
       << ",\"plan_id\":" << d.plan_id << ",\"decision\":{"
       << "\"seq\":" << d.seq << ",\"mode\":\"" << to_string(d.mode)
       << "\",\"breakpoint\":";
    if (d.breakpoint == SIZE_MAX) {
      os << "\"max\"";
    } else {
      os << d.breakpoint;
    }
    os << ",\"table_choice\":\"" << to_string(d.table_choice)
       << "\",\"engine\":\"" << to_string(d.engine) << "\",\"reason\":\""
       << to_string(d.reason)
       << "\",\"fell_back\":" << (d.fell_back ? "true" : "false")
       << ",\"composed\":" << (d.composed ? "true" : "false") << "}}";
  }
  os << ']';
  return os.str();
}

std::string FlightRecorder::report() const {
  const std::vector<DispatchDecision> recs = records();
  std::ostringstream os;
  os << "flight recorder: " << recs.size() << " slowest dispatches\n";
  if (recs.empty()) return os.str();
  char line[200];
  std::snprintf(line, sizeof(line), "  %10s %-14s %-5s %12s %5s  %s\n",
                "elapsed-us", "op", "eng", "bytes", "rank", "why routed here");
  os << line;
  for (const DispatchDecision& d : recs) {
    std::ostringstream why;
    why << to_string(d.table_choice);
    if (d.table_choice != d.engine || d.fell_back) {
      why << "->" << to_string(d.engine);
    }
    if (d.reason != FallbackReason::None) {
      why << " [" << to_string(d.reason) << ']';
    }
    if (d.breakpoint != 0) {
      why << " bp<=" << (d.breakpoint == SIZE_MAX ? std::string("max")
                                                  : std::to_string(d.breakpoint));
    }
    std::snprintf(line, sizeof(line), "  %10.1f %-14s %-5s %12zu %5d  %s\n",
                  d.elapsed_us(), std::string(to_string(d.op)).c_str(),
                  std::string(to_string(d.engine)).c_str(), d.bytes, d.rank,
                  why.str().c_str());
    os << line;
  }
  return os.str();
}

// ---- Critical-path attribution ----------------------------------------------

namespace {

constexpr double kEps = 1e-6;  // virtual-time slop for span containment

bool is_engine_category(const std::string& c) {
  return c == "mpi" || c == "xccl" || c == "hier";
}

bool is_stage_category(const std::string& c) {
  constexpr std::string_view kSuffix = ".stage";
  return c.size() > kSuffix.size() &&
         c.compare(c.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0;
}

}  // namespace

std::vector<DispatchAttribution> attribute_dispatches(
    const std::vector<sim::TraceEvent>& events,
    const std::vector<DispatchDecision>& decisions) {
  std::vector<DispatchAttribution> out;
  // Per-parent child intervals, parallel to `out` (merged below).
  std::vector<std::vector<std::pair<double, double>>> child_ivals;
  std::map<int, std::vector<std::size_t>> parents_by_rank;
  for (const sim::TraceEvent& e : events) {
    if (!is_engine_category(e.category)) continue;
    DispatchAttribution a;
    a.rank = e.rank;
    a.op = e.name;
    a.engine = e.category;
    a.begin_us = e.begin_us;
    a.end_us = e.end_us;
    parents_by_rank[e.rank].push_back(out.size());
    out.push_back(std::move(a));
    child_ivals.emplace_back();
  }

  for (const sim::TraceEvent& e : events) {
    if (!is_stage_category(e.category)) continue;
    const auto it = parents_by_rank.find(e.rank);
    if (it == parents_by_rank.end()) continue;
    for (const std::size_t pi : it->second) {
      DispatchAttribution& a = out[pi];
      if (e.begin_us < a.begin_us - kEps || e.end_us > a.end_us + kEps) continue;
      const double b = std::max(e.begin_us, a.begin_us);
      const double t = std::min(e.end_us, a.end_us);
      child_ivals[pi].emplace_back(b, t);
      auto stage = std::find_if(
          a.stage_us.begin(), a.stage_us.end(),
          [&](const auto& s) { return s.first == e.name; });
      if (stage == a.stage_us.end()) {
        a.stage_us.emplace_back(e.name, t - b);
      } else {
        stage->second += t - b;
      }
      break;  // per-rank spans nest uniquely: first containing parent wins
    }
  }

  // Merge each parent's child intervals: union = attributed time, the
  // largest uncovered hole = longest idle gap.
  for (std::size_t pi = 0; pi < out.size(); ++pi) {
    DispatchAttribution& a = out[pi];
    auto& ivals = child_ivals[pi];
    if (ivals.empty()) {
      a.longest_gap_us = a.duration_us();
      continue;
    }
    std::sort(ivals.begin(), ivals.end());
    double covered = 0.0;
    double gap = 0.0;
    double cursor = a.begin_us;
    for (const auto& [b, t] : ivals) {
      if (b > cursor) gap = std::max(gap, b - cursor);
      if (t > cursor) {
        covered += t - std::max(b, cursor);
        cursor = t;
      }
    }
    gap = std::max(gap, a.end_us - cursor);
    a.attributed_us = covered;
    a.longest_gap_us = gap;
  }

  // Join decisions by (rank, op, completion time inside the span). Each
  // decision joins at most one span.
  std::vector<bool> used(decisions.size(), false);
  for (DispatchAttribution& a : out) {
    for (std::size_t di = 0; di < decisions.size(); ++di) {
      if (used[di]) continue;
      const DispatchDecision& d = decisions[di];
      if (d.rank != a.rank || to_string(d.op) != a.op) continue;
      if (d.time_us < a.begin_us - kEps || d.time_us > a.end_us + kEps) continue;
      a.joined = true;
      a.decision = d;
      used[di] = true;
      break;
    }
  }
  return out;
}

std::string critical_path_report(
    const std::vector<DispatchAttribution>& attrs) {
  struct Agg {
    std::uint64_t dispatches = 0;
    double total_us = 0.0;
    double attributed_us = 0.0;
    double longest_gap_us = 0.0;
    std::vector<std::pair<std::string, double>> stage_us;
  };
  std::map<std::string, Agg> rows;  // key: "<op> <band>"
  std::uint64_t stageless = 0;
  for (const DispatchAttribution& a : attrs) {
    if (a.stage_us.empty()) {
      ++stageless;
      continue;
    }
    const std::string band =
        a.joined ? std::string(size_band_name(size_band_of(a.decision.bytes)))
                 : "?";
    Agg& agg = rows[a.op + ' ' + band];
    ++agg.dispatches;
    agg.total_us += a.duration_us();
    agg.attributed_us += a.attributed_us;
    agg.longest_gap_us = std::max(agg.longest_gap_us, a.longest_gap_us);
    for (const auto& [stage, us] : a.stage_us) {
      auto it = std::find_if(agg.stage_us.begin(), agg.stage_us.end(),
                             [&](const auto& s) { return s.first == stage; });
      if (it == agg.stage_us.end()) {
        agg.stage_us.emplace_back(stage, us);
      } else {
        it->second += us;
      }
    }
  }

  std::ostringstream os;
  os << "critical-path attribution (per collective x size-band):\n";
  if (rows.empty()) {
    os << "  (no staged dispatch spans in the trace — enable Level::Trace and "
          "run a hier/composed collective)\n";
    return os.str();
  }
  fmt::Table table({"collective", "band", "calls", "total-us", "coverage",
                    "max-gap-us", "stage shares"});
  for (const auto& [key, agg] : rows) {
    const auto space = key.rfind(' ');
    std::ostringstream shares;
    bool first = true;
    for (const auto& [stage, us] : agg.stage_us) {
      if (!first) shares << " | ";
      first = false;
      shares << stage << ' '
             << fmt::fixed(agg.total_us > 0.0 ? 100.0 * us / agg.total_us : 0.0,
                           1)
             << '%';
    }
    table.add_row({key.substr(0, space), key.substr(space + 1),
                   std::to_string(agg.dispatches), fmt::fixed(agg.total_us, 1),
                   fmt::fixed(agg.total_us > 0.0
                                  ? 100.0 * agg.attributed_us / agg.total_us
                                  : 0.0,
                              1) +
                       "%",
                   fmt::fixed(agg.longest_gap_us, 1), shares.str()});
  }
  os << table.str();
  if (stageless > 0) {
    os << "  (" << stageless
       << " dispatch spans had no recorded stages: flat mpi/xccl built-ins)\n";
  }
  return os.str();
}

// ---- Hottest-rows report ----------------------------------------------------

std::string top_report(const MetricsSnapshot& snap, std::size_t max_rows) {
  struct TopRow {
    std::string op, engine, band;
    const HistogramSnapshot* hist;
  };
  std::vector<TopRow> rows;
  for (const CollRow& r : snap.collectives) {
    bool any_band = false;
    for (std::size_t b = 0; b < kSizeBands; ++b) {
      if (r.band_latency_us[b].count == 0) continue;
      any_band = true;
      rows.push_back({std::string(to_string(r.op)),
                      std::string(to_string(r.engine)),
                      std::string(size_band_name(b)), &r.band_latency_us[b]});
    }
    if (!any_band && r.latency_us_hist.count > 0) {
      rows.push_back({std::string(to_string(r.op)),
                      std::string(to_string(r.engine)), "all",
                      &r.latency_us_hist});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const TopRow& a, const TopRow& b) {
    return a.hist->sum > b.hist->sum;
  });

  std::ostringstream os;
  os << "top: hottest (collective, engine, size-band) rows by total virtual "
        "time\n";
  if (rows.empty()) {
    os << "  (no latency samples recorded)\n";
    return os.str();
  }
  fmt::Table table({"collective", "eng", "band", "calls", "total-us", "avg-us",
                    "p50-us", "p90-us", "p99-us"});
  const std::size_t shown = std::min(rows.size(), max_rows);
  for (std::size_t i = 0; i < shown; ++i) {
    const TopRow& r = rows[i];
    table.add_row({r.op, r.engine, r.band, std::to_string(r.hist->count),
                   fmt::fixed(r.hist->sum, 1), fmt::fixed(r.hist->avg(), 1),
                   fmt::fixed(r.hist->p50(), 1), fmt::fixed(r.hist->p90(), 1),
                   fmt::fixed(r.hist->p99(), 1)});
  }
  os << table.str();
  if (rows.size() > shown) {
    os << "  ... and " << rows.size() - shown << " cooler rows\n";
  }
  return os.str();
}

// ---- Composite export -------------------------------------------------------

void save_metrics_json(const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "save_metrics_json: cannot open " + path);
  out << Registry::instance().snapshot().to_json(
             FlightRecorder::instance().to_json_field())
      << '\n';
  require(out.good(), "save_metrics_json: write failed");
}

// ---- Bench results and the regression diff ----------------------------------

std::string BenchPoint::key() const {
  return table + " :: " + series + " @ " + std::to_string(bytes);
}

bool BenchPoint::lower_is_better() const {
  // Latency-like series regress upward; bandwidth / throughput series
  // regress downward. Everything the harness emits today is latency ("us")
  // except p2p bandwidth rows, which carry the direction in their name.
  return !(contains(unit, "MBps") || contains(unit, "GBps") ||
           contains(unit, "img") || contains(series, "bw_") ||
           contains(series, "MBps"));
}

std::string bench_json(const BenchDoc& doc) {
  std::ostringstream os;
  os << "{\"schema\":\"" << fmt::json_escape(doc.schema) << "\",\"bench\":\""
     << fmt::json_escape(doc.bench) << "\",\"points\":[";
  bool first = true;
  for (const BenchPoint& p : doc.points) {
    if (!first) os << ',';
    first = false;
    // json_double: values must survive a parse→re-emit cycle exactly, or a
    // diff of two identical runs would see phantom deltas.
    os << "{\"table\":\"" << fmt::json_escape(p.table) << "\",\"series\":\""
       << fmt::json_escape(p.series) << "\",\"unit\":\""
       << fmt::json_escape(p.unit) << "\",\"bytes\":" << p.bytes
       << ",\"value\":" << fmt::json_double(p.value) << '}';
  }
  os << "]}";
  return os.str();
}

namespace {

/// Minimal recursive-descent JSON reader — just enough for the documents
/// this layer itself emits (mpixccl.bench.v1). Unknown keys are skipped, so
/// the schema can grow fields without breaking older readers.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : t_(text) {}

  void ws() {
    while (i_ < t_.size() && (t_[i_] == ' ' || t_[i_] == '\t' ||
                              t_[i_] == '\n' || t_[i_] == '\r')) {
      ++i_;
    }
  }
  [[nodiscard]] bool peek(char c) {
    ws();
    return i_ < t_.size() && t_[i_] == c;
  }
  bool eat(char c) {
    if (!peek(c)) return false;
    ++i_;
    return true;
  }
  void expect(char c) {
    require(eat(c), std::string("bench JSON: expected '") + c + "' at offset " +
                        std::to_string(i_));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (i_ < t_.size() && t_[i_] != '"') {
      char c = t_[i_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      require(i_ < t_.size(), "bench JSON: dangling escape");
      const char e = t_[i_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          require(i_ + 4 <= t_.size(), "bench JSON: truncated \\u escape");
          const unsigned code = static_cast<unsigned>(
              std::stoul(std::string(t_.substr(i_, 4)), nullptr, 16));
          i_ += 4;
          // Our emitter only \u-escapes control characters; anything wider
          // degrades to '?' rather than growing a full UTF-8 encoder.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: require(false, "bench JSON: bad escape");
      }
    }
    expect('"');
    return out;
  }

  double parse_number() {
    ws();
    const std::size_t start = i_;
    while (i_ < t_.size() &&
           (std::isdigit(static_cast<unsigned char>(t_[i_])) != 0 ||
            t_[i_] == '-' || t_[i_] == '+' || t_[i_] == '.' || t_[i_] == 'e' ||
            t_[i_] == 'E')) {
      ++i_;
    }
    require(i_ > start, "bench JSON: expected a number at offset " +
                            std::to_string(start));
    return std::strtod(std::string(t_.substr(start, i_ - start)).c_str(),
                       nullptr);
  }

  void skip_value() {
    ws();
    require(i_ < t_.size(), "bench JSON: unexpected end");
    const char c = t_[i_];
    if (c == '"') {
      parse_string();
    } else if (c == '{') {
      ++i_;
      if (!eat('}')) {
        do {
          parse_string();
          expect(':');
          skip_value();
        } while (eat(','));
        expect('}');
      }
    } else if (c == '[') {
      ++i_;
      if (!eat(']')) {
        do {
          skip_value();
        } while (eat(','));
        expect(']');
      }
    } else if (c == 't' || c == 'f' || c == 'n') {
      while (i_ < t_.size() &&
             std::isalpha(static_cast<unsigned char>(t_[i_])) != 0) {
        ++i_;
      }
    } else {
      parse_number();
    }
  }

 private:
  std::string_view t_;
  std::size_t i_ = 0;
};

BenchPoint parse_point(JsonCursor& cur) {
  BenchPoint p;
  cur.expect('{');
  if (!cur.eat('}')) {
    do {
      const std::string key = cur.parse_string();
      cur.expect(':');
      if (key == "table") {
        p.table = cur.parse_string();
      } else if (key == "series") {
        p.series = cur.parse_string();
      } else if (key == "unit") {
        p.unit = cur.parse_string();
      } else if (key == "bytes") {
        p.bytes = static_cast<std::size_t>(cur.parse_number());
      } else if (key == "value") {
        p.value = cur.parse_number();
      } else {
        cur.skip_value();
      }
    } while (cur.eat(','));
    cur.expect('}');
  }
  return p;
}

}  // namespace

BenchDoc parse_bench_json(std::string_view text) {
  JsonCursor cur(text);
  BenchDoc doc;
  doc.schema.clear();
  cur.expect('{');
  if (!cur.eat('}')) {
    do {
      const std::string key = cur.parse_string();
      cur.expect(':');
      if (key == "schema") {
        doc.schema = cur.parse_string();
      } else if (key == "bench") {
        doc.bench = cur.parse_string();
      } else if (key == "points") {
        cur.expect('[');
        if (!cur.eat(']')) {
          do {
            doc.points.push_back(parse_point(cur));
          } while (cur.eat(','));
          cur.expect(']');
        }
      } else {
        cur.skip_value();
      }
    } while (cur.eat(','));
    cur.expect('}');
  }
  require(doc.schema == "mpixccl.bench.v1",
          "bench JSON: schema is '" + doc.schema +
              "', expected mpixccl.bench.v1");
  return doc;
}

BenchDoc load_bench_json(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "load_bench_json: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse_bench_json(buf.str());
  } catch (const std::exception& e) {
    // Parse errors name only the offset; a CI log needs to say which of the
    // two diffed files was the broken one.
    throw Error("load_bench_json: " + path + ": " + e.what());
  }
}

BenchDiff bench_diff(const BenchDoc& baseline, const BenchDoc& current,
                     const DiffOptions& opt) {
  BenchDiff diff;
  std::map<std::string, const BenchPoint*> cur_by_key;
  for (const BenchPoint& p : current.points) cur_by_key[p.key()] = &p;
  std::map<std::string, bool> matched;
  for (const BenchPoint& base : baseline.points) {
    const auto it = cur_by_key.find(base.key());
    if (it == cur_by_key.end()) {
      diff.missing.push_back(base.key());
      continue;
    }
    matched[base.key()] = true;
    PointDiff pd;
    pd.base = base;
    pd.current = it->second->value;
    pd.delta_rel =
        base.value != 0.0
            ? (pd.current - base.value) / base.value
            : (pd.current == 0.0 ? 0.0
                                 : std::numeric_limits<double>::infinity());
    // Positive `worse` = moved in the regressing direction for this unit.
    const double worse = base.lower_is_better() ? pd.current - base.value
                                                : base.value - pd.current;
    const double rel_gate = opt.rel_threshold * std::abs(base.value);
    pd.regressed = worse > rel_gate && worse > opt.abs_floor;
    pd.improved = -worse > rel_gate && -worse > opt.abs_floor;
    diff.regressions += pd.regressed ? 1 : 0;
    diff.improvements += pd.improved ? 1 : 0;
    diff.points.push_back(std::move(pd));
  }
  for (const BenchPoint& p : current.points) {
    if (!matched.contains(p.key())) diff.added.push_back(p.key());
  }
  return diff;
}

std::string BenchDiff::report() const {
  std::ostringstream os;
  os << "perf diff: " << points.size() << " points compared, " << regressions
     << " regressions, " << improvements << " improvements, " << missing.size()
     << " missing, " << added.size() << " new\n";
  for (const PointDiff& p : points) {
    if (!p.regressed) continue;
    os << "  REGRESSION " << p.base.key() << ": " << num(p.base.value) << " -> "
       << num(p.current) << ' ' << p.base.unit << " ("
       << (p.delta_rel >= 0 ? "+" : "") << fmt::fixed(100.0 * p.delta_rel, 1)
       << "%)\n";
  }
  std::size_t shown = 0;
  for (const PointDiff& p : points) {
    if (!p.improved || shown >= 8) continue;
    ++shown;
    os << "  improved " << p.base.key() << ": " << num(p.base.value) << " -> "
       << num(p.current) << ' ' << p.base.unit << " ("
       << (p.delta_rel >= 0 ? "+" : "") << fmt::fixed(100.0 * p.delta_rel, 1)
       << "%)\n";
  }
  if (improvements > static_cast<int>(shown)) {
    os << "  ... and " << improvements - static_cast<int>(shown)
       << " more improvements\n";
  }
  for (const std::string& key : missing) {
    os << "  MISSING " << key << " (in baseline, absent from current run)\n";
  }
  for (const std::string& key : added) {
    os << "  new " << key << " (not in baseline)\n";
  }
  os << (ok() ? "verdict: OK (no regressions)"
              : "verdict: FAIL (regressions or missing baseline points)")
     << '\n';
  return os.str();
}

}  // namespace mpixccl::obs

