#include "obs/metrics.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <thread>

#include "common/format.hpp"
#include "common/status.hpp"

namespace mpixccl::obs {

namespace {

using fmt::num;

// Caller-chosen metric names go into JSON string literals verbatim; the
// shared fmt::json_escape handles the characters that would break the
// document (quote, backslash, control).
using fmt::json_escape;

/// RFC 4180 quoting for CSV fields that contain a separator, quote, or
/// newline; other fields pass through unchanged.
std::string csv_field(std::string_view s) {
  if (s.find_first_of(",\"\n\r") == std::string_view::npos) {
    return std::string(s);
  }
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

HistogramSnapshot merge_histograms(const HistogramSnapshot& a,
                                   const HistogramSnapshot& b) {
  HistogramSnapshot m;
  m.count = a.count + b.count;
  m.sum = a.sum + b.sum;
  // Two-pointer merge on the ascending upper bounds. Equal bounds (the
  // common case: both sides come from the same log2 bucketing) collapse
  // into one bucket with summed counts; +inf compares equal to +inf, so
  // the unbounded tails merge too.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.buckets.size() || j < b.buckets.size()) {
    if (j >= b.buckets.size() ||
        (i < a.buckets.size() && a.buckets[i].first < b.buckets[j].first)) {
      m.buckets.push_back(a.buckets[i++]);
    } else if (i >= a.buckets.size() ||
               b.buckets[j].first < a.buckets[i].first) {
      m.buckets.push_back(b.buckets[j++]);
    } else {
      m.buckets.emplace_back(a.buckets[i].first,
                             a.buckets[i].second + b.buckets[j].second);
      ++i;
      ++j;
    }
  }
  return m;
}

std::string hist_to_json(const HistogramSnapshot& h) {
  std::ostringstream os;
  os << "{\"count\":" << h.count << ",\"sum\":" << num(h.sum);
  if (h.count > 0) {
    os << ",\"p50\":" << num(h.p50()) << ",\"p90\":" << num(h.p90())
       << ",\"p99\":" << num(h.p99());
  }
  os << ",\"buckets\":[";
  bool first = true;
  for (const auto& [le, n] : h.buckets) {
    if (!first) os << ',';
    first = false;
    if (std::isinf(le)) {
      os << "{\"le\":\"inf\",\"count\":" << n << '}';
    } else {
      os << "{\"le\":" << num(le) << ",\"count\":" << n << '}';
    }
  }
  os << "]}";
  return os.str();
}

namespace {
std::mutex g_meta_mu;
SnapshotMeta g_meta;
}  // namespace

void set_snapshot_meta(int rank, int world_size, std::string_view profile,
                       std::string_view topology) {
  std::lock_guard lock(g_meta_mu);
  // First stamp wins the rank label; a second distinct rank proves this
  // process merges ranks, so the label degrades to -1.
  if (g_meta.world_size != 0 && g_meta.rank != rank) {
    g_meta.rank = -1;
  } else {
    g_meta.rank = rank;
  }
  g_meta.world_size = world_size;
  g_meta.profile = std::string(profile);
  g_meta.topology = std::string(topology);
}

SnapshotMeta snapshot_meta() {
  std::lock_guard lock(g_meta_mu);
  return g_meta;
}

void clear_snapshot_meta() {
  std::lock_guard lock(g_meta_mu);
  g_meta = SnapshotMeta{};
}

double HistogramSnapshot::percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank in (0, count]: the q-quantile sits after `target` samples.
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (const auto& [le, n] : buckets) {
    const double dn = static_cast<double>(n);
    if (cum + dn >= target) {
      // Lower edge of this log2 bucket: le/2 in general, 0 for the first
      // bucket (<= 1), bucket_le(kBuckets-2) for the unbounded last one.
      if (std::isinf(le)) return Histogram::bucket_le(Histogram::kBuckets - 2);
      const double frac = dn > 0.0 ? (target - cum) / dn : 1.0;
      if (le <= 1.0) return le * frac;  // linear: log has no lower edge at 0
      const double lo = le / 2.0;
      return lo * std::pow(le / lo, frac);  // log-linear inside (le/2, le]
    }
    cum += dn;
  }
  // Rounding left target a hair past the final cumulative count.
  const double last = buckets.empty() ? 0.0 : buckets.back().first;
  return std::isinf(last) ? Histogram::bucket_le(Histogram::kBuckets - 2) : last;
}

void Counter::add(std::uint64_t n) {
  const auto h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  add(n, static_cast<int>(h & 0x7fffffff));
}

std::size_t Histogram::bucket_of(double v) {
  if (!(v > 1.0)) return 0;  // also catches NaN and negatives
  // Bucket index = position of the smallest power of two >= v.
  const double capped = std::min(v, 9.0e18);  // keep the cast in range
  const auto u = static_cast<std::uint64_t>(std::ceil(capped));
  const auto w = static_cast<std::size_t>(std::bit_width(u - 1));
  return std::min(w, kBuckets - 1);
}

double Histogram::bucket_le(std::size_t i) {
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(i));
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) s.buckets.emplace_back(bucket_le(i), n);
  }
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

HistogramSnapshot ShardedHistogram::snapshot() const {
  HistogramSnapshot m;
  for (const Shard& s : shards_) m = merge_histograms(m, s.h.snapshot());
  return m;
}

void ShardedHistogram::reset() {
  for (Shard& s : shards_) s.h.reset();
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

void Registry::record_call(core::CollOp op, core::Engine engine, int rank,
                           std::size_t bytes) {
  CollCell& c = cell(op, engine);
  c.calls.add(1, rank);
  c.bytes.add(bytes, rank);
  c.size_hist.observe(static_cast<double>(bytes), rank);
}

void Registry::record_latency(core::CollOp op, core::Engine engine, int rank,
                              std::size_t bytes, double us) {
  CollCell& c = cell(op, engine);
  c.latency_us_hist.observe(us, rank);
  c.band_latency_us[size_band_of(bytes)].observe(us, rank);
}

void Registry::record_fallback(core::CollOp op, core::Engine table_choice,
                               int rank, std::size_t bytes) {
  cell(op, table_choice).band_fallbacks[size_band_of(bytes)].inc(rank);
}

HistogramSnapshot Registry::band_latency(core::CollOp op, core::Engine engine,
                                         std::size_t band) const {
  require(band < kSizeBands, "Registry::band_latency: band out of range");
  return cell(op, engine).band_latency_us[band].snapshot();
}

std::uint64_t Registry::band_fallbacks(core::CollOp op,
                                       core::Engine table_choice,
                                       std::size_t band) const {
  require(band < kSizeBands, "Registry::band_fallbacks: band out of range");
  return cell(op, table_choice).band_fallbacks[band].value();
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(names_mu_);
  return counters_[std::string(name)];
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(names_mu_);
  return gauges_[std::string(name)];
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(names_mu_);
  return histograms_[std::string(name)];
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot s;
  s.meta = snapshot_meta();
  for (const core::CollOp op : core::kAllCollOps) {
    for (const core::Engine e :
         {core::Engine::Mpi, core::Engine::Xccl, core::Engine::Hier}) {
      const CollCell& c = cell(op, e);
      const std::uint64_t calls = c.calls.value();
      if (calls == 0) continue;
      CollRow row;
      row.op = op;
      row.engine = e;
      row.calls = calls;
      row.bytes = c.bytes.value();
      row.size_hist = c.size_hist.snapshot();
      row.latency_us_hist = c.latency_us_hist.snapshot();
      for (std::size_t b = 0; b < kSizeBands; ++b) {
        row.band_latency_us[b] = c.band_latency_us[b].snapshot();
      }
      s.collectives.push_back(std::move(row));
    }
  }
  std::lock_guard lock(names_mu_);
  for (const auto& [name, c] : counters_) {
    s.counters.push_back({name, static_cast<double>(c.value())});
  }
  for (const auto& [name, g] : gauges_) s.gauges.push_back({name, g.value()});
  for (const auto& [name, h] : histograms_) {
    s.histograms.emplace_back(name, h.snapshot());
  }
  return s;
}

std::uint64_t Registry::engine_calls(core::Engine e) const {
  std::uint64_t total = 0;
  for (const core::CollOp op : core::kAllCollOps) total += cell(op, e).calls.value();
  return total;
}

std::uint64_t Registry::engine_bytes(core::Engine e) const {
  std::uint64_t total = 0;
  for (const core::CollOp op : core::kAllCollOps) total += cell(op, e).bytes.value();
  return total;
}

void Registry::reset() {
  for (auto& per_op : coll_) {
    for (auto& c : per_op) {
      c.calls.reset();
      c.bytes.reset();
      c.size_hist.reset();
      c.latency_us_hist.reset();
      for (auto& b : c.band_latency_us) b.reset();
      for (auto& f : c.band_fallbacks) f.reset();
    }
  }
  std::lock_guard lock(names_mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

std::string MetricsSnapshot::to_json(std::string_view extra_fields) const {
  std::ostringstream os;
  os << "{\"schema\":\"mpixccl.metrics.v1\",";
  if (meta.world_size > 0) {
    os << "\"meta\":{\"rank\":" << meta.rank
       << ",\"world_size\":" << meta.world_size << ",\"profile\":\""
       << json_escape(meta.profile) << "\",\"topology\":\""
       << json_escape(meta.topology) << "\"},";
  }
  os << "\"collectives\":[";
  bool first = true;
  for (const CollRow& r : collectives) {
    if (!first) os << ',';
    first = false;
    os << "{\"op\":\"" << to_string(r.op) << "\",\"engine\":\""
       << to_string(r.engine) << "\",\"calls\":" << r.calls
       << ",\"bytes\":" << r.bytes
       << ",\"size_hist\":" << hist_to_json(r.size_hist)
       << ",\"latency_us_hist\":" << hist_to_json(r.latency_us_hist)
       << ",\"bands\":[";
    bool first_band = true;
    for (std::size_t b = 0; b < kSizeBands; ++b) {
      if (r.band_latency_us[b].count == 0) continue;
      if (!first_band) os << ',';
      first_band = false;
      os << "{\"band\":\"" << size_band_name(b) << "\",\"latency_us_hist\":"
         << hist_to_json(r.band_latency_us[b]) << '}';
    }
    os << "]}";
  }
  os << "],\"counters\":[";
  first = true;
  for (const NamedValue& v : counters) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(v.name) << "\",\"value\":"
       << num(v.value) << '}';
  }
  os << "],\"gauges\":[";
  first = true;
  for (const NamedValue& v : gauges) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(v.name) << "\",\"value\":"
       << num(v.value) << '}';
  }
  os << "],\"histograms\":[";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(name)
       << "\",\"hist\":" << hist_to_json(h) << '}';
  }
  os << ']';
  if (!extra_fields.empty()) os << ',' << extra_fields;
  os << '}';
  return os.str();
}

std::string MetricsSnapshot::to_csv() const {
  std::ostringstream os;
  os << "kind,name,field,value\n";
  for (const CollRow& r : collectives) {
    const std::string key =
        std::string(to_string(r.op)) + '/' + std::string(to_string(r.engine));
    os << "coll," << key << ",calls," << r.calls << '\n';
    os << "coll," << key << ",bytes," << r.bytes << '\n';
    os << "coll," << key << ",avg_bytes," << num(r.size_hist.avg()) << '\n';
    os << "coll," << key << ",avg_latency_us," << num(r.latency_us_hist.avg())
       << '\n';
    if (r.latency_us_hist.count > 0) {
      os << "coll," << key << ",p50_latency_us," << num(r.latency_us_hist.p50())
         << '\n';
      os << "coll," << key << ",p90_latency_us," << num(r.latency_us_hist.p90())
         << '\n';
      os << "coll," << key << ",p99_latency_us," << num(r.latency_us_hist.p99())
         << '\n';
    }
    for (std::size_t b = 0; b < kSizeBands; ++b) {
      const HistogramSnapshot& h = r.band_latency_us[b];
      if (h.count == 0) continue;
      const std::string bkey =
          "band[" + std::string(size_band_name(b)) + "]_latency_us";
      os << "coll," << key << ',' << bkey << "_count," << h.count << '\n';
      os << "coll," << key << ',' << bkey << "_p50," << num(h.p50()) << '\n';
      os << "coll," << key << ',' << bkey << "_p99," << num(h.p99()) << '\n';
    }
  }
  for (const NamedValue& v : counters) {
    os << "counter," << csv_field(v.name) << ",value," << num(v.value) << '\n';
  }
  for (const NamedValue& v : gauges) {
    os << "gauge," << csv_field(v.name) << ",value," << num(v.value) << '\n';
  }
  for (const auto& [name, h] : histograms) {
    os << "histogram," << csv_field(name) << ",count," << h.count << '\n';
    os << "histogram," << csv_field(name) << ",avg," << num(h.avg()) << '\n';
    if (h.count > 0) {
      os << "histogram," << csv_field(name) << ",p50," << num(h.p50()) << '\n';
      os << "histogram," << csv_field(name) << ",p99," << num(h.p99()) << '\n';
    }
  }
  return os.str();
}

void Registry::save_json(const std::string& path) const {
  std::ofstream out(path);
  require(out.good(), "Registry::save_json: cannot open " + path);
  out << snapshot().to_json() << '\n';
  require(out.good(), "Registry::save_json: write failed");
}

void Registry::save_csv(const std::string& path) const {
  std::ofstream out(path);
  require(out.good(), "Registry::save_csv: cannot open " + path);
  out << snapshot().to_csv();
  require(out.good(), "Registry::save_csv: write failed");
}

}  // namespace mpixccl::obs
