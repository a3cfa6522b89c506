#pragma once
// Process-wide metrics registry: the quantitative half of the observability
// layer (src/obs/). Engines report named counters, gauges and log2-bucketed
// histograms, plus a fixed per-(collective, engine) table of call/byte
// counters and message-size / virtual-latency distributions — the data the
// paper's hybrid tuning story is argued from (who served what, at which
// sizes, at what cost).
//
// Hot-path discipline: recording is lock-free. Counters and the per-call
// histograms shard by rank so concurrent rank threads do not bounce one
// cache line; named and local histograms are plain relaxed atomic arrays.
// Locks are only taken for name registration (first use of a named metric)
// and snapshots, which merge the shards in shard order.
//
// The registry aggregates across ranks (records carry no rank label beyond
// the shard index); per-rank counters live in XcclMpi's PathStats, per-rank
// calls in the call journal. All are fed from one place, XcclMpi's per-call
// completion record, for every call flavour (blocking, nonblocking,
// persistent start).

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/tuning.hpp"

namespace mpixccl::obs {

/// Lock-free add for pre-C++20-libstdc++ safety (atomic<double>::fetch_add
/// support is uneven across standard libraries).
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

/// Monotonic counter, sharded so rank threads increment distinct cache
/// lines; value() merges the shards.
class Counter {
 public:
  static constexpr std::size_t kShards = 8;

  void add(std::uint64_t n, int shard_hint) {
    shards_[static_cast<std::size_t>(shard_hint) & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  /// Shard-by-thread convenience for call sites without a rank at hand.
  void add(std::uint64_t n);
  void inc(int shard_hint) { add(1, shard_hint); }

  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Last-writer-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double v) { atomic_add(v_, v); }
  [[nodiscard]] double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Merged, immutable view of one histogram.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  /// (inclusive upper bound, count) for every non-empty bucket, ascending.
  std::vector<std::pair<double, std::uint64_t>> buckets;

  [[nodiscard]] double avg() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Estimate the q-quantile (q in [0,1]) by log-linear interpolation inside
  /// the covering log2 bucket — the natural interpolation for exponentially
  /// sized buckets (linear inside the first bucket, whose lower edge is 0).
  /// Samples landing in the unbounded last bucket report that bucket's
  /// finite lower edge rather than inventing a value beyond the range.
  /// Returns 0 for an empty histogram.
  [[nodiscard]] double percentile(double q) const;

  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p90() const { return percentile(0.90); }
  [[nodiscard]] double p99() const { return percentile(0.99); }
};

/// Merge two snapshots of the same log2-bucketed histogram family (e.g. the
/// same latency metric captured on different ranks): counts and sums add,
/// buckets align by their upper bound. Totals are preserved exactly and the
/// merged percentiles stay within the parts' range — the invariants the
/// fleet snapshot's rank-merged latency view relies on.
[[nodiscard]] HistogramSnapshot merge_histograms(const HistogramSnapshot& a,
                                                 const HistogramSnapshot& b);

/// One histogram snapshot as a JSON object ({"count":..,"sum":..,"p50":..,
/// "buckets":[...]}) — the representation both the metrics and fleet
/// exporters embed.
[[nodiscard]] std::string hist_to_json(const HistogramSnapshot& h);

// ---- Message-size bands -----------------------------------------------------
// Coarse size classes for per-(collective, engine, size-band) latency
// attribution: fine enough to separate the tuning table's small/crossover/
// large regimes, coarse enough that the per-cell histogram array stays tiny.

inline constexpr std::size_t kSizeBands = 5;

/// Band index for a message byte count: <=4K, 4K-64K, 64K-1M, 1M-16M, >16M.
constexpr std::size_t size_band_of(std::size_t bytes) {
  if (bytes <= (std::size_t{4} << 10)) return 0;
  if (bytes <= (std::size_t{64} << 10)) return 1;
  if (bytes <= (std::size_t{1} << 20)) return 2;
  if (bytes <= (std::size_t{16} << 20)) return 3;
  return 4;
}

constexpr std::string_view size_band_name(std::size_t band) {
  switch (band) {
    case 0: return "<=4K";
    case 1: return "4K-64K";
    case 2: return "64K-1M";
    case 3: return "1M-16M";
    case 4: return ">16M";
    default: return "?";
  }
}

/// Log2-bucketed histogram: bucket i holds values in (2^(i-1), 2^i], bucket
/// 0 holds everything <= 1, the last bucket is unbounded. Covers message
/// sizes up to 2^46 bytes and latencies up to ~2 simulated years in us.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  static std::size_t bucket_of(double v);
  /// Inclusive upper bound of bucket `i` (2^i; +inf for the last).
  static double bucket_le(std::size_t i);

  void observe(double v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomic_add(sum_, v);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// A Histogram per rank shard, for the per-call tables every rank thread
/// records into: rank r writes shard r % kShards, so concurrent ranks write
/// distinct cache lines. snapshot() merges the shards in shard order, so
/// with one rank per shard its sum does not depend on how the ranks
/// interleaved. The shards are inline, not allocated on first use: heap
/// shards made every omb_large set-up about 15 ms slower.
class ShardedHistogram {
 public:
  static constexpr std::size_t kShards = Counter::kShards;

  void observe(double v, int shard_hint) {
    shards_[static_cast<std::size_t>(shard_hint) & (kShards - 1)].h.observe(v);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset();

 private:
  struct alignas(64) Shard {
    Histogram h;
  };
  std::array<Shard, kShards> shards_{};
};

/// One (collective, engine) row of the merged snapshot.
struct CollRow {
  core::CollOp op = core::CollOp::Allreduce;
  core::Engine engine = core::Engine::Mpi;
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  HistogramSnapshot size_hist;        ///< message bytes per call
  HistogramSnapshot latency_us_hist;  ///< virtual microseconds per call
  /// Latency split by message-size band (index by size_band_of); empty
  /// bands render as nothing.
  std::array<HistogramSnapshot, kSizeBands> band_latency_us;
};

struct NamedValue {
  std::string name;
  double value = 0.0;
};

/// Identity stamp for exported snapshots so multi-rank dumps can be joined
/// offline: which rank wrote this document, out of how many, on which
/// profile/topology. In the threads-as-ranks simulation every rank shares
/// one registry, so `rank` degrades to -1 ("merged across ranks") as soon
/// as a second distinct rank registers.
struct SnapshotMeta {
  int rank = -1;
  int world_size = 0;  ///< 0 = never stamped; meta is omitted from exports
  std::string profile;
  std::string topology;
};

/// Stamp (or re-stamp) the process-wide snapshot identity; called by the
/// runtime constructor on every rank.
void set_snapshot_meta(int rank, int world_size, std::string_view profile,
                       std::string_view topology);
[[nodiscard]] SnapshotMeta snapshot_meta();
/// Forget the stamp (tests).
void clear_snapshot_meta();

/// Point-in-time merge of the whole registry, renderable as JSON
/// ("mpixccl.metrics.v1") or CSV.
struct MetricsSnapshot {
  SnapshotMeta meta;                 ///< filled by Registry::snapshot()
  std::vector<CollRow> collectives;  ///< rows with calls > 0 only
  std::vector<NamedValue> counters;
  std::vector<NamedValue> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// `extra_fields`, when non-empty, is raw pre-rendered JSON of the form
  /// `"key":value[,...]` appended at the document's top level — how the
  /// flight recorder rides along in the exported snapshot without the
  /// registry depending on the analysis layer.
  [[nodiscard]] std::string to_json(std::string_view extra_fields = {}) const;
  [[nodiscard]] std::string to_csv() const;
};

/// The process-wide registry. Always on: recording costs a handful of
/// relaxed atomic operations, so there is no enable flag to check.
class Registry {
 public:
  static Registry& instance();

  // ---- Hot path: fixed per-(collective, engine) tables ----------------------
  // Each takes the calling rank, which picks the shard it writes.
  /// One dispatched collective call of `bytes` message bytes.
  void record_call(core::CollOp op, core::Engine engine, int rank,
                   std::size_t bytes);
  /// Completed call latency in virtual microseconds, filed also under the
  /// call's message-size band (the per-(collective, engine, size-band) rows
  /// `mpixccl top` ranks).
  void record_latency(core::CollOp op, core::Engine engine, int rank,
                      std::size_t bytes, double us);
  /// One call routed to `table_choice` that fell back to MPI at runtime.
  void record_fallback(core::CollOp op, core::Engine table_choice, int rank,
                       std::size_t bytes);

  // ---- Named metrics (registration locks once; returned refs are stable) ---
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Merged per-(collective, engine, size-band) latency distribution — the
  /// sample export the online tuner's arms are scored from.
  [[nodiscard]] HistogramSnapshot band_latency(core::CollOp op,
                                               core::Engine engine,
                                               std::size_t band) const;
  /// Runtime fallbacks charged to (collective, table choice, size band).
  [[nodiscard]] std::uint64_t band_fallbacks(core::CollOp op,
                                             core::Engine table_choice,
                                             std::size_t band) const;

  // ---- Snapshot / export -----------------------------------------------------
  [[nodiscard]] MetricsSnapshot snapshot() const;
  void save_json(const std::string& path) const;
  void save_csv(const std::string& path) const;

  /// Zero every counter, gauge and histogram (named metrics stay
  /// registered). Affects the whole process: per-XcclMpi views are reset
  /// separately via XcclMpi::reset_stats().
  void reset();

  /// Per-engine aggregate across all collectives (tests, reports).
  [[nodiscard]] std::uint64_t engine_calls(core::Engine e) const;
  [[nodiscard]] std::uint64_t engine_bytes(core::Engine e) const;

 private:
  Registry() = default;

  static constexpr std::size_t kOps = std::size(core::kAllCollOps);
  static constexpr std::size_t kEngines = 3;

  struct CollCell {
    Counter calls;
    Counter bytes;
    ShardedHistogram size_hist;
    ShardedHistogram latency_us_hist;
    std::array<ShardedHistogram, kSizeBands> band_latency_us;
    std::array<Counter, kSizeBands> band_fallbacks;
  };

  [[nodiscard]] CollCell& cell(core::CollOp op, core::Engine engine) {
    return coll_[static_cast<std::size_t>(op)][static_cast<std::size_t>(engine)];
  }
  [[nodiscard]] const CollCell& cell(core::CollOp op, core::Engine engine) const {
    return coll_[static_cast<std::size_t>(op)][static_cast<std::size_t>(engine)];
  }

  std::array<std::array<CollCell, kEngines>, kOps> coll_{};

  mutable std::mutex names_mu_;  ///< guards the three maps' structure only
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace mpixccl::obs
