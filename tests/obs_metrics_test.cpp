// Tests for the process-wide metrics registry (src/obs/metrics.hpp):
// counter sharding, log2 histogram bucketing, the per-(collective, engine)
// tables, snapshot/JSON/CSV rendering, and reset semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace mpixccl::obs {
namespace {

TEST(Counter, MergesShards) {
  Counter c;
  for (int shard = 0; shard < 32; ++shard) c.add(1, shard);
  EXPECT_EQ(c.value(), 32u);
  c.inc(5);
  EXPECT_EQ(c.value(), 33u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentAddsFromManyThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c, t] {
      for (int i = 0; i < kIters; ++i) c.add(1, t);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Counter, ThreadHashedAddWithoutShardHint) {
  Counter c;
  c.add(7);  // shard chosen from the thread id
  EXPECT_EQ(c.value(), 7u);
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketOfEdges) {
  // Bucket 0 holds everything <= 1 (including zero and negatives); bucket i
  // holds (2^(i-1), 2^i].
  EXPECT_EQ(Histogram::bucket_of(-3.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1.5), 1u);
  EXPECT_EQ(Histogram::bucket_of(2.0), 1u);
  EXPECT_EQ(Histogram::bucket_of(2.5), 2u);
  EXPECT_EQ(Histogram::bucket_of(4.0), 2u);
  EXPECT_EQ(Histogram::bucket_of(4.1), 3u);
  EXPECT_EQ(Histogram::bucket_of(1024.0), 10u);
  // Huge values saturate into the last (unbounded) bucket.
  EXPECT_EQ(Histogram::bucket_of(1e300), Histogram::kBuckets - 1);
}

TEST(Histogram, BucketUpperBounds) {
  EXPECT_DOUBLE_EQ(Histogram::bucket_le(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_le(10), 1024.0);
  EXPECT_TRUE(std::isinf(Histogram::bucket_le(Histogram::kBuckets - 1)));
}

TEST(Histogram, ObserveAndSnapshot) {
  Histogram h;
  h.observe(1.0);    // bucket 0
  h.observe(3.0);    // bucket 2
  h.observe(4.0);    // bucket 2
  h.observe(100.0);  // bucket 7
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 108.0);

  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.avg(), 27.0);
  ASSERT_EQ(s.buckets.size(), 3u);  // only non-empty buckets
  EXPECT_DOUBLE_EQ(s.buckets[0].first, 1.0);
  EXPECT_EQ(s.buckets[0].second, 1u);
  EXPECT_DOUBLE_EQ(s.buckets[1].first, 4.0);
  EXPECT_EQ(s.buckets[1].second, 2u);
  EXPECT_DOUBLE_EQ(s.buckets[2].first, 128.0);
  EXPECT_EQ(s.buckets[2].second, 1u);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(h.snapshot().buckets.empty());
}

TEST(Percentile, EmptyHistogramIsZero) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
  EXPECT_DOUBLE_EQ(s.p99(), 0.0);
}

TEST(Percentile, SingleSampleStaysInItsBucket) {
  Histogram h;
  h.observe(3.0);  // bucket (2, 4]
  const HistogramSnapshot s = h.snapshot();
  // Any quantile of one sample interpolates within the sample's bucket.
  for (const double q : {0.01, 0.5, 0.9, 0.99}) {
    const double p = s.percentile(q);
    EXPECT_GT(p, 2.0) << "q=" << q;
    EXPECT_LE(p, 4.0) << "q=" << q;
  }
  // q=1 lands exactly on the bucket's upper bound.
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 4.0);
}

TEST(Percentile, ExactBucketBoundary) {
  Histogram h;
  h.observe(1.0);  // bucket 0, le = 1
  h.observe(2.0);  // bucket 1, le = 2
  const HistogramSnapshot s = h.snapshot();
  // The median consumes exactly all of bucket 0: the log-linear
  // interpolation must return the shared bucket edge, not overshoot.
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 2.0);
}

TEST(Percentile, FirstBucketInterpolatesLinearly) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(0.5);  // all in bucket 0 (le = 1)
  const HistogramSnapshot s = h.snapshot();
  // No log interpolation toward 0 in the first bucket: value = le * q.
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(s.percentile(0.25), 0.25);
}

TEST(Percentile, UnboundedLastBucketReturnsFiniteFloor) {
  Histogram h;
  h.observe(1e300);  // saturates into the +inf bucket
  const HistogramSnapshot s = h.snapshot();
  const double p = s.percentile(0.99);
  EXPECT_TRUE(std::isfinite(p));
  // The finite floor is the previous bucket's upper bound.
  EXPECT_DOUBLE_EQ(p, Histogram::bucket_le(Histogram::kBuckets - 2));
}

TEST(Percentile, PropertyMonotoneAndBounded) {
  // Property-style: for a spread of samples, quantiles are monotone in q and
  // bounded by the histogram's bucket range.
  Histogram h;
  for (const double v : {0.3, 1.0, 2.5, 7.0, 7.5, 40.0, 900.0, 1024.0, 5e4}) {
    h.observe(v);
  }
  const HistogramSnapshot s = h.snapshot();
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double p = s.percentile(q);
    EXPECT_GE(p, prev - 1e-12) << "q=" << q;
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 65536.0);  // max sample's bucket upper bound
    prev = p;
  }
  EXPECT_LE(s.p50(), s.p90());
  EXPECT_LE(s.p90(), s.p99());
  // Out-of-range q clamps instead of misbehaving.
  EXPECT_DOUBLE_EQ(s.percentile(-1.0), s.percentile(0.0));
  EXPECT_DOUBLE_EQ(s.percentile(2.0), s.percentile(1.0));
}

TEST(SizeBands, BandOfAndNames) {
  EXPECT_EQ(size_band_of(0), 0u);
  EXPECT_EQ(size_band_of(4096), 0u);
  EXPECT_EQ(size_band_of(4097), 1u);
  EXPECT_EQ(size_band_of(65536), 1u);
  EXPECT_EQ(size_band_of(1u << 20), 2u);
  EXPECT_EQ(size_band_of((1u << 20) + 1), 3u);
  EXPECT_EQ(size_band_of(16u << 20), 3u);
  EXPECT_EQ(size_band_of((16u << 20) + 1), 4u);
  for (std::size_t b = 0; b < kSizeBands; ++b) {
    EXPECT_FALSE(size_band_name(b).empty());
  }
}

TEST(Registry, ByteAwareLatencyFeedsBandsAndJson) {
  auto& reg = Registry::instance();
  reg.reset();
  reg.record_call(core::CollOp::Allreduce, core::Engine::Xccl, 0, 1024);
  reg.record_call(core::CollOp::Allreduce, core::Engine::Xccl, 0, 2u << 20);
  reg.record_latency(core::CollOp::Allreduce, core::Engine::Xccl, 0, 1024, 10.0);
  reg.record_latency(core::CollOp::Allreduce, core::Engine::Xccl, 0, 2u << 20,
                     900.0);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.collectives.size(), 1u);
  const CollRow& row = snap.collectives[0];
  EXPECT_EQ(row.latency_us_hist.count, 2u);  // both land in the plain hist too
  EXPECT_EQ(row.band_latency_us[size_band_of(1024)].count, 1u);
  EXPECT_EQ(row.band_latency_us[size_band_of(2u << 20)].count, 1u);
  EXPECT_EQ(row.band_latency_us[2].count, 0u);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"bands\":"), std::string::npos);
  EXPECT_NE(json.find("\"band\":\"<=4K\""), std::string::npos);
  EXPECT_NE(json.find("\"band\":\"1M-16M\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);

  const std::string csv = snap.to_csv();
  EXPECT_NE(csv.find("p50_latency_us"), std::string::npos);
  EXPECT_NE(csv.find("band[<=4K]_latency_us_count,1"), std::string::npos);
  reg.reset();
}

TEST(Registry, ShardedHistogramsMergeTheSameWhateverTheInterleaving) {
  // Four rank threads record fixed per-rank latencies in an order a seeded
  // schedule dictates, one sample per turn. The values mix magnitudes, so a
  // sum taken in arrival order would differ from schedule to schedule; the
  // rank shards merged in shard order give the same bits every time.
  constexpr int kRanks = 4;
  constexpr int kPerRank = 200;
  auto value = [](int rank, int j) {
    return (j % 7 == 0 ? 1.0e15 : 1.0) * (1.0 + 0.1 * rank) + 0.37 * j;
  };
  auto& reg = Registry::instance();
  auto run = [&](std::uint64_t seed) {
    std::vector<int> turns;
    for (int r = 0; r < kRanks; ++r) turns.insert(turns.end(), kPerRank, r);
    auto rng = make_rng(seed);
    std::shuffle(turns.begin(), turns.end(), rng);
    reg.reset();
    std::atomic<std::size_t> turn{0};
    std::vector<std::thread> ranks;
    for (int r = 0; r < kRanks; ++r) {
      ranks.emplace_back([&, r] {
        for (int j = 0; j < kPerRank; ++j) {
          std::size_t t = turn.load();
          while (turns[t] != r) {
            std::this_thread::yield();
            t = turn.load();
          }
          reg.record_call(core::CollOp::Allreduce, core::Engine::Mpi, r, 64);
          reg.record_latency(core::CollOp::Allreduce, core::Engine::Mpi, r, 64,
                             value(r, j));
          turn.store(t + 1);
        }
      });
    }
    for (std::thread& t : ranks) t.join();
    const MetricsSnapshot snap = reg.snapshot();
    reg.reset();
    return snap;
  };
  const MetricsSnapshot first = run(1);
  ASSERT_EQ(first.collectives.size(), 1u);
  const HistogramSnapshot& want = first.collectives[0].latency_us_hist;
  EXPECT_EQ(want.count, std::uint64_t{kRanks} * kPerRank);
  for (std::uint64_t seed = 2; seed <= 6; ++seed) {
    const MetricsSnapshot snap = run(seed);
    ASSERT_EQ(snap.collectives.size(), 1u);
    for (const HistogramSnapshot* h :
         {&snap.collectives[0].latency_us_hist, &snap.collectives[0].band_latency_us[0]}) {
      EXPECT_EQ(h->count, want.count) << "seed " << seed;
      EXPECT_EQ(h->buckets, want.buckets) << "seed " << seed;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(h->sum), std::bit_cast<std::uint64_t>(want.sum))
          << "seed " << seed << ": " << h->sum << " vs " << want.sum;
    }
  }
}

TEST(Snapshot, ExtraFieldsRideAlongInJson) {
  auto& reg = Registry::instance();
  reg.reset();
  reg.counter("x").add(1, 0);
  const std::string json =
      reg.snapshot().to_json("\"flight_recorder\":[{\"op\":\"allreduce\"}]");
  EXPECT_NE(json.find("\"flight_recorder\":[{\"op\":\"allreduce\"}]"),
            std::string::npos);
  EXPECT_EQ(json.back(), '}');
  reg.reset();
}

TEST(Registry, CollectiveTableAndEngineAggregates) {
  auto& reg = Registry::instance();
  reg.reset();

  reg.record_call(core::CollOp::Allreduce, core::Engine::Mpi, 0, 1024);
  reg.record_call(core::CollOp::Allreduce, core::Engine::Mpi, 1, 1024);
  reg.record_call(core::CollOp::Allreduce, core::Engine::Xccl, 0, 1 << 20);
  reg.record_call(core::CollOp::Bcast, core::Engine::Hier, 2, 4096);
  reg.record_latency(core::CollOp::Allreduce, core::Engine::Mpi, 0, 1024, 12.0);
  reg.record_latency(core::CollOp::Allreduce, core::Engine::Mpi, 1, 1024, 18.0);

  EXPECT_EQ(reg.engine_calls(core::Engine::Mpi), 2u);
  EXPECT_EQ(reg.engine_calls(core::Engine::Xccl), 1u);
  EXPECT_EQ(reg.engine_calls(core::Engine::Hier), 1u);
  EXPECT_EQ(reg.engine_bytes(core::Engine::Mpi), 2048u);
  EXPECT_EQ(reg.engine_bytes(core::Engine::Xccl), std::uint64_t{1} << 20);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.collectives.size(), 3u);  // rows with calls > 0 only
  bool saw_ar_mpi = false;
  for (const CollRow& row : snap.collectives) {
    if (row.op == core::CollOp::Allreduce && row.engine == core::Engine::Mpi) {
      saw_ar_mpi = true;
      EXPECT_EQ(row.calls, 2u);
      EXPECT_EQ(row.bytes, 2048u);
      EXPECT_EQ(row.size_hist.count, 2u);
      EXPECT_DOUBLE_EQ(row.latency_us_hist.avg(), 15.0);
    }
  }
  EXPECT_TRUE(saw_ar_mpi);
  reg.reset();
}

TEST(Registry, NamedMetricsAndStableRefs) {
  auto& reg = Registry::instance();
  reg.reset();
  Counter& c = reg.counter("test.calls");
  c.add(3, 0);
  EXPECT_EQ(&reg.counter("test.calls"), &c);  // registration is stable
  reg.gauge("test.level").set(7.5);
  reg.histogram("test.lat").observe(33.0);

  const MetricsSnapshot snap = reg.snapshot();
  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const NamedValue& v : snap.counters) {
    if (v.name == "test.calls") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(v.value, 3.0);
    }
  }
  for (const NamedValue& v : snap.gauges) {
    if (v.name == "test.level") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(v.value, 7.5);
    }
  }
  for (const auto& [name, h] : snap.histograms) {
    if (name == "test.lat") {
      saw_hist = true;
      EXPECT_EQ(h.count, 1u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);

  // reset() zeroes values but keeps registrations.
  reg.reset();
  EXPECT_EQ(reg.counter("test.calls").value(), 0u);
}

TEST(Registry, JsonAndCsvRendering) {
  auto& reg = Registry::instance();
  reg.reset();
  reg.record_call(core::CollOp::Allreduce, core::Engine::Xccl, 0, 4096);
  reg.record_latency(core::CollOp::Allreduce, core::Engine::Xccl, 0, 4096, 50.0);
  reg.counter("render.count").add(2, 0);

  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"schema\":\"mpixccl.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"allreduce\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\":\"xccl\""), std::string::npos);
  EXPECT_NE(json.find("\"calls\":1"), std::string::npos);
  EXPECT_NE(json.find("render.count"), std::string::npos);

  const std::string csv = reg.snapshot().to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "kind,name,field,value");
  EXPECT_NE(csv.find("coll,allreduce/xccl,calls,1"), std::string::npos);
  EXPECT_NE(csv.find("counter,render.count"), std::string::npos);
  reg.reset();
}

TEST(Registry, HostileNamesAreEscapedInJsonAndCsv) {
  auto& reg = Registry::instance();
  reg.reset();
  reg.counter("bad\"name\\with,stuff\n").add(1, 0);
  reg.gauge("tab\there").set(1.0);

  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"bad\\\"name\\\\with,stuff\\n\""), std::string::npos);
  EXPECT_NE(json.find("\"tab\\there\""), std::string::npos);
  // No raw control characters may survive into the document.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);

  // CSV: the hostile field is quoted (RFC 4180), with inner quotes doubled,
  // so the row still parses as exactly four columns.
  const std::string csv = reg.snapshot().to_csv();
  EXPECT_NE(csv.find("counter,\"bad\"\"name\\with,stuff\n\",value,1"),
            std::string::npos);
  reg.reset();
}

}  // namespace
}  // namespace mpixccl::obs
