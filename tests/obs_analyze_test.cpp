// Tests for the perf-analysis layer (src/obs/analyze.hpp): flight recorder
// top-K semantics, critical-path attribution of trace spans (including the
// ISSUE's >= 95% hier-allreduce coverage bar on a 2x4 topology), the
// mpixccl.bench.v1 round trip, and the regression-diff gate.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "obs/analyze.hpp"
#include "obs/obs.hpp"
#include "sim/profiles.hpp"
#include "sim/trace.hpp"

namespace mpixccl::obs {
namespace {

DispatchDecision rec(double begin, double end, int rank = 0,
                     std::size_t bytes = 1024) {
  DispatchDecision d;
  d.op = core::CollOp::Allreduce;
  d.engine = core::Engine::Xccl;
  d.bytes = bytes;
  d.rank = rank;
  d.enter_us = begin;
  d.done_us = end;
  return d;
}

TEST(FlightRecorder, KeepsSlowestSortedAndBounded) {
  auto& fr = FlightRecorder::instance();
  fr.clear();
  fr.set_capacity(3);
  for (int i = 0; i < 10; ++i) {
    fr.record(rec(0.0, 10.0 + i, i));  // elapsed 10..19
  }
  const auto recs = fr.records();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_DOUBLE_EQ(recs[0].elapsed_us(), 19.0);
  EXPECT_DOUBLE_EQ(recs[1].elapsed_us(), 18.0);
  EXPECT_DOUBLE_EQ(recs[2].elapsed_us(), 17.0);
  // A call faster than the current floor bounces off.
  fr.record(rec(0.0, 5.0));
  EXPECT_EQ(fr.records().size(), 3u);
  EXPECT_DOUBLE_EQ(fr.records().back().elapsed_us(), 17.0);
  fr.set_capacity(FlightRecorder::kDefaultCapacity);
  fr.clear();
}

TEST(FlightRecorder, JsonFieldCarriesJoinedDecision) {
  auto& fr = FlightRecorder::instance();
  fr.clear();
  DispatchDecision d = rec(1.0, 42.0, 2, 1u << 20);
  d.table_choice = core::Engine::Xccl;
  d.engine = core::Engine::Mpi;
  d.reason = FallbackReason::DtypeUnsupported;
  d.fell_back = true;
  d.breakpoint = SIZE_MAX;
  d.plan_id = 5;
  fr.record(d);
  const std::string json = fr.to_json_field();
  EXPECT_EQ(json.rfind("\"flight_recorder\":[", 0), 0u);
  EXPECT_NE(json.find("\"elapsed_us\":41"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"dtype_unsupported\""), std::string::npos);
  EXPECT_NE(json.find("\"fell_back\":true"), std::string::npos);
  EXPECT_NE(json.find("\"breakpoint\":\"max\""), std::string::npos);
  // The call's identity and timing keep their exported keys.
  EXPECT_NE(json.find("\"rank\":2,\"begin_us\":1,\"end_us\":42"),
            std::string::npos);
  EXPECT_NE(json.find("\"plan_id\":5"), std::string::npos);
  fr.clear();
}

TEST(Attribution, UnionCoverageGapsAndDecisionJoin) {
  std::vector<sim::TraceEvent> events;
  // Stage spans are recorded before their parent (RAII destruction order).
  events.push_back({0, "allreduce.intra_rs", "hier.stage", 10.0, 40.0});
  events.push_back({0, "allreduce.inter_ar", "hier.stage", 40.0, 70.0});
  events.push_back({0, "allreduce.intra_ag", "hier.stage", 80.0, 100.0});
  events.push_back({0, "allreduce", "hier", 0.0, 100.0});
  // A same-rank span of a different engine with no stages.
  events.push_back({0, "bcast", "mpi", 200.0, 210.0});

  DispatchDecision d;
  d.rank = 0;
  d.op = core::CollOp::Allreduce;
  d.bytes = 2u << 20;
  d.time_us = 99.0;  // inside the dispatch span
  const auto attrs = attribute_dispatches(events, {d});

  ASSERT_EQ(attrs.size(), 2u);
  const DispatchAttribution& a = attrs[0];
  EXPECT_EQ(a.op, "allreduce");
  EXPECT_EQ(a.engine, "hier");
  EXPECT_DOUBLE_EQ(a.duration_us(), 100.0);
  EXPECT_DOUBLE_EQ(a.attributed_us, 80.0);  // 30 + 30 + 20
  EXPECT_DOUBLE_EQ(a.coverage(), 0.8);
  // Gaps: [0,10) and [70,80) -> longest is 10.
  EXPECT_DOUBLE_EQ(a.longest_gap_us, 10.0);
  ASSERT_EQ(a.stage_us.size(), 3u);
  EXPECT_EQ(a.stage_us[0].first, "allreduce.intra_rs");
  EXPECT_DOUBLE_EQ(a.stage_us[0].second, 30.0);
  EXPECT_TRUE(a.joined);
  EXPECT_EQ(a.decision.bytes, 2u << 20);

  const DispatchAttribution& b = attrs[1];
  EXPECT_TRUE(b.stage_us.empty());
  EXPECT_DOUBLE_EQ(b.longest_gap_us, 10.0);  // whole span uncovered
  EXPECT_FALSE(b.joined);

  const std::string report = critical_path_report(attrs);
  EXPECT_NE(report.find("allreduce"), std::string::npos);
  EXPECT_NE(report.find("1M-16M"), std::string::npos);  // band from decision
  EXPECT_NE(report.find("allreduce.intra_rs"), std::string::npos);
  EXPECT_NE(report.find("no recorded stages"), std::string::npos);
}

TEST(Attribution, HierAllreduceCoversAtLeast95PercentOn2x4) {
  // The acceptance bar: run hier allreduce on 2 nodes x 4 devices with full
  // telemetry; every hier dispatch span must be >= 95% attributed to stages.
  obs::set_level(Level::Trace);
  Registry::instance().reset();
  DecisionLog::instance().clear();
  sim::Trace::instance().clear();

  core::TuningTable table;
  table.set_rules(core::CollOp::Allreduce, {{SIZE_MAX, core::Engine::Hier}});
  fabric::World world(
      fabric::WorldConfig{sim::thetagpu(), /*nodes=*/2, /*devices_per_node=*/4});
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx, {.tuning = table});
    device::DeviceBuffer buf(ctx.device(), 4u << 20);
    // Small (staged intra_rs/inter_ar/intra_ag path) and large (pipelined).
    for (const std::size_t elems : {2048u, 1u << 20}) {
      rt.allreduce(buf.get(), buf.get(), elems, mini::kFloat, ReduceOp::Sum,
                   rt.comm_world());
    }
  });

  const auto attrs = attribute_dispatches(
      sim::Trace::instance().events(), DecisionLog::instance().records());
  int hier_spans = 0;
  for (const DispatchAttribution& a : attrs) {
    if (a.engine != "hier") continue;
    ++hier_spans;
    EXPECT_GE(a.coverage(), 0.95)
        << a.op << " on rank " << a.rank << " covered only "
        << 100.0 * a.coverage() << "%";
    EXPECT_TRUE(a.joined) << "no decision joined rank " << a.rank;
  }
  // 8 ranks x 2 sizes, all routed to hier.
  EXPECT_EQ(hier_spans, 16);

  obs::set_level(Level::Metrics);
  Registry::instance().reset();
  DecisionLog::instance().clear();
  sim::Trace::instance().clear();
}

TEST(TopReport, RanksBandsByTotalTime) {
  auto& reg = Registry::instance();
  reg.reset();
  for (int i = 0; i < 4; ++i) {
    reg.record_call(core::CollOp::Allreduce, core::Engine::Xccl, 0, 2u << 20);
    reg.record_latency(core::CollOp::Allreduce, core::Engine::Xccl, 2u << 20,
                       1000.0);
    reg.record_call(core::CollOp::Bcast, core::Engine::Mpi, 0, 512);
    reg.record_latency(core::CollOp::Bcast, core::Engine::Mpi, 512, 5.0);
  }
  const std::string report = top_report(reg.snapshot());
  const auto hot = report.find("allreduce");
  const auto cold = report.find("bcast");
  ASSERT_NE(hot, std::string::npos);
  ASSERT_NE(cold, std::string::npos);
  EXPECT_LT(hot, cold);  // hottest row first
  EXPECT_NE(report.find("1M-16M"), std::string::npos);
  EXPECT_NE(report.find("<=4K"), std::string::npos);
  EXPECT_NE(report.find("p99-us"), std::string::npos);

  // max_rows truncation is reported, not silent.
  const std::string short_report = top_report(reg.snapshot(), 1);
  EXPECT_NE(short_report.find("1 cooler rows"), std::string::npos);
  reg.reset();
}

TEST(BenchJson, RoundTripsExactly) {
  BenchDoc doc;
  doc.bench = "unit \"test\" bench";
  doc.points.push_back({"Fig X: allreduce", "hybrid-xccl", "us", 4096,
                        15.000176470588713});
  doc.points.push_back({"Fig X: allreduce", "pure-ccl", "us", 1u << 20,
                        0.1 + 0.2});  // classic non-representable sum
  const std::string text = bench_json(doc);
  const BenchDoc back = parse_bench_json(text);
  EXPECT_EQ(back.schema, "mpixccl.bench.v1");
  EXPECT_EQ(back.bench, doc.bench);
  ASSERT_EQ(back.points.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.points[i].table, doc.points[i].table);
    EXPECT_EQ(back.points[i].series, doc.points[i].series);
    EXPECT_EQ(back.points[i].bytes, doc.points[i].bytes);
    EXPECT_EQ(back.points[i].value, doc.points[i].value);  // bit-exact
  }
  // Emit -> parse -> emit is a fixed point.
  EXPECT_EQ(bench_json(back), text);
}

TEST(BenchJson, RejectsWrongSchemaAndGarbage) {
  EXPECT_THROW(parse_bench_json("{\"schema\":\"other.v2\",\"points\":[]}"),
               Error);
  EXPECT_THROW(parse_bench_json("not json at all"), Error);
  EXPECT_THROW(load_bench_json("/no/such/file.json"), Error);
}

TEST(BenchJson, LoadErrorsNameTheFile) {
  // A gate failing on an unusable baseline must say *which* file: the CI
  // log is all the operator gets.
  const std::string path = testing::TempDir() + "mpixccl_bad_bench.json";
  {
    std::ofstream out(path);
    out << "{\"schema\":\"mpixccl.bench.v1\",\"points\":oops";
  }
  try {
    load_bench_json(path);
    FAIL() << "unparsable baseline accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
  try {
    load_bench_json("/no/such/file.json");
    FAIL() << "missing baseline accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/file.json"),
              std::string::npos)
        << e.what();
  }
}

TEST(BenchDiff, DetectsInjectedRegressionAndNamesThePoint) {
  BenchDoc base;
  for (int i = 0; i < 8; ++i) {
    base.points.push_back({"Fig 5: allreduce w/ NCCL (8 GPUs) (1 node)",
                           "hybrid-xccl", "us",
                           std::size_t{4} << (2 * i), 10.0 + i});
  }
  BenchDoc cur = base;
  cur.points[3].value *= 1.15;  // +15% latency on one point

  const BenchDiff diff = bench_diff(base, cur);
  EXPECT_FALSE(diff.ok());
  EXPECT_EQ(diff.regressions, 1);
  const std::string report = diff.report();
  EXPECT_NE(report.find("REGRESSION " + base.points[3].key()),
            std::string::npos);
  EXPECT_NE(report.find("verdict: FAIL"), std::string::npos);

  // The identical re-run passes.
  const BenchDiff same = bench_diff(base, base);
  EXPECT_TRUE(same.ok());
  EXPECT_EQ(same.regressions, 0);
  EXPECT_NE(same.report().find("verdict: OK (no regressions)"),
            std::string::npos);
}

TEST(BenchDiff, DirectionDependsOnUnitAndThresholdsGate) {
  BenchDoc base, cur;
  base.points.push_back({"p2p", "bw_MBps", "MBps", 65536, 1000.0});
  cur.points.push_back({"p2p", "bw_MBps", "MBps", 65536, 800.0});
  // Bandwidth down 20% = regression; the same numbers as latency would not be.
  EXPECT_EQ(bench_diff(base, cur).regressions, 1);
  EXPECT_FALSE(base.points[0].lower_is_better());

  BenchDoc lat_base, lat_cur;
  lat_base.points.push_back({"t", "s", "us", 4, 100.0});
  lat_cur.points.push_back({"t", "s", "us", 4, 80.0});  // faster: improvement
  const BenchDiff d = bench_diff(lat_base, lat_cur);
  EXPECT_EQ(d.regressions, 0);
  EXPECT_EQ(d.improvements, 1);

  // Deltas inside the noise thresholds do not trip the gate.
  BenchDoc noisy = lat_base;
  noisy.points[0].value = 100.4;  // +0.4us: above 0% rel but below abs_floor
  EXPECT_EQ(bench_diff(lat_base, noisy, DiffOptions{0.001, 0.5}).regressions,
            0);
  // Missing baseline points fail the gate even with zero regressions.
  BenchDoc empty;
  const BenchDiff miss = bench_diff(lat_base, empty);
  EXPECT_EQ(miss.regressions, 0);
  EXPECT_FALSE(miss.ok());
  EXPECT_NE(miss.report().find("MISSING"), std::string::npos);
}

TEST(SaveMetricsJson, FlightRecorderRidesAlong) {
  auto& reg = Registry::instance();
  auto& fr = FlightRecorder::instance();
  reg.reset();
  fr.clear();
  reg.record_call(core::CollOp::Allreduce, core::Engine::Xccl, 0, 4096);
  reg.record_latency(core::CollOp::Allreduce, core::Engine::Xccl, 4096, 33.0);
  fr.record(rec(0.0, 33.0));
  const std::string path = "/tmp/mpixccl_analyze_metrics_test.json";
  save_metrics_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"schema\":\"mpixccl.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(content.find("\"flight_recorder\":[{"), std::string::npos);
  EXPECT_NE(content.find("\"decision\":{"), std::string::npos);
  std::remove(path.c_str());
  reg.reset();
  fr.clear();
}

}  // namespace
}  // namespace mpixccl::obs
