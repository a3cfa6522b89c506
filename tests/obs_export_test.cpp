// End-to-end observability surface test: one workload that crosses all
// three engines at Level::Trace, then every artifact is checked — the
// Chrome trace (engine- and stage-annotated spans), the metrics snapshot
// (per-(collective, engine) rows), the decision "why" report, and the
// merged obs::report(). Mirrors what `mpixccl obs` and the CI step do.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "obs/obs.hpp"
#include "sim/profiles.hpp"
#include "sim/trace.hpp"

namespace mpixccl::core {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The shared three-engine workload: a tuning table splits allreduce
/// across mpi / hier / xccl by size, plus one host-buffer call so the
/// decision log has a fallback to explain.
void run_three_engine_workload() {
  TuningTable table;
  table.set_rules(CollOp::Allreduce, {{16384, Engine::Mpi},
                                      {1u << 20, Engine::Hier},
                                      {SIZE_MAX, Engine::Xccl}});
  fabric::World world(
      fabric::WorldConfig{sim::thetagpu(), 2, /*devices_per_node=*/2});
  world.run([&](fabric::RankContext& ctx) {
    XcclMpi rt(ctx, {.tuning = table});
    auto& comm = rt.comm_world();
    device::DeviceBuffer send(ctx.device(), 4u << 20);
    device::DeviceBuffer recv(ctx.device(), 4u << 20);
    for (const std::size_t bytes :
         {std::size_t{4096}, std::size_t{262144}, std::size_t{4u << 20}}) {
      rt.allreduce(send.get(), recv.get(), bytes / sizeof(float), mini::kFloat,
                   ReduceOp::Sum, comm);
    }
    std::vector<float> host(64, 1.0f);
    rt.allreduce(host.data(), host.data(), host.size(), mini::kFloat,
                 ReduceOp::Sum, comm);
  });
}

class ObsExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_level(obs::Level::Trace);
    obs::Registry::instance().reset();
    obs::DecisionLog::instance().clear();
    sim::Trace::instance().clear();
    run_three_engine_workload();
  }
  void TearDown() override {
    obs::set_level(obs::Level::Metrics);
    sim::Trace::instance().clear();
    obs::DecisionLog::instance().clear();
    obs::Registry::instance().reset();
  }
};

TEST_F(ObsExportTest, TraceHasAllEnginesAndHierStages) {
  std::set<std::string> cats;
  std::set<std::string> names;
  for (const sim::TraceEvent& e : sim::Trace::instance().events()) {
    cats.insert(std::string(e.category()));
    names.insert(e.name());
  }
  // Engine-level spans from all three dispatch paths...
  EXPECT_TRUE(cats.contains("mpi"));
  EXPECT_TRUE(cats.contains("xccl"));
  EXPECT_TRUE(cats.contains("hier"));
  // ...and stage-level spans from inside the hierarchical schedule.
  EXPECT_TRUE(cats.contains("hier.stage"));
  bool saw_stage = false;
  for (const std::string& n : names) {
    if (n.rfind("allreduce.", 0) == 0 && n != "allreduce") saw_stage = true;
  }
  EXPECT_TRUE(saw_stage);

  const std::string json = sim::Trace::instance().to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"hier.stage\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

/// (name, cat) of every event in a Chrome trace document.
std::set<std::pair<std::string, std::string>> name_cat_pairs(
    const std::string& json) {
  std::set<std::pair<std::string, std::string>> out;
  const std::string name_key = "{\"name\":\"";
  const std::string cat_key = "\",\"cat\":\"";
  for (auto pos = json.find(name_key); pos != std::string::npos;
       pos = json.find(name_key, pos + 1)) {
    const auto name_begin = pos + name_key.size();
    const auto name_end = json.find(cat_key, name_begin);
    const auto cat_begin = name_end + cat_key.size();
    const auto cat_end = json.find('"', cat_begin);
    out.emplace(json.substr(name_begin, name_end - name_begin),
                json.substr(cat_begin, cat_end - cat_begin));
  }
  return out;
}

TEST_F(ObsExportTest, SpanVocabularyIsPinned) {
  // On top of the three-engine workload: every hier collective on a 4-level
  // chain (2 nodes x socket:2 x numa:2 x 2 ranks), small and large, and a
  // staged allreduce over a non-power-of-two network dim (3 nodes x 2).
  fabric::World world(
      fabric::WorldConfig{sim::thetagpu(), 2, 8, "socket:2,numa:2"});
  world.run([&](fabric::RankContext& ctx) {
    XcclMpi rt(ctx, {.tuning = TuningTable::uniform(Engine::Hier)});
    auto& comm = rt.comm_world();
    const std::size_t p = static_cast<std::size_t>(comm.size());
    device::DeviceBuffer send(ctx.device(), 4u << 20);
    device::DeviceBuffer recv(ctx.device(), 4u << 20);
    for (const std::size_t elems : {std::size_t{1024}, std::size_t{1u << 20}}) {
      rt.allreduce(send.get(), recv.get(), elems, mini::kFloat, ReduceOp::Sum,
                   comm);
      rt.bcast(send.get(), elems, mini::kFloat, 0, comm);
    }
    rt.reduce(send.get(), recv.get(), 4096, mini::kFloat, ReduceOp::Sum, 0,
              comm);
    rt.allgather(send.get(), 4096 / p, mini::kFloat, recv.get(), 4096 / p,
                 mini::kFloat, comm);
    rt.reduce_scatter_block(send.get(), recv.get(), 4096 / p, mini::kFloat,
                            ReduceOp::Sum, comm);
  });
  fabric::World odd(fabric::WorldConfig{sim::thetagpu(), 3, 2});
  odd.run([&](fabric::RankContext& ctx) {
    XcclMpi rt(ctx, {.tuning = TuningTable::uniform(Engine::Hier)});
    device::DeviceBuffer buf(ctx.device(), 64u << 10);
    rt.allreduce(buf.get(), buf.get(), (64u << 10) / sizeof(float),
                 mini::kFloat, ReduceOp::Sum, rt.comm_world());
  });

  const std::set<std::pair<std::string, std::string>> want = {
      {"allgather", "hier"},
      {"allgather.net", "hier.stage"},
      {"allgather.node", "hier.stage"},
      {"allgather.numa", "hier.stage"},
      {"allgather.socket", "hier.stage"},
      {"allreduce", "hier"},
      {"allreduce", "mpi"},
      {"allreduce", "xccl"},
      {"allreduce.ag.node", "hier.stage"},
      {"allreduce.ar.net", "hier.stage"},
      {"allreduce.cico_ar.net", "hier.stage"},
      {"allreduce.cico_bcast.node", "hier.stage"},
      {"allreduce.cico_bcast.numa", "hier.stage"},
      {"allreduce.cico_bcast.socket", "hier.stage"},
      {"allreduce.cico_reduce.node", "hier.stage"},
      {"allreduce.cico_reduce.numa", "hier.stage"},
      {"allreduce.cico_reduce.socket", "hier.stage"},
      {"allreduce.pipe.net", "hier.stage"},
      {"allreduce.pipe.node", "hier.stage"},
      {"allreduce.pipe.numa", "hier.stage"},
      {"allreduce.pipe.socket", "hier.stage"},
      {"allreduce.pipelined", "hier.stage"},
      {"allreduce.rs.node", "hier.stage"},
      {"bcast", "hier"},
      {"bcast.ag.node", "hier.stage"},
      {"bcast.ag.numa", "hier.stage"},
      {"bcast.ag.socket", "hier.stage"},
      {"bcast.leader.net", "hier.stage"},
      {"bcast.leader.node", "hier.stage"},
      {"bcast.leader.numa", "hier.stage"},
      {"bcast.leader.socket", "hier.stage"},
      {"bcast.net", "hier.stage"},
      {"bcast.scatter.node", "hier.stage"},
      {"bcast.scatter.numa", "hier.stage"},
      {"bcast.scatter.socket", "hier.stage"},
      {"hier.comm_setup", "hier.stage"},
      {"plan.build", "core.plan"},
      {"reduce", "hier"},
      {"reduce.net", "hier.stage"},
      {"reduce.node", "hier.stage"},
      {"reduce.numa", "hier.stage"},
      {"reduce.socket", "hier.stage"},
      {"reduce_scatter", "hier"},
      {"rs.net", "hier.stage"},
      {"rs.node", "hier.stage"},
      {"rs.numa", "hier.stage"},
      {"rs.socket", "hier.stage"},
  };
  const auto got = name_cat_pairs(sim::Trace::instance().to_chrome_json());
  std::ostringstream listing;
  for (const auto& [name, cat] : got) listing << name << '/' << cat << '\n';
  EXPECT_EQ(got, want) << listing.str();
}

TEST_F(ObsExportTest, MetricsSnapshotHasPerEngineRows) {
  auto& reg = obs::Registry::instance();
  EXPECT_GT(reg.engine_calls(Engine::Mpi), 0u);
  EXPECT_GT(reg.engine_calls(Engine::Xccl), 0u);
  EXPECT_GT(reg.engine_calls(Engine::Hier), 0u);
  EXPECT_GT(reg.engine_bytes(Engine::Hier), 0u);

  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("mpixccl.metrics.v1"), std::string::npos);
  EXPECT_NE(json.find("\"engine\":\"hier\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\":\"xccl\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\":\"mpi\""), std::string::npos);
  EXPECT_NE(json.find("latency_us_hist"), std::string::npos);
}

TEST_F(ObsExportTest, DecisionReportExplainsEveryFallback) {
  const std::string report = obs::DecisionLog::instance().why_report();
  EXPECT_NE(report.find("dispatch decisions:"), std::string::npos);
  EXPECT_NE(report.find("by engine:"), std::string::npos);
  EXPECT_NE(report.find("host_buffer"), std::string::npos);
  // Every retained record that redirected carries a non-"none" reason.
  for (const obs::DispatchDecision& d :
       obs::DecisionLog::instance().records()) {
    if (d.engine != d.table_choice || d.fell_back) {
      EXPECT_NE(d.reason, obs::FallbackReason::None) << obs::to_line(d);
    }
  }
}

TEST_F(ObsExportTest, MergedReportAndFileExports) {
  const std::string merged = obs::report();
  EXPECT_NE(merged.find("observability report (level=trace)"),
            std::string::npos);
  EXPECT_NE(merged.find("allreduce"), std::string::npos);
  EXPECT_NE(merged.find("hier"), std::string::npos);
  EXPECT_NE(merged.find("dispatch decisions:"), std::string::npos);

  const std::string dir = ::testing::TempDir();
  const std::string mpath = dir + "obs_export_metrics.json";
  const std::string cpath = dir + "obs_export_metrics.csv";
  const std::string tpath = dir + "obs_export_trace.json";
  const std::string dpath = dir + "obs_export_decisions.txt";
  obs::Registry::instance().save_json(mpath);
  obs::Registry::instance().save_csv(cpath);
  sim::Trace::instance().save_chrome_json(tpath);
  obs::DecisionLog::instance().save_report(dpath);

  EXPECT_NE(slurp(mpath).find("mpixccl.metrics.v1"), std::string::npos);
  EXPECT_EQ(slurp(cpath).rfind("kind,name,field,value", 0), 0u);
  EXPECT_NE(slurp(tpath).find("traceEvents"), std::string::npos);
  EXPECT_NE(slurp(dpath).find("dispatch decisions:"), std::string::npos);
  std::remove(mpath.c_str());
  std::remove(cpath.c_str());
  std::remove(tpath.c_str());
  std::remove(dpath.c_str());
}

TEST(ObsLevel, ParseAndPropagation) {
  EXPECT_EQ(obs::parse_level("off"), obs::Level::Off);
  EXPECT_EQ(obs::parse_level("metrics"), obs::Level::Metrics);
  EXPECT_EQ(obs::parse_level("decisions"), obs::Level::Decisions);
  EXPECT_EQ(obs::parse_level("trace"), obs::Level::Trace);
  EXPECT_EQ(obs::parse_level("2"), obs::Level::Decisions);
  EXPECT_EQ(obs::parse_level("bogus"), std::nullopt);

  obs::set_level(obs::Level::Decisions);
  EXPECT_TRUE(obs::DecisionLog::instance().enabled());
  EXPECT_FALSE(sim::Trace::instance().enabled());
  obs::set_level(obs::Level::Trace);
  EXPECT_TRUE(sim::Trace::instance().enabled());
  obs::set_level(obs::Level::Metrics);
  EXPECT_FALSE(obs::DecisionLog::instance().enabled());
  EXPECT_FALSE(sim::Trace::instance().enabled());
}

TEST(ObsLevel, DoesNotStompExternallyEnabledTrace) {
  // A trace the user armed directly (the `mpixccl trace` path) must survive
  // an obs level round-trip: set_level only disables what it enabled.
  sim::Trace::instance().set_enabled(true);
  obs::set_level(obs::Level::Trace);
  obs::set_level(obs::Level::Metrics);
  EXPECT_TRUE(sim::Trace::instance().enabled());
  sim::Trace::instance().set_enabled(false);
  sim::Trace::instance().clear();
}

}  // namespace
}  // namespace mpixccl::core
