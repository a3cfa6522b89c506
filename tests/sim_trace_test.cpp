// Tests for the virtual-time trace collector and its Chrome JSON export:
// the span vocabulary and level intern table, the per-rank bounded rings,
// and the XcclMpi integration (collectives appear as spans on per-rank
// tracks with the engine as the category).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "sim/profiles.hpp"
#include "sim/trace.hpp"

namespace mpixccl::sim {
namespace {

using core::CollOp;
using core::Engine;

/// One span on `rank` of the dispatch vocabulary (name = collective, cat =
/// engine), the shape most tests record.
TraceEvent dispatch(int rank, CollOp op, Engine e, double begin, double end) {
  return {rank, engine_span(op, e), kNoLevel, begin, end};
}

class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::instance().clear();
    Trace::instance().set_enabled(true);
  }
  void TearDown() override {
    Trace::instance().set_enabled(false);
    Trace::instance().clear();
  }
};

TEST_F(TraceFixture, RecordsAndRendersJson) {
  Trace::instance().record(
      dispatch(0, CollOp::Allreduce, Engine::Xccl, 10.0, 35.5));
  Trace::instance().record(dispatch(1, CollOp::Bcast, Engine::Mpi, 40.0, 42.0));
  EXPECT_EQ(Trace::instance().size(), 2u);

  const std::string json = Trace::instance().to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"allreduce\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"mpi\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":25.5"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
}

TEST_F(TraceFixture, DisabledMeansDropped) {
  Trace::instance().set_enabled(false);
  Trace::instance().record({0, span_id(SpanName::PlanBuild), kNoLevel, 0.0, 1.0});
  EXPECT_EQ(Trace::instance().size(), 0u);
}

TEST_F(TraceFixture, XcclMpiCollectivesAppear) {
  fabric::run_world(thetagpu(), 1, [](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx);
    device::DeviceBuffer buf(ctx.device(), 4u << 20);
    rt.allreduce(buf.get(), buf.get(), 64, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    rt.allreduce(buf.get(), buf.get(), 1 << 20, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
  });
  const auto events = Trace::instance().events();
  // 8 ranks x 2 collectives, plus one "plan.build" span per rank per
  // distinct dispatch tuple (the plan cache compiles each size class once).
  EXPECT_EQ(events.size(), 32u);
  int mpi_spans = 0;
  int xccl_spans = 0;
  int build_spans = 0;
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.end_us, e.begin_us);
    if (e.name() == "plan.build") {
      EXPECT_EQ(e.category(), "core.plan");
      ++build_spans;
      continue;
    }
    EXPECT_EQ(e.name(), "allreduce");
    (e.category() == "mpi" ? mpi_spans : xccl_spans)++;
  }
  EXPECT_EQ(mpi_spans, 8);    // small message -> MPI engine on every rank
  EXPECT_EQ(xccl_spans, 8);   // large -> NCCL
  EXPECT_EQ(build_spans, 16); // two size classes x 8 ranks, each built once
}

TEST_F(TraceFixture, HostileNamesAreEscaped) {
  // Level names come from MPIXCCL_HIER_LEVELS: interned as given, escaped
  // on export.
  const std::uint16_t hostile = levels().intern("a\"b\n");
  EXPECT_EQ(levels().name(hostile), "a\"b\n");
  EXPECT_EQ(levels().intern("a\"b\n"), hostile);  // same name, same id
  Trace::instance().record(
      {0, span_id(SpanName::AllreduceRs), hostile, 0.0, 1.0});
  EXPECT_EQ(Trace::instance().events().at(0).name(), "allreduce.rs.a\"b\n");
  const std::string json = Trace::instance().to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"allreduce.rs.a\\\"b\\n\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cat\":\"hier.stage\""), std::string::npos);
  // No raw control characters may survive into the document.
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST_F(TraceFixture, BoundedRingKeepsNewestAndCountsDrops) {
  auto& tr = Trace::instance();
  constexpr std::size_t kCap = Trace::kRankCapacity;
  for (std::size_t i = 0; i < kCap + 6; ++i) {
    const double t = static_cast<double>(i);
    tr.record(dispatch(0, CollOp::Allreduce, Engine::Mpi, t, t + 0.5));
  }
  EXPECT_EQ(tr.size(), kCap);
  EXPECT_EQ(tr.dropped(), 6u);
  EXPECT_EQ(tr.total(), kCap + 6);
  const auto events = tr.events();
  ASSERT_EQ(events.size(), kCap);
  // Oldest-first, and only the newest kCap survived the wrap.
  for (std::size_t i = 0; i < kCap; ++i) {
    ASSERT_EQ(events[i].begin_us, static_cast<double>(i + 6)) << i;
  }
  const std::string json = tr.to_chrome_json();
  EXPECT_NE(json.find("\"retainedEvents\":" + std::to_string(kCap)),
            std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\":6"), std::string::npos);
  EXPECT_NE(json.find("\"totalEvents\":" + std::to_string(kCap + 6)),
            std::string::npos);
}

TEST_F(TraceFixture, WrappingOneRankLeavesOthersAlone) {
  auto& tr = Trace::instance();
  for (int i = 0; i < 3; ++i) {
    tr.record(dispatch(1, CollOp::Bcast, Engine::Xccl, i, i + 0.5));
  }
  constexpr std::size_t kCap = Trace::kRankCapacity;
  for (std::size_t i = 0; i < kCap + 4; ++i) {
    const double t = static_cast<double>(i);
    tr.record(dispatch(0, CollOp::Allreduce, Engine::Mpi, t, t + 0.5));
  }
  EXPECT_EQ(tr.dropped(), 4u);
  EXPECT_EQ(tr.total(), kCap + 4 + 3);
  const auto events = tr.events();
  ASSERT_EQ(events.size(), kCap + 3);
  // Rank by rank: rank 0's newest kCap, then all three of rank 1's.
  EXPECT_EQ(events.front().begin_us, 4.0);
  EXPECT_EQ(events[kCap - 1].begin_us, static_cast<double>(kCap + 3));
  for (int i = 0; i < 3; ++i) {
    const TraceEvent& e = events[kCap + static_cast<std::size_t>(i)];
    EXPECT_EQ(e.rank, 1);
    EXPECT_EQ(e.name(), "bcast");
    EXPECT_EQ(e.begin_us, i);
  }
}

TEST_F(TraceFixture, LargeTimestampsRoundTripExactly) {
  // A long simulation accumulates virtual microseconds well past the point
  // where %.3f-style formatting loses the fraction; the exporter must emit
  // enough digits that the parsed-back double is bit-identical.
  const double begin = 123456789012.015625;  // exactly representable
  const double end = begin + 0.25;
  Trace::instance().record(
      dispatch(3, CollOp::Allreduce, Engine::Xccl, begin, end));
  const std::string json = Trace::instance().to_chrome_json();

  const auto ts_pos = json.find("\"ts\":");
  ASSERT_NE(ts_pos, std::string::npos);
  EXPECT_EQ(std::strtod(json.c_str() + ts_pos + 5, nullptr), begin);
  const auto dur_pos = json.find("\"dur\":");
  ASSERT_NE(dur_pos, std::string::npos);
  EXPECT_EQ(std::strtod(json.c_str() + dur_pos + 6, nullptr), end - begin);
}

TEST_F(TraceFixture, SaveFile) {
  Trace::instance().record(dispatch(2, CollOp::Reduce, Engine::Xccl, 1.0, 2.0));
  const std::string path = "/tmp/mpixccl_trace_test.json";
  Trace::instance().save_chrome_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("reduce"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_THROW(Trace::instance().save_chrome_json("/no/such/dir/x.json"), Error);
}

TEST(SpanVocabulary, NamesAndCategoriesComeFromOneTable) {
  const std::uint16_t node = levels().intern("node");
  const auto name = [](SpanName s, std::uint16_t level = kNoLevel) {
    return TraceEvent{0, span_id(s), level, 0.0, 1.0};
  };
  EXPECT_EQ(name(SpanName::PlanBuild).name(), "plan.build");
  EXPECT_EQ(name(SpanName::PlanBuild).category(), "core.plan");
  EXPECT_FALSE(name(SpanName::PlanBuild).is_stage());
  EXPECT_EQ(name(SpanName::TrainStep).name(), "train_step");
  EXPECT_EQ(name(SpanName::TrainStep).category(), "dl");
  EXPECT_EQ(name(SpanName::GathervGroup).name(), "gatherv.group");
  EXPECT_EQ(name(SpanName::GathervGroup).category(), "xccl.stage");
  EXPECT_TRUE(name(SpanName::GathervGroup).is_stage());
  EXPECT_EQ(name(SpanName::Bcast, node).name(), "bcast.node");
  EXPECT_EQ(name(SpanName::Bcast, node).category(), "hier.stage");
  const TraceEvent d = dispatch(0, CollOp::ReduceScatter, Engine::Hier, 0, 1);
  EXPECT_TRUE(d.is_engine());
  EXPECT_FALSE(d.is_stage());
  EXPECT_EQ(d.name(), "reduce_scatter");
  EXPECT_EQ(d.category(), "hier");
}

TEST(SpanVocabulary, InterningPastTheBoundThrowsAndNamesTheInput) {
  LevelTable table;  // a private table: the process-wide one stays usable
  for (std::size_t i = 0; i < LevelTable::kCapacity; ++i) {
    EXPECT_EQ(table.intern("level" + std::to_string(i)), i);
  }
  EXPECT_EQ(table.intern("level7"), 7u);  // known names still resolve
  try {
    (void)table.intern("one_too_many");
    FAIL() << "interning past the bound must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'one_too_many'"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(table.name(63), "level63");
  EXPECT_THROW((void)table.name(64), Error);
}

}  // namespace
}  // namespace mpixccl::sim
