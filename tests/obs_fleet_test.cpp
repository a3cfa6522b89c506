// Fleet health telemetry tests: histogram merge invariants, the rank-state
// wire format, the gather protocol (per-rank call rings included),
// deterministic straggler attribution for a 5x-slowed rank, the hang
// watchdog on an injected stall (and its silence on a healthy run), the
// export-failure exit path, and rejection of malformed env input.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/fleet_gather.hpp"
#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "obs/fleet.hpp"
#include "obs/obs.hpp"
#include "sim/fault.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::core {
namespace {

// The export-failure satellite: when a requested artifact cannot be
// written, the process must exit nonzero with a clear message instead of
// silently dropping it. Re-executes the binary (threadsafe style) so the
// child takes the init_from_env path from scratch.
TEST(FleetExportDeathTest, UnwritableMetricsFileExitsNonzero) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("MPIXCCL_METRICS_FILE", "/nonexistent-dir/metrics.json", 1);
        obs::init_from_env();
        obs::Registry::instance().counter("t").add(1, 0);
        std::exit(0);  // atexit flush finds the path unwritable -> _Exit(1)
      },
      ::testing::ExitedWithCode(1), "mpixccl obs:");
}

TEST(FleetHistogram, MergePreservesTotals) {
  obs::Histogram a, b;
  for (int i = 1; i <= 100; ++i) a.observe(static_cast<double>(i));
  for (int i = 1; i <= 50; ++i) b.observe(static_cast<double>(i * 1000));
  const obs::HistogramSnapshot sa = a.snapshot();
  const obs::HistogramSnapshot sb = b.snapshot();
  const obs::HistogramSnapshot m = obs::merge_histograms(sa, sb);

  EXPECT_EQ(m.count, sa.count + sb.count);
  EXPECT_DOUBLE_EQ(m.sum, sa.sum + sb.sum);
  std::uint64_t bucket_total = 0;
  double prev_le = -1.0;
  for (const auto& [le, n] : m.buckets) {
    EXPECT_GT(le, prev_le);  // ascending, no duplicate bounds after merge
    prev_le = le;
    bucket_total += n;
  }
  EXPECT_EQ(bucket_total, m.count);
  // Merging with an empty snapshot is the identity.
  const obs::HistogramSnapshot id = obs::merge_histograms(sa, {});
  EXPECT_EQ(id.count, sa.count);
  EXPECT_EQ(id.buckets, sa.buckets);
}

TEST(FleetHistogram, MergedPercentilesMonotoneAndBounded) {
  obs::Histogram a, b;
  for (int i = 0; i < 200; ++i) a.observe(5.0 + (i % 17));
  for (int i = 0; i < 200; ++i) b.observe(4000.0 + (i % 29) * 100.0);
  const obs::HistogramSnapshot m =
      obs::merge_histograms(a.snapshot(), b.snapshot());
  // percentile(q) must be non-decreasing in q...
  double prev = 0.0;
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = m.percentile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  // ...and the merged quantiles stay within the parts' combined range.
  EXPECT_GE(m.p50(), a.snapshot().percentile(0.0));
  EXPECT_LE(m.p99(), b.snapshot().percentile(1.0));
  // The low half is all of a's samples, the high half all of b's.
  EXPECT_LT(m.percentile(0.25), 100.0);
  EXPECT_GT(m.percentile(0.75), 1000.0);
}

TEST(FleetWire, RankStateRoundTrip) {
  obs::fleet::RankState s;
  s.rank = 7;
  s.heartbeat.enter_seq = 42;
  s.heartbeat.done_seq = 41;
  s.heartbeat.in_flight = true;
  s.heartbeat.op = CollOp::Reduce;
  s.heartbeat.engine = Engine::Hier;
  s.heartbeat.bytes = 262144;
  s.heartbeat.plan_id = 9;
  s.heartbeat.age_ms = 1.5;
  s.levels.push_back({"node", 123.5, 4});
  s.levels.push_back({"net", 456.0, 2});
  obs::DispatchDecision a;
  a.call_seq = 40;
  a.rank = 7;
  a.op = CollOp::Allreduce;
  a.bytes = 4096;
  a.engine = Engine::Xccl;
  a.table_choice = Engine::Xccl;
  a.enter_us = 10.0;
  a.done_us = 22.5;
  a.plan_id = 3;
  s.calls.push_back(a);
  obs::DispatchDecision d;
  d.seq = 17;
  d.call_seq = 41;
  d.rank = 7;
  d.op = CollOp::Reduce;
  d.bytes = 262144;
  d.mode = Mode::PureXccl;
  d.breakpoint = SIZE_MAX;
  d.engine = Engine::Mpi;
  d.table_choice = Engine::Hier;
  d.reason = obs::FallbackReason::HierTopoMismatch;
  d.fell_back = true;
  d.composed = true;
  d.level_path = "node(2).net(2)";
  d.time_us = 99.25;
  d.enter_us = 30.0;
  d.done_us = 101.0;
  d.plan_id = 9;
  s.calls.push_back(d);

  const std::string blob = obs::fleet::serialize(s);
  const obs::fleet::RankState r = obs::fleet::deserialize(blob);

  EXPECT_EQ(r.rank, 7);
  EXPECT_EQ(r.heartbeat.enter_seq, 42u);
  EXPECT_EQ(r.heartbeat.done_seq, 41u);
  EXPECT_TRUE(r.heartbeat.in_flight);
  EXPECT_EQ(r.heartbeat.op, CollOp::Reduce);
  EXPECT_EQ(r.heartbeat.engine, Engine::Hier);
  EXPECT_EQ(r.heartbeat.bytes, 262144u);
  EXPECT_EQ(r.heartbeat.plan_id, 9u);
  ASSERT_EQ(r.levels.size(), 2u);
  EXPECT_EQ(r.levels[0].level, "node");
  EXPECT_DOUBLE_EQ(r.levels[0].us, 123.5);
  EXPECT_EQ(r.levels[1].calls, 2u);
  ASSERT_EQ(r.calls.size(), 2u);
  EXPECT_EQ(r.calls[0].call_seq, 40u);
  EXPECT_EQ(r.calls[0].seq, 0u);  // not on the decision ring
  EXPECT_EQ(r.calls[0].op, CollOp::Allreduce);
  EXPECT_EQ(r.calls[0].engine, Engine::Xccl);
  EXPECT_DOUBLE_EQ(r.calls[0].enter_us, 10.0);
  EXPECT_DOUBLE_EQ(r.calls[0].done_us, 22.5);
  EXPECT_EQ(r.calls[0].plan_id, 3u);
  EXPECT_TRUE(r.calls[0].level_path.empty());
  const obs::DispatchDecision& b = r.calls[1];
  EXPECT_EQ(b.seq, 17u);
  EXPECT_EQ(b.call_seq, 41u);
  EXPECT_EQ(b.rank, 7);
  EXPECT_EQ(b.op, CollOp::Reduce);
  EXPECT_EQ(b.bytes, 262144u);
  EXPECT_EQ(b.mode, Mode::PureXccl);
  EXPECT_EQ(b.breakpoint, SIZE_MAX);
  EXPECT_EQ(b.engine, Engine::Mpi);
  EXPECT_EQ(b.table_choice, Engine::Hier);
  EXPECT_EQ(b.reason, obs::FallbackReason::HierTopoMismatch);
  EXPECT_TRUE(b.fell_back);
  EXPECT_TRUE(b.composed);
  EXPECT_EQ(b.level_path, "node(2).net(2)");
  EXPECT_DOUBLE_EQ(b.time_us, 99.25);
  EXPECT_DOUBLE_EQ(b.enter_us, 30.0);
  EXPECT_DOUBLE_EQ(b.done_us, 101.0);
  EXPECT_EQ(b.plan_id, 9u);
}

TEST(FleetWire, RejectsCorruptBlobs) {
  obs::fleet::RankState s;
  s.rank = 1;
  const std::string blob = obs::fleet::serialize(s);
  EXPECT_THROW((void)obs::fleet::deserialize("nope"), Error);
  EXPECT_THROW((void)obs::fleet::deserialize(
                   std::string_view(blob).substr(0, blob.size() - 2)),
               Error);
  std::string trailing = blob + "xx";
  EXPECT_THROW((void)obs::fleet::deserialize(trailing), Error);
}

/// Shared fixture: fleet profiling + decision log on, clean slate.
class FleetWorldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::fleet::Watchdog::instance().stop();
    obs::fleet::reset();
    obs::fleet::set_profiling(true);
    obs::DecisionLog::instance().clear();
    obs::DecisionLog::instance().set_enabled(true);
  }
  void TearDown() override {
    obs::fleet::Watchdog::instance().stop();
    obs::fleet::Watchdog::instance().set_on_hang(nullptr);
    sim::FaultInjector::instance().clear();
    obs::fleet::set_profiling(false);
    obs::fleet::reset();
    obs::DecisionLog::instance().set_enabled(false);
    obs::DecisionLog::instance().clear();
    obs::Registry::instance().reset();
  }

  static TuningTable three_engine_table() {
    TuningTable table;
    table.set_rules(CollOp::Allreduce, {{16384, Engine::Mpi},
                                        {1u << 20, Engine::Hier},
                                        {SIZE_MAX, Engine::Xccl}});
    return table;
  }

  /// Runs `rounds` of the three-size sweep (mpi/hier/xccl) with a 200us
  /// rank-local compute phase before each call, gathers to rank 0.
  obs::fleet::FleetSnapshot run_and_gather(const std::string& faults,
                                           int rounds) {
    obs::fleet::FleetSnapshot snap;
    fabric::WorldConfig wc{sim::thetagpu(), 2, /*devices_per_node=*/2};
    wc.faults = faults;
    fabric::World world(wc);
    world.run([&](fabric::RankContext& ctx) {
      XcclMpi rt(ctx, {.tuning = three_engine_table()});
      auto& comm = rt.comm_world();
      device::DeviceBuffer send(ctx.device(), 4u << 20);
      device::DeviceBuffer recv(ctx.device(), 4u << 20);
      for (int s = 0; s < rounds; ++s) {
        for (const std::size_t bytes :
             {std::size_t{4096}, std::size_t{262144}, std::size_t{4u << 20}}) {
          ctx.clock().advance(200.0);
          rt.allreduce(send.get(), recv.get(), bytes / sizeof(float),
                       mini::kFloat, ReduceOp::Sum, comm);
        }
      }
      obs::fleet::FleetSnapshot local = gather_fleet(rt, comm);
      if (ctx.rank() == 0) snap = std::move(local);
    });
    return snap;
  }
};

TEST_F(FleetWorldTest, GatherRoundTripCarriesEveryRanksState) {
  const obs::fleet::FleetSnapshot snap = run_and_gather("", 4);
  EXPECT_EQ(snap.world_size, 4);
  EXPECT_EQ(snap.profile, "thetagpu");
  EXPECT_NE(snap.topology.find("node(2)"), std::string::npos);
  ASSERT_EQ(snap.ranks.size(), 4u);
  std::uint64_t calls = 0;
  for (int r = 0; r < 4; ++r) {
    const obs::fleet::RankState& s = snap.ranks[static_cast<std::size_t>(r)];
    EXPECT_EQ(s.rank, r);  // sorted by rank
    // Capture happens at the top of gather_fleet, before its own allgather,
    // so exactly the 12 workload dispatches are on the ring and none is in
    // flight.
    EXPECT_EQ(s.calls.size(), 12u);
    EXPECT_EQ(s.heartbeat.enter_seq, 12u);
    EXPECT_EQ(s.heartbeat.done_seq, 12u);
    EXPECT_FALSE(s.heartbeat.in_flight);
    // Each rank's ring holds only its own calls, numbered 1..12 in order
    // and stamped by the decision ring the fixture enabled.
    for (std::size_t i = 0; i < s.calls.size(); ++i) {
      const obs::DispatchDecision& d = s.calls[i];
      EXPECT_EQ(d.rank, r);
      EXPECT_EQ(d.call_seq, i + 1);
      EXPECT_GT(d.seq, 0u);
      EXPECT_GE(d.done_us, d.enter_us);
    }
    // Hier dispatches crossed the node boundary on this topology.
    bool saw_hier_path = false;
    for (const obs::DispatchDecision& d : s.calls) {
      if (!d.level_path.empty()) saw_hier_path = true;
    }
    EXPECT_TRUE(saw_hier_path);
    calls += s.calls.size();
  }
  // The merged latency histogram counts exactly the recorded calls.
  EXPECT_EQ(snap.fleet_latency_us.count, calls);
  EXPECT_GT(snap.fleet_latency_us.p99(), 0.0);
  // Balanced fleet: no rank crosses the lateness noise floor.
  EXPECT_TRUE(snap.stragglers.empty());
  // The exported decision tail is each rank's last 16 calls (all 12 here).
  const std::string json = snap.to_json();
  std::size_t tails = 0;
  for (std::size_t at = json.find("\"decision_tail\":[{");
       at != std::string::npos; at = json.find("\"decision_tail\":[{", at + 1)) {
    ++tails;
  }
  EXPECT_EQ(tails, 4u);
}

TEST_F(FleetWorldTest, SlowRankNamedTopStragglerWithHierLevel) {
  const obs::fleet::FleetSnapshot snap = run_and_gather("slow=3:5", 6);
  ASSERT_FALSE(snap.skew.empty());
  for (const obs::fleet::SkewCell& c : snap.skew) {
    EXPECT_EQ(c.worst_rank, 3) << "band " << int(c.band);
    EXPECT_GT(c.rounds, 0u);
    EXPECT_GT(c.mean_skew_us, 0.0);
  }
  ASSERT_FALSE(snap.stragglers.empty());
  const obs::fleet::StragglerRow& top = snap.stragglers.front();
  EXPECT_EQ(top.rank, 3);
  EXPECT_GT(top.share, 0.8);  // one slow rank owns nearly all lateness
  EXPECT_GT(top.times_last, 0u);
  // ...and the skew is attributed to a hier level with a real spread.
  ASSERT_FALSE(snap.levels.empty());
  EXPECT_FALSE(top.level.empty());
  EXPECT_GT(top.level_spread_us, 0.0);
  EXPECT_EQ(top.level, snap.levels.front().level);
  // The JSON document is versioned and carries the board.
  const std::string json = snap.to_json();
  EXPECT_EQ(json.rfind("{\"schema\":\"mpixccl.fleet.v1\"", 0), 0u);
  EXPECT_NE(json.find("\"stragglers\":[{\"rank\":3"), std::string::npos);
}

TEST_F(FleetWorldTest, WatchdogFiresOnInjectedStall) {
  std::mutex mu;
  std::vector<obs::fleet::HangReport> fired;
  auto& dog = obs::fleet::Watchdog::instance();
  dog.set_on_hang([&](const obs::fleet::HangReport& r) {
    std::lock_guard lock(mu);
    fired.push_back(r);
  });
  dog.start({.timeout_ms = 80.0, .poll_ms = 10.0});

  // Rank 1 stalls for 600 wall-clock ms before entering its 3rd dispatch;
  // its peers block inside theirs, so the whole fleet goes quiet and the
  // watchdog must fire well within the stall window.
  (void)run_and_gather("stall=1:3:600", 2);

  dog.stop();
  std::lock_guard lock(mu);
  ASSERT_GE(fired.size(), 1u);
  EXPECT_GE(dog.fires(), 1u);
  const obs::fleet::HangReport& r = fired.front();
  EXPECT_EQ(r.rank, 1);
  EXPECT_EQ(r.enter_seq, 2u);  // entered 2, never arrived at #3
  EXPECT_GE(r.stalled_ms, 80.0);
  EXPECT_NE(r.text.find("hang detected: rank 1"), std::string::npos);
  EXPECT_NE(r.text.find("not arrived at collective #3"), std::string::npos);
  EXPECT_NE(r.text.find("per-rank heartbeats:"), std::string::npos);
  EXPECT_NE(r.text.find("<-- stalled"), std::string::npos);
  EXPECT_NE(r.text.find("decision-ring tail for rank 1"), std::string::npos);
  // A transient refire right after the stall clears (peers' beats are still
  // stale) is legitimate, so compare against the last fire, not the first.
  EXPECT_EQ(dog.last_report(), fired.back().text);
}

TEST_F(FleetWorldTest, WatchdogStaysQuietOnHealthyRun) {
  auto& dog = obs::fleet::Watchdog::instance();
  dog.set_on_hang([](const obs::fleet::HangReport&) {
    FAIL() << "watchdog fired on a healthy run";
  });
  const std::uint64_t fires_before = dog.fires();
  dog.start({.timeout_ms = 5000.0, .poll_ms = 5.0});
  (void)run_and_gather("", 3);
  dog.stop();
  EXPECT_EQ(dog.fires(), fires_before);
}

TEST_F(FleetWorldTest, MetricsSnapshotStampedWithFleetIdentity) {
  obs::clear_snapshot_meta();
  (void)run_and_gather("", 1);
  const obs::SnapshotMeta meta = obs::snapshot_meta();
  EXPECT_EQ(meta.world_size, 4);
  EXPECT_EQ(meta.profile, "thetagpu");
  EXPECT_NE(meta.topology.find("node(2)"), std::string::npos);
  // Threads-as-ranks: all ranks share the registry, so rank degrades to -1.
  EXPECT_EQ(meta.rank, -1);
  const std::string json = obs::Registry::instance().snapshot().to_json();
  EXPECT_NE(json.find("mpixccl.metrics.v1"), std::string::npos);
  EXPECT_NE(json.find("\"world_size\":4"), std::string::npos);
  EXPECT_NE(json.find("\"profile\":\"thetagpu\""), std::string::npos);
}

// ---- Environment parsing ----------------------------------------------------

/// Sets (or, for nullptr, unsets) one variable for a scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name); old != nullptr) old_ = old;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// The Error a call throws, or "" when it returns.
template <typename F>
std::string error_of(F&& f) {
  try {
    (void)f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(FleetEnv, WatchdogConfigParsesValidInput) {
  {
    ScopedEnv t("MPIXCCL_WATCHDOG_TIMEOUT_MS", nullptr);
    ScopedEnv a("MPIXCCL_WATCHDOG_ABORT", nullptr);
    const auto cfg = obs::fleet::WatchdogConfig::from_env();
    EXPECT_EQ(cfg.timeout_ms, 0.0);  // unset: disabled
    EXPECT_EQ(cfg.poll_ms, 0.0);     // derived from the timeout at start()
    EXPECT_FALSE(cfg.abort_on_hang);
  }
  ScopedEnv t("MPIXCCL_WATCHDOG_TIMEOUT_MS", "250.5");
  ScopedEnv a("MPIXCCL_WATCHDOG_ABORT", "1");
  const auto cfg = obs::fleet::WatchdogConfig::from_env();
  EXPECT_DOUBLE_EQ(cfg.timeout_ms, 250.5);
  EXPECT_TRUE(cfg.abort_on_hang);
  ScopedEnv off("MPIXCCL_WATCHDOG_ABORT", "0");
  EXPECT_FALSE(obs::fleet::WatchdogConfig::from_env().abort_on_hang);
}

TEST(FleetEnv, WatchdogConfigRejectsMalformedInput) {
  ScopedEnv a("MPIXCCL_WATCHDOG_ABORT", nullptr);
  for (const char* bad : {"nan", "inf", "-1", "5s", "abc"}) {
    SCOPED_TRACE(bad);
    ScopedEnv t("MPIXCCL_WATCHDOG_TIMEOUT_MS", bad);
    const std::string what =
        error_of([] { return obs::fleet::WatchdogConfig::from_env(); });
    EXPECT_NE(what.find("MPIXCCL_WATCHDOG_TIMEOUT_MS='" + std::string(bad) +
                        "'"),
              std::string::npos)
        << what;
  }
  ScopedEnv t("MPIXCCL_WATCHDOG_TIMEOUT_MS", "100");
  for (const char* bad : {"yes", "2", "true"}) {
    SCOPED_TRACE(bad);
    ScopedEnv abort_env("MPIXCCL_WATCHDOG_ABORT", bad);
    const std::string what =
        error_of([] { return obs::fleet::WatchdogConfig::from_env(); });
    EXPECT_NE(what.find("MPIXCCL_WATCHDOG_ABORT='" + std::string(bad) + "'"),
              std::string::npos)
        << what;
  }
}

TEST(FleetEnv, EnvConfigRejectsUnknownObsLevel) {
  {
    ScopedEnv l("MPIXCCL_OBS_LEVEL", "decisions");
    EXPECT_EQ(obs::env_config().level, obs::Level::Decisions);
  }
  {
    ScopedEnv l("MPIXCCL_OBS_LEVEL", nullptr);
    EXPECT_FALSE(obs::env_config().level.has_value());
  }
  ScopedEnv l("MPIXCCL_OBS_LEVEL", "tracee");
  const std::string what = error_of([] { return obs::env_config(); });
  EXPECT_NE(what.find("MPIXCCL_OBS_LEVEL='tracee'"), std::string::npos)
      << what;
}

// init_from_env() reads MPIXCCL_FLEET through the same switch and applies
// nothing when it throws. Re-executes the binary so the child's call_once
// has not run yet.
TEST(FleetExportDeathTest, MalformedFleetSwitchThrowsFromInit) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("MPIXCCL_FLEET", "yes", 1);
        try {
          obs::init_from_env();
        } catch (const Error& e) {
          std::fprintf(stderr, "%s\n", e.what());
          std::_Exit(obs::fleet::profiling_enabled() ? 4 : 3);
        }
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(3), "MPIXCCL_FLEET='yes'");
}

}  // namespace
}  // namespace mpixccl::core
