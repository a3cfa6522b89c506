// Unit tests of mpixccl_bench's statistics, call sequence and output checks,
// and the cross-check of its training loop against dl::run_training.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core_clock.hpp"
#include "dl/horovod.hpp"
#include "sim/profiles.hpp"
#include "spec.hpp"
#include "stats.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace mpixccl::e2e {
namespace {

TEST(Percentiles, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(highest_reportable_quantile(19), 0.0);
  EXPECT_EQ(highest_reportable_quantile(20), 0.5);
  EXPECT_EQ(highest_reportable_quantile(99), 0.5);
  EXPECT_EQ(highest_reportable_quantile(100), 0.9);
  EXPECT_EQ(highest_reportable_quantile(999), 0.9);
  EXPECT_EQ(highest_reportable_quantile(1000), 0.99);
  EXPECT_EQ(highest_reportable_quantile(10000), 0.999);
}

TEST(Percentiles, NearestRankAndPythonQuartiles) {
  std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(quantile(v, 0.5), 5.0);
  EXPECT_EQ(quantile(v, 0.9), 9.0);
  EXPECT_EQ(quantile(v, 1.0), 10.0);
  EXPECT_EQ(median(v), 5.5);
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  EXPECT_DOUBLE_EQ(relative_iqr(v), (8.25 - 2.75) / 5.5);
  EXPECT_EQ(relative_iqr({3.0}), 0.0);
}

TEST(Bounds, VerdictFollowsDirectionAndBound) {
  const MetricSpec lower{"t", "us", Clock::Host, Better::Lower, 0.15, true};
  const MetricSpec higher{"r", "1/s", Clock::Host, Better::Higher, 0.15, true};
  const std::vector<double> base = {100, 101, 99, 100, 100};
  EXPECT_EQ(judge(lower, base, {110}), Verdict::Same);
  EXPECT_EQ(judge(lower, base, {120}), Verdict::Worse);
  EXPECT_EQ(judge(lower, base, {80}), Verdict::Better);
  EXPECT_EQ(judge(higher, base, {80}), Verdict::Worse);
  EXPECT_EQ(judge(higher, base, {120}), Verdict::Better);
  // Base runs spread wider than the bound: no verdict unless every
  // candidate run beats every base run.
  const std::vector<double> noisy = {50, 80, 100, 130, 200};
  EXPECT_EQ(judge(lower, noisy, {300}), Verdict::Unresolved);
  EXPECT_EQ(judge(lower, noisy, {40, 45}), Verdict::Better);
}

TEST(Bounds, ExactMetricsCompareBitForBit) {
  const MetricSpec vt{"v", "us", Clock::Virtual, Better::Lower, 0.0, true};
  EXPECT_EQ(judge(vt, {12.5}, {12.5}), Verdict::Same);
  EXPECT_EQ(judge(vt, {12.5}, {12.500001}), Verdict::Worse);
  EXPECT_EQ(judge(vt, {12.5}, {12.4}), Verdict::Better);
}

TEST(CoreClock, ReadsAPlausibleRate) {
  const double ghz = core_clock_ghz();
  EXPECT_GT(ghz, 0.2);
  EXPECT_LT(ghz, 10.0);
}

TEST(Sequence, SameSeedSameCallsOtherSeedOtherCalls) {
  const WorkloadSpec& w = workload_spec(Workload::Churn);
  int differ = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Call a = draw_call(w, 7, i);
    const Call b = draw_call(w, 7, i);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.elem, b.elem);
    EXPECT_EQ(a.host, b.host);
    EXPECT_EQ(a.comm, b.comm);
    EXPECT_EQ(a.root_draw, b.root_draw);
    const Call c = draw_call(w, 8, i);
    differ += c.op != a.op || c.bytes != a.bytes || c.comm != a.comm ? 1 : 0;
  }
  EXPECT_GT(differ, 100);
}

TEST(Sequence, DrawsCoverTheWorkloadShapesOnly) {
  for (Workload id : kAllWorkloads) {
    if (id == Workload::Train) continue;
    const WorkloadSpec& w = workload_spec(id);
    std::set<std::size_t> sizes;
    std::set<Op> ops;
    for (std::uint64_t i = 0; i < 5000; ++i) {
      const Call c = draw_call(w, 1, i);
      sizes.insert(c.bytes);
      ops.insert(c.op);
      EXPECT_LT(c.comm, w.comms);
      EXPECT_TRUE(!c.host || w.host_buffers);
      EXPECT_EQ(c.full_check, i % kFullCheckEvery == kFullCheckEvery - 1);
    }
    EXPECT_EQ(sizes, std::set<std::size_t>(w.sizes.begin(), w.sizes.end()));
    EXPECT_EQ(ops.size(), w.ops.size());
  }
}

TEST(Sequence, EveryCycleIsAPermutationOfTheShapes) {
  const WorkloadSpec& w = workload_spec(Workload::OmbSmall);
  const std::size_t shapes = w.ops.size() * w.sizes.size();
  for (std::uint64_t cycle = 0; cycle < 3; ++cycle) {
    std::set<std::pair<Op, std::size_t>> seen;
    for (std::uint64_t i = 0; i < shapes; ++i) {
      const Call c = draw_call(w, 3, cycle * shapes + i);
      seen.insert({c.op, c.bytes});
    }
    EXPECT_EQ(seen.size(), shapes);
  }
}

/// A buffer holding the expected output of `c` at rank `me` of 4.
std::vector<double> expected_output(const Call& c, Geometry& g, int me,
                                    const std::vector<int>& members, std::uint64_t salt) {
  plan_geometry(c, 4, me, g);
  std::vector<double> out(g.out_elems);
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = expected(c, g, members, salt, k);
  return out;
}

TEST(Verifier, CorruptedOutputIsCounted) {
  const std::vector<int> members = {0, 1, 2, 3};
  const std::uint64_t salt = 42;
  Geometry g;
  for (Op op : workload_spec(Workload::Churn).ops) {
    for (bool full : {false, true}) {
      // Rank 2 checks: the gather root, a bcast receiver.
      const std::uint32_t root = op == Op::Gather ? 2 : 1;
      const Call c{op, 64 * 1024, Elem::Double, false, 0, root, full};
      std::vector<double> out = expected_output(c, g, 2, members, salt);
      ASSERT_FALSE(out.empty()) << to_string(op);
      EXPECT_EQ(count_mismatches(c, g, members, salt, out.data()), 0u) << to_string(op);
      out[0] += 1.0;
      EXPECT_EQ(count_mismatches(c, g, members, salt, out.data()), 1u) << to_string(op);
      out[0] -= 1.0;
      // Element 1 is never sampled at this size: only the full check sees it.
      out[1] += 1.0;
      EXPECT_EQ(count_mismatches(c, g, members, salt, out.data()), full ? 1u : 0u)
          << to_string(op);
    }
  }
}

TEST(Verifier, PoisonedOutputFailsEveryCheckedPosition) {
  const std::vector<int> members = {0, 1, 2, 3};
  Geometry g;
  const Call c{Op::Allreduce, 4096, Elem::Float, false, 0, 0, false};
  plan_geometry(c, 4, 0, g);
  std::vector<float> out(g.out_elems, 0.0f);
  poison(c, g, out.data());
  EXPECT_EQ(count_mismatches(c, g, members, 1, out.data()), 64u);
}

// The benchmark carries its own copy of the trainer's bucket/overlap loop
// (to check outputs and time each call); it must not drift from
// src/dl/horovod.cpp in virtual time.
TEST(TrainerCrossCheck, SameVirtualImagesPerSecondAsRunTraining) {
  dl::TrainerConfig cfg;
  cfg.warmup_steps = 1;
  cfg.steps = 2;
  const double reference = dl::run_training(sim::thetagpu(), 1, cfg).images_per_sec;
  std::uint64_t failed = 1;
  const double ours = train_vt_img_per_s(sim::thetagpu(), 1, 8, 1, 2, &failed);
  EXPECT_EQ(ours, reference);
  EXPECT_EQ(failed, 0u);
}

}  // namespace
}  // namespace mpixccl::e2e
