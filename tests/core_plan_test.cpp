// Tests for the persistent-collective plan layer: the PlanCache data
// structure (hit/miss byte bands, LRU eviction, invalidation), the XcclMpi
// integration (one-shot dispatch populating and hitting the cache, tuning
// reload invalidation, reset_stats hygiene), bit-identical results between
// one-shot and persistent start/wait across all three engines and several
// topologies, stale persistent plans recompiling after a retune, and
// blocking / nonblocking / persistent parity of the one dispatch ladder.

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "core/plan.hpp"
#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "obs/analyze.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::core {
namespace {

void with_runtime(const sim::SystemProfile& prof, int nodes,
                  XcclMpiOptions options,
                  const std::function<void(XcclMpi&)>& body, int dpn = 0) {
  fabric::World world(fabric::WorldConfig{prof, nodes, dpn});
  world.run([&](fabric::RankContext& ctx) {
    XcclMpi rt(ctx, options);
    body(rt);
  });
}

PlanKey key_of(CollOp op, std::size_t bytes, std::uint64_t comm_uid = 1) {
  return PlanKey{op, DataType::Float32, ReduceOp::Sum, true,
                 plan_size_class(bytes), comm_uid};
}

std::shared_ptr<Plan> make_plan(PlanKey key, std::uint64_t id,
                                std::size_t min_b = 0,
                                std::size_t max_b = SIZE_MAX) {
  auto p = std::make_shared<Plan>();
  p->key = key;
  p->id = id;
  p->min_bytes = min_b;
  p->max_bytes = max_b;
  return p;
}

/// The three-engine tuning table every integration test routes through.
TuningTable three_engine_table() {
  TuningTable t;
  t.set_rules(CollOp::Allreduce, {{16384, Engine::Mpi},
                                  {1u << 20, Engine::Hier},
                                  {SIZE_MAX, Engine::Xccl}});
  return t;
}

// ---- PlanCache unit tests ---------------------------------------------------

TEST(PlanCacheUnit, HitBumpsCountersMissOnUnknownKey) {
  PlanCache cache;
  const PlanKey k = key_of(CollOp::Allreduce, 4096);
  cache.insert(make_plan(k, 1));
  auto hit = cache.find(k, 4096);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 1u);
  EXPECT_EQ(hit->hits, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  EXPECT_EQ(cache.find(key_of(CollOp::Bcast, 4096), 4096), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheUnit, ByteBandMismatchIsMiss) {
  // Two sizes can share a size class while straddling a tuning breakpoint;
  // a cached plan only serves bytes inside the rule band it was built from.
  PlanCache cache;
  const PlanKey k = key_of(CollOp::Allreduce, 12000);
  cache.insert(make_plan(k, 7, /*min_b=*/0, /*max_b=*/10000));
  EXPECT_NE(cache.find(k, 9000), nullptr);
  EXPECT_EQ(cache.find(k, 12000), nullptr);  // same class, out of band
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PlanCacheUnit, LruEvictsOldestAndHitRefreshes) {
  PlanCache cache(/*capacity=*/2);
  const PlanKey a = key_of(CollOp::Allreduce, 64);
  const PlanKey b = key_of(CollOp::Allreduce, 4096);
  const PlanKey c = key_of(CollOp::Allreduce, 1u << 20);
  cache.insert(make_plan(a, 1));
  cache.insert(make_plan(b, 2));
  ASSERT_NE(cache.find(a, 64), nullptr);  // refresh a: b is now LRU
  EXPECT_EQ(cache.insert(make_plan(c, 3)), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find(b, 4096), nullptr);  // b was evicted
  EXPECT_NE(cache.find(a, 64), nullptr);
  EXPECT_NE(cache.find(c, 1u << 20), nullptr);
}

TEST(PlanCacheUnit, InsertReplacesSameKeyWithoutEvictionTick) {
  PlanCache cache(2);
  const PlanKey k = key_of(CollOp::Allreduce, 4096);
  cache.insert(make_plan(k, 1));
  EXPECT_EQ(cache.insert(make_plan(k, 2)), 0u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.find(k, 4096)->id, 2u);
}

TEST(PlanCacheUnit, InvalidateAllEmptiesAndCounts) {
  PlanCache cache;
  cache.insert(make_plan(key_of(CollOp::Allreduce, 64), 1));
  cache.insert(make_plan(key_of(CollOp::Bcast, 64), 2));
  EXPECT_EQ(cache.invalidate_all(), 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_TRUE(cache.live_ids().empty());
}

TEST(PlanCacheUnit, InvalidateIfDropsOnlyMatchingPlans) {
  PlanCache cache;
  cache.insert(make_plan(key_of(CollOp::Allreduce, 64), 1, 0, 16384));
  cache.insert(make_plan(key_of(CollOp::Allreduce, 1 << 20), 2, 16385, SIZE_MAX));
  cache.insert(make_plan(key_of(CollOp::Bcast, 64), 3, 0, 16384));
  const std::size_t dropped = cache.invalidate_if([](const Plan& p) {
    return p.key.op == CollOp::Allreduce && p.max_bytes <= 16384;
  });
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // The survivors still serve.
  EXPECT_NE(cache.find(key_of(CollOp::Allreduce, 1 << 20), 1 << 20), nullptr);
  EXPECT_NE(cache.find(key_of(CollOp::Bcast, 64), 64), nullptr);
  EXPECT_EQ(cache.find(key_of(CollOp::Allreduce, 64), 64), nullptr);
  // A predicate matching nothing drops nothing.
  EXPECT_EQ(cache.invalidate_if([](const Plan&) { return false; }), 0u);
}

TEST(PlanCacheUnit, ShrinkingCapacityEvictsTail) {
  PlanCache cache;
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(make_plan(key_of(CollOp::Allreduce, 64u << i), i + 1));
  }
  cache.set_capacity(2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  // Newest two survive.
  EXPECT_NE(cache.find(key_of(CollOp::Allreduce, 64u << 3), 64u << 3), nullptr);
  EXPECT_NE(cache.find(key_of(CollOp::Allreduce, 64u << 2), 64u << 2), nullptr);
}

TEST(PlanCacheUnit, ReportListsPlansAndCounters) {
  PlanCache cache;
  cache.insert(make_plan(key_of(CollOp::Allreduce, 4096), 42));
  cache.find(key_of(CollOp::Allreduce, 4096), 4096);
  const std::string r = cache.report();
  EXPECT_NE(r.find("allreduce"), std::string::npos);
  EXPECT_NE(r.find("42"), std::string::npos);
  EXPECT_NE(r.find("hits 1"), std::string::npos);
}

// ---- Flight-recorder purge --------------------------------------------------

TEST(FlightPurge, DropsDeadPlanRecordsForRankOnly) {
  auto& fr = obs::FlightRecorder::instance();
  fr.clear();
  auto rec = [&](int rank, std::uint64_t plan_id, double dur) {
    obs::FlightRecord r;
    r.rank = rank;
    r.plan_id = plan_id;
    r.begin_us = 0.0;
    r.end_us = dur;
    fr.record(r);
  };
  rec(0, 10, 100.0);  // dead plan, rank 0 -> purged
  rec(0, 11, 90.0);   // live plan, rank 0 -> kept
  rec(0, 0, 80.0);    // planless, rank 0 -> kept
  rec(1, 10, 70.0);   // other rank -> kept even though plan 10 is dead
  EXPECT_EQ(fr.purge_plan_records(0, {11}), 1u);
  const auto records = fr.records();
  ASSERT_EQ(records.size(), 3u);
  for (const auto& r : records) {
    EXPECT_FALSE(r.rank == 0 && r.plan_id == 10);
  }
  fr.clear();
}

// ---- XcclMpi integration ----------------------------------------------------

TEST(PlanRuntime, OneShotPopulatesAndHitsCache) {
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    device::DeviceBuffer send(dev, 1u << 20);
    device::DeviceBuffer recv(dev, 1u << 20);
    auto ar = [&](std::size_t floats) {
      rt.allreduce(send.get(), recv.get(), floats, mini::kFloat, ReduceOp::Sum,
                   rt.comm_world());
    };
    ar(64);   // 256 bytes: build (miss)
    ar(64);   // replay (hit)
    ar(100);  // 400 bytes, same log2 class as 256 -> hit
    ar(1 << 18);  // new size class -> miss
    const auto& st = rt.plan_cache().stats();
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.hits, 2u);
    EXPECT_EQ(rt.plan_cache().size(), 2u);

    // A persistent init for a cached tuple reuses the compiled plan.
    Persistent h = rt.allreduce_init(send.as<float>(), recv.as<float>(), 64,
                                     mini::kFloat, ReduceOp::Sum,
                                     rt.comm_world());
    EXPECT_TRUE(h.valid());
    EXPECT_EQ(rt.plan_cache().stats().hits, 3u);
    h.free();
    EXPECT_FALSE(h.valid());
  });
}

TEST(PlanRuntime, TuningReloadInvalidatesPlans) {
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    device::DeviceBuffer buf(dev, 1u << 20);
    rt.allreduce(buf.get(), buf.get(), 64, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    ASSERT_EQ(rt.plan_cache().size(), 1u);

    rt.set_tuning(three_engine_table());
    EXPECT_EQ(rt.plan_cache().size(), 0u);
    EXPECT_EQ(rt.plan_cache().stats().invalidations, 1u);

    // The next call rebuilds under the new table.
    rt.allreduce(buf.get(), buf.get(), 64, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    EXPECT_EQ(rt.plan_cache().size(), 1u);
    EXPECT_EQ(rt.plan_cache().stats().misses, 2u);

    // Mode changes invalidate too.
    rt.set_mode(Mode::PureXccl);
    EXPECT_EQ(rt.plan_cache().size(), 0u);
  });
}

TEST(PlanRuntime, ResetStatsClearsPlanCountersAndPurgesFlightRecords) {
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    obs::FlightRecorder::instance().clear();
    auto& dev = rt.context().device();
    device::DeviceBuffer buf(dev, 1u << 20);
    for (int i = 0; i < 3; ++i) {
      rt.allreduce(buf.get(), buf.get(), 1 << 18, mini::kFloat, ReduceOp::Sum,
                   rt.comm_world());
    }
    ASSERT_GT(rt.plan_cache().stats().misses, 0u);

    // Free every plan, then reset: the counters must zero and this rank's
    // flight records referencing the freed plans must disappear (they can
    // no longer join against a cache entry).
    rt.invalidate_plans();
    rt.reset_stats();
    const auto& st = rt.plan_cache().stats();
    EXPECT_EQ(st.hits, 0u);
    EXPECT_EQ(st.misses, 0u);
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.invalidations, 0u);
    for (const auto& r : obs::FlightRecorder::instance().records()) {
      EXPECT_FALSE(r.rank == rt.rank() && r.plan_id != 0)
          << "stale flight record for freed plan " << r.plan_id;
    }
  });
}

TEST(PlanRuntime, StartWaitLifecycleIsEnforced) {
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    device::DeviceBuffer send(dev, 4096), recv(dev, 4096);
    Persistent h = rt.allreduce_init(send.as<float>(), recv.as<float>(), 64,
                                     mini::kFloat, ReduceOp::Sum,
                                     rt.comm_world());
    EXPECT_THROW(h.wait(), Error);  // wait before start
    h.start();
    EXPECT_TRUE(h.active());
    EXPECT_THROW(h.start(), Error);  // overlapping start on one handle
    EXPECT_THROW(h.free(), Error);   // free while in flight
    h.wait();
    EXPECT_FALSE(h.active());
    h.free();
    h.free();  // safe to call twice
  });
}

// ---- Persistent vs one-shot equivalence -------------------------------------

/// Runs every collective both ways on one topology and expects bit-identical
/// results. The tuning table routes the three allreduce sizes to the three
/// engines (hier degrades to its fallback on single-node worlds and still
/// must produce the same bytes).
void check_equivalence(const sim::SystemProfile& prof, int nodes, int dpn) {
  with_runtime(
      prof, nodes, {.tuning = three_engine_table()},
      [](XcclMpi& rt) {
        auto& dev = rt.context().device();
        auto& comm = rt.comm_world();
        const int rank = rt.rank();
        const int size = rt.size();

        for (const std::size_t floats :
             {std::size_t{1024}, std::size_t{65536}, std::size_t{1u << 20}}) {
          const std::size_t bytes = floats * sizeof(float);
          device::DeviceBuffer send(dev, bytes);
          device::DeviceBuffer one(dev, bytes);
          device::DeviceBuffer per(dev, bytes);
          for (std::size_t i = 0; i < floats; ++i) {
            send.as<float>()[i] =
                static_cast<float>(rank + 1) + static_cast<float>(i % 17);
          }
          rt.allreduce(send.get(), one.get(), floats, mini::kFloat,
                       ReduceOp::Sum, comm);
          Persistent h = rt.allreduce_init(send.as<float>(), per.as<float>(),
                                           floats, mini::kFloat, ReduceOp::Sum,
                                           comm);
          h.start();
          h.wait();
          // Replays stay identical (the handle is reusable).
          h.start();
          h.wait();
          EXPECT_EQ(std::memcmp(one.get(), per.get(), bytes), 0)
              << "allreduce mismatch at " << bytes << " bytes";
        }

        // The other four collectives at one mid size.
        const std::size_t n = 4096;
        device::DeviceBuffer a(dev, n * sizeof(float));
        device::DeviceBuffer b(dev, n * sizeof(float));
        for (std::size_t i = 0; i < n; ++i) {
          a.as<float>()[i] = static_cast<float>(rank * 3 + 1);
          b.as<float>()[i] = a.as<float>()[i];
        }
        rt.bcast(a.get(), n, mini::kFloat, 0, comm);
        Persistent hb =
            rt.bcast_init(b.get(), n, mini::kFloat, 0, comm);
        hb.start();
        hb.wait();
        EXPECT_EQ(std::memcmp(a.get(), b.get(), n * sizeof(float)), 0);

        device::DeviceBuffer r1(dev, n * sizeof(float));
        device::DeviceBuffer r2(dev, n * sizeof(float));
        rt.reduce(a.get(), r1.get(), n, mini::kFloat, ReduceOp::Max, 0, comm);
        Persistent hr = rt.reduce_init(a.as<float>(), r2.as<float>(), n,
                                       mini::kFloat, ReduceOp::Max, 0, comm);
        hr.start();
        hr.wait();
        if (rank == 0) {
          EXPECT_EQ(std::memcmp(r1.get(), r2.get(), n * sizeof(float)), 0);
        }

        const std::size_t per_rank = 512;
        device::DeviceBuffer g1(dev, per_rank * size * sizeof(float));
        device::DeviceBuffer g2(dev, per_rank * size * sizeof(float));
        rt.allgather(a.get(), per_rank, mini::kFloat, g1.get(), per_rank,
                     mini::kFloat, comm);
        Persistent hg = rt.allgather_init(a.get(), per_rank, mini::kFloat,
                                          g2.get(), per_rank, mini::kFloat,
                                          comm);
        hg.start();
        hg.wait();
        EXPECT_EQ(
            std::memcmp(g1.get(), g2.get(), per_rank * size * sizeof(float)),
            0);

        device::DeviceBuffer s1(dev, per_rank * sizeof(float));
        device::DeviceBuffer s2(dev, per_rank * sizeof(float));
        device::DeviceBuffer big(dev, per_rank * size * sizeof(float));
        for (std::size_t i = 0; i < per_rank * static_cast<std::size_t>(size);
             ++i) {
          big.as<float>()[i] = static_cast<float>(rank) + 0.5f;
        }
        rt.reduce_scatter_block(big.get(), s1.get(), per_rank, mini::kFloat,
                                ReduceOp::Sum, comm);
        Persistent hs = rt.reduce_scatter_init(big.as<float>(), s2.as<float>(),
                                               per_rank, mini::kFloat,
                                               ReduceOp::Sum, comm);
        hs.start();
        hs.wait();
        EXPECT_EQ(std::memcmp(s1.get(), s2.get(), per_rank * sizeof(float)), 0);
      },
      dpn);
}

TEST(PersistentEquivalence, OneNodeEightDevices) {
  check_equivalence(sim::thetagpu(), 1, 8);
}

TEST(PersistentEquivalence, TwoNodesFourDevices) {
  check_equivalence(sim::thetagpu(), 2, 4);
}

TEST(PersistentEquivalence, FourNodesFourDevices) {
  check_equivalence(sim::thetagpu(), 4, 4);
}

TEST(PersistentEquivalence, EnginesMatchTheTable) {
  // On a hier-capable topology the three allreduce size classes compile to
  // the three engines, and the persistent handles expose which.
  with_runtime(
      sim::thetagpu(), 2, {.tuning = three_engine_table()},
      [](XcclMpi& rt) {
        auto& dev = rt.context().device();
        device::DeviceBuffer send(dev, 4u << 20);
        device::DeviceBuffer recv(dev, 4u << 20);
        auto engine_at = [&](std::size_t floats) {
          Persistent h = rt.allreduce_init(send.as<float>(), recv.as<float>(),
                                           floats, mini::kFloat, ReduceOp::Sum,
                                           rt.comm_world());
          return h.plan().pick.engine;
        };
        EXPECT_EQ(engine_at(1024), Engine::Mpi);
        EXPECT_EQ(engine_at(65536), Engine::Hier);
        EXPECT_EQ(engine_at(1u << 20), Engine::Xccl);
      },
      2);
}


// ---- Stale persistent plans -------------------------------------------------

TEST(PersistentStale, InvalidationMarksStaleEvictionDoesNot) {
  PlanCache cache(/*capacity=*/1);
  auto a = make_plan(key_of(CollOp::Allreduce, 64), 1);
  auto b = make_plan(key_of(CollOp::Allreduce, 4096), 2);
  cache.insert(a);
  cache.insert(b);  // evicts a: still correct for its handles
  EXPECT_FALSE(a->stale);
  cache.invalidate_if([](const Plan&) { return true; });
  EXPECT_TRUE(b->stale);
  auto c = make_plan(key_of(CollOp::Bcast, 64), 3);
  cache.insert(c);
  cache.invalidate_all();
  EXPECT_TRUE(c->stale);
}

TEST(PersistentStale, RetuneReachesLiveHandle) {
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    device::DeviceBuffer send(dev, 64 * sizeof(float));
    device::DeviceBuffer recv(dev, 64 * sizeof(float));
    for (int i = 0; i < 64; ++i) send.as<float>()[i] = 1.0f;
    Persistent h = rt.allreduce_init(send.as<float>(), recv.as<float>(), 64,
                                     mini::kFloat, ReduceOp::Sum,
                                     rt.comm_world());
    h.start();
    h.wait();
    ASSERT_EQ(rt.last_dispatch().engine, Engine::Mpi);  // 256 B: table says MPI

    rt.retune_range(CollOp::Allreduce, 0, SIZE_MAX, Engine::Xccl);
    EXPECT_TRUE(h.plan().stale);
    h.start();
    h.wait();
    EXPECT_EQ(rt.last_dispatch().engine, Engine::Xccl);
    EXPECT_FALSE(h.plan().stale);
    EXPECT_EQ(h.plan().pick.engine, Engine::Xccl);
    EXPECT_FLOAT_EQ(recv.as<float>()[7], static_cast<float>(rt.size()));
  });
}

TEST(PersistentStale, HierReconfigReachesLiveHandle) {
  with_runtime(
      sim::thetagpu(), 2, {.tuning = TuningTable::uniform(Engine::Hier)},
      [](XcclMpi& rt) {
        auto& dev = rt.context().device();
        const std::size_t n = 4096;
        device::DeviceBuffer send(dev, n * sizeof(float));
        device::DeviceBuffer recv(dev, n * sizeof(float));
        for (std::size_t i = 0; i < n; ++i) send.as<float>()[i] = 2.0f;
        Persistent h = rt.allreduce_init(send.as<float>(), recv.as<float>(), n,
                                         mini::kFloat, ReduceOp::Sum,
                                         rt.comm_world());
        h.start();
        h.wait();
        ASSERT_EQ(rt.last_dispatch().engine, Engine::Hier);
        EXPECT_EQ(rt.last_decision().level_path, "node(8).net(2)");

        ASSERT_TRUE(rt.set_hier_levels("socket:2,numa:2"));
        h.start();
        h.wait();
        EXPECT_EQ(rt.last_dispatch().engine, Engine::Hier);
        EXPECT_EQ(rt.last_decision().level_path,
                  "numa(2).socket(2).node(2).net(2)");
        EXPECT_FLOAT_EQ(recv.as<float>()[n - 1], 2.0f * rt.size());
      },
      /*dpn=*/8);
}

// ---- Flavour parity ---------------------------------------------------------
// One dispatch ladder serves blocking, nonblocking and persistent calls, so
// every flavour must produce the same bytes, the same dispatch record and
// exactly one sample in every telemetry sink per call.

enum class Flavour { Blocking, Nonblocking, Persistent };

constexpr CollOp kBuiltins[] = {CollOp::Allreduce, CollOp::Bcast,
                                CollOp::Reduce, CollOp::Allgather,
                                CollOp::ReduceScatter};

/// Issue `op` once in `flavour` and complete it.
void issue(XcclMpi& rt, CollOp op, Flavour flavour, const void* send,
           void* recv, std::size_t n, mini::Datatype dt) {
  auto& comm = rt.comm_world();
  const ReduceOp sum = ReduceOp::Sum;
  Persistent h;
  mini::Request req;
  const bool blocking = flavour == Flavour::Blocking;
  const bool async = flavour == Flavour::Nonblocking;
  switch (op) {
    case CollOp::Allreduce:
      if (blocking) rt.allreduce(send, recv, n, dt, sum, comm);
      else if (async) req = rt.iallreduce(send, recv, n, dt, sum, comm);
      else h = rt.allreduce_init(send, recv, n, dt, sum, comm);
      break;
    case CollOp::Bcast:
      if (blocking) rt.bcast(recv, n, dt, 0, comm);
      else if (async) req = rt.ibcast(recv, n, dt, 0, comm);
      else h = rt.bcast_init(recv, n, dt, 0, comm);
      break;
    case CollOp::Reduce:
      if (blocking) rt.reduce(send, recv, n, dt, sum, 0, comm);
      else if (async) req = rt.ireduce(send, recv, n, dt, sum, 0, comm);
      else h = rt.reduce_init(send, recv, n, dt, sum, 0, comm);
      break;
    case CollOp::Allgather:
      if (blocking) rt.allgather(send, n, dt, recv, n, dt, comm);
      else if (async) req = rt.iallgather(send, n, dt, recv, n, dt, comm);
      else h = rt.allgather_init(send, n, dt, recv, n, dt, comm);
      break;
    default:
      if (blocking) rt.reduce_scatter_block(send, recv, n, dt, sum, comm);
      else if (async) req = rt.ireduce_scatter_block(send, recv, n, dt, sum, comm);
      else h = rt.reduce_scatter_init(send, recv, n, dt, sum, comm);
      break;
  }
  if (async) rt.wait(req);
  if (h.valid()) {
    h.start();
    h.wait();
  }
}

/// Latency samples the registry holds for `op`, over engines and bands.
std::uint64_t latency_samples(CollOp op) {
  std::uint64_t n = 0;
  for (const Engine e : {Engine::Mpi, Engine::Xccl, Engine::Hier}) {
    for (std::size_t band = 0; band < obs::kSizeBands; ++band) {
      n += obs::Registry::instance().band_latency(op, e, band).count;
    }
  }
  return n;
}

std::size_t flight_records(int rank) {
  std::size_t n = 0;
  for (const auto& r : obs::FlightRecorder::instance().records()) {
    n += r.rank == rank ? 1 : 0;
  }
  return n;
}

struct ParityCase {
  const char* name;
  Engine table;     ///< every built-in routed here by the tuning table
  int nodes;
  int dpn;
  bool complex;     ///< kDoubleComplex: no NCCL reduction, MPI fallback
  Engine expect;    ///< engine the allreduce must land on
  obs::FallbackReason reason;  ///< its decision's reason
};

void check_parity(const ParityCase& pc) {
  SCOPED_TRACE(pc.name);
  obs::Registry::instance().reset();
  auto& fr = obs::FlightRecorder::instance();
  const std::size_t fr_cap = fr.capacity();
  fr.set_capacity(4096);
  fr.clear();
  obs::fleet::reset();
  obs::fleet::set_profiling(true);
  with_runtime(
      sim::thetagpu(), pc.nodes, {.tuning = TuningTable::uniform(pc.table)},
      [&](XcclMpi& rt) {
        auto& dev = rt.context().device();
        auto& comm = rt.comm_world();
        const int me = rt.rank();
        const auto p = static_cast<std::size_t>(rt.size());
        const mini::Datatype dt = pc.complex ? mini::kDoubleComplex : mini::kFloat;
        const std::size_t n = 1024;
        const std::size_t esz = dt.size();
        for (const CollOp op : kBuiltins) {
          SCOPED_TRACE(std::string(to_string(op)));
          const bool big_send = op == CollOp::ReduceScatter;
          const bool big_recv = op == CollOp::Allgather;
          const std::size_t send_bytes = n * esz * (big_send ? p : 1);
          const std::size_t recv_bytes = n * esz * (big_recv ? p : 1);
          std::vector<std::vector<std::byte>> outputs;
          std::vector<Dispatch> dispatches;
          std::vector<obs::DispatchDecision> decisions;
          for (const Flavour f :
               {Flavour::Blocking, Flavour::Nonblocking, Flavour::Persistent}) {
            device::DeviceBuffer send(dev, send_bytes);
            device::DeviceBuffer recv(dev, recv_bytes);
            // Small exact values in either element type (doubles viewed as
            // pairs for the complex case).
            auto fill = [&](device::DeviceBuffer& b, std::size_t bytes) {
              if (pc.complex) {
                for (std::size_t i = 0; i < bytes / sizeof(double); ++i) {
                  b.as<double>()[i] = me + 1.0 + static_cast<double>(i % 7);
                }
              } else {
                for (std::size_t i = 0; i < bytes / sizeof(float); ++i) {
                  b.as<float>()[i] = me + 1.0f + static_cast<float>(i % 13);
                }
              }
            };
            fill(send, send_bytes);
            std::memset(recv.get(), 0, recv_bytes);
            if (op == CollOp::Bcast) fill(recv, recv_bytes);

            rt.mpi().barrier(comm);
            const std::uint64_t samples0 = latency_samples(op);
            const std::size_t flights0 = flight_records(me);
            const std::size_t arrivals0 =
                obs::fleet::local_rank_state(me).arrivals.size();
            rt.mpi().barrier(comm);
            issue(rt, op, f, send.get(), recv.get(), n, dt);
            rt.mpi().barrier(comm);
            EXPECT_EQ(latency_samples(op) - samples0, p) << "registry samples";
            EXPECT_EQ(flight_records(me) - flights0, 1u) << "flight records";
            EXPECT_EQ(obs::fleet::local_rank_state(me).arrivals.size() -
                          arrivals0,
                      1u)
                << "fleet arrivals";
            rt.mpi().barrier(comm);

            const auto* bytes = static_cast<const std::byte*>(recv.get());
            outputs.emplace_back(bytes, bytes + recv_bytes);
            dispatches.push_back(rt.last_dispatch());
            decisions.push_back(rt.last_decision());
          }
          if (op == CollOp::Allreduce) {
            EXPECT_EQ(dispatches[0].engine, pc.expect);
            EXPECT_EQ(decisions[0].reason, pc.reason);
          }
          for (std::size_t i = 1; i < outputs.size(); ++i) {
            SCOPED_TRACE("flavour " + std::to_string(i));
            EXPECT_EQ(outputs[i], outputs[0]) << "output bytes";
            EXPECT_EQ(dispatches[i].engine, dispatches[0].engine);
            EXPECT_EQ(dispatches[i].fell_back, dispatches[0].fell_back);
            EXPECT_EQ(dispatches[i].composed, dispatches[0].composed);
            const obs::DispatchDecision& a = decisions[0];
            const obs::DispatchDecision& b = decisions[i];
            EXPECT_EQ(b.rank, a.rank);
            EXPECT_EQ(b.op, a.op);
            EXPECT_EQ(b.bytes, a.bytes);
            EXPECT_EQ(b.mode, a.mode);
            EXPECT_EQ(b.breakpoint, a.breakpoint);
            EXPECT_EQ(b.table_choice, a.table_choice);
            EXPECT_EQ(b.engine, a.engine);
            EXPECT_EQ(b.reason, a.reason);
            EXPECT_EQ(b.fell_back, a.fell_back);
            EXPECT_EQ(b.composed, a.composed);
            EXPECT_EQ(b.level_path, a.level_path);
          }
        }
      },
      pc.dpn);
  obs::fleet::set_profiling(false);
  obs::fleet::reset();
  fr.clear();
  fr.set_capacity(fr_cap);
}

TEST(FlavourParity, MpiPick) {
  check_parity({"mpi", Engine::Mpi, 1, 4, false, Engine::Mpi,
                obs::FallbackReason::None});
}

TEST(FlavourParity, XcclPick) {
  check_parity({"xccl", Engine::Xccl, 1, 4, false, Engine::Xccl,
                obs::FallbackReason::None});
}

TEST(FlavourParity, XcclFallsBackOnDoubleComplex) {
  check_parity({"xccl->mpi", Engine::Xccl, 1, 4, true, Engine::Mpi,
                obs::FallbackReason::DtypeUnsupported});
}

TEST(FlavourParity, HierPickOnTwoByFour) {
  check_parity({"hier", Engine::Hier, 2, 4, false, Engine::Hier,
                obs::FallbackReason::None});
}

TEST(FlavourParity, HierTopoMismatchFallsBack) {
  check_parity({"hier->mpi", Engine::Hier, 1, 4, false, Engine::Mpi,
                obs::FallbackReason::HierTopoMismatch});
}

}  // namespace
}  // namespace mpixccl::core
