// Dedicated tests for the UCC baseline's transport-selection model:
// UCP below the small-message threshold, vendor CCL above it on single-node
// jobs, UCP + SRA overhead on multi-node jobs (the paper's "UCC
// underperforms Open MPI + UCX by 10%"), and correctness on every path,
// MPI_IN_PLACE included.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "core/ucc_baseline.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "mpi/mpi.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::core {
namespace {

double time_allreduce(fabric::RankContext& ctx, UccBaseline& ucc, void* buf,
                      std::size_t count) {
  ctx.sync_clocks();
  const double t0 = ctx.clock().now();
  ucc.allreduce(buf, buf, count, mini::kFloat, ReduceOp::Sum, ucc.comm_world());
  ctx.sync_clocks();
  return ctx.clock().now() - t0;
}

TEST(UccTransportSelection, SingleNodeLargeUsesCcl) {
  // On one node, a large device-buffer allreduce should run at CCL speed:
  // close to the NCCL ring, far from the staged UCX path.
  fabric::run_world(sim::thetagpu(), 1, [](fabric::RankContext& ctx) {
    UccBaseline ucc(ctx);
    device::DeviceBuffer buf(ctx.device(), 4u << 20);
    // Warm comm caches.
    ucc.allreduce(buf.get(), buf.get(), 1 << 20, mini::kFloat, ReduceOp::Sum,
                  ucc.comm_world());
    const double large = time_allreduce(ctx, ucc, buf.get(), 1 << 20);
    // NCCL ring at 4 MB / 8 ranks ~ 85 us; the UCX path would be > 300 us.
    EXPECT_LT(large, 250.0);
  });
}

TEST(UccTransportSelection, MultiNodeFallsBackToUcpWithOverhead) {
  // The same call on 2 nodes rides UCP, and costs about 11% more than the
  // plain OMPI+UCX runtime doing the identical operation.
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 2, 0});
  world.run([](fabric::RankContext& ctx) {
    UccBaseline ucc(ctx);
    mini::Mpi plain(ctx, ctx.profile().ompi_ucx, /*instance_salt=*/0xeef);
    device::DeviceBuffer buf(ctx.device(), 4u << 20);

    const double ucc_t = time_allreduce(ctx, ucc, buf.get(), 1 << 20);

    ctx.sync_clocks();
    const double t0 = ctx.clock().now();
    plain.allreduce(buf.get(), buf.get(), 1 << 20, mini::kFloat, ReduceOp::Sum,
                    plain.comm_world());
    ctx.sync_clocks();
    const double plain_t = ctx.clock().now() - t0;

    EXPECT_GT(ucc_t, plain_t);                 // UCC below plain UCX
    EXPECT_NEAR(ucc_t / plain_t, 1.11, 0.04);  // ~10% (paper Sec. 4.4)
  });
}

TEST(UccTransportSelection, SmallMessagesRideUcp) {
  // A tiny UCC allreduce must cost what the plain OMPI+UCX runtime costs
  // plus only the UCC bookkeeping — proving it skipped the CCL launch path.
  fabric::run_world(sim::thetagpu(), 1, [](fabric::RankContext& ctx) {
    UccBaseline ucc(ctx);
    mini::Mpi plain(ctx, ctx.profile().ompi_ucx, /*instance_salt=*/0xeef);
    device::DeviceBuffer buf(ctx.device(), 1 << 16);
    ucc.allreduce(buf.get(), buf.get(), 16, mini::kFloat, ReduceOp::Sum,
                  ucc.comm_world());  // warm-up (and UCP needs no CCL comm)
    const double ucc_small = time_allreduce(ctx, ucc, buf.get(), 16);

    ctx.sync_clocks();
    const double t0 = ctx.clock().now();
    plain.allreduce(buf.get(), buf.get(), 16, mini::kFloat, ReduceOp::Sum,
                    plain.comm_world());
    ctx.sync_clocks();
    const double plain_small = ctx.clock().now() - t0;

    EXPECT_NEAR(ucc_small, plain_small + ctx.profile().ucc.per_op_us, 1.0);
  });
}

TEST(UccCorrectness, AllPathsProduceRightSums) {
  for (const int nodes : {1, 2}) {
    fabric::World world(fabric::WorldConfig{sim::mri(), nodes, 0});
    world.run([&](fabric::RankContext& ctx) {
      UccBaseline ucc(ctx);
      const int p = ctx.size();
      device::DeviceBuffer buf(ctx.device(), 1 << 20);
      for (const std::size_t n : {8u, 65536u}) {  // UCP and CCL regimes
        for (std::size_t i = 0; i < n; ++i) {
          buf.as<float>()[i] = static_cast<float>(ctx.rank() + 1);
        }
        ucc.allreduce(buf.get(), buf.get(), n, mini::kFloat, ReduceOp::Sum,
                      ucc.comm_world());
        ASSERT_FLOAT_EQ(buf.as<float>()[n - 1],
                        static_cast<float>(p * (p + 1) / 2))
            << "nodes=" << nodes << " n=" << n;
      }

      // Bcast + reduce + allgather quick checks.
      float v = ctx.rank() == 2 % p ? 7.5f : 0.0f;
      ucc.bcast(&v, 1, mini::kFloat, 2 % p, ucc.comm_world());
      EXPECT_FLOAT_EQ(v, 7.5f);
      float sum = 0.0f;
      const float mine = 2.0f;
      ucc.reduce(&mine, &sum, 1, mini::kFloat, ReduceOp::Sum, 0,
                 ucc.comm_world());
      if (ctx.rank() == 0) EXPECT_FLOAT_EQ(sum, 2.0f * p);
      std::vector<float> all(static_cast<std::size_t>(p));
      const float tag = static_cast<float>(ctx.rank()) + 0.5f;
      ucc.allgather(&tag, 1, mini::kFloat, all.data(), 1, mini::kFloat,
                    ucc.comm_world());
      EXPECT_FLOAT_EQ(all.back(), static_cast<float>(p - 1) + 0.5f);
    });
  }
}

/// Element i of rank r's input: small integers, so float sums are exact in
/// any order.
std::vector<float> ucc_input(int r, std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>((3 * r + i) % 11);
  return v;
}

/// `in_place` on a device buffer through the UCC baseline must match
/// `oracle` run out of place on host buffers through flat MiniMPI; both
/// start from `fill(rank)` and are read back as `out_elems` floats.
void expect_in_place(UccBaseline& ucc, std::size_t out_elems,
                     const std::function<std::vector<float>(int)>& fill,
                     const std::function<void(float*)>& in_place,
                     const std::function<void(const float*, float*)>& oracle,
                     const char* what) {
  const int r = ucc.rank();
  const std::vector<float> in = fill(r);
  device::DeviceBuffer buf(ucc.context().device(),
                           std::max(in.size(), out_elems) * sizeof(float));
  std::copy(in.begin(), in.end(), buf.as<float>());
  in_place(buf.as<float>());
  std::vector<float> want(out_elems);
  oracle(in.data(), want.data());
  const std::vector<float> got(buf.as<float>(), buf.as<float>() + out_elems);
  EXPECT_EQ(got, want) << what << " on rank " << r;
}

TEST(UccCorrectness, InPlaceMatchesFlatMpiOnBothTransports) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 4});
  world.run([&](fabric::RankContext& ctx) {
    UccBaseline ucc(ctx);
    mini::Mpi& mpi = ucc.mpi();
    mini::Comm& comm = ucc.comm_world();
    const int p = ctx.size();
    const int me = ctx.rank();
    constexpr int kRoot = 1;
    const std::size_t ucp_max = ctx.profile().ucc.ucp_max_bytes / sizeof(float);
    // Below the UCP threshold the UCP path serves; above it, the CCL.
    for (const std::size_t n : {ucp_max / 4, ucp_max * 8}) {
      const auto mine = [n](int rank) { return ucc_input(rank, n); };
      expect_in_place(
          ucc, n, mine,
          [&](float* b) {
            ucc.allreduce(mini::kInPlace, b, n, mini::kFloat, ReduceOp::Sum, comm);
          },
          [&](const float* s, float* o) {
            mpi.allreduce(s, o, n, mini::kFloat, ReduceOp::Sum, comm);
          },
          "allreduce");
      expect_in_place(
          ucc, me == kRoot ? n : 0, mine,
          [&](float* b) {
            ucc.reduce(me == kRoot ? mini::kInPlace : b, b, n, mini::kFloat,
                       ReduceOp::Sum, kRoot, comm);
          },
          [&](const float* s, float* o) {
            mpi.reduce(s, o, n, mini::kFloat, ReduceOp::Sum, kRoot, comm);
          },
          "reduce at the root");
      // In place, a rank's block already sits at its offset of recvbuf.
      const std::size_t total = n * static_cast<std::size_t>(p);
      const auto own_block = [n, total](int rank) {
        std::vector<float> v(total, 0.0f);
        const auto block = ucc_input(rank, n);
        std::copy(block.begin(), block.end(),
                  v.begin() + static_cast<std::ptrdiff_t>(rank * n));
        return v;
      };
      expect_in_place(
          ucc, total, own_block,
          [&](float* b) {
            ucc.allgather(mini::kInPlace, n, mini::kFloat, b, n, mini::kFloat, comm);
          },
          [&](const float* s, float* o) {
            mpi.allgather(s + me * n, n, mini::kFloat, o, n, mini::kFloat, comm);
          },
          "allgather");
    }
    // In place, alltoall reads and writes the same blocks: it may not take
    // the per-peer CCL phases.
    const std::size_t block = ucp_max * 2;
    const std::size_t total = block * static_cast<std::size_t>(p);
    expect_in_place(
        ucc, total, [total](int rank) { return ucc_input(rank, total); },
        [&](float* b) {
          ucc.alltoall(mini::kInPlace, block, mini::kFloat, b, block, mini::kFloat,
                       comm);
        },
        [&](const float* s, float* o) {
          mpi.alltoall(s, block, mini::kFloat, o, block, mini::kFloat, comm);
        },
        "alltoall");
  });
}

}  // namespace
}  // namespace mpixccl::core
