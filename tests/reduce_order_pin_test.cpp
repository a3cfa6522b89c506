// Pins the exact output bytes of the bandwidth-bound reduction paths.
//
// Inputs are seeded non-integer values, so a Sum depends on the order in
// which contributions are combined. Each case hashes every rank's output
// (rank order) and compares it with a pinned value: a rewrite of the
// reduce-scatter data path (where the bytes land, which buffer is the
// working copy) must leave every hash unchanged, which proves that no
// reduction was reordered. Max is order-insensitive and guards the copies.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "hier/hier.hpp"
#include "mpi/mpi.hpp"
#include "sim/profiles.hpp"
#include "xccl/backend.hpp"

namespace mpixccl {
namespace {

struct Case {
  DataType dt;
  ReduceOp op;
};
constexpr std::array<Case, 4> kCases = {{{DataType::Float32, ReduceOp::Sum},
                                         {DataType::Float32, ReduceOp::Max},
                                         {DataType::Float64, ReduceOp::Sum},
                                         {DataType::Float64, ReduceOp::Max}}};
using Pins = std::array<std::uint64_t, kCases.size()>;

/// Seeded values in [-1, 1) with full mantissas, distinct per rank.
std::vector<std::byte> seeded_input(DataType dt, std::size_t n, int rank) {
  std::vector<std::byte> out(n * datatype_size(dt));
  std::uint64_t s = splitmix64(0x5eed0000ull + static_cast<std::uint64_t>(rank));
  for (std::size_t i = 0; i < n; ++i) {
    s = splitmix64(s);
    const double v = static_cast<double>(s >> 11) * 0x1p-52 - 1.0;
    if (dt == DataType::Float32) {
      const auto f = static_cast<float>(v);
      std::memcpy(out.data() + i * sizeof f, &f, sizeof f);
    } else {
      std::memcpy(out.data() + i * sizeof v, &v, sizeof v);
    }
  }
  return out;
}

/// FNV-1a over every rank's output, concatenated in rank order.
std::uint64_t hash_outputs(const std::vector<std::vector<std::byte>>& outs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& o : outs) {
    for (const std::byte b : o) {
      h ^= static_cast<std::uint64_t>(b);
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Runs `body` on every rank of `nodes` x `dpn` thetagpu; each rank returns
/// its output bytes. Returns the hash over all ranks.
std::uint64_t run_world(
    int nodes, int dpn,
    const std::function<std::vector<std::byte>(fabric::RankContext&)>& body) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), nodes, dpn});
  std::vector<std::vector<std::byte>> outs(
      static_cast<std::size_t>(nodes * dpn));
  world.run([&](fabric::RankContext& ctx) {
    outs[static_cast<std::size_t>(ctx.rank())] = body(ctx);
  });
  return hash_outputs(outs);
}

void expect_pinned(const std::function<std::uint64_t(DataType, ReduceOp)>& run,
                   const Pins& want) {
  for (std::size_t i = 0; i < kCases.size(); ++i) {
    const Case c = kCases[i];
    EXPECT_EQ(run(c.dt, c.op), want[i])
        << to_string(c.dt) << " " << (c.op == ReduceOp::Sum ? "sum" : "max");
  }
}

// ---- MiniMPI ------------------------------------------------------------------

std::uint64_t mpi_allreduce(int p, DataType dt, ReduceOp op) {
  // 12347 elements: above the recursive-doubling cutoff for both widths,
  // and uneven over the Rabenseifner blocks.
  constexpr std::size_t n = 12347;
  return run_world(1, p, [&](fabric::RankContext& ctx) {
    mini::Mpi mpi(ctx, ctx.profile().mpi);
    const auto in = seeded_input(dt, n, ctx.rank());
    std::vector<std::byte> out(in.size());
    mpi.allreduce(in.data(), out.data(), n, mini::Datatype{dt, 1}, op,
                  mpi.comm_world());
    return out;
  });
}

TEST(ReduceOrderPin, MpiRabenseifnerPow2) {
  expect_pinned([](DataType dt, ReduceOp op) { return mpi_allreduce(4, dt, op); },
                {8900498962944867741u, 10000427933831206341u, 2375842224501179685u,
                 12799791567985898925u});
}

TEST(ReduceOrderPin, MpiRabenseifnerFold) {
  expect_pinned([](DataType dt, ReduceOp op) { return mpi_allreduce(6, dt, op); },
                {11063737505989860037u, 14810102615626681477u, 15198401943788592785u,
                 10201974437612220641u});
}

TEST(ReduceOrderPin, MpiReduceScatterBlock) {
  constexpr std::size_t block = 3001;
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(1, 4, [&](fabric::RankContext& ctx) {
          mini::Mpi mpi(ctx, ctx.profile().mpi);
          const auto in = seeded_input(dt, block * 4, ctx.rank());
          std::vector<std::byte> out(block * datatype_size(dt));
          mpi.reduce_scatter_block(in.data(), out.data(), block,
                                   mini::Datatype{dt, 1}, op, mpi.comm_world());
          return out;
        });
      },
      {1411709946738612218u, 8777617805347111620u, 3668950436145980948u,
       15817781232391425900u});
}

// ---- CCL ring -----------------------------------------------------------------

/// Runs `body` with an NCCL-family backend joined on all ranks of 1x4.
std::uint64_t run_ccl(const std::function<std::vector<std::byte>(
                          xccl::CclBackend&, xccl::CclComm&, fabric::RankContext&)>&
                          body) {
  return run_world(1, 4, [&](fabric::RankContext& ctx) {
    auto backend = xccl::make_backend(xccl::CclKind::Nccl, ctx, ctx.profile().ccl);
    xccl::CclComm comm;
    const xccl::UniqueId id = xccl::UniqueId::derive(7, 1);
    EXPECT_EQ(backend->comm_init_rank(comm, ctx.size(), id, ctx.rank()),
              XcclResult::Success);
    auto out = body(*backend, comm, ctx);
    ctx.stream().synchronize(ctx.clock());
    return out;
  });
}

/// Ring allreduce of `n` elements (above the tree threshold for both widths).
std::uint64_t ccl_allreduce(std::size_t n, bool in_place, DataType dt,
                            ReduceOp op) {
  return run_ccl([&](xccl::CclBackend& b, xccl::CclComm& comm,
                     fabric::RankContext& ctx) {
    auto in = seeded_input(dt, n, ctx.rank());
    std::vector<std::byte> out(in.size());
    void* recv = in_place ? in.data() : out.data();
    EXPECT_EQ(b.all_reduce(in.data(), recv, n, dt, op, comm, ctx.stream()),
              XcclResult::Success);
    return in_place ? in : out;
  });
}

/// In place and out of place must agree bit for bit.
constexpr Pins kRingDivisible = {16993335993226950949u, 1371652298579195165u,
                                 3035984281051286021u, 10958594399218353429u};

TEST(ReduceOrderPin, CclRingAllreduceDivisible) {
  expect_pinned(
      [](DataType dt, ReduceOp op) { return ccl_allreduce(100000, false, dt, op); },
      kRingDivisible);
}

TEST(ReduceOrderPin, CclRingAllreducePadded) {
  expect_pinned(
      [](DataType dt, ReduceOp op) { return ccl_allreduce(100003, false, dt, op); },
      {16010129318386774349u, 2910890466725873565u, 2557541184697117173u,
       15107878138392546797u});
}

TEST(ReduceOrderPin, CclRingAllreduceInPlace) {
  expect_pinned(
      [](DataType dt, ReduceOp op) { return ccl_allreduce(100000, true, dt, op); },
      kRingDivisible);
}

TEST(ReduceOrderPin, CclRingReduce) {
  constexpr std::size_t n = 100003;
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_ccl([&](xccl::CclBackend& b, xccl::CclComm& comm,
                           fabric::RankContext& ctx) {
          const auto in = seeded_input(dt, n, ctx.rank());
          std::vector<std::byte> out(in.size());
          EXPECT_EQ(b.reduce(in.data(), out.data(), n, dt, op, 1, comm,
                             ctx.stream()),
                    XcclResult::Success);
          if (ctx.rank() != 1) out.clear();  // only the root's output is defined
          return out;
        });
      },
      {1211379818709410102u, 8959720559587145714u, 11977931997019391823u,
       12394947554799368492u});
}

TEST(ReduceOrderPin, CclRingReduceScatter) {
  constexpr std::size_t block = 25001;
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_ccl([&](xccl::CclBackend& b, xccl::CclComm& comm,
                           fabric::RankContext& ctx) {
          const auto in = seeded_input(dt, block * 4, ctx.rank());
          std::vector<std::byte> out(block * datatype_size(dt));
          EXPECT_EQ(b.reduce_scatter(in.data(), out.data(), block, dt, op, comm,
                                     ctx.stream()),
                    XcclResult::Success);
          return out;
        });
      },
      {6822429000017453973u, 16663745901390029644u, 5999384682921062775u,
       4227646549343865872u});
}

// ---- Hier -----------------------------------------------------------------------

enum class Recv { Device, Host, InPlace };

/// Hier allreduce of `n` elements on `nodes` x `dpn`, with the receive
/// buffer in device memory, in host memory, or aliased to a device sendbuf.
std::uint64_t hier_allreduce(int nodes, int dpn, std::size_t n, Recv where,
                             DataType dt, ReduceOp op) {
  return run_world(nodes, dpn, [&](fabric::RankContext& ctx) {
    mini::Mpi mpi(ctx, ctx.profile().mpi);
    hier::HierEngine engine(mpi);
    const auto in = seeded_input(dt, n, ctx.rank());
    const std::size_t bytes = in.size();
    device::DeviceBuffer dev_send(ctx.device(), bytes);
    device::DeviceBuffer dev_recv(ctx.device(), bytes);
    std::vector<std::byte> host_recv(bytes);
    std::memcpy(dev_send.get(), in.data(), bytes);
    void* recv = where == Recv::Device  ? dev_recv.get()
                 : where == Recv::Host  ? static_cast<void*>(host_recv.data())
                                        : dev_send.get();
    EXPECT_TRUE(engine.allreduce(dev_send.get(), recv, n, mini::Datatype{dt, 1}, op,
                                 mpi.comm_world()));
    std::vector<std::byte> out(bytes);
    std::memcpy(out.data(), recv, bytes);
    return out;
  });
}

/// The receive buffer's placement must not change a single output bit.
constexpr Pins kHierPipelined = {14628886036472913357u, 14215303390223841765u,
                                 13277621193285977781u, 7019526607078392101u};

// 300000 elements on 2x2 take the chunked pipelined schedule with no pad;
// 300001 add a pad.
TEST(ReduceOrderPin, HierPipelinedDeviceRecv) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return hier_allreduce(2, 2, 300000, Recv::Device, dt, op);
      },
      kHierPipelined);
}

TEST(ReduceOrderPin, HierPipelinedDeviceRecvPadded) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return hier_allreduce(2, 2, 300001, Recv::Device, dt, op);
      },
      {3599715243196295685u, 1709112400387328301u, 15219577886611652541u,
       13841627434074091381u});
}

TEST(ReduceOrderPin, HierPipelinedHostRecv) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return hier_allreduce(2, 2, 300000, Recv::Host, dt, op);
      },
      kHierPipelined);
}

TEST(ReduceOrderPin, HierPipelinedInPlace) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return hier_allreduce(2, 2, 300000, Recv::InPlace, dt, op);
      },
      kHierPipelined);
}

TEST(ReduceOrderPin, HierStagedNonPow2) {
  // 3 nodes x 2: the network dim is not a power of two.
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return hier_allreduce(3, 2, 20000, Recv::Device, dt, op);
      },
      {14266296702806471349u, 3491082767523183497u, 11073651972451259529u,
       6580383534722710213u});
}

}  // namespace
}  // namespace mpixccl
