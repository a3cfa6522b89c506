// Pins the exact output bytes of the bandwidth-bound reduction paths.
//
// Inputs are seeded non-integer values, so a Sum depends on the order in
// which contributions are combined. Each case hashes every rank's output
// (rank order) and compares it with a pinned value: a rewrite of the
// reduce-scatter data path (where the bytes land, which buffer is the
// working copy) must leave every hash unchanged, which proves that no
// reduction was reordered. Max is order-insensitive and guards the copies.
//
// VirtualTimePin also pins every rank's virtual clock after the call: moving
// a send or a receive onto another buffer must not change which link prices
// it (MiniMPI prices a transfer by the memory kind of its buffer).

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

using RankBody = std::function<std::vector<std::byte>(fabric::RankContext&)>;

/// The output hash over all ranks and each rank's virtual clock after the call.
struct Outcome {
  std::uint64_t hash = 0;
  std::vector<double> clocks;
};

/// Runs `body` on every rank of `nodes` x `dpn` thetagpu; each rank returns
/// its output bytes.
Outcome run_timed(int nodes, int dpn, const RankBody& body) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), nodes, dpn});
  const auto n = static_cast<std::size_t>(nodes * dpn);
  std::vector<std::vector<std::byte>> outs(n);
  Outcome o;
  o.clocks.resize(n);
  world.run([&](fabric::RankContext& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    outs[r] = body(ctx);
    o.clocks[r] = ctx.clock().now();
  });
  o.hash = hash_outputs(outs);
  return o;
}

std::uint64_t run_world(int nodes, int dpn, const RankBody& body) {
  return run_timed(nodes, dpn, body).hash;
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

/// MiniMPI reduce_scatter_block on 2x2 with both buffers in device memory.
/// Ranks arrive staggered, so an eager send's own completion (its injection
/// cost, priced by memory kind) can outlast the receive it pairs with and
/// set the rank's clock.
RankBody mpi_rsb_device(std::size_t block, DataType dt, ReduceOp op) {
  return [=](fabric::RankContext& ctx) {
    mini::Mpi mpi(ctx, ctx.profile().mpi);
    ctx.clock().advance(5.0 * ctx.rank());
    const auto in = seeded_input(dt, block * static_cast<std::size_t>(ctx.size()),
                                 ctx.rank());
    const std::size_t out_bytes = block * datatype_size(dt);
    device::DeviceBuffer send(ctx.device(), in.size());
    device::DeviceBuffer recv(ctx.device(), out_bytes);
    std::memcpy(send.get(), in.data(), in.size());
    mpi.reduce_scatter_block(send.get(), recv.get(), block, mini::Datatype{dt, 1},
                             op, mpi.comm_world());
    std::vector<std::byte> out(out_bytes);
    std::memcpy(out.data(), recv.get(), out_bytes);
    return out;
  };
}

// 1000 elements are an eager block for both widths, 30001 a rendezvous one.
constexpr std::size_t kEagerBlock = 1000;
constexpr std::size_t kRendezvousBlock = 30001;
constexpr Pins kMpiRsbEager = {6516453947214676815u, 1245776074982346067u,
                               11336169414588253540u, 12349861813323295669u};
constexpr Pins kMpiRsbRendezvous = {3546762309307014109u, 3553116310575008702u,
                                    8936908880480244961u, 4023947203408775878u};

TEST(ReduceOrderPin, MpiReduceScatterBlockDeviceEager) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(2, 2, mpi_rsb_device(kEagerBlock, dt, op));
      },
      kMpiRsbEager);
}

TEST(ReduceOrderPin, MpiReduceScatterBlockDeviceRendezvous) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(2, 2, mpi_rsb_device(kRendezvousBlock, dt, op));
      },
      kMpiRsbRendezvous);
}

// ---- CCL ring -----------------------------------------------------------------

using CclBody = std::function<std::vector<std::byte>(
    xccl::CclBackend&, xccl::CclComm&, fabric::RankContext&)>;

/// Wraps `body` with an NCCL-family backend joined on every rank; the clock
/// is read after the stream drains.
RankBody with_ccl(const CclBody& body) {
  return [body](fabric::RankContext& ctx) {
    auto backend = xccl::make_backend(xccl::CclKind::Nccl, ctx, ctx.profile().ccl);
    xccl::CclComm comm;
    const xccl::UniqueId id = xccl::UniqueId::derive(7, 1);
    EXPECT_EQ(backend->comm_init_rank(comm, ctx.size(), id, ctx.rank()),
              XcclResult::Success);
    auto out = body(*backend, comm, ctx);
    ctx.stream().synchronize(ctx.clock());
    return out;
  };
}

/// Runs `body` with an NCCL-family backend joined on all ranks of 1x4.
std::uint64_t run_ccl(const CclBody& body) { return run_world(1, 4, with_ccl(body)); }

/// Ring allreduce of `n` elements (above the tree threshold for both widths).
CclBody ccl_allreduce_body(std::size_t n, bool in_place, DataType dt, ReduceOp op) {
  return [=](xccl::CclBackend& b, xccl::CclComm& comm, fabric::RankContext& ctx) {
    auto in = seeded_input(dt, n, ctx.rank());
    std::vector<std::byte> out(in.size());
    void* recv = in_place ? in.data() : out.data();
    EXPECT_EQ(b.all_reduce(in.data(), recv, n, dt, op, comm, ctx.stream()),
              XcclResult::Success);
    return in_place ? in : out;
  };
}

std::uint64_t ccl_allreduce(std::size_t n, bool in_place, DataType dt,
                            ReduceOp op) {
  return run_ccl(ccl_allreduce_body(n, in_place, dt, op));
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

/// CCL reduce_scatter of `block` elements per rank; in place is NCCL's
/// recvbuf == sendbuf + rank * block.
CclBody ccl_reduce_scatter_body(std::size_t block, bool in_place, DataType dt,
                                ReduceOp op) {
  return [=](xccl::CclBackend& b, xccl::CclComm& comm, fabric::RankContext& ctx) {
    auto in = seeded_input(dt, block * static_cast<std::size_t>(ctx.size()),
                           ctx.rank());
    const std::size_t out_bytes = block * datatype_size(dt);
    std::vector<std::byte> out(out_bytes);
    std::byte* recv =
        in_place ? in.data() + static_cast<std::size_t>(ctx.rank()) * out_bytes
                 : out.data();
    EXPECT_EQ(b.reduce_scatter(in.data(), recv, block, dt, op, comm, ctx.stream()),
              XcclResult::Success);
    std::memcpy(out.data(), recv, out_bytes);
    return out;
  };
}

constexpr std::size_t kRsBlock = 25001;

std::uint64_t ccl_reduce_scatter(int p, bool in_place, DataType dt, ReduceOp op) {
  return run_world(1, p, with_ccl(ccl_reduce_scatter_body(kRsBlock, in_place, dt, op)));
}

/// In place and out of place must agree bit for bit.
constexpr Pins kRingReduceScatter = {6822429000017453973u, 16663745901390029644u,
                                     5999384682921062775u, 4227646549343865872u};
constexpr Pins kRingReduceScatterP2 = {15005059483890445834u, 3953047770868690024u,
                                       11210743101695277234u, 17913899227069298952u};

TEST(ReduceOrderPin, CclRingReduceScatter) {
  expect_pinned(
      [](DataType dt, ReduceOp op) { return ccl_reduce_scatter(4, false, dt, op); },
      kRingReduceScatter);
}

TEST(ReduceOrderPin, CclRingReduceScatterInPlace) {
  expect_pinned(
      [](DataType dt, ReduceOp op) { return ccl_reduce_scatter(4, true, dt, op); },
      kRingReduceScatter);
}

TEST(ReduceOrderPin, CclRingReduceScatterP2) {
  expect_pinned(
      [](DataType dt, ReduceOp op) { return ccl_reduce_scatter(2, false, dt, op); },
      kRingReduceScatterP2);
}

TEST(ReduceOrderPin, CclRingReduceScatterInPlaceP2) {
  expect_pinned(
      [](DataType dt, ReduceOp op) { return ccl_reduce_scatter(2, true, dt, op); },
      kRingReduceScatterP2);
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

// ---- Virtual time -------------------------------------------------------------

/// Float32 Sum through `body` on `nodes` x `dpn`: pins the output hash and
/// every rank's clock, exactly.
void expect_timed(int nodes, int dpn, const RankBody& body, std::uint64_t hash,
                  const std::vector<double>& clocks) {
  const Outcome o = run_timed(nodes, dpn, body);
  EXPECT_EQ(o.hash, hash);
  ASSERT_EQ(o.clocks.size(), clocks.size());
  for (std::size_t r = 0; r < clocks.size(); ++r) {
    EXPECT_EQ(o.clocks[r], clocks[r]) << "rank " << r;
  }
}

constexpr DataType kF32 = DataType::Float32;
constexpr ReduceOp kSum = ReduceOp::Sum;

// Hashes reuse the Float32 Sum entries of the ReduceOrderPin sets above.
TEST(VirtualTimePin, MpiReduceScatterBlockDeviceEager) {
  expect_timed(2, 2, mpi_rsb_device(kEagerBlock, kF32, kSum), kMpiRsbEager[0],
               {0x1.db33333333332p+4, 0x1.e28a8a8a8a8a7p+4, 0x1.f0f0f0f0f0f0dp+4,
                0x1.b79f9f9f9f9f9p+4});
}

TEST(VirtualTimePin, MpiReduceScatterBlockDeviceRendezvous) {
  expect_timed(2, 2, mpi_rsb_device(kRendezvousBlock, kF32, kSum),
               kMpiRsbRendezvous[0],
               {0x1.4667ef9db22d1p+6, 0x1.2ece560418937p+6, 0x1.2ece560418937p+6,
                0x1.4667ef9db22d1p+6});
}

TEST(VirtualTimePin, CclRingAllreduceSeparateBuffers) {
  expect_timed(1, 4, with_ccl(ccl_allreduce_body(100000, false, kF32, kSum)),
               kRingDivisible[0], std::vector<double>(4, 0x1.345ea0e966b82p+10));
}

TEST(VirtualTimePin, CclReduceScatterP2) {
  expect_timed(1, 2, with_ccl(ccl_reduce_scatter_body(kRsBlock, false, kF32, kSum)),
               kRingReduceScatterP2[0], std::vector<double>(2, 0x1.32151b4c00277p+10));
}

TEST(VirtualTimePin, CclReduceScatterInPlaceP2) {
  expect_timed(1, 2, with_ccl(ccl_reduce_scatter_body(kRsBlock, true, kF32, kSum)),
               kRingReduceScatterP2[0], std::vector<double>(2, 0x1.32151b4c00277p+10));
}

TEST(VirtualTimePin, CclReduceScatterP4) {
  expect_timed(1, 4, with_ccl(ccl_reduce_scatter_body(kRsBlock, false, kF32, kSum)),
               kRingReduceScatter[0], std::vector<double>(4, 0x1.32ff51e400765p+10));
}

TEST(VirtualTimePin, CclReduceScatterInPlaceP4) {
  expect_timed(1, 4, with_ccl(ccl_reduce_scatter_body(kRsBlock, true, kF32, kSum)),
               kRingReduceScatter[0], std::vector<double>(4, 0x1.32ff51e400765p+10));
}

}  // namespace
}  // namespace mpixccl
