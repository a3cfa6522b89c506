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

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "hier/hier.hpp"
#include "mpi/mpi.hpp"
#include "sim/profiles.hpp"
#include "sim/trace.hpp"
#include "xccl/backend.hpp"
#include "xccl/msccl.hpp"

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

/// MiniMPI allreduce of `n` elements.
RankBody mpi_allreduce_body(std::size_t n, DataType dt, ReduceOp op) {
  return [=](fabric::RankContext& ctx) {
    mini::Mpi mpi(ctx, ctx.profile().mpi);
    const auto in = seeded_input(dt, n, ctx.rank());
    std::vector<std::byte> out(in.size());
    mpi.allreduce(in.data(), out.data(), n, mini::Datatype{dt, 1}, op,
                  mpi.comm_world());
    return out;
  };
}

// 1000 elements are below the recursive-doubling cutoff for both widths;
// 12347 are above it, and uneven over the Rabenseifner blocks.
constexpr std::size_t kRdElems = 1000;
constexpr std::size_t kRabenseifnerElems = 12347;

std::uint64_t mpi_allreduce(int p, std::size_t n, DataType dt, ReduceOp op) {
  return run_world(1, p, mpi_allreduce_body(n, dt, op));
}

TEST(ReduceOrderPin, MpiRabenseifnerPow2) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return mpi_allreduce(4, kRabenseifnerElems, dt, op);
      },
      {8900498962944867741u, 10000427933831206341u, 2375842224501179685u,
       12799791567985898925u});
}

TEST(ReduceOrderPin, MpiRabenseifnerFold) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return mpi_allreduce(6, kRabenseifnerElems, dt, op);
      },
      {11063737505989860037u, 14810102615626681477u, 15198401943788592785u,
       10201974437612220641u});
}

// 1x8 walks three masks; 1x7 folds three rank pairs onto four.
constexpr Pins kMpiRdP8 = {15599482699020704245u, 9139236106521192597u,
                           592611167782241381u, 2554862324712750565u};
constexpr Pins kMpiRdFoldP7 = {12368417950569494676u, 11791311817226909849u,
                               13505338763125832075u, 16314724724167777164u};
constexpr Pins kMpiRabenseifnerP8 = {7602622749829631573u, 6769656348905107045u,
                                     16994624358295701717u, 14379141850028768757u};
constexpr Pins kMpiRabenseifnerFoldP7 = {1086597443419186814u, 2398030102270054023u,
                                         11301519404645808893u, 9835286503970669442u};

TEST(ReduceOrderPin, MpiRecursiveDoublingP8) {
  expect_pinned(
      [](DataType dt, ReduceOp op) { return mpi_allreduce(8, kRdElems, dt, op); },
      kMpiRdP8);
}

TEST(ReduceOrderPin, MpiRecursiveDoublingFoldP7) {
  expect_pinned(
      [](DataType dt, ReduceOp op) { return mpi_allreduce(7, kRdElems, dt, op); },
      kMpiRdFoldP7);
}

TEST(ReduceOrderPin, MpiRabenseifnerP8) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return mpi_allreduce(8, kRabenseifnerElems, dt, op);
      },
      kMpiRabenseifnerP8);
}

TEST(ReduceOrderPin, MpiRabenseifnerFoldP7) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return mpi_allreduce(7, kRabenseifnerElems, dt, op);
      },
      kMpiRabenseifnerFoldP7);
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

/// MiniMPI reduce of `n` elements to `root` (an uneven binomial tree on 1x5
/// and 1x6); only the root's output is defined.
RankBody mpi_reduce_body(std::size_t n, int root, DataType dt, ReduceOp op) {
  return [=](fabric::RankContext& ctx) {
    mini::Mpi mpi(ctx, ctx.profile().mpi);
    const auto in = seeded_input(dt, n, ctx.rank());
    std::vector<std::byte> out(in.size());
    mpi.reduce(in.data(), out.data(), n, mini::Datatype{dt, 1}, op, root,
               mpi.comm_world());
    if (ctx.rank() != root) out.clear();
    return out;
  };
}

/// MiniMPI scan of `n` elements on 1x5 (a linear chain).
RankBody mpi_scan_body(std::size_t n, DataType dt, ReduceOp op) {
  return [=](fabric::RankContext& ctx) {
    mini::Mpi mpi(ctx, ctx.profile().mpi);
    const auto in = seeded_input(dt, n, ctx.rank());
    std::vector<std::byte> out(in.size());
    mpi.scan(in.data(), out.data(), n, mini::Datatype{dt, 1}, op, mpi.comm_world());
    return out;
  };
}

constexpr std::size_t kTreeElems = 3001;
constexpr Pins kMpiReduceTree = {15880845989317456542u, 8673845274525843330u,
                                 5345842855434938898u, 14280479057098048172u};
constexpr Pins kMpiScanChain = {10059000799355118562u, 5173702143362568653u,
                                2207045433088129104u, 8232792322688631954u};

TEST(ReduceOrderPin, MpiReduceTree) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(1, 5, mpi_reduce_body(kTreeElems, 2, dt, op));
      },
      kMpiReduceTree);
}

TEST(ReduceOrderPin, MpiScanChain) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(1, 5, mpi_scan_body(kTreeElems, dt, op));
      },
      kMpiScanChain);
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

/// CCL reduce of `n` elements to `root`.
CclBody ccl_reduce_body(std::size_t n, DataType dt, ReduceOp op, int root = 1) {
  return [=](xccl::CclBackend& b, xccl::CclComm& comm, fabric::RankContext& ctx) {
    const auto in = seeded_input(dt, n, ctx.rank());
    std::vector<std::byte> out(in.size());
    EXPECT_EQ(b.reduce(in.data(), out.data(), n, dt, op, root, comm, ctx.stream()),
              XcclResult::Success);
    if (ctx.rank() != root) out.clear();  // only the root's output is defined
    return out;
  };
}

TEST(ReduceOrderPin, CclRingReduce) {
  expect_pinned(
      [](DataType dt, ReduceOp op) { return run_ccl(ccl_reduce_body(100003, dt, op)); },
      {1211379818709410102u, 8959720559587145714u, 11977931997019391823u,
       12394947554799368492u});
}

// kTreeElems elements are below the tree threshold for both widths; 1x5
// makes the binomial tree uneven.
constexpr Pins kCclTreeAllreduce = {7127452085818087874u, 3956607966774656522u,
                                    16876766965893994534u, 16389766665308531300u};
constexpr Pins kCclTreeReduce = {9589012821403678381u, 8673845274525843330u,
                                 4550085890181786588u, 14280479057098048172u};

TEST(ReduceOrderPin, CclTreeAllreduce) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(1, 5, with_ccl(ccl_allreduce_body(kTreeElems, false, dt, op)));
      },
      kCclTreeAllreduce);
}

TEST(ReduceOrderPin, CclTreeReduce) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(1, 5, with_ccl(ccl_reduce_body(kTreeElems, dt, op)));
      },
      kCclTreeReduce);
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

/// The level chain a hier case runs on: `levels` replaces the topology's
/// sub-node levels when not empty, and the engine must build `path` from it.
struct Chain {
  std::string levels;
  std::string path;
};

/// Hier allreduce of `n` elements, with the receive buffer in device memory,
/// in host memory, or aliased to a device sendbuf.
RankBody hier_allreduce_body(std::size_t n, Recv where, DataType dt, ReduceOp op,
                             const Chain& chain = {}) {
  return [=](fabric::RankContext& ctx) {
    mini::Mpi mpi(ctx, ctx.profile().mpi);
    hier::HierEngine engine(mpi);
    if (!chain.levels.empty()) engine.set_levels(chain.levels);
    if (!chain.path.empty()) {
      EXPECT_EQ(engine.prepare(mpi.comm_world()).level_path, chain.path);
    }
    const auto in = seeded_input(dt, n, ctx.rank());
    const std::size_t bytes = in.size();
    device::DeviceBuffer dev_send(ctx.device(), bytes);
    device::DeviceBuffer dev_recv(ctx.device(), bytes);
    std::vector<std::byte> host_recv(bytes);
    std::memcpy(dev_send.get(), in.data(), bytes);
    void* recv = where == Recv::Device  ? dev_recv.get()
                 : where == Recv::Host  ? static_cast<void*>(host_recv.data())
                                        : dev_send.get();
    EXPECT_TRUE(engine.allreduce(engine.prepare(mpi.comm_world()), dev_send.get(), recv,
                                 n, mini::Datatype{dt, 1}, op, mpi.comm_world()));
    std::vector<std::byte> out(bytes);
    std::memcpy(out.data(), recv, bytes);
    return out;
  };
}

std::uint64_t hier_allreduce(int nodes, int dpn, std::size_t n, Recv where,
                             DataType dt, ReduceOp op) {
  return run_world(nodes, dpn, hier_allreduce_body(n, where, dt, op));
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

// 2x4 walks two masks on dim 0 (node(4)); 2^19 elements split into four
// chunks, and one more element pads every chunk. 2x8 under a socket:2,numa:2
// spec walks a chain of four dims.
constexpr std::size_t kPipeElems = std::size_t{1} << 19;
const Chain k2x4{"", "node(4).net(2)"};
const Chain kFourDims{"socket:2,numa:2", "numa(2).socket(2).node(2).net(2)"};
constexpr Pins kHierPipelined2x4 = {11875441484696932741u, 11399770090942268885u,
                                    616364365949862741u, 6679937247721013317u};
constexpr Pins kHierPipelined2x4Padded = {15590091891334382197u, 6829828722833790741u,
                                          6484586584836593029u, 10053445762270210853u};
constexpr Pins kHierPipelinedFourDims = {1465468185045922981u, 14891318781833148165u,
                                         14341213804957728933u, 8173421678603633317u};

TEST(ReduceOrderPin, HierPipelined2x4) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(2, 4,
                         hier_allreduce_body(kPipeElems, Recv::Device, dt, op, k2x4));
      },
      kHierPipelined2x4);
}

TEST(ReduceOrderPin, HierPipelined2x4Padded) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(
            2, 4, hier_allreduce_body(kPipeElems + 1, Recv::Device, dt, op, k2x4));
      },
      kHierPipelined2x4Padded);
}

TEST(ReduceOrderPin, HierPipelinedFourDims) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(
            2, 8, hier_allreduce_body(kPipeElems, Recv::Device, dt, op, kFourDims));
      },
      kHierPipelinedFourDims);
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
    EXPECT_EQ(o.clocks[r], clocks[r]) << "rank " << r << ": " << std::hexfloat
                                      << o.clocks[r];
  }
}

constexpr DataType kF32 = DataType::Float32;
constexpr ReduceOp kSum = ReduceOp::Sum;

// Hashes reuse the Float32 Sum entries of the ReduceOrderPin sets above.
TEST(VirtualTimePin, MpiReduceScatterBlockDeviceEager) {
  expect_timed(2, 2, mpi_rsb_device(kEagerBlock, kF32, kSum), kMpiRsbEager[0],
               {0x1.db33333333332p+4, 0x1.e28a8a8a8a8a7p+4,
                0x1.f0f0f0f0f0f0dp+4,
                0x1.b79f9f9f9f9f9p+4});
}

TEST(VirtualTimePin, MpiReduceScatterBlockDeviceRendezvous) {
  expect_timed(2, 2, mpi_rsb_device(kRendezvousBlock, kF32, kSum),
               kMpiRsbRendezvous[0],
               {0x1.4667ef9db22d1p+6, 0x1.2ece560418937p+6,
                0x1.2ece560418937p+6,
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

TEST(VirtualTimePin, MpiReduceTree) {
  expect_timed(1, 5, mpi_reduce_body(kTreeElems, 2, kF32, kSum), kMpiReduceTree[0],
               {0x1.6666666666666p+0, 0x1.6666666666666p+0,
                0x1.ccdd2f1a9fbe8p+2,
                0x1.6666666666666p+0,
                0x1.e671529a485cdp+1});
}

TEST(VirtualTimePin, MpiScanChain) {
  expect_timed(1, 5, mpi_scan_body(kTreeElems, kF32, kSum), kMpiScanChain[0],
               {0x1.6666666666666p+0, 0x1.e671529a485cdp+1,
                0x1.8cd7b900aec34p+2,
                0x1.133b645a1cac1p+3,
                0x1.333e1f671529bp+3});
}

TEST(VirtualTimePin, CclTreeAllreduce) {
  expect_timed(1, 5, with_ccl(ccl_allreduce_body(kTreeElems, false, kF32, kSum)),
               kCclTreeAllreduce[0], {0x1.3341a37daeb8ep+10, 0x1.3341a37daeb8ep+10,
                                      0x1.3341a37daeb8ep+10, 0x1.3341a37daeb8ep+10,
    0x1.32b66cfe747b4p+10});
}

TEST(VirtualTimePin, CclTreeReduce) {
  expect_timed(1, 5, with_ccl(ccl_reduce_body(kTreeElems, kF32, kSum)),
               kCclTreeReduce[0], {0x1.3270d1bed75c7p+10, 0x1.3270d1bed75c7p+10,
                                   0x1.31e59b3f9d1edp+10, 0x1.322b367f3a3dap+10,
    0x1.31e59b3f9d1edp+10});
}

// ---- Butterfly walks ------------------------------------------------------------
// MiniMPI's recursive doubling and Rabenseifner, and the hier engine's
// pipelined allreduce, walk one butterfly. These pin the clocks of walks with
// more than one mask per dim, a fold of three rank pairs, and every
// pipelined chain shape above.

TEST(VirtualTimePin, MpiRecursiveDoublingP8) {
  expect_timed(1, 8, mpi_allreduce_body(kRdElems, kF32, kSum), kMpiRdP8[0],
               std::vector<double>(8, 0x1.f99999999999ap+2));
}

TEST(VirtualTimePin, MpiRecursiveDoublingFoldP7) {
  expect_timed(1, 7, mpi_allreduce_body(kRdElems, kF32, kSum), kMpiRdFoldP7[0],
               {0x1.0cccccccccccdp+3, 0x1.0222222222222p+3, 0x1.1777777777778p+3,
                0x1.0cccccccccccdp+3, 0x1.1777777777778p+3, 0x1.0cccccccccccdp+3,
                0x1.cp+2});
}

TEST(VirtualTimePin, MpiRabenseifnerP8) {
  expect_timed(1, 8, mpi_allreduce_body(kRabenseifnerElems, kF32, kSum),
               kMpiRabenseifnerP8[0],
               {0x1.96740da740da6p+4, 0x1.9676c8b43958p+4, 0x1.967983c131d5ap+4,
                0x1.967983c131d5ap+4, 0x1.96740da740da6p+4, 0x1.9676c8b43958p+4,
                0x1.967983c131d5ap+4, 0x1.967983c131d5ap+4});
}

TEST(VirtualTimePin, MpiRabenseifnerFoldP7) {
  expect_timed(1, 7, mpi_allreduce_body(kRabenseifnerElems, kF32, kSum),
               kMpiRabenseifnerFoldP7[0],
               {0x1.19a485cd7b9p+5, 0x1.19a485cd7b9p+5, 0x1.19a3d70a3d709p+5,
                0x1.19a3d70a3d709p+5, 0x1.19a485cd7b9p+5, 0x1.19a485cd7b9p+5,
                0x1.b7d44f3078262p+4});
}

TEST(VirtualTimePin, HierPipelined2x2) {
  expect_timed(2, 2, hier_allreduce_body(300000, Recv::Device, kF32, kSum),
               kHierPipelined[0], std::vector<double>(4, 0x1.1c73ba2086ed7p+7));
}

TEST(VirtualTimePin, HierPipelined2x4) {
  expect_timed(2, 4, hier_allreduce_body(kPipeElems, Recv::Device, kF32, kSum, k2x4),
               kHierPipelined2x4[0], std::vector<double>(8, 0x1.89559071b967bp+7));
}

TEST(VirtualTimePin, HierPipelined2x4Padded) {
  expect_timed(2, 4,
               hier_allreduce_body(kPipeElems + 1, Recv::Device, kF32, kSum, k2x4),
               kHierPipelined2x4Padded[0],
               std::vector<double>(8, 0x1.8957575757578p+7));
}

TEST(VirtualTimePin, HierPipelinedFourDims) {
  expect_timed(2, 8,
               hier_allreduce_body(kPipeElems, Recv::Device, kF32, kSum, kFourDims),
               kHierPipelinedFourDims[0],
               std::vector<double>(16, 0x1.b431ef6003db5p+7));
}

// ---- Tree and ring schedules shared by several collectives ---------------------
// Bcast, reduce and the tree allreduce walk one binomial tree; allgather, the
// ring allreduce and the ring reduce walk one ring. These pin the clocks of
// the walks the cases above leave unpinned: non-power-of-two trees with a
// nonzero root, and the ring allgather on its own.

/// CCL broadcast of `n` floats from `root` (below the tree threshold).
CclBody ccl_bcast_body(std::size_t n, int root) {
  return [=](xccl::CclBackend& b, xccl::CclComm& comm, fabric::RankContext& ctx) {
    auto buf = seeded_input(kF32, n, ctx.rank());
    EXPECT_EQ(b.broadcast(buf.data(), n, kF32, root, comm, ctx.stream()),
              XcclResult::Success);
    return buf;
  };
}

/// CCL allgather of `block` floats per rank.
CclBody ccl_allgather_body(std::size_t block) {
  return [=](xccl::CclBackend& b, xccl::CclComm& comm, fabric::RankContext& ctx) {
    const auto in = seeded_input(kF32, block, ctx.rank());
    std::vector<std::byte> out(in.size() * static_cast<std::size_t>(ctx.size()));
    EXPECT_EQ(b.all_gather(in.data(), out.data(), block, kF32, comm, ctx.stream()),
              XcclResult::Success);
    return out;
  };
}

/// MiniMPI broadcast of `n` floats from `root`.
RankBody mpi_bcast_body(std::size_t n, int root) {
  return [=](fabric::RankContext& ctx) {
    mini::Mpi mpi(ctx, ctx.profile().mpi);
    auto buf = seeded_input(kF32, n, ctx.rank());
    mpi.bcast(buf.data(), n, mini::Datatype{kF32, 1}, root, mpi.comm_world());
    return buf;
  };
}

TEST(VirtualTimePin, CclTreeBcastRoot3) {
  expect_timed(1, 5, with_ccl(ccl_bcast_body(kTreeElems, 3)), 9430688217020027311u,
               {0x1.3270d1bed75c7p+10, 0x1.3270d1bed75c7p+10, 0x1.31e59b3f9d1edp+10,
                0x1.3270d1bed75c7p+10, 0x1.3270d1bed75c7p+10});
}

TEST(VirtualTimePin, CclRingAllgatherP3) {
  expect_timed(1, 3, with_ccl(ccl_allgather_body(5000)), 13779001312133207524u,
               std::vector<double>(3, 0x1.323f7b5e11168p+10));
}

TEST(VirtualTimePin, CclRingAllgatherP4) {
  expect_timed(1, 4, with_ccl(ccl_allgather_body(5000)), 13710298797204370725u,
               std::vector<double>(4, 0x1.328f390d19a1cp+10));
}

TEST(VirtualTimePin, CclRingReduceRoot2) {
  expect_timed(1, 4, with_ccl(ccl_reduce_body(100003, kF32, kSum, 2)),
               1211379818709410102u,
               {0x1.33746d30009dcp+10, 0x1.33e9887c00c53p+10, 0x1.345ea3c800ecap+10,
                0x1.345ea3c800ecap+10});
}

TEST(VirtualTimePin, MpiTreeBcastRoot3) {
  expect_timed(1, 5, mpi_bcast_body(kTreeElems, 3), 9430688217020027311u,
               {0x1.4cd242e6bdc8p+2, 0x1.8cd7b900aec34p+2, 0x1.333e1f671529ap+1,
                0x1.0ccccccccccccp+2, 0x1.4cd242e6bdc8p+2});
}

TEST(VirtualTimePin, MpiTreeReduceP6Root5) {
  expect_timed(1, 6, mpi_reduce_body(kTreeElems, 5, kF32, kSum), 12536753764802874765u,
               {0x1.6666666666666p+0, 0x1.e671529a485cdp+1, 0x1.6666666666666p+0,
                0x1.e671529a485cdp+1, 0x1.6666666666666p+0, 0x1.ccdd2f1a9fbe8p+2});
}

// ---- CCL point-to-point outside a group ---------------------------------------
// A lone send or recv is priced like a group of one: one launch, a start at
// max(clock, stream tail), and a receive that shares its link with nothing.

/// Rank 0 sends `n` floats to rank 1 with a lone CCL send; rank 1 receives
/// them with a lone recv.
CclBody ccl_send_recv_body(std::size_t n) {
  return [=](xccl::CclBackend& b, xccl::CclComm& comm, fabric::RankContext& ctx) {
    auto buf = seeded_input(kF32, n, ctx.rank());
    const XcclResult r =
        ctx.rank() == 0 ? b.send(buf.data(), n, kF32, 1, comm, ctx.stream())
                        : b.recv(buf.data(), n, kF32, 0, comm, ctx.stream());
    EXPECT_EQ(r, XcclResult::Success);
    return buf;
  };
}

// 1024 floats (4 KiB) are below MiniMPI's eager threshold; 262144 floats
// (1 MiB) are a rendezvous-sized transfer that both ends of the match move.
TEST(VirtualTimePin, CclLoneSendRecvIntraEager) {
  expect_timed(1, 2, with_ccl(ccl_send_recv_body(1024)), 3588488042480741285u,
               std::vector<double>(2, 0x1.32fb8355bc721p+10));
}

TEST(VirtualTimePin, CclLoneSendRecvIntraRendezvous) {
  expect_timed(1, 2, with_ccl(ccl_send_recv_body(262144)), 7245092183247821389u,
               std::vector<double>(2, 0x1.34e355bc720b8p+10));
}

TEST(VirtualTimePin, CclLoneSendRecvInterEager) {
  expect_timed(2, 1, with_ccl(ccl_send_recv_body(1024)), 3588488042480741285u,
               std::vector<double>(2, 0x1.332e5p+10));
}

TEST(VirtualTimePin, CclLoneSendRecvInterRendezvous) {
  expect_timed(2, 1, with_ccl(ccl_send_recv_body(262144)), 7245092183247821389u,
               std::vector<double>(2, 0x1.417p+10));
}

// ---- MiniMPI under mixed memory kinds --------------------------------------
// Each call runs twice on ranks entering 5 us apart: send buffers in host
// memory with receive buffers in device memory, then the reverse. MiniMPI
// prices a send by the kind of the buffer it sends from (call-local scratch
// is host memory) and a receive by the kind of either caller buffer, so
// moving a step onto another buffer, or pricing it by another buffer's kind,
// moves a clock.

/// One caller buffer of `bytes`, in host or device memory.
class CallerBuf {
 public:
  CallerBuf(fabric::RankContext& ctx, std::size_t bytes, bool device)
      : bytes_(bytes), host_(device ? 0 : bytes) {
    if (device) dev_ = device::DeviceBuffer(ctx.device(), bytes);
  }
  [[nodiscard]] std::byte* get() {
    return dev_.size() > 0 ? static_cast<std::byte*>(dev_.get()) : host_.data();
  }
  [[nodiscard]] std::vector<std::byte> read() { return {get(), get() + bytes_}; }

 private:
  std::size_t bytes_;
  device::DeviceBuffer dev_;
  std::vector<std::byte> host_;
};

/// One MiniMPI call over a float send buffer and a float receive buffer.
/// An in-place call has only the receive buffer, which starts with the
/// rank's input, and alternates its kind by rank.
struct MixedCall {
  std::size_t send_elems = 0;
  std::size_t recv_elems = 0;
  std::function<void(mini::Mpi&, const float* send, float* recv, int rank)> run;
  bool in_place = false;
};

RankBody mixed(const MixedCall& call, bool send_device) {
  return [=](fabric::RankContext& ctx) {
    mini::Mpi mpi(ctx, ctx.profile().mpi);
    ctx.clock().advance(5.0 * ctx.rank());
    const bool recv_device = call.in_place ? send_device == (ctx.rank() % 2 == 0)
                                           : !send_device;
    const std::size_t send_elems = call.in_place ? 0 : call.send_elems;
    const auto in = seeded_input(kF32, send_elems, ctx.rank());
    CallerBuf send(ctx, std::max<std::size_t>(in.size(), 1), send_device);
    CallerBuf recv(ctx, call.recv_elems * sizeof(float), recv_device);
    if (call.in_place) {
      const auto own = seeded_input(kF32, call.recv_elems, ctx.rank());
      std::memcpy(recv.get(), own.data(), own.size());
    } else {
      std::memcpy(send.get(), in.data(), in.size());
      std::memset(recv.get(), 0, call.recv_elems * sizeof(float));
    }
    call.run(mpi, reinterpret_cast<const float*>(send.get()),
             reinterpret_cast<float*>(recv.get()), ctx.rank());
    return recv.read();
  };
}

struct TimedPin {
  std::uint64_t hash;
  std::vector<double> clocks;
};

/// Pins `call` on `nodes` x `dpn` with host send buffers, then device ones.
void expect_mixed(int nodes, int dpn, const MixedCall& call, const TimedPin& host_send,
                  const TimedPin& device_send) {
  {
    SCOPED_TRACE("host send, device receive");
    expect_timed(nodes, dpn, mixed(call, false), host_send.hash, host_send.clocks);
  }
  {
    SCOPED_TRACE("device send, host receive");
    expect_timed(nodes, dpn, mixed(call, true), device_send.hash, device_send.clocks);
  }
}

using mini::kFloat;

MixedCall allreduce_call(std::size_t n) {
  return {n, n, [n](mini::Mpi& m, const float* s, float* r, int) {
            m.allreduce(s, r, n, kFloat, kSum, m.comm_world());
          }};
}

MixedCall reduce_call(std::size_t n, int root) {
  return {n, n, [n, root](mini::Mpi& m, const float* s, float* r, int) {
            m.reduce(s, r, n, kFloat, kSum, root, m.comm_world());
          }};
}

/// Per-rank counts and their prefix displacements.
struct VBlocks {
  std::vector<std::size_t> counts, displs;
  std::size_t total = 0;
  explicit VBlocks(std::vector<std::size_t> c) : counts(std::move(c)) {
    for (const std::size_t n : counts) {
      displs.push_back(total);
      total += n;
    }
  }
};

const VBlocks& ragged() {
  static const VBlocks v({100, 2000, 300, 5000});
  return v;
}

// 1000 floats are below the recursive-doubling cutoff, 12347 above it; 1x3
// folds one rank pair.
TEST(VirtualTimePin, MpiMixedAllreduceRd) {
  expect_mixed(2, 2, allreduce_call(1000),
               {2742731009051984613u,
                {0x1.98f0f0f0f0f0ep+4, 0x1.97fffffffffffp+4, 0x1.90f0f0f0f0f0ep+4,
                 0x1.8ffffffffffffp+4}},
               {2742731009051984613u,
                {0x1.98f0f0f0f0f0ep+4, 0x1.8a8a8a8a8a8a8p+4, 0x1.8a8a8a8a8a8a8p+4,
                 0x1.7c24242424242p+4}});
}

TEST(VirtualTimePin, MpiMixedAllreduceRdFold) {
  expect_mixed(1, 3, allreduce_call(1000),
               {5770488381969734759u,
                {0x1.337b7b7b7b7b8p+4, 0x1.328a8a8a8a8a9p+4, 0x1.ep+3}},
               {5770488381969734759u,
                {0x1.337b7b7b7b7b8p+4, 0x1.0757575757576p+4, 0x1.c6f6f6f6f6f7p+3}});
}

TEST(VirtualTimePin, MpiMixedAllreduceRabenseifner) {
  expect_mixed(2, 2, allreduce_call(12347),
               {8900498962944867741u,
                {0x1.6e0b71d83ea51p+5, 0x1.6f7f56609e0ebp+5, 0x1.6e0b71d83ea51p+5,
                 0x1.6f7f56609e0ebp+5}},
               {8900498962944867741u,
                {0x1.684c232d6adb8p+5, 0x1.6f7f56609e0ebp+5, 0x1.684c232d6adb8p+5,
                 0x1.6f7f56609e0ebp+5}});
}

TEST(VirtualTimePin, MpiMixedAllreduceRabenseifnerFold) {
  expect_mixed(1, 3, allreduce_call(12347),
               {5876252944310238512u,
                {0x1.116e59defdb6p+5, 0x1.116e59defdb6p+5, 0x1.b271005c857b4p+4}},
               {5876252944310238512u,
                {0x1.116e59defdb6p+5, 0x1.116e59defdb6p+5, 0x1.b271005c857b4p+4}});
}

TEST(VirtualTimePin, MpiMixedReduceRoot0) {
  expect_mixed(2, 2, reduce_call(5000, 0),
               {17969639183198319859u,
                {0x1.e64e4e4e4e4e4p+4, 0x1.730303030303p+3, 0x1.e64e4e4e4e4e4p+4,
                 0x1.5981818181818p+4}},
               {17969639183198319859u,
                {0x1.e64e4e4e4e4e4p+4, 0x1.730303030303p+3, 0x1.e64e4e4e4e4e4p+4,
                 0x1.5981818181818p+4}});
}

TEST(VirtualTimePin, MpiMixedReduceRoot3) {
  expect_mixed(2, 2, reduce_call(5000, 3),
               {1281943838460023547u,
                {0x1.7cccccccccccdp+4, 0x1.04ccccccccccdp+5, 0x1.2cccccccccccdp+4,
                 0x1.04ccccccccccdp+5}},
               {1281943838460023547u,
                {0x1.7cccccccccccdp+4, 0x1.04ccccccccccdp+5, 0x1.2cccccccccccdp+4,
                 0x1.04ccccccccccdp+5}});
}

TEST(VirtualTimePin, MpiMixedBcast) {
  const MixedCall call{0, 5000,
                       [](mini::Mpi& m, const float*, float* r, int) {
                         m.bcast(r, 5000, kFloat, 1, m.comm_world());
                       },
                       true};
  expect_mixed(2, 2, call,
               {9092511284856644253u,
                {0x1.dbbbbbbbbbbbcp+4, 0x1.dbbbbbbbbbbbcp+4, 0x1.dbbbbbbbbbbbcp+4,
                 0x1.dbbbbbbbbbbbcp+4}},
               {9092511284856644253u,
                {0x1.dbbbbbbbbbbbcp+4, 0x1.dbbbbbbbbbbbcp+4, 0x1.dbbbbbbbbbbbcp+4,
                 0x1.dbbbbbbbbbbbcp+4}});
}

MixedCall allgather_call(std::size_t block) {
  return {block, 4 * block, [block](mini::Mpi& m, const float* s, float* r, int) {
            m.allgather(s, block, kFloat, r, block, kFloat, m.comm_world());
          }};
}

// 4 x 250 floats gather by Bruck, 4 x 5000 by the ring.
TEST(VirtualTimePin, MpiMixedAllgatherBruck) {
  expect_mixed(2, 2, allgather_call(250),
               {17365209809169811701u,
                {0x1.943c3c3c3c3c3p+4, 0x1.8799999999999p+4, 0x1.85d5d5d5d5d5dp+4,
                 0x1.7933333333333p+4}},
               {17365209809169811701u,
                {0x1.943c3c3c3c3c3p+4, 0x1.8799999999999p+4, 0x1.85d5d5d5d5d5dp+4,
                 0x1.7933333333333p+4}});
}

TEST(VirtualTimePin, MpiMixedAllgatherRing) {
  expect_mixed(2, 2, allgather_call(5000),
               {13710298797204370725u,
                {0x1.60cccccccccccp+5, 0x1.4f27272727272p+5, 0x1.4f27272727272p+5,
                 0x1.60cccccccccccp+5}},
               {13710298797204370725u,
                {0x1.60cccccccccccp+5, 0x1.4f27272727272p+5, 0x1.4f27272727272p+5,
                 0x1.60cccccccccccp+5}});
}

TEST(VirtualTimePin, MpiMixedAllgatherv) {
  const VBlocks& v = ragged();
  const MixedCall call{5000, v.total, [&v](mini::Mpi& m, const float* s, float* r,
                                           int rank) {
                         m.allgatherv(s, v.counts[static_cast<std::size_t>(rank)], kFloat,
                                      r, v.counts, v.displs, kFloat, m.comm_world());
                       }};
  expect_mixed(2, 2, call,
               {1832735246720346029u,
                {0x1.2a5a5a5a5a5a6p+5, 0x1.4f27272727272p+5, 0x1.4f27272727272p+5,
                 0x1.1599999999999p+5}},
               {1832735246720346029u,
                {0x1.2a5a5a5a5a5a6p+5, 0x1.4f27272727272p+5, 0x1.4f27272727272p+5,
                 0x1.0830303030303p+5}});
}

TEST(VirtualTimePin, MpiMixedGather) {
  const MixedCall call{3000, 12000, [](mini::Mpi& m, const float* s, float* r, int) {
                         m.gather(s, 3000, kFloat, r, 3000, kFloat, 2, m.comm_world());
                       }};
  expect_mixed(2, 2, call,
               {607023239869051872u,
                {0x1.7333333333333p+1, 0x1.f99999999999ap+2, 0x1.346c6c6c6c6c7p+4,
                 0x1.0666666666666p+4}},
               {607023239869051872u,
                {0x1.0666666666667p+2, 0x1.2333333333334p+3, 0x1.346c6c6c6c6c7p+4,
                 0x1.319999999999ap+4}});
}

TEST(VirtualTimePin, MpiMixedGatherv) {
  const VBlocks& v = ragged();
  const MixedCall call{5000, v.total, [&v](mini::Mpi& m, const float* s, float* r,
                                           int rank) {
                         m.gatherv(s, v.counts[static_cast<std::size_t>(rank)], kFloat, r,
                                   v.counts, v.displs, kFloat, 1, m.comm_world());
                       }};
  expect_mixed(2, 2, call,
               {14205333813305501511u,
                {0x1.6666666666666p+0, 0x1.7cccccccccccdp+4, 0x1.9cccccccccccdp+3,
                 0x1.7cccccccccccdp+4}},
               {14205333813305501511u,
                {0x1.0666666666667p+2, 0x1.7cccccccccccdp+4, 0x1.c333333333334p+3,
                 0x1.7cccccccccccdp+4}});
}

TEST(VirtualTimePin, MpiMixedScatter) {
  const MixedCall call{12000, 3000, [](mini::Mpi& m, const float* s, float* r, int) {
                         m.scatter(s, 3000, kFloat, r, 3000, kFloat, 1, m.comm_world());
                       }};
  expect_mixed(2, 2, call,
               {4916195569984012607u,
                {0x1.28d8d8d8d8d8ep+3, 0x1.3666666666667p+3, 0x1.f333333333334p+3,
                 0x1.499999999999ap+4}},
               {4916195569984012607u,
                {0x1.d99999999999ap+2, 0x1.5cccccccccccep+3, 0x1.acccccccccccdp+3,
                 0x1.2666666666666p+4}});
}

TEST(VirtualTimePin, MpiMixedScatterv) {
  const VBlocks& v = ragged();
  const MixedCall call{v.total, 5000, [&v](mini::Mpi& m, const float* s, float* r,
                                           int rank) {
                         m.scatterv(s, v.counts, v.displs, kFloat, r,
                                    v.counts[static_cast<std::size_t>(rank)], kFloat, 2,
                                    m.comm_world());
                       }};
  expect_mixed(2, 2, call,
               {11526219996276165158u,
                {0x1.c4ccccccccccdp+3, 0x1p+4, 0x1.5981818181818p+4,
                 0x1.5981818181818p+4}},
               {11526219996276165158u,
                {0x1.9d55555555556p+3, 0x1.c444444444445p+3, 0x1.4444444444444p+4,
                 0x1.4444444444444p+4}});
}

MixedCall alltoall_call(std::size_t block, bool in_place) {
  return {4 * block, 4 * block,
          [block, in_place](mini::Mpi& m, const float* s, float* r, int) {
            m.alltoall(in_place ? mini::kInPlace : s, block, kFloat, r, block, kFloat,
                       m.comm_world());
          },
          in_place};
}

// 1000-float blocks are eager and posted at once; 5000-float blocks go
// pairwise. In place, every block is sent from a host snapshot.
TEST(VirtualTimePin, MpiMixedAlltoallEager) {
  expect_mixed(2, 2, alltoall_call(1000, false),
               {15224032413741900238u,
                {0x1.64cccccccccccp+4, 0x1.7333333333332p+4, 0x1.7a8a8a8a8a8a7p+4,
                 0x1.57fffffffffffp+4}},
               {15224032413741900238u,
                {0x1.64cccccccccccp+4, 0x1.7333333333332p+4, 0x1.7a8a8a8a8a8a7p+4,
                 0x1.7999999999998p+4}});
}

TEST(VirtualTimePin, MpiMixedAlltoallPairwise) {
  expect_mixed(2, 2, alltoall_call(5000, false),
               {4146521395482159432u,
                {0x1.60cccccccccccp+5, 0x1.60cccccccccccp+5, 0x1.60cccccccccccp+5,
                 0x1.60cccccccccccp+5}},
               {4146521395482159432u,
                {0x1.60cccccccccccp+5, 0x1.60cccccccccccp+5, 0x1.60cccccccccccp+5,
                 0x1.60cccccccccccp+5}});
}

TEST(VirtualTimePin, MpiMixedAlltoallInPlace) {
  expect_mixed(2, 2, alltoall_call(5000, true),
               {4146521395482159432u,
                {0x1.42aaaaaaaaaaap+5, 0x1.42aaaaaaaaaaap+5, 0x1.42aaaaaaaaaaap+5,
                 0x1.42aaaaaaaaaaap+5}},
               {4146521395482159432u,
                {0x1.49dddddddddddp+5, 0x1.49dddddddddddp+5, 0x1.49dddddddddddp+5,
                 0x1.49dddddddddddp+5}});
}

TEST(VirtualTimePin, MpiMixedAlltoallv) {
  // Rank s sends 500 * (1 + (s + 2d) % 4) floats to rank d.
  const auto count = [](int s, int d) {
    return static_cast<std::size_t>(500 * (1 + (s + 2 * d) % 4));
  };
  const MixedCall call{8000, 8000, [count](mini::Mpi& m, const float* s, float* r,
                                           int rank) {
                         std::vector<std::size_t> sc, sd, rc, rd;
                         std::size_t so = 0, ro = 0;
                         for (int peer = 0; peer < 4; ++peer) {
                           sc.push_back(count(rank, peer));
                           sd.push_back(so);
                           so += sc.back();
                           rc.push_back(count(peer, rank));
                           rd.push_back(ro);
                           ro += rc.back();
                         }
                         m.alltoallv(s, sc, sd, kFloat, r, rc, rd, kFloat,
                                     m.comm_world());
                       }};
  expect_mixed(2, 2, call,
               {13538730772980253913u,
                {0x1.6ccccccccccccp+4, 0x1.7333333333332p+4, 0x1.7b7b7b7b7b7b6p+4,
                 0x1.57fffffffffffp+4}},
               {13538730772980253913u,
                {0x1.6ccccccccccccp+4, 0x1.7333333333332p+4, 0x1.7b7b7b7b7b7b6p+4,
                 0x1.7999999999998p+4}});
}

TEST(VirtualTimePin, MpiMixedScan) {
  const MixedCall call{5000, 5000, [](mini::Mpi& m, const float* s, float* r, int) {
                         m.scan(s, r, 5000, kFloat, kSum, m.comm_world());
                       }};
  expect_mixed(2, 2, call,
               {2227181038239494711u,
                {0x1.730303030303p+3, 0x1.464e4e4e4e4e5p+4, 0x1.afcfcfcfcfcfdp+4,
                 0x1.afcfcfcfcfcfdp+4}},
               {2227181038239494711u,
                {0x1.730303030303p+3, 0x1.464e4e4e4e4e5p+4, 0x1.afcfcfcfcfcfdp+4,
                 0x1.afcfcfcfcfcfdp+4}});
}

TEST(VirtualTimePin, MpiMixedExscan) {
  const MixedCall call{5000, 5000, [](mini::Mpi& m, const float* s, float* r, int) {
                         m.exscan(s, r, 5000, kFloat, kSum, m.comm_world());
                       }};
  expect_mixed(2, 2, call,
               {4299216208507449872u,
                {0x1.730303030303p+3, 0x1.464e4e4e4e4e5p+4, 0x1.afcfcfcfcfcfdp+4,
                 0x1.afcfcfcfcfcfdp+4}},
               {4299216208507449872u,
                {0x1.730303030303p+3, 0x1.464e4e4e4e4e5p+4, 0x1.afcfcfcfcfcfdp+4,
                 0x1.afcfcfcfcfcfdp+4}});
}

// ---- Hier staged schedules ----------------------------------------------------
// The hier engine composes every collective but the pipelined allreduce from
// per-level stages. These pin the output bytes and every rank's clock of each
// composition, and, under tracing, the stage spans every rank closes: a
// rewrite of the schedules must issue the same stages, on the same dims, in
// the same order, under the same spans.

/// expect_timed with tracing on, which also pins the stage spans each rank
/// closes (name and level, in closing order, space-separated): every rank
/// closes the same ones.
void expect_staged(int nodes, int dpn, const RankBody& body, std::uint64_t hash,
                   const std::vector<double>& clocks, std::string_view spans) {
  sim::Trace& trace = sim::Trace::instance();
  trace.clear();
  sim::Trace::set_enabled(true);
  expect_timed(nodes, dpn, body, hash, clocks);
  sim::Trace::set_enabled(false);
  std::vector<std::string> got(static_cast<std::size_t>(nodes * dpn));
  for (const sim::TraceEvent& e : trace.events()) {
    if (!e.is_stage()) continue;
    std::string& s = got.at(static_cast<std::size_t>(e.rank));
    if (!s.empty()) s += ' ';
    s += e.name();
  }
  trace.clear();
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r], spans) << "rank " << r;
  }
}

/// One hier collective of `count` elements (per block for allgather and
/// reduce_scatter_block) on `chain`: seeded input in device memory, the
/// receive buffer zeroed in device or host memory. A bcast root's receive
/// buffer starts with its input.
struct HierCall {
  mini::Coll coll;
  std::size_t count;
  int root = 0;
  Chain chain{};
  Recv where = Recv::Device;
};

RankBody hier_body(const HierCall& call, DataType dt, ReduceOp op) {
  return [=](fabric::RankContext& ctx) {
    mini::Mpi mpi(ctx, ctx.profile().mpi);
    hier::HierEngine engine(mpi);
    if (!call.chain.levels.empty()) engine.set_levels(call.chain.levels);
    mini::Comm& comm = mpi.comm_world();
    hier::HierEngine::HierComms& hc = engine.prepare(comm);
    if (!call.chain.path.empty()) EXPECT_EQ(hc.level_path, call.chain.path);
    const auto p = static_cast<std::size_t>(ctx.size());
    const bool bcast = call.coll == mini::Coll::Bcast;
    const std::size_t send_elems =
        call.coll == mini::Coll::ReduceScatterBlock ? call.count * p : call.count;
    const std::size_t recv_elems =
        call.coll == mini::Coll::Allgather ? call.count * p : call.count;
    const auto in = seeded_input(dt, send_elems, ctx.rank());
    device::DeviceBuffer send(ctx.device(), in.size());
    std::memcpy(send.get(), in.data(), in.size());
    const std::size_t recv_bytes = recv_elems * datatype_size(dt);
    CallerBuf recv(ctx, recv_bytes, call.where == Recv::Device);
    std::memset(recv.get(), 0, recv_bytes);
    if (bcast && ctx.rank() == call.root) std::memcpy(recv.get(), in.data(), in.size());
    const mini::Datatype t{dt, 1};
    const mini::CollArgs a =
        mini::resolve({.coll = call.coll, .sendbuf = bcast ? nullptr : send.get(),
                       .recvbuf = recv.get(), .count = call.count, .dt = t,
                       .rcount = call.count, .rdt = t, .redop = op, .root = call.root},
                      comm);
    EXPECT_TRUE(engine.run(hc, a, comm));
    return recv.read();
  };
}

std::uint64_t hier_call(int nodes, int dpn, const HierCall& call, DataType dt,
                        ReduceOp op) {
  return run_world(nodes, dpn, hier_body(call, dt, op));
}

// Staged allreduce: 3x2 has a network dim of three; 2x4 runs 5 elements, fewer
// than its 8 ranks, over power-of-two dims; 3x8 under socket:2,numa:2
// reduce-scatters up three dims before the network allreduce.
const Chain kStagedThreeNodes{"socket:2,numa:2", "numa(2).socket(2).node(2).net(3)"};
constexpr std::size_t kFewElems = 5;
constexpr Pins kHierStagedFew = {14445194993870565557u, 7747830969163382725u,
                                  7961996953360630309u, 5493033881485969061u};
constexpr Pins kHierStagedDeep = {446013614538185477u, 1724528210974828789u,
                                   2932426471209046373u, 4459164138542489013u};

TEST(ReduceOrderPin, HierStagedFewerElemsThanRanks) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(2, 4,
                         hier_allreduce_body(kFewElems, Recv::Device, dt, op, k2x4));
      },
      kHierStagedFew);
}

TEST(ReduceOrderPin, HierStagedFourDims) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(
            3, 8, hier_allreduce_body(20000, Recv::Device, dt, op, kStagedThreeNodes));
      },
      kHierStagedDeep);
}

TEST(VirtualTimePin, HierStaged3x2) {
  expect_staged(3, 2, hier_allreduce_body(20000, Recv::Device, kF32, kSum),
                14266296702806471349u,
                {0x1.41861d2764d57p+6, 0x1.41861d2764d57p+6, 0x1.41861d2764d57p+6,
                 0x1.41861d2764d57p+6, 0x1.1452e9f431a23p+6, 0x1.1452e9f431a23p+6},
                "hier.comm_setup allreduce.rs.node allreduce.ar.net allreduce.ag.node");
}

TEST(VirtualTimePin, HierStagedFewerElemsThanRanks) {
  expect_staged(2, 4, hier_allreduce_body(kFewElems, Recv::Device, kF32, kSum, k2x4),
                kHierStagedFew[0],
                {0x1.a67215ecf7348p+5, 0x1.9f40ef037e5f9p+5, 0x1.a6742236b192bp+5,
                 0x1.9f41f5285b8ebp+5, 0x1.a67215ecf7348p+5, 0x1.9f40ef037e5f9p+5,
                 0x1.a6742236b192bp+5, 0x1.9f41f5285b8ebp+5},
                "hier.comm_setup allreduce.rs.node allreduce.ar.net allreduce.ag.node");
}

TEST(VirtualTimePin, HierStagedFourDims) {
  expect_staged(3, 8,
                hier_allreduce_body(20000, Recv::Device, kF32, kSum, kStagedThreeNodes),
                kHierStagedDeep[0],
                {0x1.09e1b39f24433p+7, 0x1.09e1b39f24433p+7, 0x1.09e1b39f24433p+7,
                 0x1.09e1b39f24433p+7, 0x1.09e2b9c401724p+7, 0x1.09e2b9c401724p+7,
                 0x1.09e2b9c401724p+7, 0x1.09e2b9c401724p+7, 0x1.0761b39f24433p+7,
                 0x1.0761b39f24433p+7, 0x1.0761b39f24433p+7, 0x1.0761b39f24433p+7,
                 0x1.0762b9c401724p+7, 0x1.0762b9c401724p+7, 0x1.0762b9c401724p+7,
                 0x1.0762b9c401724p+7, 0x1.00fb4d38bddccp+7, 0x1.00fb4d38bddccp+7,
                 0x1.00fb4d38bddccp+7, 0x1.00fb4d38bddccp+7, 0x1.00fc535d9b0bep+7,
                 0x1.00fc535d9b0bep+7, 0x1.00fc535d9b0bep+7, 0x1.00fc535d9b0bep+7},
                "hier.comm_setup allreduce.rs.numa allreduce.rs.socket "
                "allreduce.rs.node allreduce.ar.net allreduce.ag.node "
                "allreduce.ag.socket allreduce.ag.numa");
}

// Copy-in-copy-out: 1000 elements are below 8 KiB at both widths, on the
// four-dim 2x8 chain; the receive buffer in device memory, then host memory.
constexpr std::size_t kCicoElems = 1000;
constexpr Pins kHierCico = {17506299938572710053u, 383910846857822661u,
                             4608804275210532517u, 1692826046695610821u};

TEST(ReduceOrderPin, HierCicoDeviceRecv) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(
            2, 8, hier_allreduce_body(kCicoElems, Recv::Device, dt, op, kFourDims));
      },
      kHierCico);
}

TEST(ReduceOrderPin, HierCicoHostRecv) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return run_world(
            2, 8, hier_allreduce_body(kCicoElems, Recv::Host, dt, op, kFourDims));
      },
      kHierCico);
}

TEST(VirtualTimePin, HierCicoDeviceRecv) {
  expect_staged(2, 8,
                hier_allreduce_body(kCicoElems, Recv::Device, kF32, kSum, kFourDims),
                kHierCico[0],
                {0x1.6c60bce5db9e5p+6, 0x1.6c9cf92217da9p+6, 0x1.6c9cf92217da9p+6,
                 0x1.6cd9355e5416dp+6, 0x1.6c9cf92217da9p+6, 0x1.6cd9355e5416dp+6,
                 0x1.6cd9355e5416dp+6, 0x1.6d15719a90531p+6, 0x1.6c60bce5db9e5p+6,
                 0x1.6c9cf92217da9p+6, 0x1.6c9cf92217da9p+6, 0x1.6cd9355e5416dp+6,
                 0x1.6c9cf92217da9p+6, 0x1.6cd9355e5416dp+6, 0x1.6cd9355e5416dp+6,
                 0x1.6d15719a90531p+6},
                "hier.comm_setup allreduce.cico_reduce.numa "
                "allreduce.cico_reduce.socket allreduce.cico_reduce.node "
                "allreduce.cico_ar.net allreduce.cico_bcast.node "
                "allreduce.cico_bcast.socket allreduce.cico_bcast.numa");
}

TEST(VirtualTimePin, HierCicoHostRecv) {
  expect_staged(2, 8, hier_allreduce_body(kCicoElems, Recv::Host, kF32, kSum, kFourDims),
                kHierCico[0],
                {0x1.4bfa567f7537ep+6, 0x1.4d4fabd4ca8d3p+6, 0x1.4d4fabd4ca8d3p+6,
                 0x1.4ea5012a1fe28p+6, 0x1.4d4fabd4ca8d3p+6, 0x1.4ea5012a1fe28p+6,
                 0x1.4ea5012a1fe28p+6, 0x1.4ffa567f7537dp+6, 0x1.4bfa567f7537ep+6,
                 0x1.4d4fabd4ca8d3p+6, 0x1.4d4fabd4ca8d3p+6, 0x1.4ea5012a1fe28p+6,
                 0x1.4d4fabd4ca8d3p+6, 0x1.4ea5012a1fe28p+6, 0x1.4ea5012a1fe28p+6,
                 0x1.4ffa567f7537dp+6},
                "hier.comm_setup allreduce.cico_reduce.numa "
                "allreduce.cico_reduce.socket allreduce.cico_reduce.node "
                "allreduce.cico_ar.net allreduce.cico_bcast.node "
                "allreduce.cico_bcast.socket allreduce.cico_bcast.numa");
}

// Bcast from rank 11 of the four-dim 2x8 chain: 1000 floats take the leader
// chain; 20001 floats (above 64 KiB, and uneven over the 8 segments) take the
// scatter, the per-column network bcast and the reassembly allgather.
constexpr int kHierRoot = 11;

TEST(VirtualTimePin, HierLeaderBcast) {
  expect_staged(2, 8,
                hier_body({mini::Coll::Bcast, 1000, kHierRoot, kFourDims}, kF32, kSum),
                8289260473193010277u,
                {0x1.2dc1afc43f206p+6, 0x1.2d85738802e42p+6, 0x1.2d85738802e42p+6,
                 0x1.2d49374bc6a7ep+6, 0x1.2dfdec007b5cap+6, 0x1.2dc1afc43f206p+6,
                 0x1.2dc1afc43f206p+6, 0x1.2d85738802e42p+6, 0x1.2bc1afc43f206p+6,
                 0x1.2b85738802e42p+6, 0x1.2b85738802e42p+6, 0x1.2b49374bc6a7ep+6,
                 0x1.2bfdec007b5cap+6, 0x1.2bc1afc43f206p+6, 0x1.2bc1afc43f206p+6,
                 0x1.2b85738802e42p+6},
                "hier.comm_setup bcast.leader.net bcast.leader.node "
                "bcast.leader.socket bcast.leader.numa");
}

TEST(VirtualTimePin, HierMultiRootBcast) {
  expect_staged(2, 8,
                hier_body({mini::Coll::Bcast, 20001, kHierRoot, kFourDims}, kF32, kSum),
                16770634618224457829u,
                {0x1.9987b5ca45268p+6, 0x1.9a1e5bcc70476p+6, 0x1.9987b5ca45268p+6,
                 0x1.9a1e5bcc70476p+6, 0x1.9987b5ca45268p+6, 0x1.9a1e5bcc70476p+6,
                 0x1.9987b5ca45268p+6, 0x1.9a1e5bcc70476p+6, 0x1.948732b7d68fp+6,
                 0x1.951dd8ba01afep+6, 0x1.948732b7d68fp+6, 0x1.951dd8ba01afep+6,
                 0x1.948732b7d68fp+6, 0x1.951dd8ba01afep+6, 0x1.948732b7d68fp+6,
                 0x1.951dd8ba01afep+6},
                "hier.comm_setup bcast.scatter.node bcast.scatter.socket "
                "bcast.scatter.numa bcast.net bcast.ag.numa bcast.ag.socket "
                "bcast.ag.node");
}

// Reduce of 5000 elements to rank 11 of the four-dim 2x8 chain, whose
// receive buffer is host memory.
const HierCall kHierReduce{mini::Coll::Reduce, 5000, kHierRoot, kFourDims, Recv::Host};
constexpr Pins kHierReducePins = {3351551753258105940u, 11442777290590830546u,
                                   7535759240682429555u, 397323552537406352u};

TEST(ReduceOrderPin, HierReduceRoot11) {
  expect_pinned(
      [](DataType dt, ReduceOp op) { return hier_call(2, 8, kHierReduce, dt, op); },
      kHierReducePins);
}

TEST(VirtualTimePin, HierReduceRoot11) {
  expect_staged(2, 8, hier_body(kHierReduce, kF32, kSum),
                kHierReducePins[0],
                {0x1.0da3f5e166851p+6, 0x1.28045641c6e57p+6, 0x1.07a91499b8709p+6,
                 0x1.5a227ea79d5fdp+6, 0x1.0da6022b20e35p+6, 0x1.2806628b8143bp+6,
                 0x1.0a0d6eb66478dp+6, 0x1.4266c2ebe1a41p+6, 0x1.0da3f5e166851p+6,
                 0x1.22b506f277962p+6, 0x1.07a91499b8709p+6, 0x1.5a227ea79d5fdp+6,
                 0x1.0da6022b20e35p+6, 0x1.2806628b8143bp+6, 0x1.0a0d6eb66478dp+6,
                 0x1.3d17739c9254cp+6},
                "hier.comm_setup reduce.numa reduce.socket reduce.node reduce.net");
}

// Allgather and reduce_scatter_block of 300-element blocks on the four-dim
// 2x8 chain.
const HierCall kHierRsb{mini::Coll::ReduceScatterBlock, 300, 0, kFourDims};
constexpr Pins kHierRsbPins = {17237779197862394844u, 15507719278995253815u,
                                4004176705795671451u, 11544066700909902771u};

TEST(ReduceOrderPin, HierReduceScatterBlock) {
  expect_pinned(
      [](DataType dt, ReduceOp op) { return hier_call(2, 8, kHierRsb, dt, op); },
      kHierRsbPins);
}

TEST(VirtualTimePin, HierReduceScatterBlock) {
  expect_staged(2, 8, hier_body(kHierRsb, kF32, kSum),
                kHierRsbPins[0],
                {0x1.3daa8e656fad1p+6, 0x1.4143a4ec9aaf2p+6, 0x1.41429ec7bd8p+6,
                 0x1.44dc38615719ap+6, 0x1.3da6f8e469883p+6, 0x1.4140927e0321cp+6,
                 0x1.4140927e0321dp+6, 0x1.44da2c179cbb6p+6, 0x1.3daa8e656fad1p+6,
                 0x1.4143a4ec9aaf2p+6, 0x1.41429ec7bd8p+6, 0x1.44dc38615719ap+6,
                 0x1.3da6f8e469883p+6, 0x1.4140927e0321cp+6, 0x1.4140927e0321dp+6,
                 0x1.44da2c179cbb6p+6},
                "hier.comm_setup rs.numa rs.socket rs.node rs.net");
}

TEST(VirtualTimePin, HierAllgather) {
  expect_staged(2, 8, hier_body({mini::Coll::Allgather, 300, 0, kFourDims}, kF32, kSum),
                9635394431047032357u,
                {0x1.3daa8e656fad2p+6, 0x1.4143a4ec9aaf2p+6, 0x1.41429ec7bd8p+6,
                 0x1.44dc38615719ap+6, 0x1.3da6f8e469883p+6, 0x1.4140927e0321dp+6,
                 0x1.4140927e0321dp+6, 0x1.44da2c179cbb7p+6, 0x1.3daa8e656fad2p+6,
                 0x1.4143a4ec9aaf2p+6, 0x1.41429ec7bd8p+6, 0x1.44dc38615719ap+6,
                 0x1.3da6f8e469883p+6, 0x1.4140927e0321dp+6, 0x1.4140927e0321dp+6,
                 0x1.44da2c179cbb7p+6},
                "hier.comm_setup allgather.net allgather.node allgather.socket "
                "allgather.numa");
}

// ---- MSCCL programs -------------------------------------------------------------
// The MSCCL interpreter runs a program's steps over the chunks of a working
// area. These pin the built-in all-pairs program on 4 and 8 ranks, a
// three-chunk all-pairs program over a count three does not divide (its last
// chunk is short), and a two-chunk star whose leaves receive the sums into
// place: where a receive lands must not move an output bit or a clock.

using xccl::MscclAlgorithm;
using xccl::MscclInstr;

/// A program over `nchunks` chunks for every allreduce size on p ranks.
MscclAlgorithm program(const std::string& name, int p, int nchunks) {
  MscclAlgorithm a;
  a.name = name;
  a.nranks = p;
  a.nchunks = nchunks;
  a.programs.resize(static_cast<std::size_t>(p));
  return a;
}

/// All-pairs over `nchunks` chunks: every rank sends each chunk to every
/// peer, then reduces each peer's chunks into its own.
MscclAlgorithm chunked_allpairs(int p, int nchunks) {
  MscclAlgorithm a = program("allpairs_chunked", p, nchunks);
  for (int r = 0; r < p; ++r) {
    auto& prog = a.programs[static_cast<std::size_t>(r)];
    for (int step = 0; step < 2; ++step) {
      for (int peer = 0; peer < p; ++peer) {
        for (int c = 0; c < nchunks && peer != r; ++c) {
          prog.push_back(step == 0 ? MscclInstr{MscclInstr::Op::Send, peer, c, c, 0}
                                   : MscclInstr{MscclInstr::Op::RecvReduceCopy, peer, c,
                                                c, 1});
        }
      }
    }
  }
  return a;
}

/// Star over `nchunks` chunks: every other rank sends its chunks to rank 0,
/// which reduces them in and sends the sums back into place.
MscclAlgorithm chunked_star(int p, int nchunks) {
  MscclAlgorithm a = program("star_chunked", p, nchunks);
  auto leaf = [&a](int r) -> auto& { return a.programs[static_cast<std::size_t>(r)]; };
  for (int r = 1; r < p; ++r) {
    for (int c = 0; c < nchunks; ++c) {
      a.programs[0].push_back({MscclInstr::Op::RecvReduceCopy, r, c, c, 0});
      leaf(r).push_back({MscclInstr::Op::Send, 0, c, c, 0});
    }
  }
  for (int r = 1; r < p; ++r) {
    for (int c = 0; c < nchunks; ++c) {
      a.programs[0].push_back({MscclInstr::Op::Send, r, c, c, 1});
      leaf(r).push_back({MscclInstr::Op::Recv, 0, c, c, 1});
    }
  }
  return a;
}

/// Builds the program a case registers on p ranks; null runs the built-in
/// all-pairs window.
using MakeProgram = std::function<MscclAlgorithm(int p)>;

/// MSCCL allreduce of `n` elements through the program `make` builds.
RankBody msccl_allreduce_body(std::size_t n, const MakeProgram& make, DataType dt,
                              ReduceOp op) {
  return [=](fabric::RankContext& ctx) {
    xccl::MscclBackend backend(ctx, *ctx.profile().msccl);
    xccl::CclComm comm;
    EXPECT_EQ(backend.comm_init_rank(comm, ctx.size(), xccl::UniqueId::derive(7, 2),
                                     ctx.rank()),
              XcclResult::Success);
    if (make) backend.register_algorithm(make(ctx.size()));
    EXPECT_TRUE(
        backend.algorithm_for(xccl::BuiltinColl::AllReduce, ctx.size(),
                              n * datatype_size(dt))
            .has_value());
    const auto in = seeded_input(dt, n, ctx.rank());
    std::vector<std::byte> out(in.size());
    EXPECT_EQ(backend.all_reduce(in.data(), out.data(), n, dt, op, comm, ctx.stream()),
              XcclResult::Success);
    ctx.stream().synchronize(ctx.clock());
    return out;
  };
}

// 10000 elements sit inside the built-in window at both widths; 10001 leave
// a short last chunk under three chunks and under two.
constexpr std::size_t kMscclElems = 10000;
constexpr std::size_t kMscclOddElems = 10001;
const MakeProgram kBuiltin{};
const MakeProgram kAllpairs3 = [](int p) { return chunked_allpairs(p, 3); };
const MakeProgram kStar2 = [](int p) { return chunked_star(p, 2); };
constexpr Pins kMscclAllpairsP4 = {2614943789805321806u, 4414979598976200541u,
                                   6218266727819554868u, 7850574872876988589u};
constexpr Pins kMscclAllpairsP8 = {15894698314875787496u, 5391271227858943797u,
                                   16647150937817314041u, 16861351247601283813u};
constexpr Pins kMscclAllpairs3P4 = {5590177738613104330u, 6862263978571728781u,
                                    5518922986086899848u, 2118763608771494717u};
constexpr Pins kMscclAllpairs3P8 = {12001172808130626194u, 10629946264459943221u,
                                    9183349061163134825u, 5607639458479164517u};
constexpr Pins kMscclStar2P4 = {9150044244906016309u, 6862263978571728781u,
                                16923967828400195261u, 2118763608771494717u};

std::uint64_t msccl_allreduce(int p, std::size_t n, const MakeProgram& make, DataType dt,
                              ReduceOp op) {
  return run_world(1, p, msccl_allreduce_body(n, make, dt, op));
}

TEST(ReduceOrderPin, MscclAllpairsP4) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return msccl_allreduce(4, kMscclElems, kBuiltin, dt, op);
      },
      kMscclAllpairsP4);
}

TEST(ReduceOrderPin, MscclAllpairsP8) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return msccl_allreduce(8, kMscclElems, kBuiltin, dt, op);
      },
      kMscclAllpairsP8);
}

TEST(ReduceOrderPin, MscclAllpairsShortChunkP4) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return msccl_allreduce(4, kMscclOddElems, kAllpairs3, dt, op);
      },
      kMscclAllpairs3P4);
}

TEST(ReduceOrderPin, MscclAllpairsShortChunkP8) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return msccl_allreduce(8, kMscclOddElems, kAllpairs3, dt, op);
      },
      kMscclAllpairs3P8);
}

TEST(ReduceOrderPin, MscclStarShortChunkP4) {
  expect_pinned(
      [](DataType dt, ReduceOp op) {
        return msccl_allreduce(4, kMscclOddElems, kStar2, dt, op);
      },
      kMscclStar2P4);
}

TEST(VirtualTimePin, MscclAllpairsP4) {
  expect_timed(1, 4, msccl_allreduce_body(kMscclElems, kBuiltin, kF32, kSum),
               kMscclAllpairsP4[0], std::vector<double>(4, 0x1.342ab425d8097p+10));
}

TEST(VirtualTimePin, MscclAllpairsP8) {
  expect_timed(1, 8, msccl_allreduce_body(kMscclElems, kBuiltin, kF32, kSum),
               kMscclAllpairsP8[0], std::vector<double>(8, 0x1.3485c67a6f8d8p+10));
}

TEST(VirtualTimePin, MscclAllpairsShortChunkP4) {
  expect_timed(1, 4, msccl_allreduce_body(kMscclOddElems, kAllpairs3, kF32, kSum),
               kMscclAllpairs3P4[0], std::vector<double>(4, 0x1.342ab7a51d3b1p+10));
}

TEST(VirtualTimePin, MscclAllpairsShortChunkP8) {
  expect_timed(1, 8, msccl_allreduce_body(kMscclOddElems, kAllpairs3, kF32, kSum),
               kMscclAllpairs3P8[0], std::vector<double>(8, 0x1.3485cea36656bp+10));
}

TEST(VirtualTimePin, MscclStarShortChunkP4) {
  expect_timed(1, 4, msccl_allreduce_body(kMscclOddElems, kStar2, kF32, kSum),
               kMscclStar2P4[0], std::vector<double>(4, 0x1.3487e3cb15e86p+10));
}

// The scratch a fresh engine keeps resident for a plan of each pinned
// allreduce shape (what reserve_allreduce reports), per Float32 element
// count. A rewrite of the stage layout may shrink it, never grow it.
struct Resident {
  int nodes, dpn;
  std::size_t elems;
  Chain chain;
  std::size_t at_most;
};

TEST(HierResidentBytes, NoPinnedShapeGrows) {
  const std::vector<Resident> shapes = {
      {3, 2, 20000, {}, 160000},
      {2, 4, kFewElems, k2x4, 48},
      {3, 8, 20000, kStagedThreeNodes, 160000},
      {2, 8, kCicoElems, kFourDims, 8000},
      {2, 2, 300000, {}, 1200000},
  };
  for (const Resident& s : shapes) {
    std::vector<std::size_t> got(static_cast<std::size_t>(s.nodes * s.dpn));
    fabric::World world(fabric::WorldConfig{sim::thetagpu(), s.nodes, s.dpn});
    world.run([&](fabric::RankContext& ctx) {
      mini::Mpi mpi(ctx, ctx.profile().mpi);
      hier::HierEngine engine(mpi);
      if (!s.chain.levels.empty()) engine.set_levels(s.chain.levels);
      got[static_cast<std::size_t>(ctx.rank())] =
          engine.reserve_allreduce(engine.prepare(mpi.comm_world()), s.elems, kF32);
    });
    for (std::size_t r = 0; r < got.size(); ++r) {
      EXPECT_LE(got[r], s.at_most) << s.nodes << "x" << s.dpn << " " << s.elems
                                   << " elems, rank " << r;
    }
  }
}

}  // namespace
}  // namespace mpixccl
