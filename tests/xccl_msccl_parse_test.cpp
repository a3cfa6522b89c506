// Tests for the MSCCL algorithm text format: parse, serialize round trip,
// error reporting, file loading, and end-to-end execution of a parsed
// algorithm.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "fabric/world.hpp"
#include "sim/profiles.hpp"
#include "xccl/msccl.hpp"

namespace mpixccl::xccl {
namespace {

constexpr const char* kStarAllreduce = R"(
# star allreduce for 3 ranks: everyone reduces into rank 0, which fans out
algorithm star3 allreduce nranks=3 nchunks=1 min_bytes=0 max_bytes=max
rank 0
  recvreduce peer=1 chunk=0 step=0
  recvreduce peer=2 chunk=0 step=0
  send peer=1 chunk=0 step=1
  send peer=2 chunk=0 step=1
rank 1
  send peer=0 chunk=0 step=0
  recv peer=0 chunk=0 step=1
rank 2
  send peer=0 chunk=0 step=0
  recv peer=0 chunk=0 step=1
)";

TEST(MscclParse, ParsesHeaderAndPrograms) {
  const MscclAlgorithm a = MscclAlgorithm::parse(kStarAllreduce);
  EXPECT_EQ(a.name, "star3");
  EXPECT_EQ(a.coll, BuiltinColl::AllReduce);
  EXPECT_EQ(a.nranks, 3);
  EXPECT_EQ(a.nchunks, 1);
  EXPECT_EQ(a.min_bytes, 0u);
  EXPECT_EQ(a.max_bytes, SIZE_MAX);
  ASSERT_EQ(a.programs.size(), 3u);
  EXPECT_EQ(a.programs[0].size(), 4u);
  EXPECT_EQ(a.programs[0][0].op, MscclInstr::Op::RecvReduceCopy);
  EXPECT_EQ(a.programs[1][0].op, MscclInstr::Op::Send);
  EXPECT_EQ(a.programs[1][0].peer, 0);
  EXPECT_EQ(a.programs[1][1].step, 1);
}

TEST(MscclParse, SerializeRoundTrip) {
  const MscclAlgorithm a = MscclAlgorithm::allpairs_allreduce(4, 256, 262144);
  const MscclAlgorithm b = MscclAlgorithm::parse(a.serialize());
  EXPECT_EQ(b.name, a.name);
  EXPECT_EQ(b.nranks, a.nranks);
  EXPECT_EQ(b.min_bytes, a.min_bytes);
  EXPECT_EQ(b.max_bytes, a.max_bytes);
  ASSERT_EQ(b.programs.size(), a.programs.size());
  for (std::size_t r = 0; r < a.programs.size(); ++r) {
    ASSERT_EQ(b.programs[r].size(), a.programs[r].size());
    for (std::size_t i = 0; i < a.programs[r].size(); ++i) {
      EXPECT_EQ(b.programs[r][i].op, a.programs[r][i].op);
      EXPECT_EQ(b.programs[r][i].peer, a.programs[r][i].peer);
      EXPECT_EQ(b.programs[r][i].step, a.programs[r][i].step);
    }
  }
}

TEST(MscclParse, RejectsMalformedInput) {
  EXPECT_THROW(MscclAlgorithm::parse(""), Error);  // no header
  EXPECT_THROW(MscclAlgorithm::parse("send peer=0 chunk=0 step=0"), Error);
  EXPECT_THROW(MscclAlgorithm::parse("algorithm x nosuchcoll nranks=2"), Error);
  EXPECT_THROW(
      MscclAlgorithm::parse("algorithm x allreduce nranks=2\nrank 5\n"), Error);
  EXPECT_THROW(MscclAlgorithm::parse(
                   "algorithm x allreduce nranks=2\nrank 0\n  frobnicate\n"),
               Error);
  // Peer out of range caught by validate().
  EXPECT_THROW(MscclAlgorithm::parse("algorithm x allreduce nranks=2\nrank 0\n"
                                     "  send peer=9 chunk=0 step=0\n"),
               Error);
}

TEST(MscclParse, RejectsScratchChunkReadBeforeWritten) {
  // nchunks=1: chunk 1 is scratch. Each read of it comes before any write,
  // counting a step's sends and copies before its receives.
  const std::string head =
      "algorithm x allreduce nranks=2 nchunks=1\nrank 1\n"
      "  recv peer=0 chunk=0 step=0\nrank 0\n";
  for (const char* body : {"  send peer=1 chunk=1 step=0\n",
                           "  copy src=1 dst=0 step=0\n",
                           "  recvreduce peer=1 chunk=1 step=0\n",
                           "  recv peer=1 chunk=1 step=0\n"
                           "  send peer=1 chunk=1 step=0\n"}) {
    EXPECT_THROW(MscclAlgorithm::parse(head + body), Error) << body;
  }
  // Written first, by a copy or a receive (an earlier step's or the same
  // step's), the scratch chunk may then be read.
  for (const char* body : {"  copy src=0 dst=1 step=0\n"
                           "  send peer=1 chunk=1 step=0\n",
                           "  recv peer=1 chunk=1 step=0\n"
                           "  send peer=1 chunk=1 step=1\n",
                           "  recv peer=1 chunk=1 step=0\n"
                           "  recvreduce peer=1 chunk=1 step=0\n"}) {
    EXPECT_NO_THROW(MscclAlgorithm::parse(head + body)) << body;
  }
}

TEST(MscclParse, FileLoadAndExecute) {
  const std::string path = "/tmp/mpixccl_star3.msccl";
  {
    std::ofstream out(path);
    out << kStarAllreduce;
  }
  const sim::SystemProfile prof = sim::thetagpu();
  fabric::World world(fabric::WorldConfig{prof, 1, 3});
  world.run([&](fabric::RankContext& ctx) {
    MscclBackend backend(ctx, *prof.msccl);
    backend.set_builtin_allpairs(false);
    backend.register_algorithm(MscclAlgorithm::load_file(path));
    CclComm comm;
    ASSERT_EQ(backend.comm_init_rank(comm, 3, UniqueId::derive(8, 8), ctx.rank()),
              XcclResult::Success);
    if (ctx.rank() == 0) {
      EXPECT_EQ(backend.algorithm_for(BuiltinColl::AllReduce, 3, 1234).value(),
                "star3");
    }
    std::vector<float> buf(300, static_cast<float>(ctx.rank() + 1));
    ASSERT_EQ(backend.all_reduce(buf.data(), buf.data(), buf.size(),
                                 DataType::Float32, ReduceOp::Sum, comm,
                                 ctx.stream()),
              XcclResult::Success);
    ctx.stream().synchronize(ctx.clock());
    EXPECT_FLOAT_EQ(buf[299], 6.0f);  // 1+2+3
  });
  std::remove(path.c_str());
  EXPECT_THROW(MscclAlgorithm::load_file("/no/such/file.msccl"), Error);
}

}  // namespace
}  // namespace mpixccl::xccl
