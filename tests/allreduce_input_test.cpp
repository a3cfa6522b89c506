// Every allreduce path must write its whole output and leave its input alone.
//
// Each case fills the receive buffer with 0xFF bytes (a NaN in every float)
// and hashes the send buffer before the call. A Sum that reads a receive
// element before writing it yields NaN there, so the output must equal the
// flat oracle (the exact per-element sum over ranks: inputs are small
// integers, exact in float in any order), and the send buffer must hash the
// same after the call. An in-place call starts from the rank's input in the
// receive buffer and checks the output alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "device/device.hpp"
#include "fabric/world.hpp"
#include "hier/hier.hpp"
#include "mpi/mpi.hpp"
#include "sim/profiles.hpp"

namespace mpixccl {
namespace {

/// Element i of rank r's input.
float input(int r, std::size_t i) { return static_cast<float>((7 * r + 3 * i) % 64); }

/// The flat oracle: element i of the sum over p ranks.
float oracle(int p, std::size_t i) {
  float s = 0.0F;
  for (int r = 0; r < p; ++r) s += input(r, i);
  return s;
}

/// FNV-1a over `n` bytes.
std::uint64_t hash_bytes(const void* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(static_cast<const unsigned char*>(p)[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One caller buffer of `n` floats, in host or device memory.
class Buf {
 public:
  Buf(fabric::RankContext& ctx, std::size_t n, bool device) : host_(device ? 0 : n) {
    if (device && n > 0) dev_ = device::DeviceBuffer(ctx.device(), n * sizeof(float));
  }
  [[nodiscard]] float* get() {
    return dev_.size() > 0 ? static_cast<float*>(dev_.get()) : host_.data();
  }

 private:
  device::DeviceBuffer dev_;
  std::vector<float> host_;
};

enum class Form { Separate, InPlace };

/// Where a case's buffers live: send and receive kinds (the send kind is
/// ignored in place).
struct Kinds {
  bool send_device;
  bool recv_device;
};

/// The allreduce under test: (mpi, sendbuf or kInPlace, recvbuf, n).
using Call = std::function<void(mini::Mpi&, const void*, void*, std::size_t)>;

/// Runs `call` over `n` floats on every rank of thetagpu `nodes` x `dpn`
/// and checks each rank's output against the oracle and its input hash.
void expect_whole_output(int nodes, int dpn, std::size_t n, Form form, Kinds kinds,
                         const Call& call) {
  const int p = nodes * dpn;
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), nodes, dpn});
  std::vector<std::string> errors(static_cast<std::size_t>(p));
  world.run([&](fabric::RankContext& ctx) {
    mini::Mpi mpi(ctx, ctx.profile().mpi);
    const int r = ctx.rank();
    Buf send(ctx, form == Form::InPlace ? 0 : n, kinds.send_device);
    Buf recv(ctx, n, kinds.recv_device);
    float* in = form == Form::InPlace ? recv.get() : send.get();
    for (std::size_t i = 0; i < n; ++i) in[i] = input(r, i);
    std::uint64_t before = 0;
    if (form == Form::Separate) {
      std::memset(recv.get(), 0xFF, n * sizeof(float));
      before = hash_bytes(send.get(), n * sizeof(float));
    }
    call(mpi, form == Form::InPlace ? mini::kInPlace : send.get(), recv.get(), n);
    std::string& err = errors[static_cast<std::size_t>(r)];
    if (form == Form::Separate && hash_bytes(send.get(), n * sizeof(float)) != before) {
      err = "sendbuf changed";
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const float got = recv.get()[i];
      if (got != oracle(p, i)) {  // also catches a NaN left from the fill
        err = "element " + std::to_string(i) + " reads " + std::to_string(got) +
              ", want " + std::to_string(oracle(p, i));
        return;
      }
    }
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(errors[static_cast<std::size_t>(r)], "") << "rank " << r;
  }
}

// ---- MiniMPI --------------------------------------------------------------------

void mpi_allreduce(mini::Mpi& mpi, const void* s, void* r, std::size_t n) {
  mpi.allreduce(s, r, n, mini::kFloat, ReduceOp::Sum, mpi.comm_world());
}

// 1000 floats are below the recursive-doubling cutoff, 12347 above it and
// uneven over the Rabenseifner blocks. 1x7 folds three rank pairs, so it has
// ranks of every fold role.
constexpr std::size_t kRd = 1000;
constexpr std::size_t kRabenseifner = 12347;
constexpr Kinds kHost{false, false};
constexpr Kinds kDevice{true, true};
constexpr Kinds kHostToDevice{false, true};
constexpr Kinds kDeviceToHost{true, false};

TEST(AllreduceInput, MpiRecursiveDoubling) {
  for (const int p : {4, 7}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    expect_whole_output(1, p, kRd, Form::Separate, kHost, mpi_allreduce);
    expect_whole_output(1, p, kRd, Form::Separate, kDevice, mpi_allreduce);
  }
}

TEST(AllreduceInput, MpiRabenseifner) {
  for (const int p : {4, 7}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    expect_whole_output(1, p, kRabenseifner, Form::Separate, kHost, mpi_allreduce);
    expect_whole_output(1, p, kRabenseifner, Form::Separate, kDevice, mpi_allreduce);
  }
}

TEST(AllreduceInput, MpiInPlace) {
  for (const std::size_t n : {kRd, kRabenseifner}) {
    SCOPED_TRACE(std::to_string(n) + " floats");
    expect_whole_output(1, 7, n, Form::InPlace, kDevice, mpi_allreduce);
  }
}

TEST(AllreduceInput, MpiMixedKinds) {
  for (const std::size_t n : {kRd, kRabenseifner}) {
    SCOPED_TRACE(std::to_string(n) + " floats");
    expect_whole_output(1, 7, n, Form::Separate, kHostToDevice, mpi_allreduce);
    expect_whole_output(1, 7, n, Form::Separate, kDeviceToHost, mpi_allreduce);
  }
}

TEST(AllreduceInput, MpiSingleRank) {
  expect_whole_output(1, 1, kRd, Form::Separate, kHost, mpi_allreduce);
}

// ---- Hier -------------------------------------------------------------------------

/// The hier engine's allreduce, on `levels` when not empty.
Call hier_allreduce(const std::string& levels = {}) {
  return [levels](mini::Mpi& mpi, const void* s, void* r, std::size_t n) {
    hier::HierEngine engine(mpi);
    if (!levels.empty()) engine.set_levels(levels);
    EXPECT_TRUE(engine.allreduce(engine.prepare(mpi.comm_world()), s, r, n, mini::kFloat,
                                 ReduceOp::Sum, mpi.comm_world()));
  };
}

// 300000 floats on 2x2 pipeline in several chunks with no pad; one more
// float pads every chunk.
constexpr std::size_t kPipelined = 300000;

TEST(AllreduceInput, HierPipelined) {
  for (const std::size_t n : {kPipelined, kPipelined + 1}) {
    SCOPED_TRACE(std::to_string(n) + " floats");
    expect_whole_output(2, 2, n, Form::Separate, kDevice, hier_allreduce());
    expect_whole_output(2, 2, n, Form::Separate, kDeviceToHost, hier_allreduce());
    expect_whole_output(2, 2, n, Form::Separate, kHostToDevice, hier_allreduce());
    expect_whole_output(2, 2, n, Form::InPlace, kDevice, hier_allreduce());
  }
}

// 3x2 has a network dim of three, so it takes the staged schedule; 20001
// floats pad its working copy.
TEST(AllreduceInput, HierStaged) {
  for (const std::size_t n : {std::size_t{20000}, std::size_t{20001}}) {
    SCOPED_TRACE(std::to_string(n) + " floats");
    expect_whole_output(3, 2, n, Form::Separate, kDevice, hier_allreduce());
    expect_whole_output(3, 2, n, Form::Separate, kDeviceToHost, hier_allreduce());
    expect_whole_output(3, 2, n, Form::Separate, kHostToDevice, hier_allreduce());
    expect_whole_output(3, 2, n, Form::InPlace, kDevice, hier_allreduce());
  }
}

// 1000 floats are below 8 KiB on the four-dim 2x8 chain: copy-in-copy-out.
TEST(AllreduceInput, HierCico) {
  const Call cico = hier_allreduce("socket:2,numa:2");
  expect_whole_output(2, 8, 1000, Form::Separate, kDevice, cico);
  expect_whole_output(2, 8, 1000, Form::Separate, kDeviceToHost, cico);
  expect_whole_output(2, 8, 1000, Form::InPlace, kDevice, cico);
}

}  // namespace
}  // namespace mpixccl
