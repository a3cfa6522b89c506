// Unit + parameterized tests for the elementwise reduction kernels.

#include "common/reduce.hpp"

#include <complex>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace mpixccl {
namespace {

TEST(ReduceDefined, ArithmeticOnAllNumeric) {
  for (DataType dt : {DataType::Int8, DataType::Uint8, DataType::Int32,
                      DataType::Uint32, DataType::Int64, DataType::Uint64,
                      DataType::Float16, DataType::BFloat16, DataType::Float32,
                      DataType::Float64}) {
    for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min,
                        ReduceOp::Max, ReduceOp::Avg}) {
      EXPECT_TRUE(reduce_defined(dt, op)) << to_string(dt) << " " << to_string(op);
    }
  }
}

TEST(ReduceDefined, ComplexOnlySumProdAvg) {
  for (DataType dt : {DataType::FloatComplex, DataType::DoubleComplex}) {
    EXPECT_TRUE(reduce_defined(dt, ReduceOp::Sum));
    EXPECT_TRUE(reduce_defined(dt, ReduceOp::Prod));
    EXPECT_TRUE(reduce_defined(dt, ReduceOp::Avg));
    EXPECT_FALSE(reduce_defined(dt, ReduceOp::Min));
    EXPECT_FALSE(reduce_defined(dt, ReduceOp::Max));
    EXPECT_FALSE(reduce_defined(dt, ReduceOp::Band));
  }
}

TEST(ReduceDefined, LogicalOnlyOnIntegers) {
  EXPECT_TRUE(reduce_defined(DataType::Int32, ReduceOp::Band));
  EXPECT_TRUE(reduce_defined(DataType::Uint64, ReduceOp::Lor));
  EXPECT_FALSE(reduce_defined(DataType::Float32, ReduceOp::Band));
  EXPECT_FALSE(reduce_defined(DataType::Float64, ReduceOp::Land));
}

TEST(ReduceDefined, ByteSupportsNothing) {
  for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Max, ReduceOp::Band}) {
    EXPECT_FALSE(reduce_defined(DataType::Byte, op));
  }
}

TEST(ApplyReduce, SumInt32) {
  std::vector<std::int32_t> in{1, 2, 3, 4};
  std::vector<std::int32_t> inout{10, 20, 30, 40};
  ASSERT_EQ(apply_reduce(DataType::Int32, ReduceOp::Sum, in.data(), inout.data(), 4),
            XcclResult::Success);
  EXPECT_EQ(inout, (std::vector<std::int32_t>{11, 22, 33, 44}));
}

TEST(ApplyReduce, MinMaxFloat) {
  std::vector<float> in{1.0f, 5.0f, -3.0f};
  std::vector<float> lo{2.0f, 2.0f, 2.0f};
  std::vector<float> hi{2.0f, 2.0f, 2.0f};
  ASSERT_EQ(apply_reduce(DataType::Float32, ReduceOp::Min, in.data(), lo.data(), 3),
            XcclResult::Success);
  ASSERT_EQ(apply_reduce(DataType::Float32, ReduceOp::Max, in.data(), hi.data(), 3),
            XcclResult::Success);
  EXPECT_EQ(lo, (std::vector<float>{1.0f, 2.0f, -3.0f}));
  EXPECT_EQ(hi, (std::vector<float>{2.0f, 5.0f, 2.0f}));
}

TEST(ApplyReduce, ProdDoubleComplex) {
  using C = std::complex<double>;
  std::vector<C> in{{1.0, 1.0}, {2.0, 0.0}};
  std::vector<C> inout{{0.0, 1.0}, {3.0, -1.0}};
  ASSERT_EQ(apply_reduce(DataType::DoubleComplex, ReduceOp::Prod, in.data(),
                         inout.data(), 2),
            XcclResult::Success);
  EXPECT_EQ(inout[0], C(-1.0, 1.0));  // (1+i)*(0+i) = -1+i
  EXPECT_EQ(inout[1], C(6.0, -2.0));
}

TEST(ApplyReduce, LogicalOps) {
  std::vector<std::int32_t> in{0, 3, 0, 7};
  std::vector<std::int32_t> a{5, 0, 0, 1};
  std::vector<std::int32_t> b{5, 0, 0, 1};
  ASSERT_EQ(apply_reduce(DataType::Int32, ReduceOp::Land, in.data(), a.data(), 4),
            XcclResult::Success);
  EXPECT_EQ(a, (std::vector<std::int32_t>{0, 0, 0, 1}));
  ASSERT_EQ(apply_reduce(DataType::Int32, ReduceOp::Lor, in.data(), b.data(), 4),
            XcclResult::Success);
  EXPECT_EQ(b, (std::vector<std::int32_t>{1, 1, 0, 1}));
}

TEST(ApplyReduce, BitwiseOps) {
  std::vector<std::uint8_t> in{0b1100, 0b1010};
  std::vector<std::uint8_t> a{0b1010, 0b0110};
  ASSERT_EQ(apply_reduce(DataType::Uint8, ReduceOp::Band, in.data(), a.data(), 2),
            XcclResult::Success);
  EXPECT_EQ(a[0], 0b1000);
  EXPECT_EQ(a[1], 0b0010);
}

TEST(ApplyReduce, HalfSum) {
  std::vector<Half> in{Half::from_float(1.5f), Half::from_float(-2.0f)};
  std::vector<Half> inout{Half::from_float(0.25f), Half::from_float(4.0f)};
  ASSERT_EQ(apply_reduce(DataType::Float16, ReduceOp::Sum, in.data(), inout.data(), 2),
            XcclResult::Success);
  EXPECT_EQ(inout[0].to_float(), 1.75f);
  EXPECT_EQ(inout[1].to_float(), 2.0f);
}

TEST(ApplyReduce, RejectsUnsupportedPairs) {
  float dummy[2] = {0.0f, 0.0f};
  EXPECT_EQ(apply_reduce(DataType::Float32, ReduceOp::Band, dummy, dummy, 2),
            XcclResult::UnsupportedOperation);
  std::complex<double> c[1] = {};
  EXPECT_EQ(apply_reduce(DataType::DoubleComplex, ReduceOp::Max, c, c, 1),
            XcclResult::UnsupportedOperation);
  std::byte bytes[4] = {};
  EXPECT_EQ(apply_reduce(DataType::Byte, ReduceOp::Sum, bytes, bytes, 4),
            XcclResult::UnsupportedDatatype);
}

TEST(ScaleInplace, FloatTypes) {
  std::vector<double> d{2.0, -4.0};
  ASSERT_EQ(scale_inplace(DataType::Float64, d.data(), 2, 0.5), XcclResult::Success);
  EXPECT_EQ(d, (std::vector<double>{1.0, -2.0}));

  std::vector<std::complex<float>> c{{2.0f, 4.0f}};
  ASSERT_EQ(scale_inplace(DataType::FloatComplex, c.data(), 1, 0.25),
            XcclResult::Success);
  EXPECT_EQ(c[0], std::complex<float>(0.5f, 1.0f));

  std::vector<std::int32_t> i{8};
  EXPECT_EQ(scale_inplace(DataType::Int32, i.data(), 1, 0.5),
            XcclResult::UnsupportedDatatype);
}

// Property sweep: sum/min/max against a scalar oracle on random data.
// ---- Three-operand form: out = op(in, local) ---------------------------------

/// Seeded elements of `dt`: small integers (no Prod overflow), or finite
/// values in [-4, 4) for the floating and complex types.
std::vector<std::byte> seeded(DataType dt, std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n * datatype_size(dt));
  std::uint64_t s = seed;
  auto real = [&] {
    s = splitmix64(s);
    return static_cast<double>(s >> 11) * 0x1p-50 - 4.0;
  };
  auto put = [&](std::size_t i, const auto& v) {
    std::memcpy(out.data() + i * sizeof v, &v, sizeof v);
  };
  auto real32 = [&] { return static_cast<float>(real()); };
  for (std::size_t i = 0; i < n; ++i) {
    switch (dt) {
      case DataType::Float16: put(i, Half::from_float(real32())); break;
      case DataType::BFloat16: put(i, BF16::from_float(real32())); break;
      case DataType::Float32: put(i, real32()); break;
      case DataType::Float64: put(i, real()); break;
      case DataType::FloatComplex: put(i, std::complex<float>(real32(), real32())); break;
      case DataType::DoubleComplex: put(i, std::complex<double>(real(), real())); break;
      default: {
        // Integers in [-3, 3]: the low byte of a small two's-complement value.
        const auto v = static_cast<std::int64_t>(real());
        std::memcpy(out.data() + i * datatype_size(dt), &v, datatype_size(dt));
      }
    }
  }
  return out;
}

TEST(ApplyReduceThreeOperand, MatchesCopyThenInPlaceForEveryDefinedPair) {
  constexpr std::size_t n = 1003;  // odd: covers vector tails
  int pairs = 0;
  for (int d = 0; d <= static_cast<int>(DataType::Byte); ++d) {
    for (int o = 0; o <= static_cast<int>(ReduceOp::Bor); ++o) {
      const auto dt = static_cast<DataType>(d);
      const auto op = static_cast<ReduceOp>(o);
      if (!reduce_defined(dt, op)) continue;
      ++pairs;
      SCOPED_TRACE(std::string(to_string(dt)) + " " + std::string(to_string(op)));
      const auto in = seeded(dt, n, 1);
      const auto local = seeded(dt, n, 2);

      // Today's form: copy the local operand, then reduce into the copy.
      auto expect = local;
      ASSERT_EQ(apply_reduce(dt, op, in.data(), expect.data(), n), XcclResult::Success);

      std::vector<std::byte> out(local.size());
      ASSERT_EQ(apply_reduce(dt, op, in.data(), local.data(), out.data(), n),
                XcclResult::Success);
      EXPECT_EQ(out, expect);
      EXPECT_EQ(local, seeded(dt, n, 2));  // the local operand is only read

      auto aliased = local;  // local == out
      ASSERT_EQ(apply_reduce(dt, op, in.data(), aliased.data(), aliased.data(), n),
                XcclResult::Success);
      EXPECT_EQ(aliased, expect);
    }
  }
  EXPECT_EQ(pairs, 6 * 9 + 4 * 5 + 2 * 3);  // integers, real floats, complex
}

TEST(ApplyReduceThreeOperand, RejectsUndefinedPairsWithoutWriting) {
  std::vector<float> in{1.0f};
  std::vector<float> local{2.0f};
  std::vector<float> out{7.0f};
  EXPECT_EQ(apply_reduce(DataType::Float32, ReduceOp::Band, in.data(), local.data(),
                         out.data(), 1),
            XcclResult::UnsupportedOperation);
  EXPECT_EQ(out[0], 7.0f);
}

class ReducePropertyTest
    : public ::testing::TestWithParam<std::tuple<ReduceOp, std::size_t>> {};

TEST_P(ReducePropertyTest, MatchesScalarOracleInt64) {
  const auto [op, n] = GetParam();
  auto rng = make_rng(42, static_cast<std::uint64_t>(n) * 7 + static_cast<int>(op));
  std::uniform_int_distribution<std::int64_t> dist(-1000, 1000);
  std::vector<std::int64_t> in(n);
  std::vector<std::int64_t> inout(n);
  std::vector<std::int64_t> expect(n);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = dist(rng);
    inout[i] = dist(rng);
    switch (op) {
      case ReduceOp::Sum: expect[i] = in[i] + inout[i]; break;
      case ReduceOp::Prod: expect[i] = in[i] * inout[i]; break;
      case ReduceOp::Min: expect[i] = std::min(in[i], inout[i]); break;
      case ReduceOp::Max: expect[i] = std::max(in[i], inout[i]); break;
      default: FAIL();
    }
  }
  ASSERT_EQ(apply_reduce(DataType::Int64, op, in.data(), inout.data(), n),
            XcclResult::Success);
  EXPECT_EQ(inout, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReducePropertyTest,
    ::testing::Combine(::testing::Values(ReduceOp::Sum, ReduceOp::Prod,
                                         ReduceOp::Min, ReduceOp::Max),
                       ::testing::Values<std::size_t>(0, 1, 3, 64, 1023)));

}  // namespace
}  // namespace mpixccl
