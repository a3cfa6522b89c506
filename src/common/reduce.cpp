#include "common/reduce.hpp"

#include <algorithm>
#include <complex>
#include <cstdint>

namespace mpixccl {

namespace {

// Category of (datatype, op) pairs:
//  * arithmetic ops (sum/prod/min/max/avg) on real arithmetic types
//  * sum/prod on complex (no ordering => no min/max)
//  * logical/bitwise ops on integer types only
//  * Byte supports nothing (movable, not reducible)

constexpr bool is_integer(DataType dt) {
  switch (dt) {
    case DataType::Int8:
    case DataType::Uint8:
    case DataType::Int32:
    case DataType::Uint32:
    case DataType::Int64:
    case DataType::Uint64: return true;
    default: return false;
  }
}

constexpr bool is_arith_op(ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum:
    case ReduceOp::Prod:
    case ReduceOp::Min:
    case ReduceOp::Max:
    case ReduceOp::Avg: return true;
    default: return false;
  }
}

/// The operands of one kernel call: out = op(in, local), elementwise.
struct Operands {
  const void* in;
  const void* local;
  void* out;
  std::size_t count;
};

template <typename T, typename F>
void zip(const Operands& o, F f) {
  const T* a = static_cast<const T*>(o.in);
  const T* b = static_cast<const T*>(o.local);
  T* c = static_cast<T*>(o.out);
  const std::size_t n = o.count;
  for (std::size_t i = 0; i < n; ++i) c[i] = f(a[i], b[i]);
}

template <typename T>
XcclResult reduce_arith(ReduceOp op, const Operands& o) {
  switch (op) {
    case ReduceOp::Sum:
    case ReduceOp::Avg:
      zip<T>(o, [](T a, T b) { return static_cast<T>(a + b); });
      return XcclResult::Success;
    case ReduceOp::Prod:
      zip<T>(o, [](T a, T b) { return static_cast<T>(a * b); });
      return XcclResult::Success;
    case ReduceOp::Min:
      zip<T>(o, [](T a, T b) { return std::min(a, b); });
      return XcclResult::Success;
    case ReduceOp::Max:
      zip<T>(o, [](T a, T b) { return std::max(a, b); });
      return XcclResult::Success;
    default: return XcclResult::UnsupportedOperation;
  }
}

template <typename T>
XcclResult reduce_integer(ReduceOp op, const Operands& o) {
  switch (op) {
    case ReduceOp::Land:
      zip<T>(o,
             [](T a, T b) { return static_cast<T>((a != 0) && (b != 0)); });
      return XcclResult::Success;
    case ReduceOp::Lor:
      zip<T>(o,
             [](T a, T b) { return static_cast<T>((a != 0) || (b != 0)); });
      return XcclResult::Success;
    case ReduceOp::Band:
      zip<T>(o, [](T a, T b) { return static_cast<T>(a & b); });
      return XcclResult::Success;
    case ReduceOp::Bor:
      zip<T>(o, [](T a, T b) { return static_cast<T>(a | b); });
      return XcclResult::Success;
    default: return reduce_arith<T>(op, o);
  }
}

template <typename C>
XcclResult reduce_complex(ReduceOp op, const Operands& o) {
  switch (op) {
    case ReduceOp::Sum:
    case ReduceOp::Avg:
      zip<C>(o, [](C a, C b) { return a + b; });
      return XcclResult::Success;
    case ReduceOp::Prod:
      zip<C>(o, [](C a, C b) { return a * b; });
      return XcclResult::Success;
    default: return XcclResult::UnsupportedOperation;
  }
}

// Half/bfloat reductions round-trip through float, matching how real CCLs
// compute in higher precision internally.
template <typename H>
XcclResult reduce_half_like(ReduceOp op, const Operands& o) {
  if (!is_arith_op(op)) return XcclResult::UnsupportedOperation;
  const H* a = static_cast<const H*>(o.in);
  const H* b = static_cast<const H*>(o.local);
  H* c = static_cast<H*>(o.out);
  const std::size_t n = o.count;
  for (std::size_t i = 0; i < n; ++i) {
    const float x = a[i].to_float();
    const float y = b[i].to_float();
    float r = 0.0f;
    switch (op) {
      case ReduceOp::Sum:
      case ReduceOp::Avg: r = x + y; break;
      case ReduceOp::Prod: r = x * y; break;
      case ReduceOp::Min: r = std::min(x, y); break;
      case ReduceOp::Max: r = std::max(x, y); break;
      default: return XcclResult::UnsupportedOperation;
    }
    c[i] = H::from_float(r);
  }
  return XcclResult::Success;
}

}  // namespace

bool reduce_defined(DataType dt, ReduceOp op) {
  if (dt == DataType::Byte) return false;
  if (is_complex(dt)) {
    return op == ReduceOp::Sum || op == ReduceOp::Prod || op == ReduceOp::Avg;
  }
  if (is_arith_op(op)) return true;
  return is_integer(dt);  // logical/bitwise ops: integers only
}

XcclResult apply_reduce(DataType dt, ReduceOp op, const void* in, const void* local,
                        void* out, std::size_t count) {
  if (!reduce_defined(dt, op)) {
    // Byte is never reducible (datatype problem); any other rejection is a
    // bad (op, datatype) combination (operation problem).
    return dt == DataType::Byte ? XcclResult::UnsupportedDatatype
                                : XcclResult::UnsupportedOperation;
  }
  const Operands o{in, local, out, count};
  switch (dt) {
    case DataType::Int8: return reduce_integer<std::int8_t>(op, o);
    case DataType::Uint8: return reduce_integer<std::uint8_t>(op, o);
    case DataType::Int32: return reduce_integer<std::int32_t>(op, o);
    case DataType::Uint32: return reduce_integer<std::uint32_t>(op, o);
    case DataType::Int64: return reduce_integer<std::int64_t>(op, o);
    case DataType::Uint64: return reduce_integer<std::uint64_t>(op, o);
    case DataType::Float16: return reduce_half_like<Half>(op, o);
    case DataType::BFloat16: return reduce_half_like<BF16>(op, o);
    case DataType::Float32: return reduce_arith<float>(op, o);
    case DataType::Float64: return reduce_arith<double>(op, o);
    case DataType::FloatComplex:
      return reduce_complex<std::complex<float>>(op, o);
    case DataType::DoubleComplex:
      return reduce_complex<std::complex<double>>(op, o);
    case DataType::Byte: return XcclResult::UnsupportedDatatype;
  }
  return XcclResult::InternalError;
}

XcclResult scale_inplace(DataType dt, void* buf, std::size_t count, double factor) {
  switch (dt) {
    case DataType::Float32: {
      float* p = static_cast<float*>(buf);
      for (std::size_t i = 0; i < count; ++i) {
        p[i] = static_cast<float>(static_cast<double>(p[i]) * factor);
      }
      return XcclResult::Success;
    }
    case DataType::Float64: {
      double* p = static_cast<double*>(buf);
      for (std::size_t i = 0; i < count; ++i) p[i] *= factor;
      return XcclResult::Success;
    }
    case DataType::Float16: {
      Half* p = static_cast<Half*>(buf);
      for (std::size_t i = 0; i < count; ++i) {
        p[i] = Half::from_float(
            static_cast<float>(static_cast<double>(p[i].to_float()) * factor));
      }
      return XcclResult::Success;
    }
    case DataType::BFloat16: {
      BF16* p = static_cast<BF16*>(buf);
      for (std::size_t i = 0; i < count; ++i) {
        p[i] = BF16::from_float(
            static_cast<float>(static_cast<double>(p[i].to_float()) * factor));
      }
      return XcclResult::Success;
    }
    case DataType::FloatComplex: {
      auto* p = static_cast<std::complex<float>*>(buf);
      for (std::size_t i = 0; i < count; ++i) p[i] *= static_cast<float>(factor);
      return XcclResult::Success;
    }
    case DataType::DoubleComplex: {
      auto* p = static_cast<std::complex<double>*>(buf);
      for (std::size_t i = 0; i < count; ++i) p[i] *= factor;
      return XcclResult::Success;
    }
    default: return XcclResult::UnsupportedDatatype;
  }
}

}  // namespace mpixccl
