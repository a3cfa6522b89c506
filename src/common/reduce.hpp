#pragma once
// Elementwise reduction kernels over raw buffers, dispatched on DataType.
// These back both the MPI host path and the simulated CCL backends (the
// "compute" a real CCL would run on the accelerator).

#include <cstddef>

#include "common/status.hpp"
#include "common/types.hpp"

namespace mpixccl {

/// True when `op` is defined for `dt` by MPI semantics (the widest set any
/// path in this library implements). CCL backends further restrict this via
/// their own capability tables.
bool reduce_defined(DataType dt, ReduceOp op);

/// out[i] = op(in[i], local[i]) for count elements: `in` is the incoming
/// operand, `local` this side's own. `local` may equal `out` (reduce in
/// place); otherwise neither operand may overlap `out`.
/// ReduceOp::Avg accumulates like Sum here; the caller divides by the
/// communicator size at the end (see scale_inplace).
/// Returns UnsupportedOperation / UnsupportedDatatype when (dt, op) is not
/// defined rather than touching the buffers.
XcclResult apply_reduce(DataType dt, ReduceOp op, const void* in, const void* local,
                        void* out, std::size_t count);

/// inout[i] = op(in[i], inout[i]): the case local == out.
inline XcclResult apply_reduce(DataType dt, ReduceOp op, const void* in, void* inout,
                               std::size_t count) {
  return apply_reduce(dt, op, in, inout, inout, count);
}

/// buf[i] *= factor, for floating and complex datatypes (used to finish
/// ReduceOp::Avg). Returns UnsupportedDatatype for integer types.
XcclResult scale_inplace(DataType dt, void* buf, std::size_t count, double factor);

}  // namespace mpixccl
