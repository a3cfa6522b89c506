#pragma once
// Message-passing primitives shared by the fabric transport and its users.

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/time.hpp"

namespace mpixccl::fabric {

/// Wildcards for receive matching (MPI_ANY_SOURCE / MPI_ANY_TAG).
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Channels isolate traffic of different communicators/layers sharing the
/// fabric (an MPI communicator and a CCL communicator each get their own).
using ChannelId = std::uint64_t;

/// Derive a fresh channel id deterministically from a parent channel and a
/// per-parent sequence number. All ranks performing the same collective
/// creation sequence derive the same id without global coordination.
constexpr ChannelId derive_channel(ChannelId parent, std::uint64_t salt) {
  return splitmix64(parent ^ splitmix64(salt + 0x51ed270bull));
}

/// Transfer pricing supplied by the receiving layer: given the (resolved)
/// source rank and payload size, return the modeled one-way transfer cost in
/// microseconds. The fabric computes
///   completion = max(sender_ready, recv_ready) + cost(src, bytes).
using CostFn = std::function<double(int src, std::size_t bytes)>;

/// Receive-reduce: the payload is combined instead of copied, as
/// buf[i] = op(payload[i], local[i]) over `base` elements (apply_reduce with
/// the payload as its incoming operand). A null `local` is the posted buffer
/// itself; any other `local` must equal the buffer or not overlap it, and
/// it belongs to the fabric, read-only, until the receive resolves.
struct ReduceSpec {
  DataType base;
  ReduceOp op;
  const void* local = nullptr;
};

/// Sender-side protocol policy, decided by the sending layer.
struct SendPolicy {
  /// Rendezvous: the sender's operation completes only when the transfer
  /// does (virtual), and a blocking send blocks (real time) until matched.
  /// Eager: the sender completes at sender_ready + eager_complete_us and a
  /// blocking send returns immediately after buffering.
  bool rendezvous = false;
  double eager_complete_us = 0.0;
};

/// Outcome of a completed receive.
struct RecvResult {
  std::size_t bytes = 0;
  int src = kAnySource;
  int tag = kAnyTag;
  sim::TimeUs completion = 0.0;
};

}  // namespace mpixccl::fabric
