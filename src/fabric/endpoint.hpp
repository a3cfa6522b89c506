#pragma once
// Per-rank fabric endpoint: posted-send / posted-recv matching with MPI
// ordering semantics (FIFO, non-overtaking per (src, tag, channel)).
//
// Buffer ownership: a send buffer belongs to the fabric until its
// PendingSend resolves, and a receive buffer until its PendingRecv resolves
// (MPI's isend/irecv contract). Matching runs under the receiving endpoint's
// match lock and is closed by whichever thread completes the pair (the
// sender if a recv was pending, the receiver if the send was unexpected).
// The lock is a SpinLock (common/spin.hpp): it guards only a queue scan and
// a push or erase, shorter than a futex sleep and wake-up. The payload then
// moves once, from the send buffer straight into the receive buffer, outside
// the lock: a memcpy, or, for a receive-reduce, an apply_reduce that
// combines the payload with a local operand as it lands (buf = op(payload,
// local)), so a reduction step needs no staging inbox. The local operand is
// the posted buffer itself or a separate range the receiver owns (its own
// input block, read where it lies, so the reduction needs no working copy of
// the input either); it is read until the receive resolves, so it must stay
// unchanged until then. A receive-reduce payload must fill the posted buffer
// exactly, and its (datatype, op) pair and local range are validated when it
// is posted, so the move never throws.
//
// Who moves the bytes:
// - Below kShareMinBytes, the closing thread moves the whole payload.
// - From kShareMinBytes up, if the other party has a handle to wait on (a
//   posted receive, or a rendezvous send), the move is shared: the closing
//   thread publishes it through the other party's completion cell, and both
//   threads claim kShareChunkBytes chunks from one counter until none is
//   left. A waiter parked on the cell is woken to help; one that arrives
//   late takes what is left. The closer resolves both handles once every
//   chunk has landed. Each element is still op(payload[i], local[i]), so
//   the output does not depend on who moved which chunk.
// - A rendezvous payload is never copied before the match: its sender
//   cannot resolve until the receiver has the bytes.
// - An eager sender resolves at post time and may reuse its buffer at once,
//   so an eager payload is buffered, but only when no receive is posted.
//   The copy runs outside the lock, which is then taken again; a receive
//   posted meanwhile takes the buffered copy.
//
// Handles resolve through a one-shot completion cell: the closing thread
// publishes the result (or error), and the waiter spins briefly on small
// transfers before parking in std::atomic::wait. The resolved virtual
// completion times synchronize the two ranks' clocks; they do not depend on
// how the bytes moved.

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>

#include "common/spin.hpp"
#include "fabric/message.hpp"
#include "sim/time.hpp"

namespace mpixccl::fabric {

/// Waits on transfers up to this size spin before parking: their peer is
/// usually a few microseconds away, and a futex sleep plus wake-up costs
/// more than that. Larger transfers park at once, so long waits never burn
/// a core another rank thread needs.
inline constexpr std::size_t kSpinMaxBytes = 64 * 1024;
/// A shared move is claimed in chunks of this size (the last may be short).
inline constexpr std::size_t kShareChunkBytes = 64 * 1024;
/// Payloads from this size up are moved by both parties of the match.
inline constexpr std::size_t kShareMinBytes = 2 * kShareChunkBytes;

class CompletionCell;

/// Handle for an in-flight send. wait() yields the sender-side virtual
/// completion time and advances the clock to it.
class PendingSend {
 public:
  PendingSend() = default;

  /// Blocks (real time) until resolved; advances `clock` to the completion.
  /// Consumes the handle.
  sim::TimeUs wait(sim::VirtualClock& clock);
  [[nodiscard]] bool valid() const { return valid_; }

 private:
  friend class Endpoint;
  /// Eager send: resolved at post time, no cell needed.
  explicit PendingSend(sim::TimeUs done) : done_(done), valid_(true) {}
  /// Rendezvous send: resolved by whichever thread closes the match.
  explicit PendingSend(std::shared_ptr<CompletionCell> cell)
      : cell_(std::move(cell)), valid_(true) {}

  std::shared_ptr<CompletionCell> cell_;
  sim::TimeUs done_ = 0.0;
  bool valid_ = false;
};

/// Handle for an in-flight receive.
class PendingRecv {
 public:
  PendingRecv() = default;

  /// Blocks until a matching send arrives; advances `clock`. Consumes the
  /// handle.
  RecvResult wait(sim::VirtualClock& clock);
  [[nodiscard]] bool valid() const { return cell_ != nullptr; }

 private:
  friend class Endpoint;
  explicit PendingRecv(std::shared_ptr<CompletionCell> cell) : cell_(std::move(cell)) {}

  std::shared_ptr<CompletionCell> cell_;
};

/// Cache-line aligned: every rank thread writes its peers' match locks, so
/// two endpoints must not share a line.
class alignas(64) Endpoint {
 public:
  explicit Endpoint(int rank) : rank_(rank) {}

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] int rank() const { return rank_; }

  /// Post a send to this endpoint (the *destination's* endpoint). `data`
  /// belongs to the fabric until the returned handle resolves: a rendezvous
  /// payload is read in place at match time; an eager one is copied into a
  /// posted receive if there is one and buffered otherwise.
  PendingSend deliver(int src, int tag, ChannelId channel, const void* data,
                      std::size_t bytes, sim::TimeUs sender_ready,
                      const SendPolicy& policy);

  /// Post a receive on this endpoint (the receiver's own endpoint). `buf`
  /// belongs to the fabric until the returned handle resolves. With
  /// `reduce`, buf = op(payload, local) instead of a copy; the payload must
  /// then be exactly `capacity` bytes (otherwise both handles resolve with
  /// an error). An undefined (base, op) pair, or a `local` range that
  /// partly overlaps `buf`, throws here.
  PendingRecv post_recv(int src, int tag, ChannelId channel, void* buf,
                        std::size_t capacity, sim::TimeUs recv_ready, CostFn cost,
                        std::optional<ReduceSpec> reduce = std::nullopt);

  /// Unmatched message count (tests).
  [[nodiscard]] std::size_t unexpected_count() const;
  [[nodiscard]] std::size_t pending_recv_count() const;

 private:
  struct PostedSend {
    int src;
    int tag;
    ChannelId channel;
    const void* data;  ///< sender's buffer, or `buffered` for an unexpected eager send
    std::size_t bytes;
    sim::TimeUs sender_ready;
    std::unique_ptr<std::byte[]> buffered;
    std::shared_ptr<CompletionCell> done;  ///< null: eager, resolved at post time
  };
  struct PostedRecv {
    int src;  // kAnySource allowed
    int tag;  // kAnyTag allowed
    ChannelId channel;
    void* buf;
    std::size_t capacity;
    sim::TimeUs recv_ready;
    CostFn cost;
    std::optional<ReduceSpec> reduce;  ///< set: reduce the payload into buf
    std::shared_ptr<CompletionCell> done;
  };

  static bool matches(const PostedRecv& r, const PostedSend& s) {
    return r.channel == s.channel && (r.src == kAnySource || r.src == s.src) &&
           (r.tag == kAnyTag || r.tag == s.tag);
  }

  /// Complete a matched pair: copy (or reduce) the payload, sharing a
  /// large move with the other party's waiter through `peer` (its cell, or
  /// null when nobody waits), price the transfer, resolve both handles.
  /// Called without mu_: the pair is off both queues.
  static void complete(const PostedRecv& r, const PostedSend& s, CompletionCell* peer);

  int rank_;
  mutable SpinLock mu_;
  std::deque<PostedSend> unexpected_;
  std::deque<PostedRecv> pending_;
};

}  // namespace mpixccl::fabric
