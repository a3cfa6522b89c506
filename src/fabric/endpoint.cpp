#include "fabric/endpoint.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>

#include "common/format.hpp"
#include "common/reduce.hpp"
#include "common/spin.hpp"
#include "common/status.hpp"

namespace mpixccl::fabric {

namespace {

static_assert(kShareChunkBytes % datatype_size(DataType::DoubleComplex) == 0,
              "a shared-move chunk must hold whole elements of the widest datatype");

/// Polls of the state word before a wait parks.
constexpr int kSpinPolls = 2000;

/// True when [a, a + n) and [b, b + n) share a byte without being the same
/// range. A null `a` (no separate operand) never overlaps.
bool partly_overlap(const void* a, const void* b, std::size_t n) {
  if (a == nullptr || a == b || n == 0) return false;
  const auto x = reinterpret_cast<std::uintptr_t>(a);
  const auto y = reinterpret_cast<std::uintptr_t>(b);
  return x < y + n && y < x + n;
}

/// A matched payload's move: dst = src, or for a receive-reduce
/// dst = op(src, local).
struct PayloadMove {
  std::byte* dst = nullptr;
  const std::byte* src = nullptr;
  const std::byte* local = nullptr;  ///< null: a plain copy
  DataType base = DataType::Byte;
  ReduceOp op = ReduceOp::Sum;

  /// Moves bytes [off, off + n); a reduce range holds whole elements.
  void run(std::size_t off, std::size_t n) const {
    if (local == nullptr) {
      std::memcpy(dst + off, src + off, n);
    } else {  // (base, op) and `local` were validated at post time
      (void)apply_reduce(base, op, src + off, local + off, dst + off,
                         n / datatype_size(base));
    }
  }
};

}  // namespace

/// One-shot completion shared by a handle and the thread that closes its
/// match. The result (or error) is written before the state word publishes
/// it, so a waiter that reads a final state also sees the result.
///
/// Before resolving, the closing thread may publish a shared move through
/// the cell (state kShared): it and the waiter then claim the payload's
/// chunks from one counter, so the party that would otherwise sleep moves
/// its share of the bytes. Each finished chunk is counted with release; the
/// closer acquires the full count before it resolves the cell.
class CompletionCell {
 public:
  /// Runs `m` over `bytes` (at least kShareMinBytes) together with this
  /// cell's waiter, and returns once every chunk has landed. Publishing
  /// wakes a parked waiter; one that arrives later takes whatever chunks
  /// are left, and none at all is fine: the caller then moves them all.
  void share(const PayloadMove& m, std::size_t bytes) {
    move_ = m;
    bytes_ = bytes;
    chunks_ = (bytes + kShareChunkBytes - 1) / kShareChunkBytes;
    publish(kShared);
    claim_chunks();
    for (int i = 1; moved_.load(std::memory_order_acquire) < chunks_; ++i) {
      spin_pause(i);  // the waiter's last chunk is in flight
    }
  }

  void set_value(const RecvResult& r) {
    result_ = r;
    publish(kValue);
  }
  void set_error(std::exception_ptr e) {
    error_ = std::move(e);
    publish(kError);
  }

  /// Blocks until resolved, moving chunks of a shared move meanwhile;
  /// rethrows a published error.
  RecvResult get() {
    std::uint32_t s = await(kPending);
    if (s == kShared) {
      claim_chunks();
      // The closer has at most one chunk left before it resolves the cell.
      s = await(kShared);
    }
    if (s == kError) std::rethrow_exception(error_);
    return result_;
  }

 private:
  static constexpr std::uint32_t kPending = 0;
  static constexpr std::uint32_t kValue = 1;
  static constexpr std::uint32_t kError = 2;
  static constexpr std::uint32_t kShared = 3;

  /// Waits until the state leaves `from`, spinning kSpinPolls polls before
  /// it parks whatever the transfer's size, and returns the new state.
  std::uint32_t await(std::uint32_t from) {
    std::uint32_t s = state_.load(std::memory_order_acquire);
    for (int i = 1; s == from && i <= kSpinPolls; ++i) {
      spin_pause(i);
      s = state_.load(std::memory_order_acquire);
    }
    while (s == from) {
      state_.wait(from, std::memory_order_acquire);
      s = state_.load(std::memory_order_acquire);
    }
    return s;
  }

  /// Claims and moves chunks of the shared move until none is left.
  void claim_chunks() {
    for (std::size_t c = next_.fetch_add(1, std::memory_order_relaxed); c < chunks_;
         c = next_.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t off = c * kShareChunkBytes;
      move_.run(off, std::min(kShareChunkBytes, bytes_ - off));
      moved_.fetch_add(1, std::memory_order_release);
    }
  }

  void publish(std::uint32_t s) {
    // seq_cst, not release: libstdc++'s notify skips the futex wake when it
    // reads no registered waiter, and only a seq_cst store keeps that read
    // from passing the store a parking waiter re-checks. With release, the
    // waiter can park after the last notify and sleep forever.
    state_.store(s, std::memory_order_seq_cst);
    state_.notify_all();
  }

  std::atomic<std::uint32_t> state_{kPending};
  RecvResult result_;
  std::exception_ptr error_;
  // The shared move: written before kShared is published, then read-only.
  PayloadMove move_;
  std::size_t bytes_ = 0;
  std::size_t chunks_ = 0;
  std::atomic<std::size_t> next_{0};   ///< next unclaimed chunk
  std::atomic<std::size_t> moved_{0};  ///< chunks landed
};

sim::TimeUs PendingSend::wait(sim::VirtualClock& clock) {
  require(valid_, "PendingSend::wait: empty handle");
  valid_ = false;
  const std::shared_ptr<CompletionCell> cell = std::move(cell_);
  const sim::TimeUs t = cell ? cell->get().completion : done_;
  clock.advance_to(t);
  return t;
}

RecvResult PendingRecv::wait(sim::VirtualClock& clock) {
  require(valid(), "PendingRecv::wait: empty handle");
  const std::shared_ptr<CompletionCell> cell = std::move(cell_);
  RecvResult r = cell->get();
  clock.advance_to(r.completion);
  return r;
}

void Endpoint::complete(const PostedRecv& r, const PostedSend& s, CompletionCell* peer) {
  auto fail = [&](const std::string& what) {
    auto err = std::make_exception_ptr(Error(what));
    r.done->set_error(err);
    if (s.done) s.done->set_error(err);
  };
  PayloadMove m{.dst = static_cast<std::byte*>(r.buf),
                .src = static_cast<const std::byte*>(s.data)};
  if (r.reduce) {
    if (s.bytes != r.capacity) {
      fail("fabric: receive-reduce size mismatch (got " + std::to_string(s.bytes) +
           " bytes, posted " + std::to_string(r.capacity) + ")");
      return;
    }
    m.local = static_cast<const std::byte*>(r.reduce->local != nullptr ? r.reduce->local
                                                                        : r.buf);
    m.base = r.reduce->base;
    m.op = r.reduce->op;
  } else if (s.bytes > r.capacity) {
    fail("fabric: message truncation (got " + std::to_string(s.bytes) +
         " bytes, capacity " + std::to_string(r.capacity) + ")");
    return;
  }
  // An in-place self move copies nothing.
  if (s.bytes > 0 && (r.reduce || r.buf != s.data)) {
    if (peer != nullptr && s.bytes >= kShareMinBytes) {
      peer->share(m, s.bytes);
    } else {
      m.run(0, s.bytes);
    }
  }

  const sim::TimeUs base =
      (s.sender_ready > r.recv_ready) ? s.sender_ready : r.recv_ready;
  const double transfer_us = r.cost ? r.cost(s.src, s.bytes) : 0.0;
  const RecvResult res{s.bytes, s.src, s.tag, base + transfer_us};

  r.done->set_value(res);
  if (s.done) s.done->set_value(res);
}

PendingSend Endpoint::deliver(int src, int tag, ChannelId channel, const void* data,
                              std::size_t bytes, sim::TimeUs sender_ready,
                              const SendPolicy& policy) {
  require(bytes == 0 || data != nullptr, "Endpoint::deliver: null payload");

  PostedSend s{.src = src,
               .tag = tag,
               .channel = channel,
               .data = data,
               .bytes = bytes,
               .sender_ready = sender_ready,
               .buffered = nullptr,
               .done = nullptr};
  if (policy.rendezvous) s.done = std::make_shared<CompletionCell>();
  PendingSend handle = s.done ? PendingSend(s.done)
                              : PendingSend(sender_ready + policy.eager_complete_us);

  auto posted = [&] {
    return std::find_if(pending_.begin(), pending_.end(),
                        [&](const PostedRecv& r) { return matches(r, s); });
  };
  std::unique_lock lock(mu_);
  auto it = posted();
  if (it == pending_.end() && !s.done && bytes > 0) {
    // An eager sender owns its buffer again once deliver returns, so an
    // unmatched eager payload is buffered before any receiver can see the
    // entry. The copy runs outside the lock; a receive posted meanwhile
    // takes the buffered copy.
    lock.unlock();
    s.buffered = std::make_unique_for_overwrite<std::byte[]>(bytes);
    std::memcpy(s.buffered.get(), data, bytes);
    s.data = s.buffered.get();
    lock.lock();
    it = posted();
  }
  if (it == pending_.end()) {
    unexpected_.push_back(std::move(s));
    return handle;
  }
  PostedRecv r = std::move(*it);
  pending_.erase(it);
  lock.unlock();
  complete(r, s, r.done.get());
  return handle;
}

PendingRecv Endpoint::post_recv(int src, int tag, ChannelId channel, void* buf,
                                std::size_t capacity, sim::TimeUs recv_ready,
                                CostFn cost, std::optional<ReduceSpec> reduce) {
  require(capacity == 0 || buf != nullptr, "Endpoint::post_recv: null buffer");
  if (reduce && !reduce_defined(reduce->base, reduce->op)) {
    throw Error("Endpoint::post_recv: receive-reduce op " +
                std::string(to_string(reduce->op)) + " is not defined for " +
                std::string(to_string(reduce->base)));
  }
  if (reduce && capacity % datatype_size(reduce->base) != 0) {
    throw Error("Endpoint::post_recv: receive-reduce of " + std::to_string(capacity) +
                " bytes is not a whole number of " +
                std::string(to_string(reduce->base)) + " elements");
  }
  if (reduce && partly_overlap(reduce->local, buf, capacity)) {
    throw Error("Endpoint::post_recv: receive-reduce local operand " +
                fmt::byte_range(reduce->local, capacity) +
                " partly overlaps the posted buffer " + fmt::byte_range(buf, capacity));
  }

  PostedRecv r{.src = src,
               .tag = tag,
               .channel = channel,
               .buf = buf,
               .capacity = capacity,
               .recv_ready = recv_ready,
               .cost = std::move(cost),
               .reduce = reduce,
               .done = std::make_shared<CompletionCell>()};
  PendingRecv handle(r.done);

  std::unique_lock lock(mu_);
  const auto it = std::find_if(unexpected_.begin(), unexpected_.end(),
                               [&](const PostedSend& s) { return matches(r, s); });
  if (it == unexpected_.end()) {
    pending_.push_back(std::move(r));
    return handle;
  }
  const PostedSend s = std::move(*it);
  unexpected_.erase(it);
  lock.unlock();
  complete(r, s, s.done.get());  // null for an eager send: nobody waits on it
  return handle;
}

std::size_t Endpoint::unexpected_count() const {
  std::lock_guard lock(mu_);
  return unexpected_.size();
}

std::size_t Endpoint::pending_recv_count() const {
  std::lock_guard lock(mu_);
  return pending_.size();
}

}  // namespace mpixccl::fabric
