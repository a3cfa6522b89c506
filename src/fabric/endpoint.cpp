#include "fabric/endpoint.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <thread>

#include "common/reduce.hpp"
#include "common/status.hpp"

namespace mpixccl::fabric {

namespace {

/// Waits on transfers up to this size spin before parking: their peer is
/// usually a few microseconds away, and a futex sleep plus wake-up costs
/// more than that. Larger transfers park at once, so long waits never burn
/// a core another rank thread needs.
constexpr std::size_t kSpinMaxBytes = 64 * 1024;
/// Polls of the state word before a small-transfer wait parks.
constexpr int kSpinPolls = 2000;
/// Every this many polls the spinner yields its core instead of pausing:
/// when threads outnumber free cores, the peer it waits for may be queued
/// behind it on the same core.
constexpr int kYieldEvery = 32;

/// True when [a, a + n) and [b, b + n) share a byte without being the same
/// range. A null `a` (no separate operand) never overlaps.
bool partly_overlap(const void* a, const void* b, std::size_t n) {
  if (a == nullptr || a == b || n == 0) return false;
  const auto x = reinterpret_cast<std::uintptr_t>(a);
  const auto y = reinterpret_cast<std::uintptr_t>(b);
  return x < y + n && y < x + n;
}

/// "[first, last)" of a byte range, in hex.
std::string range_string(const void* p, std::size_t n) {
  const auto x = reinterpret_cast<std::uintptr_t>(p);
  std::ostringstream os;
  os << std::hex << "[0x" << x << ", 0x" << x + n << ")";
  return os.str();
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

/// One-shot completion shared by a handle and the thread that closes its
/// match. The result (or error) is written before the state word publishes
/// it, so a waiter that reads a final state also sees the result.
class CompletionCell {
 public:
  explicit CompletionCell(std::size_t bytes) : spin_(bytes <= kSpinMaxBytes) {}

  void set_value(const RecvResult& r) {
    result_ = r;
    publish(kValue);
  }
  void set_error(std::exception_ptr e) {
    error_ = std::move(e);
    publish(kError);
  }

  /// Blocks until published; rethrows a published error.
  RecvResult get() {
    std::uint32_t s = state_.load(std::memory_order_acquire);
    for (int i = 1; s == kPending && spin_ && i <= kSpinPolls; ++i) {
      if (i % kYieldEvery == 0) {
        std::this_thread::yield();
      } else {
        cpu_relax();
      }
      s = state_.load(std::memory_order_acquire);
    }
    while (s == kPending) {
      state_.wait(kPending, std::memory_order_acquire);
      s = state_.load(std::memory_order_acquire);
    }
    if (s == kError) std::rethrow_exception(error_);
    return result_;
  }

 private:
  static constexpr std::uint32_t kPending = 0;
  static constexpr std::uint32_t kValue = 1;
  static constexpr std::uint32_t kError = 2;

  void publish(std::uint32_t s) {
    // seq_cst, not release: libstdc++'s notify skips the futex wake when it
    // reads no registered waiter, and only a seq_cst store keeps that read
    // from passing the store a parking waiter re-checks. With release, the
    // waiter can park after the last notify and sleep forever.
    state_.store(s, std::memory_order_seq_cst);
    state_.notify_all();
  }

  std::atomic<std::uint32_t> state_{kPending};
  const bool spin_;
  RecvResult result_;
  std::exception_ptr error_;
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

void Endpoint::complete(const PostedRecv& r, const PostedSend& s) {
  auto fail = [&](const std::string& what) {
    auto err = std::make_exception_ptr(Error(what));
    r.done->set_error(err);
    if (s.done) s.done->set_error(err);
  };
  if (r.reduce) {
    if (s.bytes != r.capacity) {
      fail("fabric: receive-reduce size mismatch (got " + std::to_string(s.bytes) +
           " bytes, posted " + std::to_string(r.capacity) + ")");
      return;
    }
    // (base, op) and `local` were validated at post time, so this cannot fail.
    if (s.bytes > 0) {
      const void* local = r.reduce->local != nullptr ? r.reduce->local : r.buf;
      (void)apply_reduce(r.reduce->base, r.reduce->op, s.data, local, r.buf,
                         s.bytes / datatype_size(r.reduce->base));
    }
  } else if (s.bytes > r.capacity) {
    fail("fabric: message truncation (got " + std::to_string(s.bytes) +
         " bytes, capacity " + std::to_string(r.capacity) + ")");
    return;
  } else if (s.bytes > 0 && r.buf != s.data) {  // an in-place self move copies nothing
    std::memcpy(r.buf, s.data, s.bytes);
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
  if (policy.rendezvous) s.done = std::make_shared<CompletionCell>(bytes);
  PendingSend handle = s.done ? PendingSend(s.done)
                              : PendingSend(sender_ready + policy.eager_complete_us);

  std::unique_lock lock(mu_);
  const auto it = std::find_if(pending_.begin(), pending_.end(),
                               [&](const PostedRecv& r) { return matches(r, s); });
  if (it == pending_.end()) {
    // An eager sender owns its buffer again once deliver returns, so an
    // unmatched eager payload is buffered here, before any receiver can
    // see the entry.
    if (!s.done && bytes > 0) {
      s.buffered = std::make_unique_for_overwrite<std::byte[]>(bytes);
      std::memcpy(s.buffered.get(), data, bytes);
      s.data = s.buffered.get();
    }
    unexpected_.push_back(std::move(s));
    return handle;
  }
  PostedRecv r = std::move(*it);
  pending_.erase(it);
  lock.unlock();
  complete(r, s);
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
                range_string(reduce->local, capacity) +
                " partly overlaps the posted buffer " + range_string(buf, capacity));
  }

  PostedRecv r{.src = src,
               .tag = tag,
               .channel = channel,
               .buf = buf,
               .capacity = capacity,
               .recv_ready = recv_ready,
               .cost = std::move(cost),
               .reduce = reduce,
               .done = std::make_shared<CompletionCell>(capacity)};
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
  complete(r, s);
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
