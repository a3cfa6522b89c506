// Tests for the fabric transport: matching semantics, protocol behaviour,
// virtual-clock rendezvous, and the World runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/reduce.hpp"
#include "fabric/endpoint.hpp"
#include "fabric/world.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::fabric {
namespace {

CostFn flat_cost(double alpha, double bw_MBps) {
  return [=](int, std::size_t bytes) {
    return alpha + static_cast<double>(bytes) / bw_MBps;
  };
}

TEST(Endpoint, EagerSendCompletesWithoutReceiver) {
  Endpoint ep(1);
  const int payload = 42;
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 3.0};
  PendingSend s = ep.deliver(0, 7, 100, &payload, sizeof(payload), 10.0, eager);

  sim::VirtualClock clock;
  // Resolves immediately at sender_ready + eager cost even though no recv.
  EXPECT_DOUBLE_EQ(s.wait(clock), 13.0);
  EXPECT_EQ(ep.unexpected_count(), 1u);

  int out = 0;
  PendingRecv r = ep.post_recv(0, 7, 100, &out, sizeof(out), 20.0, flat_cost(5, 1e6));
  sim::VirtualClock rclock;
  const RecvResult res = r.wait(rclock);
  EXPECT_EQ(out, 42);
  EXPECT_EQ(res.src, 0);
  EXPECT_EQ(res.tag, 7);
  EXPECT_EQ(res.bytes, sizeof(int));
  // completion = max(10, 20) + 5 + 4B/1e6MBps ~ 25.
  EXPECT_NEAR(res.completion, 25.0, 1e-4);
  EXPECT_DOUBLE_EQ(rclock.now(), res.completion);
}

TEST(Endpoint, RendezvousSenderSynchronizesWithReceiver) {
  Endpoint ep(1);
  std::vector<char> data(1000, 'a');
  std::vector<char> out(1000);
  SendPolicy rndv{.rendezvous = true, .eager_complete_us = 0.0};

  // Receiver is ready *before* the sender: completion based on sender time.
  PendingRecv r = ep.post_recv(kAnySource, kAnyTag, 5, out.data(), out.size(), 2.0,
                               flat_cost(1.0, 1000.0));
  PendingSend s = ep.deliver(3, 9, 5, data.data(), data.size(), 50.0, rndv);

  sim::VirtualClock sc;
  sim::VirtualClock rc;
  const double sender_done = s.wait(sc);
  const RecvResult res = r.wait(rc);
  // base = max(50, 2) = 50; cost = 1 + 1000/1000 = 2.
  EXPECT_DOUBLE_EQ(res.completion, 52.0);
  EXPECT_DOUBLE_EQ(sender_done, 52.0);  // rendezvous: sender completes with transfer
  EXPECT_EQ(out[999], 'a');
  EXPECT_EQ(res.src, 3);
  EXPECT_EQ(res.tag, 9);
}

TEST(Endpoint, ChannelsIsolateTraffic) {
  Endpoint ep(0);
  const int a = 1;
  const int b = 2;
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 0.0};
  ep.deliver(5, 0, /*channel=*/111, &a, sizeof(a), 0.0, eager);
  ep.deliver(5, 0, /*channel=*/222, &b, sizeof(b), 0.0, eager);

  int out = 0;
  sim::VirtualClock clock;
  // Receive on channel 222 first: must get `b`, not the earlier `a`.
  PendingRecv r = ep.post_recv(5, 0, 222, &out, sizeof(out), 0.0, flat_cost(0, 1));
  r.wait(clock);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(ep.unexpected_count(), 1u);
}

TEST(Endpoint, FifoOrderPerSourceAndTag) {
  Endpoint ep(0);
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 0.0};
  for (int v : {10, 20, 30}) {
    ep.deliver(1, 4, 9, &v, sizeof(v), 0.0, eager);
  }
  sim::VirtualClock clock;
  for (int expect : {10, 20, 30}) {
    int out = 0;
    PendingRecv r = ep.post_recv(1, 4, 9, &out, sizeof(out), 0.0, flat_cost(0, 1));
    r.wait(clock);
    EXPECT_EQ(out, expect);
  }
}

TEST(Endpoint, TruncationIsAnError) {
  Endpoint ep(0);
  std::vector<char> big(64, 'x');
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 0.0};
  ep.deliver(1, 0, 3, big.data(), big.size(), 0.0, eager);

  char small[8];
  PendingRecv r = ep.post_recv(1, 0, 3, small, sizeof(small), 0.0, flat_cost(0, 1));
  sim::VirtualClock clock;
  EXPECT_THROW(r.wait(clock), Error);
}

TEST(Endpoint, RendezvousTruncationRaisesOnBothSides) {
  std::vector<char> big(64, 'x');
  char small[8];
  SendPolicy rndv{.rendezvous = true, .eager_complete_us = 0.0};
  sim::VirtualClock clock;
  {
    // The receiver closes the match (send unexpected).
    Endpoint ep(0);
    PendingSend s = ep.deliver(1, 0, 3, big.data(), big.size(), 0.0, rndv);
    PendingRecv r = ep.post_recv(1, 0, 3, small, sizeof(small), 0.0, flat_cost(0, 1));
    EXPECT_THROW(r.wait(clock), Error);
    EXPECT_THROW(s.wait(clock), Error);
  }
  {
    // The sender closes the match (recv pending).
    Endpoint ep(0);
    PendingRecv r = ep.post_recv(1, 0, 3, small, sizeof(small), 0.0, flat_cost(0, 1));
    PendingSend s = ep.deliver(1, 0, 3, big.data(), big.size(), 0.0, rndv);
    EXPECT_THROW(s.wait(clock), Error);
    EXPECT_THROW(r.wait(clock), Error);
  }
}

TEST(Endpoint, UnmatchedEagerSendIsBufferedAtPost) {
  Endpoint ep(0);
  std::vector<int> data{1, 2, 3, 4};
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 0.0};
  PendingSend s = ep.deliver(1, 0, 3, data.data(), data.size() * sizeof(int), 0.0, eager);
  // An eager sender owns its buffer again as soon as the post returns.
  std::fill(data.begin(), data.end(), -1);
  sim::VirtualClock clock;
  s.wait(clock);
  EXPECT_EQ(ep.unexpected_count(), 1u);

  std::vector<int> out(4, 0);
  PendingRecv r = ep.post_recv(1, 0, 3, out.data(), out.size() * sizeof(int), 0.0,
                               flat_cost(0, 1));
  r.wait(clock);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Endpoint, EagerSendIntoPostedRecvIsNotBuffered) {
  Endpoint ep(0);
  int out = 0;
  PendingRecv r = ep.post_recv(1, 0, 3, &out, sizeof(out), 0.0, flat_cost(0, 1));
  const int v = 9;
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 0.0};
  PendingSend s = ep.deliver(1, 0, 3, &v, sizeof(v), 0.0, eager);
  EXPECT_EQ(ep.unexpected_count(), 0u);
  EXPECT_EQ(ep.pending_recv_count(), 0u);
  sim::VirtualClock clock;
  s.wait(clock);
  r.wait(clock);
  EXPECT_EQ(out, 9);
}

TEST(Endpoint, RendezvousPayloadIsReadAtMatchTime) {
  // A rendezvous send buffer stays the fabric's until the send resolves:
  // the payload is not copied at post, but read in place by the match.
  Endpoint ep(0);
  int v = 1;
  SendPolicy rndv{.rendezvous = true, .eager_complete_us = 0.0};
  PendingSend s = ep.deliver(1, 0, 3, &v, sizeof(v), 0.0, rndv);
  v = 2;
  int out = 0;
  PendingRecv r = ep.post_recv(1, 0, 3, &out, sizeof(out), 0.0, flat_cost(0, 1));
  sim::VirtualClock clock;
  r.wait(clock);
  s.wait(clock);
  EXPECT_EQ(out, 2);
}

TEST(Endpoint, WaitConsumesTheHandle) {
  Endpoint ep(0);
  const int v = 5;
  int out = 0;
  SendPolicy rndv{.rendezvous = true, .eager_complete_us = 0.0};
  PendingSend s = ep.deliver(1, 0, 3, &v, sizeof(v), 0.0, rndv);
  PendingRecv r = ep.post_recv(1, 0, 3, &out, sizeof(out), 0.0, flat_cost(0, 1));
  sim::VirtualClock clock;
  ASSERT_TRUE(s.valid());
  ASSERT_TRUE(r.valid());
  s.wait(clock);
  r.wait(clock);
  EXPECT_FALSE(s.valid());
  EXPECT_FALSE(r.valid());
  EXPECT_THROW(s.wait(clock), Error);
  EXPECT_THROW(r.wait(clock), Error);
}

TEST(Endpoint, ZeroByteMessages) {
  Endpoint ep(0);
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 1.0};
  PendingSend s = ep.deliver(2, 8, 4, nullptr, 0, 5.0, eager);
  PendingRecv r = ep.post_recv(2, 8, 4, nullptr, 0, 7.0, flat_cost(0.5, 1e6));
  sim::VirtualClock clock;
  EXPECT_DOUBLE_EQ(s.wait(clock), 6.0);
  EXPECT_DOUBLE_EQ(r.wait(clock).completion, 7.5);
}

// ---- Receive-reduce ----------------------------------------------------------

constexpr ReduceSpec kSumF64{DataType::Float64, ReduceOp::Sum};

/// The bytes the inbox-then-reduce path yields: acc = op(acc, payload).
std::vector<double> reduced(std::vector<double> acc, const std::vector<double>& in) {
  EXPECT_EQ(apply_reduce(DataType::Float64, ReduceOp::Sum, in.data(), acc.data(),
                         acc.size()),
            XcclResult::Success);
  return acc;
}

TEST(RecvReduce, RendezvousReceiveFirst) {
  // The sender closes the match and reduces on its own thread.
  Endpoint ep(0);
  std::vector<double> acc{0.1, 0.2, 0.3, 1e16};
  const std::vector<double> payload{0.7, -0.2, 1.0 / 3.0, 1.0};
  const std::vector<double> want = reduced(acc, payload);
  PendingRecv r = ep.post_recv(1, 0, 3, acc.data(), acc.size() * sizeof(double), 4.0,
                               flat_cost(1.0, 1000.0), kSumF64);
  SendPolicy rndv{.rendezvous = true, .eager_complete_us = 0.0};
  PendingSend s = ep.deliver(1, 0, 3, payload.data(), payload.size() * sizeof(double),
                             10.0, rndv);
  sim::VirtualClock rc;
  sim::VirtualClock sc;
  const RecvResult res = r.wait(rc);
  // Priced exactly like a copy: max(10, 4) + 1 + 32 B / 1000 MB/s.
  EXPECT_DOUBLE_EQ(res.completion, 11.032);
  EXPECT_DOUBLE_EQ(s.wait(sc), res.completion);
  EXPECT_EQ(res.bytes, payload.size() * sizeof(double));
  EXPECT_EQ(std::memcmp(acc.data(), want.data(), acc.size() * sizeof(double)), 0);
}

TEST(RecvReduce, RendezvousSendFirst) {
  // The receiver closes the match at post time.
  Endpoint ep(0);
  std::vector<double> acc{2.5, -1.25, 1e-9};
  const std::vector<double> payload{0.1, 0.2, 0.3};
  const std::vector<double> want = reduced(acc, payload);
  SendPolicy rndv{.rendezvous = true, .eager_complete_us = 0.0};
  PendingSend s = ep.deliver(1, 0, 3, payload.data(), payload.size() * sizeof(double),
                             0.0, rndv);
  PendingRecv r = ep.post_recv(1, 0, 3, acc.data(), acc.size() * sizeof(double), 0.0,
                               flat_cost(0, 1), kSumF64);
  sim::VirtualClock clock;
  r.wait(clock);
  s.wait(clock);
  EXPECT_EQ(std::memcmp(acc.data(), want.data(), acc.size() * sizeof(double)), 0);
}

TEST(RecvReduce, BufferedEagerSendIsReducedAtPost) {
  Endpoint ep(0);
  std::vector<double> payload{1.5, 2.5};
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 0.0};
  PendingSend s = ep.deliver(1, 0, 3, payload.data(), payload.size() * sizeof(double),
                             0.0, eager);
  const std::vector<double> sent = payload;
  std::fill(payload.begin(), payload.end(), -100.0);  // the sender reuses it
  sim::VirtualClock clock;
  s.wait(clock);
  ASSERT_EQ(ep.unexpected_count(), 1u);

  std::vector<double> acc{0.25, 0.5};
  const std::vector<double> want = reduced(acc, sent);
  PendingRecv r = ep.post_recv(1, 0, 3, acc.data(), acc.size() * sizeof(double), 0.0,
                               flat_cost(0, 1), kSumF64);
  r.wait(clock);
  EXPECT_EQ(std::memcmp(acc.data(), want.data(), acc.size() * sizeof(double)), 0);
}

TEST(RecvReduce, ZeroBytes) {
  Endpoint ep(0);
  PendingRecv r = ep.post_recv(2, 8, 4, nullptr, 0, 7.0, flat_cost(0.5, 1e6), kSumF64);
  SendPolicy rndv{.rendezvous = true, .eager_complete_us = 0.0};
  PendingSend s = ep.deliver(2, 8, 4, nullptr, 0, 5.0, rndv);
  sim::VirtualClock clock;
  EXPECT_DOUBLE_EQ(r.wait(clock).completion, 7.5);
  EXPECT_DOUBLE_EQ(s.wait(clock), 7.5);
}

TEST(RecvReduce, SizeMismatchErrorsOnBothHandlesAndNamesBothSizes) {
  // A short payload, which a plain receive would accept, in both match orders.
  const std::vector<double> payload{1.0, 2.0};
  std::vector<double> acc{0.0, 0.0, 0.0};
  SendPolicy rndv{.rendezvous = true, .eager_complete_us = 0.0};
  auto expect_mismatch = [](auto& handle) {
    sim::VirtualClock clock;
    try {
      handle.wait(clock);
      ADD_FAILURE() << "size mismatch not reported";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("16"), std::string::npos) << what;
      EXPECT_NE(what.find("24"), std::string::npos) << what;
    }
  };
  for (const bool recv_first : {true, false}) {
    SCOPED_TRACE(recv_first ? "receive first" : "send first");
    Endpoint ep(0);
    PendingRecv r;
    PendingSend s;
    if (recv_first) {
      r = ep.post_recv(1, 0, 3, acc.data(), 24, 0.0, flat_cost(0, 1), kSumF64);
      s = ep.deliver(1, 0, 3, payload.data(), 16, 0.0, rndv);
    } else {
      s = ep.deliver(1, 0, 3, payload.data(), 16, 0.0, rndv);
      r = ep.post_recv(1, 0, 3, acc.data(), 24, 0.0, flat_cost(0, 1), kSumF64);
    }
    expect_mismatch(r);
    expect_mismatch(s);
    EXPECT_EQ(acc, (std::vector<double>{0.0, 0.0, 0.0}));
  }
}

TEST(RecvReduce, UndefinedOpIsRejectedAtPost) {
  Endpoint ep(0);
  double acc = 0.0;
  try {
    ep.post_recv(1, 0, 3, &acc, sizeof(acc), 0.0, flat_cost(0, 1),
                 ReduceSpec{DataType::Float64, ReduceOp::Band});
    ADD_FAILURE() << "undefined (datatype, op) accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("band"), std::string::npos) << what;
    EXPECT_NE(what.find("float64"), std::string::npos) << what;
  }
  EXPECT_EQ(ep.pending_recv_count(), 0u);
}

TEST(RecvReduce, PartialElementIsRejectedAtPost) {
  Endpoint ep(0);
  std::vector<double> acc(2, 0.0);
  EXPECT_THROW(ep.post_recv(1, 0, 3, acc.data(), 12, 0.0, flat_cost(0, 1), kSumF64),
               Error);
  EXPECT_EQ(ep.pending_recv_count(), 0u);
}

// ---- Receive-reduce with a separate local operand: buf = op(payload, local) ----

/// A posted buffer whose old contents must not be read.
std::vector<double> garbage(std::size_t n) { return std::vector<double>(n, -7e300); }

ReduceSpec sum_with(const std::vector<double>& local) {
  return ReduceSpec{DataType::Float64, ReduceOp::Sum, local.data()};
}

TEST(RecvReduce, LocalOperandInBothMatchOrders) {
  const std::vector<double> local{0.1, 0.2, 0.3, 1e16};
  const std::vector<double> payload{0.7, -0.2, 1.0 / 3.0, 1.0};
  const std::vector<double> want = reduced(local, payload);
  const std::size_t bytes = local.size() * sizeof(double);
  SendPolicy rndv{.rendezvous = true, .eager_complete_us = 0.0};
  for (const bool recv_first : {true, false}) {
    SCOPED_TRACE(recv_first ? "receive first" : "send first");
    Endpoint ep(0);
    std::vector<double> out = garbage(local.size());
    PendingRecv r;
    PendingSend s;
    if (recv_first) {
      r = ep.post_recv(1, 0, 3, out.data(), bytes, 4.0, flat_cost(1.0, 1000.0),
                       sum_with(local));
      s = ep.deliver(1, 0, 3, payload.data(), bytes, 10.0, rndv);
    } else {
      s = ep.deliver(1, 0, 3, payload.data(), bytes, 10.0, rndv);
      r = ep.post_recv(1, 0, 3, out.data(), bytes, 4.0, flat_cost(1.0, 1000.0),
                       sum_with(local));
    }
    sim::VirtualClock clock;
    // Priced exactly like a copy: max(10, 4) + 1 + 32 B / 1000 MB/s.
    EXPECT_DOUBLE_EQ(r.wait(clock).completion, 11.032);
    EXPECT_DOUBLE_EQ(s.wait(clock), 11.032);
    EXPECT_EQ(std::memcmp(out.data(), want.data(), bytes), 0);
    EXPECT_EQ(local, (std::vector<double>{0.1, 0.2, 0.3, 1e16}));
  }
}

TEST(RecvReduce, LocalOperandWithBufferedEagerSend) {
  Endpoint ep(0);
  std::vector<double> payload{1.5, 2.5};
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 0.0};
  PendingSend s = ep.deliver(1, 0, 3, payload.data(), 16, 0.0, eager);
  const std::vector<double> sent = payload;
  std::fill(payload.begin(), payload.end(), -100.0);  // the sender reuses it
  sim::VirtualClock clock;
  s.wait(clock);

  const std::vector<double> local{0.25, 0.5};
  std::vector<double> out = garbage(2);
  PendingRecv r =
      ep.post_recv(1, 0, 3, out.data(), 16, 0.0, flat_cost(0, 1), sum_with(local));
  r.wait(clock);
  EXPECT_EQ(out, reduced(local, sent));
}

TEST(RecvReduce, LocalOperandZeroBytes) {
  Endpoint ep(0);
  const std::vector<double> local{1.0};
  PendingRecv r =
      ep.post_recv(2, 8, 4, nullptr, 0, 7.0, flat_cost(0.5, 1e6), sum_with(local));
  SendPolicy rndv{.rendezvous = true, .eager_complete_us = 0.0};
  PendingSend s = ep.deliver(2, 8, 4, nullptr, 0, 5.0, rndv);
  sim::VirtualClock clock;
  EXPECT_DOUBLE_EQ(r.wait(clock).completion, 7.5);
  EXPECT_DOUBLE_EQ(s.wait(clock), 7.5);
}

TEST(RecvReduce, LocalOperandSizeMismatchLeavesBothBuffers) {
  const std::vector<double> payload{1.0, 2.0};
  const std::vector<double> local{4.0, 5.0, 6.0};
  std::vector<double> out{0.0, 0.0, 0.0};
  SendPolicy rndv{.rendezvous = true, .eager_complete_us = 0.0};
  Endpoint ep(0);
  PendingRecv r =
      ep.post_recv(1, 0, 3, out.data(), 24, 0.0, flat_cost(0, 1), sum_with(local));
  PendingSend s = ep.deliver(1, 0, 3, payload.data(), 16, 0.0, rndv);
  sim::VirtualClock clock;
  EXPECT_THROW(r.wait(clock), Error);
  EXPECT_THROW(s.wait(clock), Error);
  EXPECT_EQ(out, (std::vector<double>{0.0, 0.0, 0.0}));
  EXPECT_EQ(local, (std::vector<double>{4.0, 5.0, 6.0}));
}

/// "[first, last)" in hex, as the fabric names a byte range.
std::string hex_range(const void* p, std::size_t n) {
  const auto x = reinterpret_cast<std::uintptr_t>(p);
  std::ostringstream os;
  os << std::hex << "[0x" << x << ", 0x" << x + n << ")";
  return os.str();
}

TEST(RecvReduce, PartlyOverlappingLocalIsRejectedAtPostNamingBothRanges) {
  Endpoint ep(0);
  std::vector<double> mem(6, 1.0);
  double* buf = mem.data() + 1;
  const std::size_t bytes = 2 * sizeof(double);
  for (const double* local : {mem.data(), mem.data() + 2}) {
    try {
      ep.post_recv(1, 0, 3, buf, bytes, 0.0, flat_cost(0, 1),
                   ReduceSpec{DataType::Float64, ReduceOp::Sum, local});
      ADD_FAILURE() << "partly overlapping local operand accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(hex_range(local, bytes)), std::string::npos) << what;
      EXPECT_NE(what.find(hex_range(buf, bytes)), std::string::npos) << what;
    }
  }
  EXPECT_EQ(ep.pending_recv_count(), 0u);

  // The same range, and an adjacent one, are accepted.
  for (const double* local : {buf, mem.data() + 3}) {
    PendingRecv r = ep.post_recv(1, 0, 3, buf, bytes, 0.0, flat_cost(0, 1),
                                 ReduceSpec{DataType::Float64, ReduceOp::Sum, local});
    EXPECT_TRUE(r.valid());
  }
  EXPECT_EQ(ep.pending_recv_count(), 2u);
}

// ---- Shared moves: both parties of a large match move chunks ---------------

/// What both handles of one matched rendezvous pair resolved to.
struct PairOutcome {
  RecvResult recv;
  std::exception_ptr recv_error;
  sim::TimeUs send_done = 0.0;
  std::exception_ptr send_error;
};

/// Runs one rendezvous pair on endpoint 0 with the party that does not close
/// the match already waiting on its own thread: with `recv_first` the
/// receiver waits and the sender closes, otherwise the reverse. Priced at
/// max(10, 4) + 1 + bytes / 1000.
PairOutcome run_pair(bool recv_first, const void* payload, std::size_t bytes, void* buf,
                     std::size_t capacity, std::optional<ReduceSpec> reduce) {
  Endpoint ep(0);
  const SendPolicy rndv{.rendezvous = true, .eager_complete_us = 0.0};
  PairOutcome o;
  auto wait_recv = [&](PendingRecv& r) {
    sim::VirtualClock clock;
    try {
      o.recv = r.wait(clock);
    } catch (...) {
      o.recv_error = std::current_exception();
    }
  };
  auto wait_send = [&](PendingSend& s) {
    sim::VirtualClock clock;
    try {
      o.send_done = s.wait(clock);
    } catch (...) {
      o.send_error = std::current_exception();
    }
  };
  auto post_recv = [&] {
    return ep.post_recv(1, 0, 3, buf, capacity, 4.0, flat_cost(1.0, 1000.0), reduce);
  };
  auto deliver = [&] { return ep.deliver(1, 0, 3, payload, bytes, 10.0, rndv); };
  // Long enough for the waiter to park before the closer publishes.
  constexpr auto kLetItPark = std::chrono::milliseconds(1);
  if (recv_first) {
    PendingRecv r = post_recv();
    std::thread waiter([&] { wait_recv(r); });
    std::this_thread::sleep_for(kLetItPark);
    PendingSend s = deliver();
    wait_send(s);
    waiter.join();
  } else {
    PendingSend s = deliver();
    std::thread waiter([&] { wait_send(s); });
    std::this_thread::sleep_for(kLetItPark);
    PendingRecv r = post_recv();
    wait_recv(r);
    waiter.join();
  }
  return o;
}

/// `n` elements of `dt` with finite values small enough that no sum of two
/// overflows, from a seed.
std::vector<std::byte> sample(DataType dt, std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n * datatype_size(dt));
  std::uint64_t x = seed;
  auto put = [&](std::size_t i, auto v) { std::memcpy(&out[i * sizeof(v)], &v, sizeof(v)); };
  for (std::size_t i = 0; i < n; ++i) {
    x = splitmix64(x);
    const auto small = static_cast<std::int64_t>(x % 101) - 50;
    const double real = static_cast<double>(static_cast<std::int64_t>(x % 20001) - 10000) / 64;
    switch (dt) {
      case DataType::Int8: put(i, static_cast<std::int8_t>(small)); break;
      case DataType::Uint8: put(i, static_cast<std::uint8_t>(small + 50)); break;
      case DataType::Int32: put(i, static_cast<std::int32_t>(small)); break;
      case DataType::Uint32: put(i, static_cast<std::uint32_t>(small + 50)); break;
      case DataType::Int64: put(i, small); break;
      case DataType::Uint64: put(i, static_cast<std::uint64_t>(small + 50)); break;
      case DataType::Float16:
      case DataType::BFloat16:
        // Sign, then an exponent field below half its range: finite.
        put(i, static_cast<std::uint16_t>(x & 0xBFFF));
        break;
      case DataType::Float32: put(i, static_cast<float>(real)); break;
      case DataType::Float64: put(i, real); break;
      case DataType::FloatComplex:
        put(2 * i, static_cast<float>(real));
        put(2 * i + 1, static_cast<float>(-real / 3));
        break;
      case DataType::DoubleComplex:
        put(2 * i, real);
        put(2 * i + 1, -real / 3);
        break;
      case DataType::Byte: put(i, static_cast<std::uint8_t>(x)); break;
    }
  }
  return out;
}

constexpr DataType kReducible[] = {
    DataType::Int8,    DataType::Uint8,    DataType::Int32,        DataType::Uint32,
    DataType::Int64,   DataType::Uint64,   DataType::Float16,      DataType::BFloat16,
    DataType::Float32, DataType::Float64,  DataType::FloatComplex, DataType::DoubleComplex};

/// Payload sizes around the sharing threshold, for element size `e`: one
/// element short of two chunks (moved whole), exactly two chunks, one
/// element more, and a size that is no multiple of the chunk.
std::vector<std::size_t> sizes_around_threshold(std::size_t e) {
  return {kShareMinBytes - e, kShareMinBytes, kShareMinBytes + e,
          kShareMinBytes + kShareChunkBytes / 2 + 3 * e};
}

enum class MoveKind { Copy, ReduceInPlace, ReduceWithLocal };

TEST(SharedMove, ByteExactAgainstASerialMoveForEveryDatatypeSizeAndOrder) {
  for (const DataType dt : kReducible) {
    const std::size_t e = datatype_size(dt);
    for (const std::size_t bytes : sizes_around_threshold(e)) {
      const std::size_t n = bytes / e;
      const std::vector<std::byte> payload = sample(dt, n, 1);
      const std::vector<std::byte> local = sample(dt, n, 2);
      for (const MoveKind kind :
           {MoveKind::Copy, MoveKind::ReduceInPlace, MoveKind::ReduceWithLocal}) {
        // The serial reference: one memcpy, or one apply_reduce over it all.
        std::vector<std::byte> want = payload;
        if (kind != MoveKind::Copy) {
          ASSERT_EQ(apply_reduce(dt, ReduceOp::Sum, payload.data(), local.data(),
                                 want.data(), n),
                    XcclResult::Success);
        }
        for (const bool recv_first : {true, false}) {
          SCOPED_TRACE(std::string(to_string(dt)) + " " + std::to_string(bytes) +
                       " B kind " + std::to_string(static_cast<int>(kind)) +
                       (recv_first ? " receive first" : " send first"));
          std::vector<std::byte> buf(bytes, std::byte{0x5a});
          std::optional<ReduceSpec> reduce;
          if (kind == MoveKind::ReduceInPlace) {
            buf = local;
            reduce = ReduceSpec{dt, ReduceOp::Sum};
          } else if (kind == MoveKind::ReduceWithLocal) {
            reduce = ReduceSpec{dt, ReduceOp::Sum, local.data()};
          }
          const PairOutcome o =
              run_pair(recv_first, payload.data(), bytes, buf.data(), bytes, reduce);
          ASSERT_FALSE(o.recv_error);
          ASSERT_FALSE(o.send_error);
          EXPECT_EQ(o.recv.bytes, bytes);
          // Priced as before: max(10, 4) + 1 + bytes / 1000 MB/s.
          const double t = 11.0 + static_cast<double>(bytes) / 1000.0;
          EXPECT_DOUBLE_EQ(o.recv.completion, t);
          EXPECT_DOUBLE_EQ(o.send_done, t);
          EXPECT_EQ(std::memcmp(buf.data(), want.data(), bytes), 0);
          EXPECT_EQ(local, sample(dt, n, 2)) << "the local operand was written";
        }
      }
    }
  }
}

TEST(SharedMove, LargeInPlaceSelfMoveCopiesNothing) {
  // The payload is the posted buffer itself; a memcpy onto itself would be
  // undefined (and a sanitizer error).
  const std::size_t bytes = kShareMinBytes + kShareChunkBytes / 2;
  std::vector<std::byte> buf = sample(DataType::Byte, bytes, 3);
  const std::vector<std::byte> before = buf;
  for (const bool recv_first : {true, false}) {
    const PairOutcome o =
        run_pair(recv_first, buf.data(), bytes, buf.data(), bytes, std::nullopt);
    ASSERT_FALSE(o.recv_error);
    ASSERT_FALSE(o.send_error);
    EXPECT_EQ(buf, before);
  }
}

TEST(SharedMove, ErrorsShareNothingAndFailBothHandles) {
  const std::size_t big = 4 * kShareChunkBytes;
  const std::size_t small = 3 * kShareChunkBytes;
  const std::vector<std::byte> payload = sample(DataType::Float64, big / 8, 4);
  for (const bool recv_first : {true, false}) {
    SCOPED_TRACE(recv_first ? "receive first" : "send first");
    // Truncation: a plain receive posted for three chunks gets four.
    std::vector<std::byte> buf(big, std::byte{0});
    PairOutcome o = run_pair(recv_first, payload.data(), big, buf.data(), small,
                             std::nullopt);
    EXPECT_TRUE(o.recv_error);
    EXPECT_TRUE(o.send_error);
    EXPECT_EQ(buf, std::vector<std::byte>(big, std::byte{0}));
    // Size mismatch: a receive-reduce posted for four chunks gets three.
    o = run_pair(recv_first, payload.data(), small, buf.data(), big, kSumF64);
    EXPECT_TRUE(o.recv_error);
    EXPECT_TRUE(o.send_error);
    EXPECT_EQ(buf, std::vector<std::byte>(big, std::byte{0}));
  }
}

TEST(World, RunsAllRanksAndPropagatesExceptions) {
  sim::SystemProfile prof = sim::thetagpu();
  World world(WorldConfig{prof, 1, 4});
  std::atomic<int> count{0};
  world.run([&](RankContext& ctx) {
    count.fetch_add(1 + ctx.rank());
    EXPECT_EQ(ctx.size(), 4);
    EXPECT_EQ(&ctx.device(), &ctx.world().device(ctx.rank()));
  });
  EXPECT_EQ(count.load(), 1 + 2 + 3 + 4);

  EXPECT_THROW(world.run([](RankContext& ctx) {
                 if (ctx.rank() == 2) throw Error("rank 2 exploded");
               }),
               Error);
}

TEST(World, CrossThreadMessagePassing) {
  sim::SystemProfile prof = sim::thetagpu();
  World world(WorldConfig{prof, 1, 2});
  world.run([&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      const double x = 3.25;
      ctx.clock().advance(10.0);
      SendPolicy rndv{.rendezvous = true};
      auto s = ctx.endpoint_of(1).deliver(0, 0, 77, &x, sizeof(x),
                                          ctx.clock().now(), rndv);
      s.wait(ctx.clock());
      EXPECT_GE(ctx.clock().now(), 10.0);
    } else {
      double out = 0.0;
      auto r = ctx.endpoint().post_recv(0, 0, 77, &out, sizeof(out),
                                        ctx.clock().now(), flat_cost(2.0, 1e6));
      const RecvResult res = r.wait(ctx.clock());
      EXPECT_EQ(out, 3.25);
      // Sender was at t=10; receiver at 0 -> completion >= 12.
      EXPECT_GE(res.completion, 12.0);
    }
  });
}

TEST(World, SyncClocksAlignsToMax) {
  sim::SystemProfile prof = sim::mri();
  World world(WorldConfig{prof, 1, 4});
  world.run([&](RankContext& ctx) {
    ctx.clock().advance(10.0 * (ctx.rank() + 1));
    ctx.sync_clocks();
    EXPECT_DOUBLE_EQ(ctx.clock().now(), 40.0);
  });
}

TEST(World, ResetTimeClearsClocks) {
  sim::SystemProfile prof = sim::mri();
  World world(WorldConfig{prof, 1, 2});
  world.run([&](RankContext& ctx) { ctx.clock().advance(5.0); });
  world.reset_time();
  world.run([&](RankContext& ctx) { EXPECT_DOUBLE_EQ(ctx.clock().now(), 0.0); });
}

TEST(World, TopologySpansNodes) {
  sim::SystemProfile prof = sim::thetagpu();
  World world(WorldConfig{prof, 2, 0});  // 0 -> profile default (8/node)
  EXPECT_EQ(world.size(), 16);
  EXPECT_TRUE(world.topology().same_node(0, 7));
  EXPECT_FALSE(world.topology().same_node(7, 8));
}

TEST(DeriveChannel, DeterministicAndDistinct) {
  const ChannelId a = derive_channel(1, 1);
  const ChannelId b = derive_channel(1, 1);
  const ChannelId c = derive_channel(1, 2);
  const ChannelId d = derive_channel(2, 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

}  // namespace
}  // namespace mpixccl::fabric
