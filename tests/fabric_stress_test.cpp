// Stress tests of the fabric and MPI messaging layers: high message counts,
// interleaved tags/channels, wildcard races, and ordering guarantees under
// concurrency — the properties every layer above silently depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "fabric/endpoint.hpp"
#include "fabric/world.hpp"
#include "mpi/mpi.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::mini {
namespace {

TEST(FabricStress, ThousandMessagesPerPairStayOrdered) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 4});
  world.run([](fabric::RankContext& ctx) {
    Mpi mpi(ctx, ctx.profile().mpi);
    Comm& comm = mpi.comm_world();
    const int p = mpi.size();
    const int right = (mpi.rank() + 1) % p;
    const int left = (mpi.rank() - 1 + p) % p;
    constexpr int kMessages = 1000;

    // Same tag for every message: FIFO must preserve order exactly.
    std::vector<Request> sends;
    std::vector<int> payloads(kMessages);
    for (int i = 0; i < kMessages; ++i) {
      payloads[static_cast<std::size_t>(i)] = mpi.rank() * 100000 + i;
      sends.push_back(mpi.isend(&payloads[static_cast<std::size_t>(i)], 1, kInt,
                                right, 7, comm));
    }
    for (int i = 0; i < kMessages; ++i) {
      int v = -1;
      mpi.recv(&v, 1, kInt, left, 7, comm);
      ASSERT_EQ(v, left * 100000 + i) << "out-of-order at " << i;
    }
    mpi.waitall(sends);
  });
}

TEST(FabricStress, InterleavedTagsMatchSelectively) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 2});
  world.run([](fabric::RankContext& ctx) {
    Mpi mpi(ctx, ctx.profile().mpi);
    Comm& comm = mpi.comm_world();
    if (mpi.rank() == 0) {
      // Send tag sequence 0,1,2,... interleaved twice.
      for (int round = 0; round < 2; ++round) {
        for (int tag = 0; tag < 50; ++tag) {
          const int v = round * 1000 + tag;
          mpi.send(&v, 1, kInt, 1, tag, comm);
        }
      }
    } else {
      // Receive in *reverse* tag order: matching must pick by tag, and
      // within a tag preserve round order.
      for (int tag = 49; tag >= 0; --tag) {
        for (int round = 0; round < 2; ++round) {
          int v = -1;
          mpi.recv(&v, 1, kInt, 0, tag, comm);
          ASSERT_EQ(v, round * 1000 + tag);
        }
      }
    }
  });
}

TEST(FabricStress, WildcardDrainsManySenders) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 8});
  world.run([](fabric::RankContext& ctx) {
    Mpi mpi(ctx, ctx.profile().mpi);
    Comm& comm = mpi.comm_world();
    constexpr int kPerSender = 64;
    if (mpi.rank() == 0) {
      std::vector<int> counts(8, 0);
      for (int i = 0; i < 7 * kPerSender; ++i) {
        int v = -1;
        const RecvStatus st = mpi.recv(&v, 1, kInt, kAnySource, kAnyTag, comm);
        ASSERT_GE(st.source, 1);
        // Per-sender payloads must arrive in their send order.
        ASSERT_EQ(v, counts[static_cast<std::size_t>(st.source)]++);
      }
      for (int r = 1; r < 8; ++r) {
        EXPECT_EQ(counts[static_cast<std::size_t>(r)], kPerSender);
      }
    } else {
      for (int i = 0; i < kPerSender; ++i) {
        mpi.send(&i, 1, kInt, 0, mpi.rank(), comm);
      }
    }
  });
}

TEST(FabricStress, ManyCommunicatorsNoCrosstalk) {
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 4});
  world.run([](fabric::RankContext& ctx) {
    Mpi mpi(ctx, ctx.profile().mpi);
    std::vector<Comm> comms;
    for (int i = 0; i < 16; ++i) comms.push_back(mpi.dup(mpi.comm_world()));
    // Post one pending recv per comm, then satisfy them in reverse order.
    if (mpi.rank() == 1) {
      std::vector<int> outs(16, -1);
      std::vector<Request> reqs;
      for (int i = 0; i < 16; ++i) {
        reqs.push_back(mpi.irecv(&outs[static_cast<std::size_t>(i)], 1, kInt, 0,
                                 0, comms[static_cast<std::size_t>(i)]));
      }
      mpi.waitall(reqs);
      for (int i = 0; i < 16; ++i) EXPECT_EQ(outs[static_cast<std::size_t>(i)], i);
    } else if (mpi.rank() == 0) {
      for (int i = 15; i >= 0; --i) {
        mpi.send(&i, 1, kInt, 1, 0, comms[static_cast<std::size_t>(i)]);
      }
    }
  });
}

TEST(FabricStress, RandomizedSendRecvSoak) {
  // Random pairwise traffic with randomized sizes across 6 ranks; every
  // message is integrity-checked. Catches matching and payload corruption
  // bugs under pressure.
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 2, 3});
  world.run([](fabric::RankContext& ctx) {
    Mpi mpi(ctx, ctx.profile().mpi);
    Comm& comm = mpi.comm_world();
    const int p = mpi.size();
    constexpr int kRounds = 40;
    auto rng = make_rng(99, static_cast<std::uint64_t>(ctx.rank()));
    for (int round = 0; round < kRounds; ++round) {
      // Deterministic global schedule: in round r, rank i sends to
      // (i + r + 1) % p a payload whose size depends on (round, i).
      const int dst = (mpi.rank() + round + 1) % p;
      const int src = (mpi.rank() - round - 1 + p * kRounds) % p;
      const auto send_n = 1 + (static_cast<std::size_t>(mpi.rank()) * 31 +
                               static_cast<std::size_t>(round) * 17) %
                                  3000;
      const auto recv_n = 1 + (static_cast<std::size_t>(src) * 31 +
                               static_cast<std::size_t>(round) * 17) %
                                  3000;
      std::vector<std::int64_t> out(recv_n);
      std::vector<std::int64_t> data(send_n);
      for (std::size_t i = 0; i < send_n; ++i) {
        data[i] = static_cast<std::int64_t>(mpi.rank()) * 1000003 + round * 997 +
                  static_cast<std::int64_t>(i);
      }
      Request rr = mpi.irecv(out.data(), recv_n, kLongLong, src, round, comm);
      Request sr = mpi.isend(data.data(), send_n, kLongLong, dst, round, comm);
      mpi.wait(sr);
      mpi.wait(rr);
      for (std::size_t i = 0; i < recv_n; i += 61) {
        ASSERT_EQ(out[i], static_cast<std::int64_t>(src) * 1000003 + round * 997 +
                              static_cast<std::int64_t>(i));
      }
      (void)rng;
    }
  });
}

TEST(FabricStress, HandOffSoakLosesNoWakeUp) {
  // Every iteration shifts a small value around the ring and ping-pongs it
  // between pairs (0<->1, 2<->3); every 16th ping-pong carries 80 KiB, a
  // rendezvous transfer whose waits park at once, while the small waits
  // spin first. A completion whose wake-up is lost hangs the test.
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 4});
  world.run([](fabric::RankContext& ctx) {
    Mpi mpi(ctx, ctx.profile().mpi);
    Comm& comm = mpi.comm_world();
    const int me = mpi.rank();
    const int p = mpi.size();
    const int right = (me + 1) % p;
    const int left = (me - 1 + p) % p;
    const int partner = me ^ 1;
    constexpr int kIters = 25000;
    std::vector<int> big(80 * 1024 / sizeof(int));
    std::vector<int> small(1);
    // A wrong value is recorded, not asserted on the spot: a rank that left
    // the loop would hang its partners in their next receive.
    int bad_round = -1;
    const char* bad_check = "";
    auto check = [&](bool ok, int round, const char* what) {
      if (!ok && bad_round < 0) {
        bad_round = round;
        bad_check = what;
      }
    };
    for (int i = 0; i < kIters; ++i) {
      const int mine = me * kIters + i;
      int got = -1;
      mpi.sendrecv(&mine, 1, kInt, right, 0, &got, 1, kInt, left, 0, comm);
      check(got == left * kIters + i, i, "ring shift");

      // The even rank serves both ends of the buffer; the odd rank checks
      // them and answers with both bumped.
      std::vector<int>& buf = (i % 16 == 0) ? big : small;
      if (me % 2 == 0) {
        buf.front() = buf.back() = mine;
        mpi.send(buf.data(), buf.size(), kInt, partner, 1, comm);
        mpi.recv(buf.data(), buf.size(), kInt, partner, 2, comm);
        check(buf.front() == mine + 1 && buf.back() == mine + 1, i, "ping-pong answer");
      } else {
        mpi.recv(buf.data(), buf.size(), kInt, partner, 1, comm);
        const int v = buf.front();
        check(v == partner * kIters + i && buf.back() == v, i, "ping-pong request");
        buf.front() = buf.back() = v + 1;
        mpi.send(buf.data(), buf.size(), kInt, partner, 2, comm);
      }
    }
    EXPECT_EQ(bad_round, -1) << "rank " << me << " first wrong " << bad_check;
  });
}

TEST(FabricStress, SharedMoveSoakLosesNoWakeUp) {
  // Pairs (0<->1, 2<->3) pass payloads of two and a half chunks, which both
  // parties of the match move. A small token fixes the match order: on even
  // rounds the receiver posts, sends the token and parks, so the sender's
  // match publishes the move to a parked receiver; on odd rounds the
  // sender's rendezvous send is queued and parked on before the receiver
  // posts. Every other pair of rounds the receiver reduces the payload into
  // its accumulator instead of copying it. A lost wake-up hangs the test; a
  // chunk moved twice, or not at all, fails the check.
  fabric::World world(fabric::WorldConfig{sim::thetagpu(), 1, 4});
  world.run([](fabric::RankContext& ctx) {
    Mpi mpi(ctx, ctx.profile().mpi);
    Comm& comm = mpi.comm_world();
    const int me = mpi.rank();
    const int partner = me ^ 1;
    constexpr int kIters = 2000;
    constexpr std::size_t kCount =
        (fabric::kShareMinBytes + fabric::kShareChunkBytes / 2) / sizeof(double) + 3;
    std::vector<double> buf(kCount);
    int token = 0;
    // A wrong element is recorded, not asserted on the spot: a receiver that
    // left the loop would hang its sender.
    int bad_round = -1;
    std::size_t bad_elem = 0;
    for (int i = 0; i < kIters; ++i) {
      const bool recv_first = i % 2 == 0;
      const bool reduce = (i / 2) % 2 == 1;
      if (me % 2 == 0) {
        for (std::size_t j = 0; j < kCount; ++j) buf[j] = static_cast<double>(i + j);
        if (recv_first) {
          mpi.recv(&token, 1, kInt, partner, 1, comm);
          mpi.send(buf.data(), kCount, kDouble, partner, 2, comm);
        } else {
          Request s = mpi.isend(buf.data(), kCount, kDouble, partner, 2, comm);
          mpi.send(&token, 1, kInt, partner, 1, comm);
          mpi.wait(s);
        }
      } else {
        for (std::size_t j = 0; j < kCount; ++j) buf[j] = reduce ? 0.5 * j : -1.0;
        auto post = [&] {
          return reduce ? mpi.irecv_reduce(buf.data(), kCount, kDouble, ReduceOp::Sum,
                                           partner, 2, comm)
                        : mpi.irecv(buf.data(), kCount, kDouble, partner, 2, comm);
        };
        Request r;
        if (recv_first) {
          r = post();
          mpi.send(&token, 1, kInt, partner, 1, comm);
        } else {
          mpi.recv(&token, 1, kInt, partner, 1, comm);
          r = post();
        }
        mpi.wait(r);
        for (std::size_t j = 0; j < kCount && bad_round < 0; ++j) {
          if (buf[j] != static_cast<double>(i + j) + (reduce ? 0.5 * j : 0.0)) {
            bad_round = i;
            bad_elem = j;
          }
        }
      }
    }
    EXPECT_EQ(bad_round, -1) << "rank " << me << " first wrong element " << bad_elem;
  });
}

TEST(FabricStress, MatchLockSoakDeliversEachMessageOnceInOrder) {
  // Three sender threads deliver into one endpoint while its owner posts
  // receives, up to four outstanding, of four kinds drawn from a seeded
  // stream: (src, tag), (src, kAnyTag), (kAnySource, tag) and both
  // wildcards. The senders deliver in rounds of kBatch messages each, and
  // start a round when the owner has taken every message of the last one,
  // so deliveries race its posts instead of filling the queue first. Every
  // fifth send is a rendezvous, waited on at the end of its round. The owner
  // posts a receive only while more messages it can match remain than
  // receives are outstanding, so every receive completes. Checked after the
  // loop: each message landed exactly once, and for each (src, tag) the
  // receives, in posting order, got that pair's messages in send order.
  constexpr int kSenders = 3;
  constexpr int kTags = 3;
  constexpr int kBatch = 30;
  constexpr int kPerSender = 200 * kBatch;
  constexpr std::size_t kWindow = 4;
  fabric::Endpoint ep(0);
  std::atomic<int> taken{0};

  std::vector<std::thread> senders;
  for (int src = 1; src <= kSenders; ++src) {
    senders.emplace_back([&, src] {
      std::vector<std::int64_t> payload(kPerSender);
      sim::VirtualClock clock;
      for (int i = 0; i < kPerSender; i += kBatch) {
        while (taken.load() < i * kSenders) std::this_thread::yield();
        std::vector<fabric::PendingSend> rendezvous;
        for (int j = i; j < i + kBatch; ++j) {
          payload[static_cast<std::size_t>(j)] = std::int64_t{src} * kPerSender + j;
          const bool rndv = j % 5 == 0;
          fabric::PendingSend h =
              ep.deliver(src, j % kTags, 1, &payload[static_cast<std::size_t>(j)],
                         sizeof(std::int64_t), 0.0, fabric::SendPolicy{.rendezvous = rndv});
          if (rndv) rendezvous.push_back(std::move(h));
        }
        for (fabric::PendingSend& h : rendezvous) h.wait(clock);
      }
    });
  }

  // Messages of (src, tag) in the current round that no finished receive
  // has taken yet.
  std::array<std::array<int, kTags>, kSenders + 1> left{};
  auto open_round = [&](int round) {
    for (int src = 1; src <= kSenders; ++src) {
      for (int j = round * kBatch; j < (round + 1) * kBatch; ++j) ++left[src][j % kTags];
    }
  };
  auto remaining = [&](int src, int tag) {
    int n = 0;
    for (int s = 1; s <= kSenders; ++s) {
      for (int t = 0; t < kTags; ++t) {
        if ((src == kAnySource || src == s) && (tag == kAnyTag || tag == t)) n += left[s][t];
      }
    }
    return n;
  };
  struct Posted {
    fabric::PendingRecv handle;
    std::size_t slot;
  };
  std::deque<Posted> window;
  std::array<std::int64_t, kWindow> slots{};
  std::array<bool, kWindow> busy{};
  std::vector<char> seen(static_cast<std::size_t>((kSenders + 1) * kPerSender), 0);
  std::array<std::array<int, kTags>, kSenders + 1> last{};
  for (auto& per_src : last) per_src.fill(-1);
  // The first wrong delivery, checked after the loop: an assertion here
  // would leave the senders' rendezvous waits hanging.
  std::string bad;
  sim::VirtualClock clock;
  auto finish_oldest = [&] {
    Posted p = std::move(window.front());
    window.pop_front();
    const fabric::RecvResult r = p.handle.wait(clock);
    const std::int64_t v = slots[p.slot];
    busy[p.slot] = false;
    const int src = static_cast<int>(v / kPerSender);
    const int i = static_cast<int>(v % kPerSender);
    if (r.src != src || r.tag != i % kTags || src < 1 || src > kSenders) {
      if (bad.empty()) {
        bad = "payload " + std::to_string(v) + " arrived as (" + std::to_string(r.src) +
              ", " + std::to_string(r.tag) + ")";
      }
      return;
    }
    char& once = seen[static_cast<std::size_t>(v)];
    if (once != 0 && bad.empty()) bad = "message " + std::to_string(v) + " landed twice";
    once = 1;
    int& prev = last[static_cast<std::size_t>(src)][static_cast<std::size_t>(r.tag)];
    if (i <= prev && bad.empty()) {
      bad = "(" + std::to_string(src) + ", " + std::to_string(r.tag) + ") message " +
            std::to_string(i) + " overtook " + std::to_string(prev);
    }
    prev = i;
    --left[static_cast<std::size_t>(src)][static_cast<std::size_t>(r.tag)];
    taken.fetch_add(1);
  };

  auto rng = make_rng(29, 0);
  int opened = 0;
  while (taken.load() < kSenders * kPerSender) {
    if (taken.load() == opened * kSenders * kBatch) open_round(opened++);
    const auto src = static_cast<int>(rng() % (kSenders + 1));
    const auto tag = static_cast<int>(rng() % (kTags + 1));
    const int want_src = src == 0 ? kAnySource : src;
    const int want_tag = tag == kTags ? kAnyTag : tag;
    const bool can_post = window.size() < kWindow &&
                          remaining(want_src, want_tag) > static_cast<int>(window.size());
    if (can_post && (window.empty() || rng() % 3 != 0)) {
      const auto k = static_cast<std::size_t>(std::find(busy.begin(), busy.end(), false) -
                                              busy.begin());
      busy[k] = true;
      window.push_back(
          {ep.post_recv(want_src, want_tag, 1, &slots[k], sizeof(std::int64_t), 0.0, nullptr),
           k});
    } else if (!window.empty()) {
      finish_oldest();
    }
  }
  for (std::thread& t : senders) t.join();
  EXPECT_EQ(bad, "");
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), kSenders * kPerSender);
  EXPECT_EQ(ep.unexpected_count(), 0u);
  EXPECT_EQ(ep.pending_recv_count(), 0u);
}

}  // namespace
}  // namespace mpixccl::mini
