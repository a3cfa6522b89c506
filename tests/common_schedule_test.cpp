// The binomial tree and the ring of common/schedule.hpp, checked on their
// own: no fabric, no buffers, every communicator size 1..64 and every root.
// Both engines (MiniMPI and the CCL backends) walk these schedules, so a
// property proved here holds for every collective built on them.

#include "common/schedule.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mpixccl {
namespace {

constexpr int kMaxRanks = 64;

constexpr std::size_t u(int i) { return static_cast<std::size_t>(i); }

/// Smallest d with 2^d >= p.
int ceil_log2(int p) {
  int d = 0;
  while ((1 << d) < p) ++d;
  return d;
}

// children() points into the tree, so a temporary tree may not hand it out.
template <class Tree>
concept ChildrenOfTemporary = requires { Tree(4, 0, 0).children(); };
static_assert(!ChildrenOfTemporary<BinomialTree>);

std::vector<BinomialTree> trees(int p, int root) {
  std::vector<BinomialTree> t;
  for (int r = 0; r < p; ++r) t.emplace_back(p, root, r);
  return t;
}

TEST(BinomialTree, SpansEveryRankOnceWithinLogDepth) {
  for (int p = 1; p <= kMaxRanks; ++p) {
    for (int root = 0; root < p; ++root) {
      SCOPED_TRACE("p=" + std::to_string(p) + " root=" + std::to_string(root));
      const auto t = trees(p, root);
      // Walk down from the root: every rank is reached exactly once.
      std::vector<int> depth(u(p), -1);
      std::vector<int> frontier{root};
      depth[u(root)] = 0;
      int reached = 1;
      while (!frontier.empty()) {
        std::vector<int> next;
        for (const int r : frontier) {
          for (const int c : t[u(r)].children()) {
            ASSERT_GE(c, 0);
            ASSERT_LT(c, p);
            ASSERT_EQ(depth[u(c)], -1) << "rank " << c << " reached twice";
            depth[u(c)] = depth[u(r)] + 1;
            ASSERT_LE(depth[u(c)], ceil_log2(p));
            ++reached;
            next.push_back(c);
          }
        }
        frontier = std::move(next);
      }
      EXPECT_EQ(reached, p);
    }
  }
}

TEST(BinomialTree, ParentAndChildLinksAgree) {
  for (int p = 1; p <= kMaxRanks; ++p) {
    for (int root = 0; root < p; ++root) {
      SCOPED_TRACE("p=" + std::to_string(p) + " root=" + std::to_string(root));
      const auto t = trees(p, root);
      std::vector<int> claimed(u(p), 0);
      for (int r = 0; r < p; ++r) {
        for (const int c : t[u(r)].children()) {
          EXPECT_EQ(t[u(c)].parent(), r) << "child " << c;
          ++claimed[u(c)];
        }
      }
      for (int r = 0; r < p; ++r) {
        const int parent = t[u(r)].parent();
        EXPECT_EQ(parent == -1, r == root) << "rank " << r;
        EXPECT_EQ(claimed[u(r)], r == root ? 0 : 1) << "rank " << r;
      }
    }
  }
}

TEST(BinomialTree, ChildrenComeInBcastSendOrder) {
  // A broadcast sends to the child with the largest subtree first: in
  // virtual ranks (root = 0) the offsets child - me are distinct powers of
  // two, strictly decreasing, all below this rank's lowest set bit.
  for (int p = 1; p <= kMaxRanks; ++p) {
    for (int root = 0; root < p; ++root) {
      for (int r = 0; r < p; ++r) {
        SCOPED_TRACE("p=" + std::to_string(p) + " root=" + std::to_string(root) +
                     " rank=" + std::to_string(r));
        const BinomialTree tree(p, root, r);
        const int v = (r - root + p) % p;
        const int low = v == 0 ? 1 << ceil_log2(p) : v & -v;
        int prev = low;
        for (const int c : tree.children()) {
          const int offset = (c - root + p) % p - v;
          EXPECT_GT(offset, 0);
          EXPECT_EQ(offset & (offset - 1), 0) << "offset " << offset;
          EXPECT_LT(offset, prev) << "child " << c << " out of send order";
          prev = offset;
        }
        // No child below the bit is missing.
        int expected = 0;
        for (int m = low >> 1; m > 0; m >>= 1) expected += (v | m) < p ? 1 : 0;
        EXPECT_EQ(static_cast<int>(tree.children().size()), expected);
      }
    }
  }
}

TEST(Ring, NeighboursFormOneCycle) {
  for (int p = 1; p <= kMaxRanks; ++p) {
    for (int r = 0; r < p; ++r) {
      const Ring ring(p, r);
      EXPECT_EQ(Ring(p, ring.right()).left(), r) << "p=" << p << " rank=" << r;
      EXPECT_EQ(ring.steps(), p - 1);
    }
  }
}

TEST(Ring, AllgatherDeliversEveryBlockToEveryRankOnce) {
  for (int p = 1; p <= kMaxRanks; ++p) {
    SCOPED_TRACE("p=" + std::to_string(p));
    // held[r][b]: how many times rank r has come to hold block b.
    std::vector<std::vector<int>> held(u(p), std::vector<int>(u(p)));
    for (int r = 0; r < p; ++r) held[u(r)][u(r)] = 1;
    for (int s = 0; s < p - 1; ++s) {
      std::vector<std::vector<int>> next = held;
      for (int r = 0; r < p; ++r) {
        const Ring ring(p, r);
        const RingStep st = ring.allgather(s);
        ASSERT_EQ(held[u(r)][u(st.send)], 1)
            << "rank " << r << " sends block " << st.send << " it lacks, step " << s;
        const Ring dst(p, ring.right());
        ASSERT_EQ(dst.allgather(s).recv, st.send)
            << "rank " << ring.right() << " expects another block at step " << s;
        ++next[u(ring.right())][u(st.send)];
      }
      held = std::move(next);
    }
    for (int r = 0; r < p; ++r) {
      for (int b = 0; b < p; ++b) {
        EXPECT_EQ(held[u(r)][u(b)], 1) << "rank " << r << " block " << b;
      }
    }
  }
}

TEST(Ring, ReduceScatterReducesEveryContributionExactlyOnce) {
  // Rank r contributes bit r to every block. Step 0 forwards this rank's
  // input block; each later step forwards the partial the previous step
  // produced. A receiver ORs in its own bit, which must not be set yet, so a
  // contribution counted twice fails; a missing one leaves a bit clear.
  for (int p = 1; p <= kMaxRanks; ++p) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const std::uint64_t all = p == 64 ? ~0ull : (1ull << p) - 1;
    struct Partial {
      int block;
      std::uint64_t bits;
    };
    std::vector<Partial> carry(u(p));
    for (int r = 0; r < p; ++r) {
      carry[u(r)] = {Ring(p, r).reduce_scatter(0).send, 1ull << r};
    }
    for (int s = 0; s < p - 1; ++s) {
      std::vector<Partial> next(u(p), {-1, 0});
      for (int r = 0; r < p; ++r) {
        const Ring ring(p, r);
        const Partial sent = carry[u(r)];
        ASSERT_EQ(ring.reduce_scatter(s).send, sent.block)
            << "rank " << r << " forwards another block than it holds, step " << s;
        const int d = ring.right();
        ASSERT_EQ(Ring(p, d).reduce_scatter(s).recv, sent.block)
            << "rank " << d << " reduces another block than it receives, step " << s;
        ASSERT_EQ(sent.bits & (1ull << d), 0u)
            << "rank " << d << " counted twice in block " << sent.block;
        next[u(d)] = {sent.block, sent.bits | (1ull << d)};
      }
      carry = std::move(next);
    }
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(carry[u(r)].block, r) << "rank " << r;
      EXPECT_EQ(carry[u(r)].bits, all) << "rank " << r;
    }
  }
}

TEST(Schedule, FloorPow2) {
  EXPECT_EQ(floor_pow2(1), 1);
  EXPECT_EQ(floor_pow2(2), 2);
  EXPECT_EQ(floor_pow2(3), 2);
  EXPECT_EQ(floor_pow2(63), 32);
  EXPECT_EQ(floor_pow2(64), 64);
}

}  // namespace
}  // namespace mpixccl
