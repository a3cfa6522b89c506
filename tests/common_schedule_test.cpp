// The binomial tree, the ring, the butterfly and the mixed-radix chain
// numbering of common/schedule.hpp, checked on their own: no fabric, no
// buffers, every communicator size 1..64, every root and every chain of up
// to 64 ranks. The engines (MiniMPI, the CCL backends and the hier engine)
// walk these schedules, so a property proved here holds for every collective
// built on them.

#include "common/schedule.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace mpixccl {
namespace {

constexpr int kMaxRanks = 64;

constexpr std::size_t u(int i) { return static_cast<std::size_t>(i); }

/// Bits 0 .. p-1 set: a contribution from each of p ranks.
std::uint64_t all_bits(int p) { return p == 64 ? ~0ull : (1ull << p) - 1; }

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
      EXPECT_EQ(carry[u(r)].bits, all_bits(p)) << "rank " << r;
    }
  }
}

// ---- Butterfly -------------------------------------------------------------------

// The schedule is a fixed array: a walk allocates nothing.
static_assert(std::is_trivially_copyable_v<Butterfly>);

std::string chain_name(const std::vector<int>& dims) {
  std::string s = "dims";
  for (const int d : dims) s += " " + std::to_string(d);
  return s;
}

/// Every chain of dims of at least 2 (powers of two only when `pow2`) whose
/// product is at most `limit`, innermost first, starting with the empty
/// chain.
std::vector<std::vector<int>> chains(int limit, bool pow2) {
  std::vector<std::vector<int>> out{{}};
  for (std::size_t i = 0; i < out.size(); ++i) {
    int prod = 1;
    for (const int d : out[i]) prod *= d;
    for (int d = 2; prod * d <= limit; d = pow2 ? d * 2 : d + 1) {
      std::vector<int> next = out[i];
      next.push_back(d);
      out.push_back(std::move(next));
    }
  }
  return out;
}

TEST(Butterfly, StepsHalveOutwardThenDoubleBackIn) {
  const Butterfly bf({2, 4, 1, 2});
  const std::vector<std::vector<int>> want = {
      {0, 1, 1}, {1, 2, 1}, {1, 1, 1}, {3, 1, 1},
      {3, 1, 0}, {1, 1, 0}, {1, 2, 0}, {0, 1, 0}};
  ASSERT_EQ(bf.steps(), static_cast<int>(want.size()));
  for (int k = 0; k < bf.steps(); ++k) {
    const ButterflyStep s = bf.step(k);
    EXPECT_EQ((std::vector<int>{s.dim, s.mask, s.halving ? 1 : 0}), want[u(k)])
        << "step " << k;
  }
  EXPECT_EQ(Butterfly({1}).steps(), 0);
  EXPECT_EQ(Butterfly({1 << 30}).steps(), 60);
}

TEST(Butterfly, RangeHelpersSplitAndMirror) {
  EXPECT_EQ(halve({4, 10}, false).keep, (Range{4, 7}));
  EXPECT_EQ(halve({4, 10}, false).send, (Range{7, 10}));
  EXPECT_EQ(halve({4, 10}, true).keep, (Range{7, 10}));
  EXPECT_EQ(halve({4, 10}, true).send, (Range{4, 7}));
  EXPECT_EQ(mirror({4, 6}, false), (Range{6, 8}));
  EXPECT_EQ(mirror({4, 6}, true), (Range{2, 4}));
  EXPECT_EQ(after({4, 6}, {0, 1, false}, true), (Range{2, 6}));
  EXPECT_EQ(after({4, 10}, {0, 1, true}, true), (Range{7, 10}));
}

TEST(Pow2Fold, RolesCoverEveryEffectiveRankOnce) {
  for (int p = 1; p <= kMaxRanks; ++p) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const int pof2 = floor_pow2(p);
    std::vector<int> acting(u(pof2), 0);
    for (int r = 0; r < p; ++r) {
      const Pow2Fold f(p, r);
      EXPECT_EQ(f.pof2(), pof2);
      if (f.role() == Pow2Fold::Role::Push) {
        EXPECT_EQ(f.eff(), -1);
        const Pow2Fold partner(p, f.partner());
        EXPECT_EQ(partner.role(), Pow2Fold::Role::Receive) << "rank " << r;
        EXPECT_EQ(partner.partner(), r);
        continue;
      }
      ASSERT_GE(f.eff(), 0);
      ASSERT_LT(f.eff(), pof2);
      EXPECT_EQ(f.real(f.eff()), r) << "rank " << r;
      ++acting[u(f.eff())];
    }
    for (int e = 0; e < pof2; ++e) EXPECT_EQ(acting[u(e)], 1) << "eff " << e;
  }
}

/// The bits each rank holds, per block (or element).
using Held = std::vector<std::vector<std::uint64_t>>;

/// The fold, then the unfold, around `exchange`, which runs over the held
/// bits of the effective ranks; it gets rank 0's fold, whose pof2() and
/// real() every rank shares. Rank r contributes bit r to every block; a
/// receive-reduce ORs in bits it must not hold yet, so a contribution
/// counted twice fails, and a missing one leaves a bit clear at the end.
using Exchange = std::function<void(const Pow2Fold&, Held&)>;
void expect_folded_allreduce(int p, std::size_t blocks, const Exchange& exchange) {
  Held held(u(p));
  for (int r = 0; r < p; ++r) held[u(r)].assign(blocks, 1ull << r);
  for (int r = 0; r < p; ++r) {
    const Pow2Fold f(p, r);
    if (f.role() != Pow2Fold::Role::Receive) continue;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::uint64_t in = held[u(f.partner())][b];
      ASSERT_EQ(held[u(r)][b] & in, 0u) << "fold counts a rank twice at rank " << r;
      held[u(r)][b] |= in;
    }
  }
  exchange(Pow2Fold(p, 0), held);
  for (int r = 0; r < p; ++r) {
    const Pow2Fold f(p, r);
    if (f.role() == Pow2Fold::Role::Push) held[u(r)] = held[u(f.partner())];
  }
  for (int r = 0; r < p; ++r) {
    for (std::size_t b = 0; b < blocks; ++b) {
      EXPECT_EQ(held[u(r)][b], all_bits(p)) << "rank " << r << " block " << b;
    }
  }
}

TEST(Butterfly, RecursiveDoublingReducesEveryContributionExactlyOnce) {
  for (int p = 1; p <= kMaxRanks; ++p) {
    SCOPED_TRACE("p=" + std::to_string(p));
    expect_folded_allreduce(p, 1, [p](const Pow2Fold& fold, Held& held) {
      const int pof2 = fold.pof2();
      const Butterfly bf({pof2});
      for (int k = 0; k < bf.steps(); ++k) {
        const ButterflyStep s = bf.step(k);
        if (s.halving) continue;
        const Held before = held;
        for (int e = 0; e < pof2; ++e) {
          const int me = fold.real(e);
          const int partner = fold.real(e ^ s.mask);
          ASSERT_EQ(Pow2Fold(p, partner).eff(), e ^ s.mask);
          const std::uint64_t in = before[u(partner)][0];
          ASSERT_EQ(before[u(me)][0] & in, 0u)
              << "rank " << me << " counts a rank twice, step " << k;
          held[u(me)][0] = before[u(me)][0] | in;
        }
      }
    });
  }
}

/// One butterfly walk over ranks 0..n-1, each holding `blocks` units of
/// bits. digit(g, dim) and peer(g, dim, digit) place rank g in the walk's
/// dims. Checks at every step that my sent range is my partner's kept (or
/// received) range, and that a halving step reduces no contribution twice.
/// Returns each rank's final range.
std::vector<Range> walk(const Butterfly& bf, int n, std::size_t blocks, Held& held,
                        const std::function<int(int, int)>& digit,
                        const std::function<int(int, int, int)>& peer) {
  std::vector<Range> r(u(n), Range{0, blocks});
  for (int k = 0; k < bf.steps(); ++k) {
    const ButterflyStep s = bf.step(k);
    const Held before = held;
    std::vector<Range> next(u(n));
    for (int g = 0; g < n; ++g) {
      const int d = digit(g, s.dim);
      const bool upper = (d & s.mask) != 0;
      const int partner = peer(g, s.dim, d ^ s.mask);
      const bool partner_upper = (digit(partner, s.dim) & s.mask) != 0;
      EXPECT_NE(upper, partner_upper);
      EXPECT_EQ(peer(partner, s.dim, d), g);
      // What the partner sends, and where this rank lands it.
      Range sent;
      Range landing;
      if (s.halving) {
        sent = halve(r[u(partner)], partner_upper).send;
        landing = halve(r[u(g)], upper).keep;
      } else {
        sent = r[u(partner)];
        landing = mirror(r[u(g)], upper);
      }
      EXPECT_EQ(sent, landing) << "rank " << g << " step " << k;
      if (sent != landing) return r;
      for (std::size_t b = sent.lo; b < sent.hi; ++b) {
        const std::uint64_t in = before[u(partner)][b];
        if (s.halving) {
          EXPECT_EQ(before[u(g)][b] & in, 0u)
              << "rank " << g << " counts a rank twice in unit " << b << ", step " << k;
          held[u(g)][b] = before[u(g)][b] | in;
        } else {
          held[u(g)][b] = in;
        }
      }
      next[u(g)] = after(r[u(g)], s, upper);
    }
    r = std::move(next);
  }
  return r;
}

TEST(Butterfly, RabenseifnerReducesEveryContributionExactlyOnce) {
  for (int p = 1; p <= kMaxRanks; ++p) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const std::size_t blocks = u(floor_pow2(p));
    expect_folded_allreduce(p, blocks, [&](const Pow2Fold& fold, Held& held) {
      // Index the walk by effective rank; held stays indexed by rank.
      const int pof2 = fold.pof2();
      Held eff_held(u(pof2));
      for (int e = 0; e < pof2; ++e) eff_held[u(e)] = held[u(fold.real(e))];
      const auto ranges = walk(
          Butterfly({pof2}), pof2, blocks, eff_held, [](int e, int) { return e; },
          [](int, int, int d) { return d; });
      for (int e = 0; e < pof2; ++e) {
        EXPECT_EQ(ranges[u(e)], (Range{0, blocks})) << "eff " << e;
        held[u(fold.real(e))] = eff_held[u(e)];
      }
    });
  }
}

TEST(Butterfly, ChainWalkReducesEveryElementExactlyOnce) {
  // The hier engine's per-chunk walk: rank g's partner differs from it in
  // the step's MixedRadix digit only.
  // A chunk holds 3 * prod(dims) elements, the smallest that is not a power
  // of two and still halves evenly at every step.
  for (const std::vector<int>& dims : chains(kMaxRanks, true)) {
    SCOPED_TRACE(chain_name(dims));
    const MixedRadix rx(dims);
    const int n = rx.size();
    const std::size_t unit = 3 * u(n);
    const auto digit = [&](int g, int j) { return rx.digit(g, u(j)); };
    const auto peer = [&](int g, int j, int d) {
      return g + (d - digit(g, j)) * rx.stride(u(j));
    };
    Held held(u(n));
    for (int g = 0; g < n; ++g) held[u(g)].assign(unit, 1ull << g);
    const auto ranges = walk(Butterfly(dims), n, unit, held, digit, peer);
    for (int g = 0; g < n; ++g) {
      EXPECT_EQ(ranges[u(g)], (Range{0, unit})) << "rank " << g;
      for (std::size_t i = 0; i < unit; ++i) {
        ASSERT_EQ(held[u(g)][i], all_bits(n)) << "rank " << g << " element " << i;
      }
    }
  }
}

TEST(MixedRadix, DigitsRecomposeAndChainIndexIsABijection) {
  for (const std::vector<int>& dims : chains(kMaxRanks, false)) {
    SCOPED_TRACE(chain_name(dims));
    const MixedRadix rx(dims);
    const int p = rx.size();
    std::vector<bool> hit(u(p));
    for (int g = 0; g < p; ++g) {
      int rank = 0;
      for (std::size_t j = 0; j < dims.size(); ++j) {
        rank += rx.digit(g, j) * rx.stride(j);
      }
      EXPECT_EQ(rank, g);
      const std::size_t i = rx.chain_index(g);
      ASSERT_LT(i, u(p)) << "rank " << g;
      EXPECT_FALSE(hit[i]) << "rank " << g << " shares block " << i;
      hit[i] = true;
    }
  }
}

TEST(MixedRadix, RootPathHoldsOneRankPerLevelGroup) {
  // A level-j group is the stride(j) consecutive ranks that share every
  // digit from j up: the ranks dim j's stage of a rooted schedule serves.
  for (const std::vector<int>& dims : chains(kMaxRanks, false)) {
    const MixedRadix rx(dims);
    const int p = rx.size();
    for (int root = 0; root < p; ++root) {
      SCOPED_TRACE(chain_name(dims) + " root " + std::to_string(root));
      for (std::size_t j = 0; j <= dims.size(); ++j) {
        EXPECT_TRUE(rx.on_root_path(root, root, j)) << "level " << j;
        const int group = rx.stride(j);
        std::vector<int> on_path(u(p / group));
        for (int g = 0; g < p; ++g) on_path[u(g / group)] += rx.on_root_path(g, root, j);
        for (std::size_t k = 0; k < on_path.size(); ++k) {
          EXPECT_EQ(on_path[k], 1) << "level " << j << " group " << k;
        }
      }
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
