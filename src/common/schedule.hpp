#pragma once
// Collective schedules, written once: which peer a rank talks to at each
// step of a binomial tree, a ring or a recursive halving/doubling butterfly,
// and which block or range it moves. MiniMPI's algorithms, the CCL backends'
// tree and ring collectives and the hier engine's pipelined allreduce walk
// these; each engine keeps its own exchange primitive, post order and
// pricing. MixedRadix numbers the ranks of the hier engine's dim chain.
// tests/common_schedule_test.cpp checks the schedules on their own, with no
// fabric, for every communicator size up to 64 and every root.
//
// Also here: the byte-offset and scratch helpers every engine uses on raw
// buffers.

#include <array>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <span>

namespace mpixccl {

/// The largest power of two not above `n` (n >= 1).
constexpr int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

/// `base` advanced by `off` bytes.
inline std::byte* at(void* base, std::size_t off) {
  return static_cast<std::byte*>(base) + off;
}
inline const std::byte* at(const void* base, std::size_t off) {
  return static_cast<const std::byte*>(base) + off;
}

/// Call-local scratch, left uninitialised: every user writes each byte
/// before reading it.
inline std::unique_ptr<std::byte[]> uninit(std::size_t bytes) {
  return std::make_unique_for_overwrite<std::byte[]>(bytes);
}

/// One rank's place in the binomial tree over `p` ranks rooted at `root`
/// (MPICH's numbering). With virtual ranks v = (rank - root) mod p, v's
/// parent is v with its lowest set bit cleared, and its children are v | m
/// for every power of two m below that bit (below p at the root) with
/// v | m < p. A broadcast receives from the parent, then sends to the
/// children in children() order, largest subtree first. A reduce receives
/// from the children in reverse order, then sends to the parent.
class BinomialTree {
 public:
  /// An int rank has at most 31 children.
  static constexpr int kMaxChildren = 31;

  BinomialTree(int p, int root, int me) {
    // Ranks wrap at most once either way, so no division is needed.
    const auto rank_of = [&](int vrank) {
      return vrank + root < p ? vrank + root : vrank + root - p;
    };
    const int v = me >= root ? me - root : me - root + p;
    int low = 1;  // v's lowest set bit, or the first power of two >= p at the root
    while (low < p && (v & low) == 0) low <<= 1;
    if (v != 0) parent_ = rank_of(v ^ low);
    for (int m = low >> 1; m > 0; m >>= 1) {
      if ((v | m) < p) children_[n_children_++] = rank_of(v | m);
    }
  }

  /// The parent's rank; -1 at the root.
  [[nodiscard]] int parent() const { return parent_; }
  /// The children's ranks in broadcast send order. The span points into
  /// this tree, so a temporary tree cannot hand it out.
  [[nodiscard]] std::span<const int> children() const& {
    return {children_.data(), static_cast<std::size_t>(n_children_)};
  }
  std::span<const int> children() const&& = delete;

 private:
  int parent_ = -1;
  int n_children_ = 0;
  std::array<int, kMaxChildren> children_{};
};

/// The blocks one ring step moves: `send` goes to the right neighbour,
/// `recv` comes from the left one. Blocks are numbered by the rank that
/// owns them in the result.
struct RingStep {
  int send;
  int recv;
};

/// One rank's place in the ring over `p` ranks, and the blocks of its p - 1
/// steps (0 <= s < steps()). At every step each rank sends one block to its
/// right neighbour and receives one from its left.
class Ring {
 public:
  Ring(int p, int me) : p_(p), me_(me) {}

  [[nodiscard]] int left() const { return mod(me_ - 1); }
  [[nodiscard]] int right() const { return mod(me_ + 1); }
  [[nodiscard]] int steps() const { return p_ - 1; }

  /// Allgather step s: forward block me - s (this rank's own at s = 0) and
  /// receive block me - s - 1.
  [[nodiscard]] RingStep allgather(int s) const {
    return {mod(me_ - s), mod(me_ - s - 1)};
  }

  /// Reduce-scatter step s: forward the partial of block me - s - 1 (the
  /// input block at s = 0, what step s - 1 produced after it) and receive
  /// block me - s - 2, to be reduced with this rank's input block. The last
  /// step, s = p - 2, receives block me.
  [[nodiscard]] RingStep reduce_scatter(int s) const {
    return {mod(me_ - s - 1), mod(me_ - s - 2)};
  }

 private:
  /// r mod p for -p <= r < 2p, which covers every step's blocks.
  [[nodiscard]] int mod(int r) const { return r < 0 ? r + p_ : r >= p_ ? r - p_ : r; }

  int p_;
  int me_;
};

/// MPICH's fold of `p` ranks onto pof2, the largest power of two not above
/// p. The first 2 * rem ranks (rem = p - pof2) pair up: the even rank of a
/// pair pushes its vector to the odd one and sits out, the odd one reduces
/// it in and acts as effective rank me / 2. Ranks from 2 * rem on act as
/// me - rem. The unfold sends each odd rank's result back to its partner.
class Pow2Fold {
 public:
  enum class Role { Push, Receive, Direct };

  Pow2Fold(int p, int me) : pof2_(floor_pow2(p)), rem_(p - pof2_), me_(me) {}

  [[nodiscard]] int pof2() const { return pof2_; }
  [[nodiscard]] Role role() const {
    if (me_ >= 2 * rem_) return Role::Direct;
    return me_ % 2 == 0 ? Role::Push : Role::Receive;
  }
  /// The other rank of this rank's pair (not for Direct).
  [[nodiscard]] int partner() const { return me_ % 2 == 0 ? me_ + 1 : me_ - 1; }
  /// This rank's effective rank; -1 when it pushes and sits out.
  [[nodiscard]] int eff() const {
    const Role r = role();
    return r == Role::Direct ? me_ - rem_ : r == Role::Receive ? me_ / 2 : -1;
  }
  /// The rank that acts as effective rank `eff`.
  [[nodiscard]] int real(int eff) const { return eff < rem_ ? eff * 2 + 1 : eff + rem_; }

 private:
  int pof2_;
  int rem_;
  int me_;
};

/// A half-open range [lo, hi) in the caller's unit (blocks or elements).
struct Range {
  std::size_t lo;
  std::size_t hi;

  [[nodiscard]] constexpr std::size_t size() const { return hi - lo; }
  constexpr bool operator==(const Range&) const = default;
};

/// One butterfly step: exchange with the partner whose digit along dim
/// `dim` differs from this rank's in bit `mask`. A halving step sends half
/// the held range and reduces the partner's other half in; a doubling step
/// sends the held range and receives the partner's next to it.
struct ButterflyStep {
  int dim;
  int mask;
  bool halving;
};

/// The halves of a range at a halving step.
struct Halves {
  Range keep;
  Range send;
};

/// Split `r` at lo + (hi - lo) / 2. The upper rank of the pair (its digit
/// has the step's mask bit set) keeps the upper half; the lower one keeps
/// the lower half.
constexpr Halves halve(Range r, bool upper) {
  const std::size_t mid = r.lo + r.size() / 2;
  const Range lower{r.lo, mid};
  const Range higher{mid, r.hi};
  return upper ? Halves{higher, lower} : Halves{lower, higher};
}

/// The partner's range at a doubling step, as large as `r` and adjacent to
/// it: below it for the upper rank of the pair, above it for the lower.
constexpr Range mirror(Range r, bool upper) {
  return upper ? Range{r.lo - r.size(), r.lo} : Range{r.hi, r.hi + r.size()};
}

/// The range held after step `s`: the kept half of a halving step, or the
/// held range joined with the partner's at a doubling step.
constexpr Range after(Range r, ButterflyStep s, bool upper) {
  if (s.halving) return halve(r, upper).keep;
  const Range m = mirror(r, upper);
  return upper ? Range{m.lo, r.hi} : Range{r.lo, m.hi};
}

/// Recursive halving, then recursive doubling, over a chain of power-of-two
/// dims, innermost first (one dim of pof2 is MPICH's butterfly). The steps
/// halve over dim 0 .. D-1, masks from dims[j] / 2 down to 1, then double
/// over dim D-1 .. 0, masks from 1 up to dims[j] / 2: a reduce-scatter to
/// 1 / prod(dims) of the range, then an allgather back to all of it.
class Butterfly {
 public:
  /// An int rank spans at most 31 bits, each halved once and doubled once.
  static constexpr int kMaxSteps = 62;

  explicit Butterfly(std::span<const int> dims) {
    const int d = static_cast<int>(dims.size());
    for (int j = 0; j < d; ++j) {
      for (int m = dims[j] >> 1; m > 0; m >>= 1) push({j, m, true});
    }
    for (int j = d; j-- > 0;) {
      for (int m = 1; m < dims[j]; m <<= 1) push({j, m, false});
    }
  }
  Butterfly(std::initializer_list<int> dims)
      : Butterfly(std::span<const int>(dims.begin(), dims.size())) {}

  [[nodiscard]] int steps() const { return n_; }
  /// Step k, 0 <= k < steps().
  [[nodiscard]] ButterflyStep step(int k) const {
    return steps_[static_cast<std::size_t>(k)];
  }

 private:
  void push(ButterflyStep s) { steps_[static_cast<std::size_t>(n_++)] = s; }

  int n_ = 0;
  std::array<ButterflyStep, kMaxSteps> steps_{};
};

/// Mixed-radix rank numbering over a chain of dims, innermost first: rank
/// g's digit at dim j is g / stride(j) % dims[j], and dim j's subgroup joins
/// the ranks that differ in that digit only. A view: it allocates nothing.
class MixedRadix {
 public:
  explicit MixedRadix(std::span<const int> dims) : dims_(dims) {}

  /// The product of the dims below j (j <= dims.size()).
  [[nodiscard]] int stride(std::size_t j) const {
    int s = 1;
    for (std::size_t i = 0; i < j; ++i) s *= dims_[i];
    return s;
  }
  [[nodiscard]] int size() const { return stride(dims_.size()); }
  [[nodiscard]] int digit(int g, std::size_t j) const { return g / stride(j) % dims_[j]; }
  /// Whether g's digits below dim j equal root's: the one rank per group of
  /// stride(j) consecutive ranks that runs dim j's stage of a schedule rooted
  /// at `root` (the subtree a bcast has reached, the leader a reduce fed).
  [[nodiscard]] bool on_root_path(int g, int root, std::size_t j) const {
    return g % stride(j) == root % stride(j);
  }
  /// Rank g's block in chain-major order, digit 0 varying slowest: what
  /// per-dim allgathers from the outermost dim in assemble.
  [[nodiscard]] std::size_t chain_index(int g) const {
    std::size_t idx = 0;
    for (const int d : dims_) {
      idx = idx * static_cast<std::size_t>(d) + static_cast<std::size_t>(g % d);
      g /= d;
    }
    return idx;
  }

 private:
  std::span<const int> dims_;
};

}  // namespace mpixccl
