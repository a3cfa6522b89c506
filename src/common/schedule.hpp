#pragma once
// Collective schedules, written once: which peer a rank talks to at each
// step of a binomial tree or a ring, and which block it moves. MiniMPI's
// algorithms and the CCL backends' tree and ring collectives both walk
// these; each engine keeps its own exchange primitive, post order and
// pricing. tests/common_schedule_test.cpp checks the schedules on their own,
// with no fabric, for every communicator size up to 64 and every root.
//
// Also here: the byte-offset and scratch helpers every engine uses on raw
// buffers.

#include <array>
#include <cstddef>
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

}  // namespace mpixccl
