#include "verify.hpp"

#include <algorithm>
#include <cstring>

namespace mpixccl::e2e {
namespace {

/// Element i contributed by world rank r: an integer in [0, 64).
int fill_value(std::uint64_t salt, int r, std::size_t i) {
  std::uint64_t x = salt + static_cast<std::uint64_t>(r + 1) * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(i) * 0xbf58476d1ce4e5b9ull;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebull;
  return static_cast<int>(x >> 58);
}

/// The bcast buffers hold this owner's pattern on every rank, so whichever
/// rank is root, a correct bcast leaves every buffer unchanged.
constexpr int kBcastOwner = -1;

/// Output positions a check reads (see poison()).
template <typename F>
void for_each_checked(std::size_t len, bool full, F&& f) {
  const std::size_t picks = full ? len : std::min<std::size_t>(len, 64);
  for (std::size_t m = 0; m < picks; ++m) f(picks == len ? m : m * len / picks);
}

double load(Elem e, const void* p, std::size_t k) {
  switch (e) {
    case Elem::Float: return static_cast<const float*>(p)[k];
    case Elem::Int32: return static_cast<const std::int32_t*>(p)[k];
    case Elem::Double: return static_cast<const double*>(p)[k];
  }
  return 0.0;
}

void store(Elem e, void* p, std::size_t k, double v) {
  switch (e) {
    case Elem::Float: static_cast<float*>(p)[k] = static_cast<float>(v); break;
    case Elem::Int32:
      static_cast<std::int32_t*>(p)[k] = static_cast<std::int32_t>(v);
      break;
    case Elem::Double: static_cast<double*>(p)[k] = v; break;
  }
}

}  // namespace

void fill(Elem e, void* p, std::size_t n, std::uint64_t salt, int owner) {
  for (std::size_t i = 0; i < n; ++i) store(e, p, i, fill_value(salt, owner, i));
}

namespace {

// Ragged counts keep the v collectives honest: no two peers' blocks have
// the same length unless their indices agree mod 3.
std::size_t allgatherv_count(int j, std::size_t n) {
  return n + static_cast<std::size_t>(j % 3);
}
std::size_t alltoallv_count(int src, int dst, std::size_t n) {
  return n + static_cast<std::size_t>((src + 2 * dst) % 3);
}

std::size_t prefix(std::vector<std::size_t>& counts, std::vector<std::size_t>& displs) {
  std::size_t total = 0;
  displs.resize(counts.size());
  for (std::size_t j = 0; j < counts.size(); ++j) {
    displs[j] = total;
    total += counts[j];
  }
  return total;
}

/// Peer whose block of `displs` holds element k.
int block_of(const std::vector<std::size_t>& displs, std::size_t k) {
  int j = static_cast<int>(displs.size()) - 1;
  while (j > 0 && displs[static_cast<std::size_t>(j)] > k) --j;
  return j;
}

constexpr double kPoison = -1.0;  ///< never a valid output: inputs are >= 0

}  // namespace

void plan_geometry(const Call& c, int p, int me, Geometry& g) {
  const auto up = static_cast<std::size_t>(p);
  const std::size_t elems = std::max<std::size_t>(1, c.bytes / elem_size(c.elem));
  const bool whole = c.op == Op::Allreduce || c.op == Op::Bcast;
  const std::size_t n = whole ? elems : std::max<std::size_t>(1, elems / up);
  g.n = n;
  g.p = p;
  g.me = me;
  g.root = static_cast<int>(c.root_draw % static_cast<std::uint32_t>(p));
  switch (c.op) {
    case Op::Allreduce:
      g.send_elems = n;
      g.out_elems = n;
      break;
    case Op::Bcast:
      g.send_elems = 0;
      g.out_elems = me == g.root ? 0 : n;  // the root's buffer is the source
      break;
    case Op::Allgather:
      g.send_elems = n;
      g.out_elems = n * up;
      break;
    case Op::ReduceScatter:
      g.send_elems = n * up;
      g.out_elems = n;
      break;
    case Op::Allgatherv:
      g.rcounts.resize(up);
      for (int j = 0; j < p; ++j) {
        g.rcounts[static_cast<std::size_t>(j)] = allgatherv_count(j, n);
      }
      g.out_elems = prefix(g.rcounts, g.rdispls);
      g.send_elems = g.rcounts[static_cast<std::size_t>(me)];
      break;
    case Op::Alltoallv:
      g.scounts.resize(up);
      g.rcounts.resize(up);
      for (int j = 0; j < p; ++j) {
        g.scounts[static_cast<std::size_t>(j)] = alltoallv_count(me, j, n);
        g.rcounts[static_cast<std::size_t>(j)] = alltoallv_count(j, me, n);
      }
      g.send_elems = prefix(g.scounts, g.sdispls);
      g.out_elems = prefix(g.rcounts, g.rdispls);
      break;
    case Op::Gather:
      g.send_elems = n;
      g.out_elems = me == g.root ? n * up : 0;
      break;
    case Op::Scatter:
      g.send_elems = me == g.root ? n * up : 0;
      g.out_elems = n;
      break;
  }
}

namespace {

/// Largest send / receive element count any call of `w` needs on a
/// `p`-rank communicator.
std::size_t max_elems(const WorkloadSpec& w, int p) {
  std::size_t biggest = 0;
  for (std::size_t s : w.sizes) biggest = std::max(biggest, s);
  std::size_t smallest_elem = 8;
  for (Elem e : w.elems) smallest_elem = std::min(smallest_elem, elem_size(e));
  // Blocks round up to one element, and the v collectives add up to two
  // elements per peer.
  return std::max<std::size_t>(1, biggest / smallest_elem) +
         3 * static_cast<std::size_t>(p);
}

}  // namespace

double expected(const Call& c, const Geometry& g, std::span<const int> members,
                std::uint64_t salt, std::size_t k) {
  auto w = [&](int j) { return members[static_cast<std::size_t>(j)]; };
  const std::size_t n = g.n;
  const auto me = static_cast<std::size_t>(g.me);
  double sum = 0.0;
  switch (c.op) {
    case Op::Allreduce:
      for (int j = 0; j < g.p; ++j) sum += fill_value(salt, w(j), k);
      return sum;
    case Op::Bcast: return fill_value(salt, kBcastOwner, k);
    case Op::Allgather:
    case Op::Gather:
      return fill_value(salt, w(static_cast<int>(k / n)), k % n);
    case Op::ReduceScatter:
      for (int j = 0; j < g.p; ++j) sum += fill_value(salt, w(j), me * n + k);
      return sum;
    case Op::Allgatherv: {
      const int j = block_of(g.rdispls, k);
      return fill_value(salt, w(j), k - g.rdispls[static_cast<std::size_t>(j)]);
    }
    case Op::Alltoallv: {
      const int src = block_of(g.rdispls, k);
      std::size_t src_displ = 0;  // where `src` put my block in its send buffer
      for (int d = 0; d < g.me; ++d) src_displ += alltoallv_count(src, d, n);
      return fill_value(salt, w(src),
                        src_displ + k - g.rdispls[static_cast<std::size_t>(src)]);
    }
    case Op::Scatter: return fill_value(salt, w(g.root), me * n + k);
  }
  return 0.0;
}

void poison(const Call& c, const Geometry& g, void* out) {
  for_each_checked(g.out_elems, c.full_check,
                   [&](std::size_t k) { store(c.elem, out, k, kPoison); });
}

std::size_t count_mismatches(const Call& c, const Geometry& g,
                             std::span<const int> members, std::uint64_t salt,
                             const void* out) {
  std::size_t bad = 0;
  for_each_checked(g.out_elems, c.full_check, [&](std::size_t k) {
    if (load(c.elem, out, k) != expected(c, g, members, salt, k)) ++bad;
  });
  return bad;
}

void RankBuffers::allocate(Slot& s, device::Device& dev, bool host,
                           std::size_t bytes) {
  if (host) {
    s.host.assign((bytes + sizeof(double) - 1) / sizeof(double), 0.0);
    s.ptr = s.host.data();
  } else {
    s.dev = device::DeviceBuffer(dev, bytes);
    s.ptr = s.dev.get();
    std::memset(s.ptr, 0, bytes);  // first touch outside the timed loop
  }
}

RankBuffers::RankBuffers(device::Device& dev, const WorkloadSpec& w,
                         int world_size, int world_rank, std::uint64_t salt) {
  const std::size_t elems = max_elems(w, world_size);
  std::size_t biggest = 0;
  for (std::size_t s : w.sizes) biggest = std::max(biggest, s);
  std::size_t widest = 0;
  for (Elem e : w.elems) widest = std::max(widest, elem_size(e));
  for (bool host : {false, true}) {
    if (host && !w.host_buffers) continue;
    allocate(recv_[host ? 1 : 0], dev, host, elems * widest);
    for (Elem e : w.elems) {
      const auto i = static_cast<std::size_t>(e);
      Slot& send = send_[host ? 1 : 0][i];
      allocate(send, dev, host, elems * elem_size(e));
      fill(e, send.ptr, elems, salt, world_rank);
      const std::size_t bcast_elems = std::max<std::size_t>(1, biggest / elem_size(e));
      Slot& bc = bcast_[host ? 1 : 0][i];
      allocate(bc, dev, host, bcast_elems * elem_size(e));
      fill(e, bc.ptr, bcast_elems, salt, kBcastOwner);
    }
  }
}

}  // namespace mpixccl::e2e
