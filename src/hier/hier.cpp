#include "hier/hier.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/log.hpp"
#include "common/reduce.hpp"
#include "common/schedule.hpp"
#include "common/status.hpp"
#include "obs/obs.hpp"
#include "sim/trace.hpp"

namespace mpixccl::hier {

namespace {

constexpr bool is_pof2(int x) { return x > 0 && (x & (x - 1)) == 0; }

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}


/// Avg accumulates as Sum through the stages; the caller divides once at the
/// end (the same convention the flat paths use, so results stay comparable).
ReduceOp stage_op(ReduceOp op) { return op == ReduceOp::Avg ? ReduceOp::Sum : op; }

/// Whether the stages can reduce `a`: its op is defined for the datatype as
/// a stage reduces it, and an Avg's final division is.
bool stage_reducible(const mini::CollArgs& a) {
  if (!reduce_defined(a.dt.base, stage_op(a.redop))) return false;
  return a.redop != ReduceOp::Avg || is_floating(a.dt.base) || is_complex(a.dt.base);
}

/// `rank`'s digit per dim of the chain.
std::vector<int> digits_of(int rank, const std::vector<int>& dims) {
  std::vector<int> r(dims.size());
  int q = rank;
  for (std::size_t j = 0; j < dims.size(); ++j) {
    r[j] = q % dims[j];
    q /= dims[j];
  }
  return r;
}

/// Whether my digits in every dim below j match those of rank `root`. A
/// per-level schedule rooted there runs dim j's stage among exactly these
/// ranks: the subtree a bcast has reached by then, or the leaders a reduce
/// has gathered into.
bool on_root_path(const HierEngine::HierComms& hc, int root, std::size_t j) {
  for (std::size_t i = 0; i < j; ++i) {
    if (hc.coord[i] != root % hc.dims[i]) return false;
    root /= hc.dims[i];
  }
  return true;
}

using obs::SpanName;
using mini::Coll;

/// The kind of every stage buffer the engine owns: its scratch is device
/// memory, and so is an allreduce's working copy.
constexpr mini::MemKind kDev = mini::MemKind::Device;

/// One stage's resolved arguments: `n` elements of `dt` on each side (per
/// block for the block collectives), with the kinds of both buffers given.
mini::CollArgs stage_args(Coll c, const void* s, mini::MemKind sk, void* r,
                          mini::MemKind rk, std::size_t n, mini::Datatype dt,
                          ReduceOp op = ReduceOp::Sum, int root = 0) {
  return {.coll = c, .sendbuf = s, .recvbuf = r, .count = n, .dt = dt, .rcount = n,
          .rdt = dt, .redop = op, .root = root, .skind = sk, .rkind = rk};
}

/// A stage span on this rank's track, optionally at one level of the chain.
obs::Span stage(mini::Mpi& mpi, SpanName name,
                std::uint16_t level = sim::kNoLevel) {
  return {mpi.rank(), mpi.context().clock(), name, level};
}

bool same_chain(const std::vector<sim::TopoLevel>& a,
                const std::vector<sim::TopoLevel>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].fanout != b[i].fanout ||
        a[i].bw_scale != b[i].bw_scale || a[i].alpha_scale != b[i].alpha_scale) {
      return false;
    }
  }
  return true;
}

}  // namespace

HierEngine::HierEngine(mini::Mpi& mpi) : mpi_(&mpi) {
  // Default chain: whatever sub-node hierarchy the world topology carries.
  // MPIXCCL_HIER_LEVELS overrides it (XHC-style user-defined virtual
  // hierarchies; "node" forces the flat two-level engine).
  const sim::Topology& topo = mpi_->context().topology();
  levels_ = topo.sub_levels();
  if (const char* env = std::getenv("MPIXCCL_HIER_LEVELS"); env != nullptr) {
    levels_ = sim::parse_level_spec(env, topo.devices_per_node());
  }
}

bool HierEngine::set_levels(const std::string& spec) {
  std::vector<sim::TopoLevel> next = sim::parse_level_spec(
      spec, mpi_->context().topology().devices_per_node());
  if (same_chain(next, levels_)) return false;
  levels_ = std::move(next);
  // Old cache entries stay allocated — persistent plans may still hold
  // pointers into them — but the epoch bump makes them unreachable, so no
  // stale subcommunicator chain is ever reused for a new dispatch.
  ++epoch_;
  return true;
}

std::size_t HierEngine::comm_cache_size() const {
  std::size_t n = 0;
  for (const auto& [key, hc] : cache_) n += (key.second == epoch_) ? 1 : 0;
  return n;
}

std::vector<std::pair<fabric::ChannelId, const HierEngine::HierComms*>>
HierEngine::cached_comms() const {
  std::vector<std::pair<fabric::ChannelId, const HierComms*>> out;
  for (const auto& [key, hc] : cache_) {
    if (key.second == epoch_) out.emplace_back(key.first, &hc);
  }
  return out;
}

HierEngine::HierComms& HierEngine::prepare(mini::Comm& comm) {
  const std::pair<fabric::ChannelId, std::uint64_t> key{comm.p2p_channel(),
                                                        epoch_};
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  HierComms hc;
  hc.epoch = epoch_;
  const sim::Topology& topo = mpi_->context().topology();
  const int p = comm.size();

  // Node-blocked regular layout: members grouped contiguously by node, the
  // same member count L on every node, distinct nodes per block, and at
  // least two nodes of at least two ranks. The verdict is pure local
  // arithmetic over state every member shares, so all ranks agree without
  // communicating — which is what lets the splits below stay collective.
  int L = 0;
  const int first_node = topo.node_of(comm.world_rank(0));
  while (L < p && topo.node_of(comm.world_rank(L)) == first_node) ++L;
  bool blocked = L >= 2 && p % L == 0 && p / L >= 2;
  if (blocked) {
    const int n_nodes = p / L;
    std::vector<int> block_node(static_cast<std::size_t>(n_nodes));
    for (int b = 0; b < n_nodes && blocked; ++b) {
      const int node = topo.node_of(comm.world_rank(b * L));
      block_node[static_cast<std::size_t>(b)] = node;
      for (int i = 1; i < L && blocked; ++i) {
        blocked = topo.node_of(comm.world_rank(b * L + i)) == node;
      }
      for (int prev = 0; prev < b && blocked; ++prev) {
        blocked = block_node[static_cast<std::size_t>(prev)] != node;
      }
    }
  }

  if (blocked) {
    const int me = comm.rank();
    hc.per_node = L;
    hc.nodes = p / L;

    // The sub-node chain refines the node blocks only when every block is a
    // whole node in natural local order: then a member's position inside
    // its block equals its topology-local index, and the per-dim link
    // classes below price exactly what the fabric will charge. Misaligned
    // (but still node-blocked) communicators keep the flat two-level chain.
    bool aligned = L == topo.devices_per_node();
    for (int i = 0; i < p && aligned; ++i) {
      aligned = topo.local_of(comm.world_rank(i)) == i % L;
    }
    long chain_ranks = 1;
    for (const sim::TopoLevel& lvl : levels_) chain_ranks *= lvl.fanout;

    // Dim chain, innermost first. Each dim is named for the scope its
    // exchanges span and carries the link class its partner pairs ride
    // (partners differ in exactly one digit, so they share all deeper
    // groups). Links come from the shared level spec, not from per-rank
    // lookups: every member derives identical cost estimates, which is what
    // keeps the pipelined schedule deterministic and deadlock-free.
    struct DimSpec {
      int size;
      std::string name;
      sim::LinkParams link;
    };
    const sim::MpiProfile& prof = mpi_->profile();
    std::vector<DimSpec> spec;
    if (aligned && !levels_.empty() && L % chain_ranks == 0) {
      const auto K = levels_.size();
      spec.push_back({static_cast<int>(L / chain_ranks), levels_[K - 1].name,
                      prof.dev_intra});
      double bw = 1.0;
      double alpha = 1.0;
      for (std::size_t j = K; j-- > 0;) {  // crossing levels_[j]'s boundary
        bw *= levels_[j].bw_scale;
        alpha *= levels_[j].alpha_scale;
        sim::LinkParams link = prof.dev_intra;
        link.bw_MBps *= bw;
        link.alpha_us *= alpha;
        spec.push_back(
            {levels_[j].fanout,
             j > 0 ? levels_[j - 1].name : std::string("node"), link});
      }
    } else {
      spec.push_back({L, "node", prof.dev_intra});
    }
    spec.push_back({hc.nodes, "net", prof.dev_inter});
    // A leaf group of one rank contributes no exchanges; drop it.
    std::erase_if(spec, [](const DimSpec& d) { return d.size <= 1; });

    // The splits are collective and cost virtual time; the stage span keeps
    // the first dispatch through a communicator fully attributable (the
    // critical-path report would otherwise show its setup cost as a gap).
    auto span = stage(*mpi_, SpanName::HierCommSetup);
    int stride = 1;
    for (const DimSpec& d : spec) {
      const int digit = (me / stride) % d.size;
      hc.dims.push_back(d.size);
      hc.level_ids.push_back(sim::levels().intern(d.name));
      hc.links.push_back(d.link);
      hc.coord.push_back(digit);
      // Color = my rank with this dim's digit zeroed: members of one
      // subgroup differ only in that digit, and sorting by key keeps the
      // subcommunicator rank equal to the digit.
      hc.comms.push_back(mpi_->split(comm, me - digit * stride, me));
      if (!hc.level_path.empty()) hc.level_path += '.';
      hc.level_path += d.name + "(" + std::to_string(d.size) + ")";
      stride *= d.size;
    }
    hc.usable = true;
    MPIXCCL_LOG_DEBUG("hier", "rank ", me, ": hierarchical comms over ",
                      hc.level_path);
  }
  return cache_.emplace(key, std::move(hc)).first->second;
}

bool HierEngine::applicable(mini::Comm& comm) { return prepare(comm).usable; }

std::byte* HierEngine::scratch(device::DeviceBuffer& buf, std::size_t bytes) {
  if (buf.size() < bytes) {
    buf = device::DeviceBuffer(mpi_->context().device(), bytes);
  }
  return static_cast<std::byte*>(buf.get());
}

// ---- Allreduce --------------------------------------------------------------

namespace {

/// Schedule family for one allreduce shape, shared between the execute path
/// and reserve_allreduce so pre-sizing matches exactly.
enum class ArMode {
  Pipelined,  ///< n-level halving/doubling, chunked across level links
  Staged,     ///< shard recursion (reduce-scatter up, allgather down)
  Cico        ///< copy-in-copy-out leader ladder (deep chains, small sizes)
};

struct AllreduceShape {
  ArMode mode = ArMode::Staged;
  std::size_t chunks = 1;
  std::size_t unit = 0;
  std::size_t padded = 0;
};

AllreduceShape allreduce_shape(std::size_t elems, std::size_t esz,
                               const std::vector<int>& dims) {
  AllreduceShape s;
  const std::size_t bytes = elems * esz;
  std::size_t grain = 1;
  bool all_pof2 = true;
  for (int d : dims) {
    grain *= static_cast<std::size_t>(d);
    all_pof2 = all_pof2 && is_pof2(d);
  }
  // Deep chains pay one shard latency per level; below the single-copy
  // threshold the copy-in-copy-out ladder (whole-message leader hops) is
  // cheaper. Two-level chains keep the single-copy schedules at every size.
  if (dims.size() > 2 && bytes < HierEngine::kSingleCopyMinBytes) {
    s.mode = ArMode::Cico;
    return s;
  }
  if (all_pof2 && elems >= grain) {
    s.mode = ArMode::Pipelined;
    if (bytes >= HierEngine::kPipelineMinBytes) {
      s.chunks = std::min(
          HierEngine::kMaxPipelineChunks,
          std::max<std::size_t>(2, bytes / HierEngine::kPipelineChunkBytes));
    }
    s.unit = ceil_div(ceil_div(elems, s.chunks), grain) * grain;
    s.chunks = ceil_div(elems, s.unit);  // drop now-empty tail chunks
    s.padded = s.unit * s.chunks;
  } else {
    const std::size_t within = grain / static_cast<std::size_t>(dims.back());
    s.unit = ceil_div(elems, within) * within;
    s.padded = s.unit;
  }
  return s;
}

}  // namespace

std::size_t HierEngine::reserve_allreduce(const HierComms& hc,
                                          std::size_t elems, DataType base) {
  if (!hc.usable || elems == 0) return 0;
  const std::size_t esz = datatype_size(base);
  const AllreduceShape s = allreduce_shape(elems, esz, hc.dims);
  if (s.mode == ArMode::Cico) {
    scratch(stage_, 2 * elems * esz);
    return stage_.size();
  }
  scratch(ws_, s.padded * esz);
  if (s.mode == ArMode::Pipelined) return ws_.size();
  // Staged: one shard per chain step, plus the top-level allreduce output.
  std::size_t total = 0;
  std::size_t cur = s.padded;
  for (std::size_t j = 0; j + 1 < hc.dims.size(); ++j) {
    cur /= static_cast<std::size_t>(hc.dims[j]);
    total += cur;
  }
  total += cur;
  scratch(stage_, total * esz);
  return ws_.size() + stage_.size();
}

bool HierEngine::allreduce(HierComms& hc, const void* sendbuf, void* recvbuf,
                           std::size_t count, mini::Datatype dt, ReduceOp op,
                           mini::Comm& comm) {
  return run(hc,
             mini::resolve({.coll = Coll::Allreduce, .sendbuf = sendbuf,
                            .recvbuf = recvbuf, .count = count, .dt = dt, .redop = op},
                           comm),
             comm);
}

bool HierEngine::run(HierComms& hc, const mini::CollArgs& a, mini::Comm& comm) {
  switch (a.coll) {
    case Coll::Allreduce: return run_allreduce(hc, a, comm);
    case Coll::Bcast: return run_bcast(hc, a, comm);
    case Coll::Reduce: return run_reduce(hc, a, comm);
    case Coll::Allgather: return run_allgather(hc, a);
    case Coll::ReduceScatterBlock: return run_reduce_scatter_block(hc, a, comm);
    default: return false;
  }
}

bool HierEngine::run_allreduce(HierComms& hc, const mini::CollArgs& a,
                               mini::Comm& comm) {
  if (!stage_reducible(a)) return false;
  if (!hc.usable) return false;
  if (a.count == 0) return true;

  const std::size_t elems = a.count * a.dt.count;
  const std::size_t esz = datatype_size(a.dt.base);
  const std::size_t bytes = elems * esz;
  const AllreduceShape shape = allreduce_shape(elems, esz, hc.dims);

  if (shape.mode == ArMode::Cico) {
    cico_allreduce(a, elems, stage_op(a.redop), hc);
  } else {
    // Working copy: recvbuf itself when no pad is needed and it is device
    // memory (every exchange is priced by its buffer's kind, so a host
    // recvbuf would change the link class), else the padded device scratch.
    // Every rank pads identically and the pad region is never copied out,
    // so whatever the reduction leaves there is irrelevant.
    std::byte* ws = (shape.padded == elems && a.rkind == kDev)
                        ? static_cast<std::byte*>(a.recvbuf)
                        : scratch(ws_, shape.padded * esz);
    if (ws != a.sendbuf) std::memcpy(ws, a.sendbuf, bytes);
    if (shape.padded > elems) {
      std::memset(ws + bytes, 0, (shape.padded - elems) * esz);
    }
    if (shape.mode == ArMode::Pipelined) {
      // One span for the whole pipelined schedule: its per-level exchanges
      // interleave, so per-stage spans would overlap and mislead.
      auto span = stage(*mpi_, SpanName::AllreducePipelined);
      pipelined_allreduce(ws, shape.unit, shape.chunks, a.dt.base, stage_op(a.redop),
                          hc);
    } else {
      staged_allreduce(ws, shape.padded, a.dt.base, stage_op(a.redop), hc);
    }
    if (ws != a.recvbuf) std::memcpy(a.recvbuf, ws, bytes);
  }

  if (a.redop == ReduceOp::Avg) {
    throw_if_error(scale_inplace(a.dt.base, a.recvbuf, elems,
                                 1.0 / static_cast<double>(comm.size())),
                   "HierEngine::allreduce avg");
  }
  return true;
}

void HierEngine::staged_allreduce(std::byte* ws, std::size_t padded,
                                  DataType base, ReduceOp op, HierComms& hc) {
  const std::size_t esz = datatype_size(base);
  const mini::Datatype dtb{base, 1};
  const std::size_t D = hc.dims.size();

  // Shard sizes up the chain and their offsets in the stage buffer. Level j
  // reduce-scatters its input into a 1/dims[j] shard; the top dim runs a
  // whole-shard allreduce; allgathers rebuild on the way back down.
  std::vector<std::size_t> shard(D - 1);
  std::vector<std::size_t> off(D - 1);
  std::size_t total = 0;
  std::size_t cur = padded;
  for (std::size_t j = 0; j + 1 < D; ++j) {
    cur /= static_cast<std::size_t>(hc.dims[j]);
    shard[j] = cur;
    off[j] = total;
    total += cur;
  }
  const std::size_t out_off = total;
  std::byte* stg = scratch(stage_, (total + shard[D - 2]) * esz);

  const std::byte* buf = ws;
  for (std::size_t j = 0; j + 1 < D; ++j) {
    auto span = stage(*mpi_, SpanName::AllreduceRs, hc.level_ids[j]);
    mpi_->run(stage_args(Coll::ReduceScatterBlock, buf, kDev, stg + off[j] * esz, kDev,
                         shard[j], dtb, op),
              hc.comms[j]);
    buf = stg + off[j] * esz;
  }
  std::byte* out = stg + out_off * esz;
  {
    auto span = stage(*mpi_, SpanName::AllreduceAr, hc.level_ids[D - 1]);
    mpi_->run(stage_args(Coll::Allreduce, buf, kDev, out, kDev, shard[D - 2], dtb, op),
              hc.comms[D - 1]);
  }
  const std::byte* src = out;
  for (std::size_t j = D - 1; j-- > 0;) {
    std::byte* dst = (j == 0) ? ws : stg + off[j - 1] * esz;
    auto span = stage(*mpi_, SpanName::AllreduceAg, hc.level_ids[j]);
    mpi_->run(stage_args(Coll::Allgather, src, kDev, dst, kDev, shard[j], dtb),
              hc.comms[j]);
    src = dst;
  }
}

void HierEngine::cico_allreduce(const mini::CollArgs& a, std::size_t elems,
                                ReduceOp op, HierComms& hc) {
  const DataType base = a.dt.base;
  const std::size_t esz = datatype_size(base);
  const std::size_t bytes = elems * esz;
  const mini::Datatype dtb{base, 1};
  const std::size_t D = hc.dims.size();

  // XHC-style copy-in-copy-out: whole messages hop leader-to-leader instead
  // of paying one shard exchange (alpha + rendezvous each) per level. A rank
  // participates at step j iff it is the digit-0 leader of every deeper dim.

  std::byte* stg = scratch(stage_, 2 * bytes);
  std::byte* half[2] = {stg, stg + bytes};
  const void* cur = a.sendbuf;
  mini::MemKind cur_kind = a.skind;
  int pp = 0;
  for (std::size_t j = 0; j + 1 < D; ++j) {
    auto span = stage(*mpi_, SpanName::AllreduceCicoReduce, hc.level_ids[j]);
    if (on_root_path(hc, 0, j)) {
      mpi_->run(stage_args(Coll::Reduce, cur, cur_kind, half[pp], kDev, elems, dtb, op),
                hc.comms[j]);
      cur = half[pp];
      cur_kind = kDev;
      pp ^= 1;
    }
  }
  {
    auto span = stage(*mpi_, SpanName::AllreduceCicoAr, hc.level_ids[D - 1]);
    if (on_root_path(hc, 0, D - 1)) {
      mpi_->run(stage_args(Coll::Allreduce, cur, cur_kind, a.recvbuf, a.rkind, elems,
                           dtb, op),
                hc.comms[D - 1]);
    }
  }
  for (std::size_t j = D - 1; j-- > 0;) {
    auto span = stage(*mpi_, SpanName::AllreduceCicoBcast, hc.level_ids[j]);
    if (on_root_path(hc, 0, j)) {
      mpi_->run({.coll = Coll::Bcast, .recvbuf = a.recvbuf, .count = elems, .dt = dtb,
                 .rkind = a.rkind},
                hc.comms[j]);
    }
  }
}

void HierEngine::pipelined_allreduce(std::byte* ws, std::size_t unit,
                                     std::size_t chunks, DataType base,
                                     ReduceOp op, HierComms& hc) {
  const std::size_t esz = datatype_size(base);
  const mini::Datatype dtb{base, 1};
  const std::size_t D = hc.dims.size();

  // Per-chunk recursive halving/doubling over the composite digit vector:
  // halving dim by dim from the innermost out, then doubling back in. This
  // is the flat Rabenseifner exchange volume with the schedule reordered so
  // the large halves ride the fastest links and each slower boundary only
  // carries its 1/prod(inner dims) shard — and because every inner-digit
  // combination drives its own top-level column, all NICs carry traffic at
  // once (multi-root).
  //
  // Chunks pipeline: each level's link is distinct hardware, so one
  // exchange stays in flight on EACH link class while the others progress —
  // one chunk's level-(k+1) shard exchange overlaps another chunk's level-k
  // halving/doubling. At most one exchange per dim is outstanding, so no
  // link's bandwidth is double-booked.
  //
  // A chunk's position is its next step in the butterfly over the dims.
  struct Chunk {
    Range seg;  ///< the segment it holds, elems of ws
    int k = 0;  ///< next step; bf.steps() when done
    int tag = 0;
    mini::Request sreq, rreq;  ///< the in-flight exchange (any dim)
    bool pending = false;
  };
  const Butterfly bf(hc.dims);
  auto dim_of = [&bf](const Chunk& c) {
    return static_cast<std::size_t>(bf.step(c.k).dim);
  };

  std::vector<Chunk> cs(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    cs[c].seg = {c * unit, (c + 1) * unit};
    cs[c].tag = static_cast<int>(c) * 1000;
  }

  // Estimated one-way exchange cost, used only to order completions. It is
  // computed from the chain's shared link classes, so every rank derives
  // the same schedule — symmetry is what makes the waits deadlock-free.
  const sim::MpiProfile& prof = mpi_->profile();
  auto est_cost = [&](std::size_t xfer_elems, std::size_t j) {
    const std::size_t b = xfer_elems * esz;
    double cost = hc.links[j].cost_us(b) + 2.0 * prof.per_op_us;
    if (b > prof.eager_threshold) cost += prof.rndv_rtt_us;
    return cost;
  };

  auto upper = [&](const Chunk& c) {
    const ButterflyStep s = bf.step(c.k);
    return (hc.coord[static_cast<std::size_t>(s.dim)] & s.mask) != 0;
  };

  auto post = [&](Chunk& c) -> double {
    const ButterflyStep s = bf.step(c.k);
    const auto j = static_cast<std::size_t>(s.dim);
    mini::Comm& sub = hc.comms[j];
    const int partner = hc.coord[j] ^ s.mask;
    auto at_seg = [&](Range r) { return ws + r.lo * esz; };
    std::size_t xfer = c.seg.size();
    if (s.halving) {  // send one half, reduce into the kept one
      const Halves h = halve(c.seg, upper(c));
      xfer = h.keep.size();
      c.rreq = mpi_->irecv_reduce(at_seg(h.keep), xfer, dtb, op, partner, c.tag, sub,
                                  kDev);
      c.sreq = mpi_->isend(at_seg(h.send), xfer, dtb, partner, c.tag, sub, kDev);
    } else {  // receive the partner's segment straight into place
      c.rreq = mpi_->irecv(at_seg(mirror(c.seg, upper(c))), xfer, dtb, partner, c.tag,
                           sub, kDev);
      c.sreq = mpi_->isend(at_seg(c.seg), xfer, dtb, partner, c.tag, sub, kDev);
    }
    ++c.tag;
    c.pending = true;
    return est_cost(xfer, j);
  };

  auto complete = [&](Chunk& c) {
    // Per-level attribution for the fleet skew tables: the wait below is the
    // time this rank spent blocked on this dim's exchange (a late partner at
    // that level shows up here), and completes are issued sequentially, so
    // the spans never overlap even when chunks pipeline.
    auto span = stage(*mpi_, SpanName::AllreducePipe, hc.level_ids[dim_of(c)]);
    mpi_->wait(c.sreq);
    mpi_->wait(c.rreq);
    c.pending = false;
    c.seg = after(c.seg, bf.step(c.k), upper(c));
    ++c.k;
  };

  // Scheduler. Chunk steps evolve identically on every rank (the loop only
  // branches on shared deterministic state — steps and chain-derived cost
  // estimates), so partners always meet at the same exchange in the same
  // order: no handshake is needed and no deadlock is possible.
  auto ready_on = [&](const Chunk& c, std::size_t j) {
    return !c.pending && c.k < bf.steps() && dim_of(c) == j;
  };
  auto next_for_dim = [&](std::size_t j) -> Chunk* {
    if (j == 0) {
      // Drain tails (the final doubling) before opening new heads, keeping
      // in-flight scratch bounded and the pipeline short.
      for (auto& c : cs) {
        if (ready_on(c, 0) && !bf.step(c.k).halving) return &c;
      }
      for (auto& c : cs) {
        if (ready_on(c, 0) && bf.step(c.k).halving) return &c;
      }
      return nullptr;
    }
    for (auto& c : cs) {
      if (ready_on(c, j)) return &c;
    }
    return nullptr;
  };

  // Post as soon as a step is enabled (outermost dims first); complete
  // whichever in-flight exchange is estimated to finish first, so no link
  // class goes idle while another still has work queued.
  std::vector<Chunk*> inflight(D, nullptr);
  std::vector<double> done_at(D, 0.0);
  double now = 0.0;
  for (;;) {
    for (std::size_t j = D; j-- > 0;) {
      if (inflight[j] == nullptr) {
        inflight[j] = next_for_dim(j);
        if (inflight[j] != nullptr) done_at[j] = now + post(*inflight[j]);
      }
    }
    std::size_t pick = D;  // argmin over in-flight dims; ties -> innermost
    for (std::size_t j = 0; j < D; ++j) {
      if (inflight[j] != nullptr && (pick == D || done_at[j] < done_at[pick])) {
        pick = j;
      }
    }
    if (pick == D) break;  // all chunks done
    now = std::max(now, done_at[pick]);
    complete(*inflight[pick]);
    inflight[pick] = nullptr;
  }
}

// ---- Bcast ------------------------------------------------------------------

bool HierEngine::run_bcast(HierComms& hc, const mini::CollArgs& a,
                           mini::Comm& comm) {
  if (!hc.usable) return false;
  if (a.count == 0) return true;

  const std::size_t elems = a.count * a.dt.count;
  const std::size_t esz = datatype_size(a.dt.base);
  const std::size_t bytes = elems * esz;
  const mini::Datatype dtb{a.dt.base, 1};
  const std::size_t D = hc.dims.size();

  const std::vector<int> r = digits_of(a.root, hc.dims);

  if (bytes < kBcastScatterMinBytes) {
    // Leader chain: the root's column carries the message across each
    // boundary from the outermost in, then every group fans out locally.
    for (std::size_t j = D; j-- > 0;) {
      auto span = stage(*mpi_, SpanName::BcastLeader, hc.level_ids[j]);
      if (on_root_path(hc, a.root, j)) {
        mini::CollArgs leg = a;  // the same bcast, rooted at this level's digit
        leg.root = r[j];
        mpi_->run(leg, hc.comms[j]);
      }
    }
    return true;
  }

  // Multi-root: the root scatters segments down its own node's chain, each
  // rank broadcasts its own segment over the network to its peer column
  // (keeping all NICs busy at once), and nodes reassemble with per-level
  // allgathers.
  std::vector<std::size_t> stride(D);
  stride[0] = 1;
  for (std::size_t j = 1; j < D; ++j) {
    stride[j] = stride[j - 1] * static_cast<std::size_t>(hc.dims[j - 1]);
  }
  const std::size_t within = stride[D - 1];  // ranks per node block
  const std::size_t seg = ceil_div(elems, within);
  const std::size_t padded = seg * within;
  std::byte* ws = scratch(ws_, padded * esz);
  const std::size_t bmax = stride[D - 2] * seg;  // largest scattered block
  std::byte* stg = scratch(stage_, 2 * bmax * esz);
  std::byte* pp[2] = {stg, stg + bmax * esz};

  if (comm.rank() == a.root) {
    std::memcpy(ws, a.recvbuf, bytes);
    std::memset(ws + bytes, 0, (padded - elems) * esz);
  }

  // Scatter chain on the root's node, outermost within-node dim first. The
  // receive slot alternates by step so late joiners land in the same buffer
  // the chain's holders send from.
  const std::byte* src = ws;
  for (std::size_t j = D - 1; j-- > 0;) {
    std::byte* dst = pp[(D - 2 - j) % 2];
    auto span = stage(*mpi_, SpanName::BcastScatter, hc.level_ids[j]);
    if (hc.coord[D - 1] == r[D - 1] && on_root_path(hc, a.root, j)) {
      mpi_->run(stage_args(Coll::Scatter, src, kDev, dst, kDev, stride[j] * seg, dtb,
                           ReduceOp::Sum, r[j]),
                hc.comms[j]);
      src = dst;
    }
  }

  // Every rank's own segment crosses the network once, down its column.
  std::byte* segbuf = pp[(D - 2) % 2];
  {
    auto span = stage(*mpi_, SpanName::Bcast, hc.level_ids[D - 1]);
    mpi_->run({.coll = Coll::Bcast, .recvbuf = segbuf, .count = seg, .dt = dtb,
               .root = r[D - 1], .rkind = kDev},
              hc.comms[D - 1]);
  }

  // Reassemble: allgather from the innermost dim out (concatenation by
  // digit j rebuilds contiguous within-node order at each step).
  const std::byte* asrc = segbuf;
  for (std::size_t j = 0; j + 1 < D; ++j) {
    std::byte* dst = (j == D - 2) ? ws : (asrc == pp[0] ? pp[1] : pp[0]);
    auto span = stage(*mpi_, SpanName::BcastAg, hc.level_ids[j]);
    mpi_->run(stage_args(Coll::Allgather, asrc, kDev, dst, kDev, stride[j] * seg, dtb),
              hc.comms[j]);
    asrc = dst;
  }
  std::memcpy(a.recvbuf, ws, bytes);
  return true;
}

// ---- Reduce -----------------------------------------------------------------

bool HierEngine::run_reduce(HierComms& hc, const mini::CollArgs& a,
                            mini::Comm& comm) {
  if (!stage_reducible(a)) return false;
  if (!hc.usable) return false;
  if (a.count == 0) return true;

  const std::size_t bytes = a.bytes();
  const std::size_t D = hc.dims.size();
  const int me = comm.rank();

  const std::vector<int> r = digits_of(a.root, hc.dims);

  // Reduce toward the root's digit at each level from the innermost out.
  // The true root accumulates straight into recvbuf at every step; other
  // leaders stage into scratch (and feed it forward — mini::reduce accepts
  // the aliased sendbuf, the same contract the 2-level engine relied on).
  const void* cur = a.sendbuf;
  mini::MemKind cur_kind = a.skind;
  std::byte* dst =
      (me == a.root) ? static_cast<std::byte*>(a.recvbuf) : scratch(stage_, bytes);
  const mini::MemKind dst_kind = me == a.root ? a.rkind : kDev;
  for (std::size_t j = 0; j < D; ++j) {
    auto span = stage(*mpi_, SpanName::Reduce, hc.level_ids[j]);
    if (on_root_path(hc, a.root, j)) {
      mpi_->run(stage_args(Coll::Reduce, cur, cur_kind, dst, dst_kind, a.count, a.dt,
                           stage_op(a.redop), r[j]),
                hc.comms[j]);
      cur = dst;
      cur_kind = dst_kind;
    }
  }
  if (me == a.root && a.redop == ReduceOp::Avg) {
    throw_if_error(scale_inplace(a.dt.base, a.recvbuf, a.count * a.dt.count,
                                 1.0 / static_cast<double>(comm.size())),
                   "HierEngine::reduce avg");
  }
  return true;
}

// ---- Allgather --------------------------------------------------------------

namespace {

/// Block index of comm rank `g` in the chain-major layout the staged
/// allgather/reduce-scatter produce: digit 0 varies slowest.
std::size_t chain_index(int g, const std::vector<int>& dims, std::size_t p) {
  std::size_t idx = 0;
  std::size_t span = p;
  int q = g;
  for (int d : dims) {
    span /= static_cast<std::size_t>(d);
    idx += static_cast<std::size_t>(q % d) * span;
    q /= d;
  }
  return idx;
}

}  // namespace

bool HierEngine::run_allgather(HierComms& hc, const mini::CollArgs& a) {
  const std::size_t blk = a.bytes();
  if (blk != a.rcount * a.rdt.size()) return false;
  if (!hc.usable) return false;
  if (blk == 0) return true;

  const std::size_t D = hc.dims.size();
  const std::size_t p = hc.size();
  const std::size_t selems = a.count * a.dt.count;
  const mini::Datatype stb{a.dt.base, 1};

  // Gather from the outermost dim in: each rank's block crosses the slowest
  // link exactly once, and every inner step exchanges whole columns on
  // progressively faster links.
  const std::size_t imax = p / static_cast<std::size_t>(hc.dims[0]);
  std::byte* stg = scratch(stage_, 2 * imax * blk);
  std::byte* pp[2] = {stg, stg + imax * blk};
  std::byte* full = scratch(ws_, p * blk);
  const std::byte* src = static_cast<const std::byte*>(a.sendbuf);
  mini::MemKind src_kind = a.skind;
  std::size_t cnt = 1;
  int slot = 0;
  for (std::size_t j = D; j-- > 0;) {
    std::byte* dst = (j == 0) ? full : pp[slot];
    auto span = stage(*mpi_, SpanName::Allgather, hc.level_ids[j]);
    mpi_->run(stage_args(Coll::Allgather, src, src_kind, dst, kDev, selems * cnt, stb),
              hc.comms[j]);
    src = dst;
    src_kind = kDev;
    slot ^= 1;
    cnt *= static_cast<std::size_t>(hc.dims[j]);
  }
  // Local reorder from chain-major to comm-rank-major.
  for (std::size_t g = 0; g < p; ++g) {
    std::memcpy(at(a.recvbuf, g * blk),
                full + chain_index(static_cast<int>(g), hc.dims, p) * blk, blk);
  }
  return true;
}

// ---- ReduceScatter ----------------------------------------------------------

bool HierEngine::run_reduce_scatter_block(HierComms& hc, const mini::CollArgs& a,
                                          mini::Comm& comm) {
  if (!stage_reducible(a)) return false;
  if (!hc.usable) return false;
  if (a.count == 0) return true;

  const std::size_t relems = a.count * a.dt.count;
  const std::size_t blk = relems * datatype_size(a.dt.base);
  const std::size_t D = hc.dims.size();
  const std::size_t p = hc.size();
  const mini::Datatype dtb{a.dt.base, 1};

  // Permute the p input blocks into chain-major order so each level's
  // reduce-scatter keeps a contiguous slice.
  std::byte* tmp = scratch(ws_, p * blk);
  for (std::size_t g = 0; g < p; ++g) {
    std::memcpy(tmp + chain_index(static_cast<int>(g), hc.dims, p) * blk,
                at(a.sendbuf, g * blk), blk);
  }

  // Reduce-scatter from the innermost dim out: whole columns ride the fast
  // links, and only my 1/prod(inner dims) slice crosses each boundary.
  const std::size_t imax = p / static_cast<std::size_t>(hc.dims[0]);
  std::byte* stg = scratch(stage_, 2 * imax * blk);
  std::byte* pp[2] = {stg, stg + imax * blk};
  const std::byte* src = tmp;
  std::size_t cnt = p;
  int slot = 0;
  for (std::size_t j = 0; j < D; ++j) {
    cnt /= static_cast<std::size_t>(hc.dims[j]);
    const bool last = j == D - 1;
    std::byte* dst = last ? static_cast<std::byte*>(a.recvbuf) : pp[slot];
    auto span = stage(*mpi_, SpanName::Rs, hc.level_ids[j]);
    mpi_->run(stage_args(Coll::ReduceScatterBlock, src, kDev, dst, last ? a.rkind : kDev,
                         relems * cnt, dtb, stage_op(a.redop)),
              hc.comms[j]);
    src = dst;
    slot ^= 1;
  }
  if (a.redop == ReduceOp::Avg) {
    throw_if_error(scale_inplace(a.dt.base, a.recvbuf, relems,
                                 1.0 / static_cast<double>(comm.size())),
                   "HierEngine::reduce_scatter_block avg");
  }
  return true;
}

}  // namespace mpixccl::hier
