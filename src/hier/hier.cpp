#include "hier/hier.hpp"

#include <algorithm>
#include <array>
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

using obs::SpanName;
using mini::Coll;

/// The kind of every stage buffer the engine owns: its scratch is device
/// memory, and so is an allreduce's working copy.
constexpr mini::MemKind kDev = mini::MemKind::Device;

/// A stage's input and the memory kind MiniMPI prices it by.
struct Src {
  const void* p;
  mini::MemKind kind;
};

/// A stage's output; the engine's own scratch is device memory.
struct Dst {
  void* p;
  mini::MemKind kind = kDev;

  /// What a stage wrote is the next stage's input.
  operator Src() const { return {p, kind}; }
};

/// One stage's resolved arguments: `n` elements of `dt` on each side (per
/// block for the block collectives).
mini::CollArgs stage_args(Coll c, Src s, Dst d, std::size_t n, mini::Datatype dt,
                          ReduceOp op = ReduceOp::Sum, int root = 0) {
  return {.coll = c, .sendbuf = s.p, .recvbuf = d.p, .count = n, .dt = dt, .rcount = n,
          .rdt = dt, .redop = op, .root = root, .skind = s.kind, .rkind = d.kind};
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
    hc.rank = me;
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

// ---- Level walks -------------------------------------------------------------
// Every staged collective composes four walks, each one loop over the dims
// [lo, hi) its caller names: reduce-scatter up the chain, allgather across
// it, reduce toward a root's digit, bcast or scatter from a root's digit.
// Dim j's stage runs on hc.comms[j] under a span of the caller's name at
// dim j's level; a rank that sits a rooted stage out still opens the span.

namespace {

using HierComms = HierEngine::HierComms;

/// Where a walk's stages land: dim j's stage writes into half[j % 2], and
/// the walk's last stage into `last` when one is given.
struct Landing {
  Dst half[2];
  Dst last{nullptr};

  /// Every stage lands in `d`.
  static Landing all(Dst d) { return {{d, d}, d}; }
  [[nodiscard]] Dst at(std::size_t j, bool final) const {
    return final && last.p != nullptr ? last : half[j % 2];
  }
};

/// The caller's part of a walk: the span its stages open, the dims [lo, hi)
/// it covers, and its stages' datatype and op.
struct Walk {
  SpanName name;
  std::size_t lo;
  std::size_t hi;
  mini::Datatype dt;
  ReduceOp op = ReduceOp::Sum;
};

/// Reduce-scatter, innermost dim first: dim j's stage keeps a 1/dims[j]
/// block of the n elements entering it. Returns where the last block landed.
Dst reduce_scatter_up(mini::Mpi& mpi, HierComms& hc, const Walk& w, Src src,
                      std::size_t n, const Landing& land) {
  Dst dst{nullptr};
  for (std::size_t j = w.lo; j < w.hi; ++j) {
    n /= static_cast<std::size_t>(hc.dims[j]);
    dst = land.at(j, j + 1 == w.hi);
    auto span = stage(mpi, w.name, hc.level_ids[j]);
    mpi.run(stage_args(Coll::ReduceScatterBlock, src, dst, n, w.dt, w.op), hc.comms[j]);
    src = dst;
  }
  return dst;
}

/// Allgather, outermost dim first when `down`: dim j's stage gathers
/// dims[j] blocks of n elements into the next stage's block.
void allgather_across(mini::Mpi& mpi, HierComms& hc, const Walk& w, bool down, Src src,
                      std::size_t n, const Landing& land) {
  for (std::size_t k = w.lo; k < w.hi; ++k) {
    const std::size_t j = down ? w.hi - 1 - (k - w.lo) : k;
    const Dst dst = land.at(j, k + 1 == w.hi);
    auto span = stage(mpi, w.name, hc.level_ids[j]);
    mpi.run(stage_args(Coll::Allgather, src, dst, n, w.dt), hc.comms[j]);
    src = dst;
    n *= static_cast<std::size_t>(hc.dims[j]);
  }
}

/// Reduce n elements toward `root`'s digit, innermost dim first. A rank runs
/// dim j's stage while its digits below j equal the root's (it leads the
/// groups reduced so far), reading src first and dst after: MiniMPI's reduce
/// accepts it aliased. Returns whether this rank holds the reduced block.
bool reduce_toward(mini::Mpi& mpi, HierComms& hc, const Walk& w, int root, Src src,
                   Dst dst, std::size_t n) {
  const MixedRadix rx(hc.dims);
  for (std::size_t j = w.lo; j < w.hi; ++j) {
    auto span = stage(mpi, w.name, hc.level_ids[j]);
    if (!rx.on_root_path(hc.rank, root, j)) continue;
    mpi.run(stage_args(Coll::Reduce, src, dst, n, w.dt, w.op, rx.digit(root, j)),
            hc.comms[j]);
    src = dst;
  }
  return rx.on_root_path(hc.rank, root, w.hi);
}

/// Bcast n elements in place (c = Bcast), or scatter the root's n elements
/// dims[j] ways per stage (c = Scatter), from `root`'s digit, outermost dim
/// first. A rank runs dim j's stage once its digits below j equal the
/// root's and only if it is a `holder`. Returns where dim lo's stage lands.
Dst bcast_from(mini::Mpi& mpi, HierComms& hc, const Walk& w, Coll c, int root,
               bool holder, Src src, std::size_t n, const Landing& land) {
  const MixedRadix rx(hc.dims);
  for (std::size_t j = w.hi; j-- > w.lo;) {
    if (c == Coll::Scatter) n /= static_cast<std::size_t>(hc.dims[j]);
    const Dst dst = land.at(j, j == w.lo);
    auto span = stage(mpi, w.name, hc.level_ids[j]);
    if (!holder || !rx.on_root_path(hc.rank, root, j)) continue;
    mpi.run(stage_args(c, src, dst, n, w.dt, ReduceOp::Sum, rx.digit(root, j)),
            hc.comms[j]);
    src = dst;
  }
  return land.at(w.lo, true);
}

}  // namespace

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
  std::size_t padded = 0;  ///< elements of the working copy; 0 for Cico
  /// Elements of each region of the stage scratch. Staged: the two halves
  /// the reduce-scatter alternates between (dim 0's and dim 1's shards) and
  /// the top allreduce's output. Cico: the leaders' accumulator.
  std::array<std::size_t, 3> stage{};

  [[nodiscard]] std::size_t stage_elems() const {
    return stage[0] + stage[1] + stage[2];
  }
};

AllreduceShape allreduce_shape(std::size_t elems, std::size_t esz,
                               const std::vector<int>& dims) {
  AllreduceShape s;
  const std::size_t bytes = elems * esz;
  const MixedRadix rx(dims);
  const std::size_t D = dims.size();
  // Deep chains pay one shard latency per level; below the single-copy
  // threshold the copy-in-copy-out ladder (whole-message leader hops) is
  // cheaper. Two-level chains keep the single-copy schedules at every size.
  if (D > 2 && bytes < HierEngine::kSingleCopyMinBytes) {
    s.mode = ArMode::Cico;
    s.stage[0] = elems;
    return s;
  }
  const auto grain = static_cast<std::size_t>(rx.size());
  if (std::ranges::all_of(dims, is_pof2) && elems >= grain) {
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
    const auto within = static_cast<std::size_t>(rx.stride(D - 1));
    s.unit = ceil_div(elems, within) * within;
    s.padded = s.unit;
    const std::size_t shard0 = s.padded / static_cast<std::size_t>(dims[0]);
    s.stage = {shard0, D > 2 ? shard0 / static_cast<std::size_t>(dims[1]) : 0,
               s.padded / within};
  }
  return s;
}

/// Staged shard recursion for non-power-of-two dims: reduce-scatter `in` up
/// the chain, allreduce at the top, allgather back down into the working copy.
void staged_allreduce(mini::Mpi& mpi, HierComms& hc, Src in, std::byte* ws,
                      std::byte* stg, const AllreduceShape& shape, DataType base,
                      ReduceOp op) {
  const std::size_t esz = datatype_size(base);
  const mini::Datatype dtb{base, 1};
  const std::size_t D = hc.dims.size();
  std::byte* half1 = stg + shape.stage[0] * esz;
  std::byte* out = half1 + shape.stage[1] * esz;

  const Dst shard = reduce_scatter_up(mpi, hc, {SpanName::AllreduceRs, 0, D - 1, dtb, op},
                                      in, shape.padded, {{{stg}, {half1}}});
  {
    auto span = stage(mpi, SpanName::AllreduceAr, hc.level_ids[D - 1]);
    mpi.run(stage_args(Coll::Allreduce, shard, {out}, shape.stage[2], dtb, op),
            hc.comms[D - 1]);
  }
  // Dim j's allgather rebuilds the block dim j - 1's reduce-scatter kept,
  // in the other half from the one it reads.
  allgather_across(mpi, hc, {SpanName::AllreduceAg, 0, D - 1, dtb}, true, {out, kDev},
                   shape.stage[2], {{{half1}, {stg}}, {ws}});
}

/// Copy-in-copy-out ladder for small messages on deep chains (XHC-style):
/// whole messages hop leader to leader instead of paying one shard exchange
/// (alpha + rendezvous each) per level. Reduce to the digit-0 leaders, run
/// the allreduce among the node leaders, bcast back down.
void cico_allreduce(mini::Mpi& mpi, HierComms& hc, const mini::CollArgs& a,
                    std::size_t elems, ReduceOp op, std::byte* acc) {
  const mini::Datatype dtb{a.dt.base, 1};
  const std::size_t D = hc.dims.size();
  const Dst out{a.recvbuf, a.rkind};
  const bool leader =
      reduce_toward(mpi, hc, {SpanName::AllreduceCicoReduce, 0, D - 1, dtb, op}, 0,
                    {a.sendbuf, a.skind}, {acc}, elems);
  {
    auto span = stage(mpi, SpanName::AllreduceCicoAr, hc.level_ids[D - 1]);
    if (leader) {
      mpi.run(stage_args(Coll::Allreduce, {acc, kDev}, out, elems, dtb, op),
              hc.comms[D - 1]);
    }
  }
  bcast_from(mpi, hc, {SpanName::AllreduceCicoBcast, 0, D - 1, dtb}, Coll::Bcast, 0, true,
             out, elems, Landing::all(out));
}

}  // namespace

std::size_t HierEngine::reserve_allreduce(const HierComms& hc,
                                          std::size_t elems, DataType base) {
  if (!hc.usable || elems == 0) return 0;
  const std::size_t esz = datatype_size(base);
  const AllreduceShape s = allreduce_shape(elems, esz, hc.dims);
  scratch(ws_, s.padded * esz);
  scratch(stage_, s.stage_elems() * esz);
  // Count only the buffers this shape uses: other plans share the engine's.
  return (s.padded > 0 ? ws_.size() : 0) + (s.stage_elems() > 0 ? stage_.size() : 0);
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
    cico_allreduce(*mpi_, hc, a, elems, stage_op(a.redop),
                   scratch(stage_, shape.stage_elems() * esz));
  } else {
    // Working copy: recvbuf itself when no pad is needed and it is device
    // memory (every exchange is priced by its buffer's kind, so a host
    // recvbuf would change the link class), else the padded device scratch.
    // Every rank pads identically and the pad region is never copied out,
    // so whatever the reduction leaves there is irrelevant.
    std::byte* ws = (shape.padded == elems && a.rkind == kDev)
                        ? static_cast<std::byte*>(a.recvbuf)
                        : scratch(ws_, shape.padded * esz);
    // The first exchange reads the input where it lies and writes the
    // working copy. The input is copied in first only when the schedule
    // reads past its end (a pad) or it is host memory (reading it would
    // price that exchange on a host link).
    Src in{a.sendbuf, a.skind};
    if (shape.padded > elems || a.skind != kDev) {
      if (ws != a.sendbuf) std::memcpy(ws, a.sendbuf, bytes);
      std::memset(ws + bytes, 0, (shape.padded - elems) * esz);
      in = {ws, kDev};
    }
    if (shape.mode == ArMode::Pipelined) {
      // One span for the whole pipelined schedule: its per-level exchanges
      // interleave, so per-stage spans would overlap and mislead.
      auto span = stage(*mpi_, SpanName::AllreducePipelined);
      pipelined_allreduce(static_cast<const std::byte*>(in.p), ws, shape.unit,
                          shape.chunks, a.dt.base, stage_op(a.redop), hc);
    } else {
      staged_allreduce(*mpi_, hc, in, ws, scratch(stage_, shape.stage_elems() * esz),
                       shape, a.dt.base, stage_op(a.redop));
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

void HierEngine::pipelined_allreduce(const std::byte* in, std::byte* ws,
                                     std::size_t unit, std::size_t chunks,
                                     DataType base, ReduceOp op, HierComms& hc) {
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
    // A chunk's first step reads the input; later steps read what the
    // earlier ones wrote into ws.
    const std::byte* held = c.k == 0 ? in : ws;
    std::size_t xfer = c.seg.size();
    if (s.halving) {  // send one half, reduce the partner's with the kept one
      const Halves h = halve(c.seg, upper(c));
      xfer = h.keep.size();
      c.rreq = mpi_->irecv_reduce(at_seg(h.keep), xfer, dtb, op, partner, c.tag, sub,
                                  kDev, held + h.keep.lo * esz);
      c.sreq = mpi_->isend(held + h.send.lo * esz, xfer, dtb, partner, c.tag, sub, kDev);
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
  const MixedRadix rx(hc.dims);

  if (bytes < kBcastScatterMinBytes) {
    // Leader chain: the root's column carries the message across each
    // boundary from the outermost in, then every group fans out locally.
    const Dst buf{a.recvbuf, a.rkind};
    bcast_from(*mpi_, hc, {SpanName::BcastLeader, 0, D, a.dt}, Coll::Bcast, a.root, true,
               buf, a.count, Landing::all(buf));
    return true;
  }

  // Multi-root: the root scatters segments down its own node's chain, each
  // rank broadcasts its own segment over the network to its peer column
  // (keeping all NICs busy at once), and nodes reassemble with per-level
  // allgathers.
  const auto within = static_cast<std::size_t>(rx.stride(D - 1));  // ranks per node
  const std::size_t seg = ceil_div(elems, within);
  const std::size_t padded = seg * within;
  std::byte* ws = scratch(ws_, padded * esz);
  const std::size_t bmax = static_cast<std::size_t>(rx.stride(D - 2)) * seg;
  std::byte* stg = scratch(stage_, 2 * bmax * esz);
  std::byte* half1 = stg + bmax * esz;  // each half holds the largest block

  if (comm.rank() == a.root) {
    std::memcpy(ws, a.recvbuf, bytes);
    std::memset(ws + bytes, 0, (padded - elems) * esz);
  }

  // Scatter on the root's node, outermost within-node dim first; the stages
  // land by dim, so every rank's segment ends up in the same half.
  const int root_node = rx.digit(a.root, D - 1);
  const Dst segbuf = bcast_from(*mpi_, hc, {SpanName::BcastScatter, 0, D - 1, dtb},
                                Coll::Scatter, a.root, hc.coord[D - 1] == root_node,
                                {ws, kDev}, padded, {{{stg}, {half1}}});

  // Every rank's own segment crosses the network once, down its column.
  {
    auto span = stage(*mpi_, SpanName::Bcast, hc.level_ids[D - 1]);
    mpi_->run(stage_args(Coll::Bcast, segbuf, segbuf, seg, dtb, ReduceOp::Sum, root_node),
              hc.comms[D - 1]);
  }

  // Reassemble: allgather from the innermost dim out (concatenation by
  // digit j rebuilds contiguous within-node order at each step).
  allgather_across(*mpi_, hc, {SpanName::BcastAg, 0, D - 1, dtb}, false, segbuf, seg,
                   {{{half1}, {stg}}, {ws}});
  std::memcpy(a.recvbuf, ws, bytes);
  return true;
}

// ---- Reduce -----------------------------------------------------------------

bool HierEngine::run_reduce(HierComms& hc, const mini::CollArgs& a,
                            mini::Comm& comm) {
  if (!stage_reducible(a)) return false;
  if (!hc.usable) return false;
  if (a.count == 0) return true;

  // Reduce toward the root's digit at each level from the innermost out.
  // The true root accumulates straight into recvbuf at every step; other
  // leaders stage into scratch.
  const bool root = comm.rank() == a.root;
  const Dst acc = root ? Dst{a.recvbuf, a.rkind} : Dst{scratch(stage_, a.bytes())};
  reduce_toward(*mpi_, hc,
                {SpanName::Reduce, 0, hc.dims.size(), a.dt, stage_op(a.redop)}, a.root,
                {a.sendbuf, a.skind}, acc, a.count);
  if (root && a.redop == ReduceOp::Avg) {
    throw_if_error(scale_inplace(a.dt.base, a.recvbuf, a.count * a.dt.count,
                                 1.0 / static_cast<double>(comm.size())),
                   "HierEngine::reduce avg");
  }
  return true;
}

// ---- Allgather --------------------------------------------------------------

bool HierEngine::run_allgather(HierComms& hc, const mini::CollArgs& a) {
  const std::size_t blk = a.bytes();
  if (blk != a.rcount * a.rdt.size()) return false;
  if (!hc.usable) return false;
  if (blk == 0) return true;

  const std::size_t D = hc.dims.size();
  const std::size_t p = hc.size();

  // Gather from the outermost dim in: each rank's block crosses the slowest
  // link exactly once, and every inner step exchanges whole columns on
  // progressively faster links.
  const std::size_t imax = p / static_cast<std::size_t>(hc.dims[0]);
  std::byte* stg = scratch(stage_, 2 * imax * blk);
  std::byte* full = scratch(ws_, p * blk);
  allgather_across(*mpi_, hc, {SpanName::Allgather, 0, D, {a.dt.base, 1}}, true,
                   {a.sendbuf, a.skind}, a.count * a.dt.count,
                   {{{stg}, {stg + imax * blk}}, {full}});
  // Local reorder from chain-major to comm-rank-major.
  const MixedRadix rx(hc.dims);
  for (std::size_t g = 0; g < p; ++g) {
    std::memcpy(at(a.recvbuf, g * blk),
                full + rx.chain_index(static_cast<int>(g)) * blk, blk);
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

  // Permute the p input blocks into chain-major order so each level's
  // reduce-scatter keeps a contiguous slice.
  std::byte* tmp = scratch(ws_, p * blk);
  const MixedRadix rx(hc.dims);
  for (std::size_t g = 0; g < p; ++g) {
    std::memcpy(tmp + rx.chain_index(static_cast<int>(g)) * blk,
                at(a.sendbuf, g * blk), blk);
  }

  // Reduce-scatter from the innermost dim out: whole columns ride the fast
  // links, and only my 1/prod(inner dims) slice crosses each boundary.
  const std::size_t imax = p / static_cast<std::size_t>(hc.dims[0]);
  std::byte* stg = scratch(stage_, 2 * imax * blk);
  reduce_scatter_up(*mpi_, hc,
                    {SpanName::Rs, 0, D, {a.dt.base, 1}, stage_op(a.redop)}, {tmp, kDev},
                    relems * p, {{{stg}, {stg + imax * blk}}, {a.recvbuf, a.rkind}});
  if (a.redop == ReduceOp::Avg) {
    throw_if_error(scale_inplace(a.dt.base, a.recvbuf, relems,
                                 1.0 / static_cast<double>(comm.size())),
                   "HierEngine::reduce_scatter_block avg");
  }
  return true;
}

}  // namespace mpixccl::hier
