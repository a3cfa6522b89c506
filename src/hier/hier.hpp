#pragma once
// Topology-aware hierarchical collective engine (the third dispatch path
// next to the flat MiniMPI algorithms and the flat xCCL backends).
//
// The flat engines treat the communicator as one homogeneous ring/tree, but
// sim::Topology knows the locality hierarchy — not just the intra/inter-node
// split but sub-node levels (NUMA domain, socket, cache group, or virtual
// levels from MPIXCCL_HIER_LEVELS) whose link classes differ by up to 8.5x
// in bandwidth. The HierEngine decomposes the communicator into an n-level
// chain of per-level subcommunicators (the XHC / HiCCL shape) so the bulk
// of the traffic stays on the fastest links and only a 1/group-size shard
// crosses each slower boundary. As in HiCCL, every collective but the
// pipelined allreduce is composed from four level walks, each one loop over
// a range of dims with one MiniMPI stage per dim: reduce-scatter up the
// chain, allgather across it (either direction), reduce toward a root's
// digit, and bcast or scatter from a root's digit.
//
//   Allreduce      staged: reduce-scatter up, allreduce over the network
//                  dim, allgather back down. For power-of-two level sizes
//                  it runs instead as an n-level recursive halving/doubling
//                  whose chunks pipeline across level links (one chunk's
//                  shard crosses level k+1 while another's halving runs on
//                  level k). Below kSingleCopyMinBytes deep chains take the
//                  XHC-style copy-in-copy-out ladder: reduce to root 0,
//                  allreduce among the node leaders, bcast from root 0.
//   Bcast          small: bcast from the root's digit (leader chain). Large:
//                  scatter from the root's digit on its node, each rank's
//                  segment bcast over the network to its peer column, then
//                  allgather across the node, innermost dim first.
//   Reduce         reduce toward the root's digit.
//   Allgather      allgather across the chain, outermost dim first, then a
//                  local reorder.
//   ReduceScatter  local permutation grouping blocks by level digits, then
//                  reduce-scatter up the chain.
//
// Subcommunicators are built lazily via mini::Mpi::split from the comm
// layout and cached per (parent communicator, level-config epoch); changing
// the level spec bumps the epoch so stale chains are never reused (old
// entries stay alive because persistent plans hold pointers into them).
// With no sub-node levels the chain degenerates to exactly the original
// two-level node/leader engine, schedule for schedule. Every collective
// returns false — without communicating — when the communicator is not
// node-blocked or spans fewer than two nodes; the dispatcher then falls
// back to flat MPI.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "device/device.hpp"
#include "mpi/mpi.hpp"
#include "sim/topology.hpp"

namespace mpixccl::hier {

class HierEngine {
 public:
  /// Reads MPIXCCL_HIER_LEVELS (overriding the world topology's own level
  /// chain).
  explicit HierEngine(mini::Mpi& mpi);

  /// Per-level subcommunicator chain for one parent communicator, ordered
  /// innermost-first: comms[0] spans my leaf group, each following dim
  /// crosses one more level boundary, comms.back() spans the node leaders
  /// sharing my within-node index (the network dim). Exposed as an opaque
  /// reusable handle so persistent plans can resolve the splits once at
  /// init and replay collectives without the per-call cache lookup; treat
  /// the fields as read-only outside this engine.
  struct HierComms {
    bool usable = false;
    std::uint64_t epoch = 0;  ///< level-config epoch this chain was built at
    int rank = 0;             ///< my rank, numbered by my digits (MixedRadix)
    int nodes = 0;            ///< N (size of the network dim)
    int per_node = 0;         ///< L (ranks per node block)
    std::vector<int> dims;            ///< per-dim sizes, innermost first
    std::vector<std::uint16_t> level_ids;  ///< scope per dim, sim::levels() id
    std::vector<int> coord;           ///< my digit per dim
    std::vector<mini::Comm> comms;    ///< per-dim subcommunicator (rank = digit)
    std::vector<sim::LinkParams> links;  ///< est. link class per dim
    std::string level_path;           ///< e.g. "numa(2).socket(2).node(2).net(2)"

    /// Ranks in the chain: the product of dims.
    [[nodiscard]] std::size_t size() const {
      return static_cast<std::size_t>(nodes) * static_cast<std::size_t>(per_node);
    }
  };

  /// Resolve (building the collective splits and caching them on first use)
  /// the subcommunicator chain for `comm` at the current level config.
  /// Check `.usable` before passing the handle to the collective overloads
  /// below. The build is collective: every member of `comm` must call it in
  /// the same order.
  HierComms& prepare(mini::Comm& comm);

  /// Serve one allreduce, bcast, reduce, allgather or reduce_scatter_block
  /// from resolved arguments (mini::resolve's output: never MPI_IN_PLACE,
  /// checked as its table requires, buffers classified). Returns true when
  /// it served the call hierarchically and false when this communicator (or
  /// argument combination) is not eligible; the caller is expected to fall
  /// back to a flat engine. It takes the chain handle, so the persistent
  /// start/wait hot path skips the per-call cache lookup, and asks the
  /// device registry nothing.
  bool run(HierComms& hc, const mini::CollArgs& a, mini::Comm& comm);
  /// An allreduce entry that resolves (and classifies) its own arguments.
  bool allreduce(HierComms& hc, const void* sendbuf, void* recvbuf,
                 std::size_t count, mini::Datatype dt, ReduceOp op,
                 mini::Comm& comm);

  /// Pre-size the scratch buffers an allreduce of `elems` base elements will
  /// need through `hc`, so the first start() of a persistent plan does not
  /// pay the allocation. Returns the scratch bytes now resident for this
  /// shape (0 when the handle is unusable).
  std::size_t reserve_allreduce(const HierComms& hc, std::size_t elems,
                                DataType base);

  /// True when `comm` is node-blocked with >= 2 nodes and >= 2 ranks per
  /// node (builds and caches the subcommunicators on first use).
  [[nodiscard]] bool applicable(mini::Comm& comm);

  // ---- Level configuration ----------------------------------------------
  /// Replace the sub-node level chain (parsed against the world topology's
  /// devices-per-node). Bumps the config epoch when the chain actually
  /// changes, so cached subcommunicator chains and dependent plans built
  /// against the old hierarchy are never reused. Returns true on change.
  bool set_levels(const std::string& spec);
  /// Current sub-node level chain (outer-to-inner; empty = flat 2-level).
  [[nodiscard]] const std::vector<sim::TopoLevel>& levels() const {
    return levels_;
  }
  /// Monotonic counter, bumped by every effective set_levels change.
  [[nodiscard]] std::uint64_t config_epoch() const { return epoch_; }

  /// Cached subcommunicator chains built at the *current* epoch (tests,
  /// `mpixccl topo`). Entries from earlier epochs stay allocated (persistent
  /// plans may still hold pointers) but are unreachable and not counted.
  [[nodiscard]] std::size_t comm_cache_size() const;
  /// All cached chains (current epoch only), keyed by parent p2p channel —
  /// introspection for `mpixccl topo`.
  [[nodiscard]] std::vector<std::pair<fabric::ChannelId, const HierComms*>>
  cached_comms() const;

  /// Message sizes at and above this threshold split the n-level allreduce
  /// into pipelined chunks. Chunks below ~1 MB lose more to per-message
  /// latency (alpha + rendezvous) than they gain from cross-level overlap.
  static constexpr std::size_t kPipelineMinBytes = 1 << 20;
  static constexpr std::size_t kPipelineChunkBytes = 1 << 19;
  static constexpr std::size_t kMaxPipelineChunks = 4;
  /// Bcast switches from leader-bcast to scatter + multi-root bcast +
  /// allgather at this size.
  static constexpr std::size_t kBcastScatterMinBytes = 1 << 16;
  /// Message sizes below this switch deep (>2-level) chains from the
  /// single-copy shard schedules to the copy-in-copy-out leader ladder.
  static constexpr std::size_t kSingleCopyMinBytes = 8192;

 private:
  /// Grow-on-demand device scratch (cached so repeated collectives do not
  /// pay the allocation).
  std::byte* scratch(device::DeviceBuffer& buf, std::size_t bytes);

  /// n-level recursive-halving/doubling allreduce of `in` into the padded
  /// working buffer `ws` (requires power-of-two dims), chunked and
  /// pipelined across level links. Each halving step reduces the partner's
  /// half with the kept half straight into ws as it lands; a chunk's first
  /// step reads its halves from `in` (ws itself when the input was copied
  /// in), so the input is never staged.
  void pipelined_allreduce(const std::byte* in, std::byte* ws, std::size_t unit,
                           std::size_t chunks, DataType base, ReduceOp op,
                           HierComms& hc);

  // The schedules behind run(), one per collective.
  bool run_allreduce(HierComms& hc, const mini::CollArgs& a, mini::Comm& comm);
  bool run_bcast(HierComms& hc, const mini::CollArgs& a, mini::Comm& comm);
  bool run_reduce(HierComms& hc, const mini::CollArgs& a, mini::Comm& comm);
  bool run_allgather(HierComms& hc, const mini::CollArgs& a);
  bool run_reduce_scatter_block(HierComms& hc, const mini::CollArgs& a,
                                mini::Comm& comm);

  mini::Mpi* mpi_;
  std::vector<sim::TopoLevel> levels_;  ///< active chain, outer-to-inner
  std::uint64_t epoch_ = 0;
  std::map<std::pair<fabric::ChannelId, std::uint64_t>, HierComms> cache_;
  device::DeviceBuffer ws_;      ///< padded working copy
  device::DeviceBuffer stage_;   ///< per-stage shard / segment staging
};

}  // namespace mpixccl::hier
