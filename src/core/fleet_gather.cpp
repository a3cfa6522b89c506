#include "core/fleet_gather.hpp"

#include <cstdint>
#include <numeric>
#include <vector>

#include "sim/topology.hpp"

namespace mpixccl::core {

obs::fleet::FleetSnapshot gather_fleet(XcclMpi& rt, mini::Comm& comm,
                                       int root) {
  const int size = comm.size();
  const int rank = comm.rank();

  // Capture before any gather traffic: the protocol's own collectives would
  // otherwise push fresh calls into the very rings being shipped, and
  // the rings would disagree across ranks (root sees one extra dispatch).
  const obs::fleet::RankState local =
      obs::fleet::local_rank_state(rt.rank());
  const std::string blob = obs::fleet::serialize(local);

  // Blob sizes first (allgather so every rank can compute the displacements
  // the gatherv needs), then the variable-length payloads to root.
  std::vector<std::uint64_t> sizes(static_cast<std::size_t>(size), 0);
  const std::uint64_t my_size = blob.size();
  rt.allgather(&my_size, sizeof(my_size), mini::kByte, sizes.data(),
               sizeof(my_size), mini::kByte, comm);

  std::vector<std::size_t> counts(sizes.begin(), sizes.end());
  std::vector<std::size_t> displs(counts.size(), 0);
  std::partial_sum(counts.begin(), counts.end() - 1, displs.begin() + 1);
  const std::size_t total = displs.back() + counts.back();

  std::vector<char> all(rank == root ? total : 0);
  rt.gatherv(blob.data(), blob.size(), mini::kByte,
             rank == root ? all.data() : nullptr, counts, displs, mini::kByte,
             root, comm);

  obs::fleet::FleetSnapshot snap;
  if (rank != root) return snap;

  std::vector<obs::fleet::RankState> states;
  states.reserve(counts.size());
  for (std::size_t r = 0; r < counts.size(); ++r) {
    states.push_back(obs::fleet::deserialize(
        std::string_view(all.data() + displs[r], counts[r])));
  }
  const sim::Topology& topo = rt.context().topology();
  return obs::fleet::assemble(
      std::move(states), rt.context().profile().name,
      sim::describe_levels(topo.sub_levels()) + "(" +
          std::to_string(topo.devices_per_node()) + ").net(" +
          std::to_string(topo.nodes()) + ")");
}

}  // namespace mpixccl::core
