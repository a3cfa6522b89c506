#pragma once
// Inputs and output checks for the collective workloads.
//
// Every rank's send buffer holds, at element i, a seeded integer in [0, 64)
// derived from (salt, world rank, i), so every sum is exact in float, int32
// and double and each output element has a closed-form expected value.
// Before a call the positions its check will read are poisoned (every
// output element on a full check), so a call that leaves its output
// untouched fails too.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "device/device.hpp"
#include "spec.hpp"

namespace mpixccl::e2e {

/// Fill elements [0, n) of `p` with the pattern `owner` (a world rank)
/// contributes.
void fill(Elem e, void* p, std::size_t n, std::uint64_t salt, int owner);

/// Element layout of one call at one rank of a p-rank communicator.
struct Geometry {
  std::size_t n = 0;  ///< per-peer block elements (whole buffer: allreduce, bcast)
  int p = 1;
  int me = 0;
  int root = 0;
  /// Per-peer counts and displacements of the v collectives (allgatherv
  /// uses the r* pair; alltoallv both).
  std::vector<std::size_t> scounts, sdispls, rcounts, rdispls;
  std::size_t send_elems = 0;  ///< elements this rank's send buffer supplies
  std::size_t out_elems = 0;   ///< output elements this rank can check
};
void plan_geometry(const Call& c, int p, int me, Geometry& g);

/// Expected output element k at rank g.me; `members[j]` is the world rank of
/// communicator rank j.
double expected(const Call& c, const Geometry& g, std::span<const int> members,
                std::uint64_t salt, std::size_t k);

/// Poison the positions the check of this call will read: every output
/// element on a full check or for outputs of at most 64 elements, else 64
/// evenly strided ones.
void poison(const Call& c, const Geometry& g, void* out);
/// Checked positions of `out` that differ from the expected values.
std::size_t count_mismatches(const Call& c, const Geometry& g,
                             std::span<const int> members, std::uint64_t salt,
                             const void* out);

/// One rank's input and output buffers for a collective workload: per
/// buffer kind (device, host) and element type, a send buffer and a bcast
/// buffer, plus one shared receive buffer per kind.
class RankBuffers {
 public:
  RankBuffers(device::Device& dev, const WorkloadSpec& w, int world_size,
              int world_rank, std::uint64_t salt);

  [[nodiscard]] void* send(bool host, Elem e) const { return at(send_, host, e); }
  [[nodiscard]] void* bcast(bool host, Elem e) const { return at(bcast_, host, e); }
  [[nodiscard]] void* recv(bool host) const { return recv_[host ? 1 : 0].ptr; }

 private:
  struct Slot {
    device::DeviceBuffer dev;
    std::vector<double> host;
    void* ptr = nullptr;
  };
  static void allocate(Slot& s, device::Device& dev, bool host, std::size_t bytes);
  static void* at(const Slot (&slots)[2][3], bool host, Elem e) {
    return slots[host ? 1 : 0][static_cast<std::size_t>(e)].ptr;
  }

  Slot send_[2][3];
  Slot bcast_[2][3];
  Slot recv_[2];
};

}  // namespace mpixccl::e2e
