#pragma once
// Global registry of device allocations.
//
// This is the simulation's equivalent of cuPointerGetAttribute /
// hipPointerGetAttributes / synDeviceGetMemoryInfo: given an arbitrary
// pointer, the MPI middleware must decide whether it is a device buffer and,
// if so, which device and vendor own it ("Device Buffer Identify" box in the
// paper's Fig. 2). Device allocations are plain host memory registered here;
// unregistered pointers classify as host memory.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "common/types.hpp"

namespace mpixccl::device {

struct BufferInfo {
  Vendor vendor = Vendor::Host;
  int device_id = -1;     ///< global device id (== rank in our worlds)
  std::size_t size = 0;   ///< size of the containing allocation
  const void* base = nullptr;  ///< start of the containing allocation
};

/// Thread-safe pointer->allocation map. Process-wide singleton.
///
/// Every rank thread classifies its buffers here at each collective entry,
/// so a lookup takes no lock and writes no shared line: it checks the
/// published generation against the one of the immutable, base-sorted
/// snapshot its thread last read, and searches that snapshot. Only the first
/// lookup after a change takes the mutex, to pick up the new snapshot, which
/// add/remove build by copying under it. A snapshot is freed once no thread
/// holds it, so at most one per thread, plus the current one, is alive.
class BufferRegistry {
 public:
  static BufferRegistry& instance();

  /// Record an allocation [ptr, ptr+size) owned by (vendor, device_id).
  /// Throws if the range overlaps a live allocation, naming both ranges.
  void add(const void* ptr, std::size_t size, Vendor vendor, int device_id);

  /// Remove a previously added allocation (exact base pointer).
  void remove(const void* ptr);

  /// Classify any pointer, including interior pointers into a registered
  /// allocation. Returns nullopt for host (unregistered) memory.
  [[nodiscard]] std::optional<BufferInfo> lookup(const void* ptr) const;

  /// Convenience: Vendor::Host when unregistered.
  [[nodiscard]] Vendor vendor_of(const void* ptr) const;

  /// Number of live registered allocations (tests / leak checks).
  [[nodiscard]] std::size_t live_count() const;

  /// Snapshots not yet freed, the current one included (tests).
  [[nodiscard]] static std::size_t retained_snapshots();

 private:
  struct Snapshot;

  BufferRegistry();

  /// Publishes `next` as the current snapshot. Called under mu_.
  void publish(std::shared_ptr<const Snapshot> next);

  mutable std::mutex mu_;  ///< serializes add/remove and snapshot pick-ups
  std::shared_ptr<const Snapshot> current_;
  /// On a line of its own: every lookup reads it, only add/remove write it.
  alignas(64) std::atomic<std::uint64_t> generation_{0};
};

}  // namespace mpixccl::device
