#include "device/buffer_registry.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "common/status.hpp"

namespace mpixccl::device {

namespace {

std::atomic<std::size_t> g_snapshots{0};

std::uintptr_t addr_of(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

}  // namespace

/// The live allocations, sorted by base address; never changed once
/// published.
struct BufferRegistry::Snapshot {
  std::vector<BufferInfo> by_base;

  Snapshot() { g_snapshots.fetch_add(1, std::memory_order_relaxed); }
  Snapshot(const Snapshot& o) : by_base(o.by_base) {
    g_snapshots.fetch_add(1, std::memory_order_relaxed);
  }
  Snapshot& operator=(const Snapshot&) = delete;
  ~Snapshot() { g_snapshots.fetch_sub(1, std::memory_order_relaxed); }

  /// First allocation whose base lies above `addr`.
  [[nodiscard]] std::vector<BufferInfo>::const_iterator above(std::uintptr_t addr) const {
    return std::upper_bound(
        by_base.begin(), by_base.end(), addr,
        [](std::uintptr_t a, const BufferInfo& b) { return a < addr_of(b.base); });
  }
};

BufferRegistry::BufferRegistry() : current_(std::make_shared<const Snapshot>()) {}

BufferRegistry& BufferRegistry::instance() {
  static BufferRegistry reg;
  return reg;
}

void BufferRegistry::publish(std::shared_ptr<const Snapshot> next) {
  current_ = std::move(next);
  // Release: a reader that sees the new generation refreshes under mu_ and
  // so reads `current_` as written here.
  generation_.fetch_add(1, std::memory_order_release);
}

void BufferRegistry::add(const void* ptr, std::size_t size, Vendor vendor,
                         int device_id) {
  require(ptr != nullptr && size > 0, "BufferRegistry::add: empty allocation");
  std::lock_guard lock(mu_);
  const std::vector<BufferInfo>& live = current_->by_base;
  const auto at = current_->above(addr_of(ptr));
  // Live ranges never overlap, so only the allocations on either side of
  // the insertion point can overlap the new one.
  auto check = [&](const BufferInfo& b) {
    if (addr_of(ptr) < addr_of(b.base) + b.size && addr_of(b.base) < addr_of(ptr) + size) {
      throw Error("BufferRegistry::add: allocation " + fmt::byte_range(ptr, size) +
                  " overlaps the live allocation " + fmt::byte_range(b.base, b.size));
    }
  };
  if (at != live.end()) check(*at);
  if (at != live.begin()) check(*(at - 1));
  auto next = std::make_shared<Snapshot>(*current_);
  next->by_base.insert(next->by_base.begin() + (at - live.begin()),
                       BufferInfo{vendor, device_id, size, ptr});
  publish(std::move(next));
}

void BufferRegistry::remove(const void* ptr) {
  std::lock_guard lock(mu_);
  const std::vector<BufferInfo>& live = current_->by_base;
  const auto at = current_->above(addr_of(ptr));
  if (at == live.begin() || (at - 1)->base != ptr) return;
  auto next = std::make_shared<Snapshot>(*current_);
  next->by_base.erase(next->by_base.begin() + (at - 1 - live.begin()));
  publish(std::move(next));
}

std::optional<BufferInfo> BufferRegistry::lookup(const void* ptr) const {
  if (ptr == nullptr) return std::nullopt;
  // The snapshot this thread last read, and its generation.
  struct View {
    std::uint64_t generation = ~std::uint64_t{0};
    std::shared_ptr<const Snapshot> snapshot;
  };
  thread_local View view;
  if (view.generation != generation_.load(std::memory_order_acquire)) {
    std::lock_guard lock(mu_);
    view.snapshot = current_;
    view.generation = generation_.load(std::memory_order_relaxed);
  }
  const Snapshot& s = *view.snapshot;
  const auto at = s.above(addr_of(ptr));
  if (at == s.by_base.begin()) return std::nullopt;
  const BufferInfo& info = *(at - 1);
  if (addr_of(ptr) < addr_of(info.base) + info.size) return info;
  return std::nullopt;
}

Vendor BufferRegistry::vendor_of(const void* ptr) const {
  const auto info = lookup(ptr);
  return info ? info->vendor : Vendor::Host;
}

std::size_t BufferRegistry::live_count() const {
  std::lock_guard lock(mu_);
  return current_->by_base.size();
}

std::size_t BufferRegistry::retained_snapshots() {
  return g_snapshots.load(std::memory_order_relaxed);
}

}  // namespace mpixccl::device
