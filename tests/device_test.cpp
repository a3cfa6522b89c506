// Unit tests for the device layer: buffer registry, streams/events, and the
// simulated accelerator runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/format.hpp"
#include "common/status.hpp"
#include "device/buffer_registry.hpp"
#include "device/device.hpp"
#include "device/stream.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::device {
namespace {

sim::DeviceParams test_params() {
  return sim::DeviceParams{
      .h2d_bw_MBps = 10000.0,
      .d2h_bw_MBps = 5000.0,
      .d2d_bw_MBps = 100000.0,
      .memcpy_launch_us = 2.0,
      .kernel_launch_us = 3.0,
      .alloc_us = 10.0,
      .stream_sync_us = 1.0,
  };
}

TEST(BufferRegistry, ClassifiesInteriorPointers) {
  Device dev(7, Vendor::Amd, test_params());
  void* p = dev.alloc(1024);
  auto& reg = BufferRegistry::instance();

  auto info = reg.lookup(p);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->vendor, Vendor::Amd);
  EXPECT_EQ(info->device_id, 7);
  EXPECT_EQ(info->size, 1024u);

  // Interior pointer resolves to the same allocation.
  auto inner = reg.lookup(static_cast<char*>(p) + 1000);
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(inner->base, p);

  // One-past-the-end is NOT part of the allocation.
  EXPECT_FALSE(reg.lookup(static_cast<char*>(p) + 1024).has_value());

  dev.free(p);
  EXPECT_FALSE(reg.lookup(p).has_value());
}

TEST(BufferRegistry, HostPointersUnclassified) {
  int local = 0;
  EXPECT_EQ(BufferRegistry::instance().vendor_of(&local), Vendor::Host);
  EXPECT_EQ(BufferRegistry::instance().vendor_of(nullptr), Vendor::Host);
}

/// The message of the Error `f` throws; empty if it throws none.
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(BufferRegistry, OverlappingAddThrowsNamingBothRanges) {
  auto& reg = BufferRegistry::instance();
  std::vector<std::byte> mem(2048);
  std::byte* p = mem.data();
  reg.add(p, 1024, Vendor::Nvidia, 0);
  const std::string what = error_of([&] { reg.add(p + 512, 1024, Vendor::Nvidia, 1); });
  EXPECT_NE(what.find(fmt::byte_range(p + 512, 1024)), std::string::npos) << what;
  EXPECT_NE(what.find(fmt::byte_range(p, 1024)), std::string::npos) << what;
  // The live allocation still answers for its interior.
  const auto info = reg.lookup(p + 600);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->base, p);
  EXPECT_EQ(info->device_id, 0);
  reg.remove(p);
}

TEST(BufferRegistry, RejectedAddLeavesNothingBehindRemove) {
  auto& reg = BufferRegistry::instance();
  std::vector<std::byte> mem(2048);
  std::byte* p = mem.data();
  const std::size_t live = reg.live_count();
  reg.add(p, 1024, Vendor::Nvidia, 0);
  EXPECT_THROW(reg.add(p + 512, 1024, Vendor::Nvidia, 1), Error);
  reg.remove(p);
  EXPECT_FALSE(reg.lookup(p + 1200).has_value());
  EXPECT_FALSE(reg.lookup(p + 600).has_value());
  EXPECT_EQ(reg.live_count(), live);
}

TEST(BufferRegistry, ReAddingALiveBaseOrInteriorThrows) {
  auto& reg = BufferRegistry::instance();
  std::vector<std::byte> mem(2048);
  std::byte* p = mem.data();
  reg.add(p, 1024, Vendor::Nvidia, 0);
  const std::string base = error_of([&] { reg.add(p, 64, Vendor::Nvidia, 0); });
  EXPECT_NE(base.find(fmt::byte_range(p, 64)), std::string::npos) << base;
  EXPECT_NE(base.find(fmt::byte_range(p, 1024)), std::string::npos) << base;
  const std::string inner = error_of([&] { reg.add(p + 512, 64, Vendor::Nvidia, 0); });
  EXPECT_NE(inner.find(fmt::byte_range(p + 512, 64)), std::string::npos) << inner;
  // Interior pointers of the live range still read as device, with its size.
  for (const std::size_t off : {0u, 100u, 600u, 1023u}) {
    const auto info = reg.lookup(p + off);
    ASSERT_TRUE(info.has_value()) << off;
    EXPECT_EQ(info->size, 1024u);
  }
  // Adjacent ranges do not overlap.
  reg.add(p + 1024, 1024, Vendor::Nvidia, 1);
  EXPECT_EQ(reg.lookup(p + 1024)->device_id, 1);
  EXPECT_EQ(reg.lookup(p + 1023)->device_id, 0);
  reg.remove(p + 1024);
  reg.remove(p);
}

TEST(BufferRegistry, LookupsRacingAddRemoveNeverMisclassify) {
  // Readers classify interior pointers of allocations that stay live, host
  // pointers that are never registered, and pointers into allocations a
  // writer adds and removes 10k times meanwhile. A live interior pointer
  // must always read as device and a host pointer never; the churned ones
  // may read either way, but as device only with their own base. Retained
  // snapshots stay bounded: each thread holds at most the one it last read.
  constexpr int kReaders = 3;
  constexpr int kCycles = 10000;
  constexpr std::size_t kBytes = 256;
  auto& reg = BufferRegistry::instance();
  std::vector<std::vector<std::byte>> live(4, std::vector<std::byte>(kBytes));
  std::vector<std::vector<std::byte>> churn(4, std::vector<std::byte>(kBytes));
  std::array<std::byte, 64> host{};
  for (std::size_t i = 0; i < live.size(); ++i) {
    reg.add(live[i].data(), kBytes, Vendor::Amd, static_cast<int>(i));
  }
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (std::size_t n = static_cast<std::size_t>(t); !done.load(); ++n) {
        const std::size_t k = n % 4;
        const std::byte* in = live[k].data() + (n * 37) % kBytes;
        const auto a = reg.lookup(in);
        if (!a || a->base != live[k].data() || a->size != kBytes) bad.fetch_add(1);
        if (reg.lookup(&host[n % host.size()])) bad.fetch_add(1);
        const std::byte* c = churn[k].data() + (n * 13) % kBytes;
        const auto b = reg.lookup(c);
        if (b && b->base != churn[k].data()) bad.fetch_add(1);
      }
    });
  }
  std::size_t most_retained = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    std::vector<std::byte>& m = churn[static_cast<std::size_t>(cycle) % churn.size()];
    reg.add(m.data(), kBytes, Vendor::Nvidia, cycle);
    reg.remove(m.data());
    most_retained = std::max(most_retained, BufferRegistry::retained_snapshots());
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  // The current snapshot, one per reader, and the writer's own.
  EXPECT_LE(most_retained, static_cast<std::size_t>(kReaders) + 2);
  for (auto& m : live) reg.remove(m.data());
  EXPECT_LE(BufferRegistry::retained_snapshots(), 2u);
}

TEST(Stream, SerializesWork) {
  Stream s(1.0);
  // Two ops issued back-to-back at t=0: second starts when first ends.
  EXPECT_DOUBLE_EQ(s.push_work(0.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(s.push_work(0.0, 5.0), 15.0);
  // An op issued later than the tail starts at its issue time.
  EXPECT_DOUBLE_EQ(s.push_work(100.0, 1.0), 101.0);

  sim::VirtualClock clock;
  clock.advance(50.0);
  s.synchronize(clock);
  EXPECT_DOUBLE_EQ(clock.now(), 102.0);  // tail 101 + sync overhead 1
}

TEST(Event, MeasuresElapsedStreamTime) {
  Stream s;
  Event start;
  Event stop;
  start.record(s);
  s.push_work(0.0, 25.0);
  stop.record(s);
  EXPECT_DOUBLE_EQ(Event::elapsed_us(start, stop), 25.0);
}

TEST(Device, MemcpyMovesDataAndChargesCosts) {
  Device dev(0, Vendor::Nvidia, test_params());
  Stream s(1.0);
  sim::VirtualClock clock;

  DeviceBuffer dbuf(dev, 1000000);
  std::vector<char> host(1000000, 'x');

  dev.memcpy_async(dbuf.get(), host.data(), host.size(), CopyKind::Auto, s, clock);
  // Launch cost charged to the clock immediately.
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  // H2D of 1 MB at 10000 MB/s = 100 us on the stream, starting at t=2.
  EXPECT_DOUBLE_EQ(s.tail(), 102.0);
  // Data actually arrived.
  EXPECT_EQ(dbuf.as<char>()[999999], 'x');

  // D2H uses the slower engine.
  std::vector<char> back(1000000);
  dev.memcpy_sync(back.data(), dbuf.get(), back.size(), CopyKind::Auto, s, clock);
  EXPECT_EQ(back[0], 'x');
  // 102 (stream busy) is before clock 4 + ... : copy starts at max(tail,
  // clock.now()=4) = 102, runs 200us, sync pulls clock to 302 + 1.
  EXPECT_DOUBLE_EQ(clock.now(), 303.0);
}

TEST(Device, KernelLaunch) {
  Device dev(0, Vendor::Habana, test_params());
  Stream s;
  sim::VirtualClock clock;
  bool ran = false;
  dev.launch_kernel(42.0, s, clock, [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);  // launch overhead
  EXPECT_DOUBLE_EQ(s.tail(), 45.0);    // starts at 3, runs 42
}

TEST(Device, AllocChargesOptionalClock) {
  Device dev(0, Vendor::Nvidia, test_params());
  sim::VirtualClock clock;
  void* a = dev.alloc(16);
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  void* b = dev.alloc(16, &clock);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  EXPECT_EQ(dev.live_allocations(), 2u);
  dev.free(a);
  dev.free(b);
  EXPECT_EQ(dev.live_allocations(), 0u);
}

TEST(DeviceBuffer, RaiiAndMove) {
  Device dev(0, Vendor::Nvidia, test_params());
  {
    DeviceBuffer a(dev, 64);
    EXPECT_TRUE(a.valid());
    DeviceBuffer b = std::move(a);
    EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(dev.live_allocations(), 1u);
  }
  EXPECT_EQ(dev.live_allocations(), 0u);
}

TEST(DeviceManager, CreatesPerRankDevices) {
  DeviceManager mgr(sim::mri(), 4);
  EXPECT_EQ(mgr.count(), 4);
  EXPECT_EQ(mgr.vendor(), Vendor::Amd);
  EXPECT_EQ(mgr.device(3).id(), 3);
  EXPECT_THROW((void)mgr.device(4), Error);
}

}  // namespace
}  // namespace mpixccl::device
