// Unit tests for the device layer: buffer registry, streams/events, and the
// simulated accelerator runtime.

#include <gtest/gtest.h>

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
