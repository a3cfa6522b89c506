#pragma once
// The one spin policy of the runtime: how a thread waits for another rank
// thread that is a few hundred nanoseconds away. A pause per poll, and every
// kYieldEvery polls a yield, since the thread it waits for may be queued
// behind it on the same core when threads outnumber free cores. The fabric's
// completion cells spin this way before they park, and SpinLock spins this
// way without ever parking.

#include <atomic>
#include <thread>

namespace mpixccl {

/// Every this many polls a spinner yields its core instead of pausing.
inline constexpr int kYieldEvery = 32;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Poll `i` (counting from 1) of a spin: a pause, or a yield every
/// kYieldEvery polls.
inline void spin_pause(int i) {
  if (i % kYieldEvery == 0) {
    std::this_thread::yield();
  } else {
    cpu_relax();
  }
}

/// Test-and-test-and-set lock for critical sections of a few hundred
/// nanoseconds. It never sleeps in the kernel: a waiter polls the flag with
/// plain loads and yields every kYieldEvery polls, so a preempted holder
/// gets its core back. BasicLockable, for std::lock_guard/std::unique_lock.
class SpinLock {
 public:
  void lock() {
    int i = 0;
    while (locked_.exchange(true, std::memory_order_acquire)) {
      do {
        spin_pause(++i);
      } while (locked_.load(std::memory_order_relaxed));
    }
  }
  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

}  // namespace mpixccl
