#include "core_clock.hpp"

#include <algorithm>
#include <cstdint>

#include "host_trace.hpp"

namespace mpixccl::e2e {
namespace {

constexpr std::uint64_t kChainSteps = 100000;
constexpr double kCyclesPerStep = 4.0;  // imul (3) + add (1), each on the last result

/// Kept out of line and fed from a volatile so the chain is neither folded
/// nor overlapped with the caller's work.
[[gnu::noinline]] std::uint64_t chain(std::uint64_t x, std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) {
    x = x * 0x9e3779b97f4a7c15ull + i;
    asm volatile("" : "+r"(x));
  }
  return x;
}

volatile std::uint64_t g_chain_seed = 1;
volatile std::uint64_t g_chain_sink = 0;

}  // namespace

double core_clock_ghz() {
  double best_us = 0.0;
  for (int t = 0; t < 3; ++t) {
    const double t0 = now_us();
    g_chain_sink = chain(g_chain_seed, kChainSteps);
    const double us = now_us() - t0;
    best_us = t == 0 ? us : std::min(best_us, us);
  }
  return static_cast<double>(kChainSteps) * kCyclesPerStep / (best_us * 1e3);
}

}  // namespace mpixccl::e2e
