#pragma once
// Shared plumbing for the per-figure benchmark binaries.
//
// Every binary regenerates one table/figure of the paper, printing
// OMB-style series tables plus a "shape check" section summarizing whether
// the qualitative result (who wins, where the crossover sits) reproduced.
//
// MPIXCCL_BENCH_FAST=1 shrinks sweeps and iteration counts (used by CI and
// the smoke loop); default sweeps mirror the paper's figures.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "omb/harness.hpp"

namespace mpixccl::bench {

inline bool fast_mode() {
  const char* env = std::getenv("MPIXCCL_BENCH_FAST");
  return env != nullptr && std::string(env) != "0";
}

/// MPIXCCL_BENCH_FULL=1 restores the paper's largest scales (16 nodes / 128
/// GPUs). The default caps multi-node panels at 8 nodes: the simulation runs
/// every rank as a thread on this host, and the full ThetaGPU scale takes
/// tens of minutes on one core (see EXPERIMENTS.md).
inline bool full_mode() {
  const char* env = std::getenv("MPIXCCL_BENCH_FULL");
  return env != nullptr && std::string(env) != "0";
}

/// OMB-like timing, reduced in fast mode.
inline omb::Timing default_timing() {
  if (fast_mode()) {
    return omb::Timing{.warmup_small = 1, .iters_small = 3, .warmup_large = 1,
                       .iters_large = 2, .large_threshold = 65536};
  }
  return omb::Timing{.warmup_small = 3, .iters_small = 10, .warmup_large = 1,
                     .iters_large = 3, .large_threshold = 65536};
}

/// Message-size sweep: x4 steps keep runtime sane on large worlds while
/// still drawing the curve; full x2 in slow mode for 2-rank benches only.
/// Always includes the top size (the paper's 4 MB anchors live there).
inline std::vector<std::size_t> default_sizes(std::size_t max_bytes = 4u << 20,
                                              std::size_t factor = 4) {
  auto sizes = omb::size_sweep(4, max_bytes, fast_mode() ? factor * 4 : factor);
  if (sizes.back() != max_bytes) sizes.push_back(max_bytes);
  return sizes;
}

inline void header(const std::string& what, const std::string& paper_ref) {
  // Every bench binary goes through here first, so the MPIXCCL_OBS_LEVEL /
  // MPIXCCL_*_FILE environment takes effect (and flushes at exit) for free.
  obs::init_from_env();
  // Likewise MPIXCCL_BENCH_JSON=<path>: arm the mpixccl.bench.v1 result log
  // (saved at exit) with this binary's banner as the document's bench name.
  omb::ResultLog::instance().init_from_env(what);
  std::printf("==========================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("(reproduces %s)\n", paper_ref.c_str());
  std::printf("==========================================================\n\n");
}

inline void shape_check(const std::string& claim, bool ok) {
  std::printf("[shape] %-66s %s\n", claim.c_str(), ok ? "OK" : "MISS");
}

inline double at(const omb::Series& s, std::size_t bytes) {
  for (const auto& r : s) {
    if (r.bytes == bytes) return r.value;
  }
  return -1.0;
}

/// First size where series `a` becomes cheaper than series `b` (crossover).
inline std::size_t crossover(const omb::Series& a, const omb::Series& b) {
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i].value < b[i].value) return a[i].bytes;
  }
  return 0;
}

inline std::vector<std::pair<std::string, omb::Series>> named(
    const omb::FlavorSeries& fs) {
  std::vector<std::pair<std::string, omb::Series>> out;
  for (const auto& [flavor, series] : fs) {
    out.emplace_back(std::string(to_string(flavor)), series);
  }
  return out;
}

// ---- Host-time batches ------------------------------------------------------

/// The host steady clock, in ns.
inline double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-call ns of one batch of `iters` calls of `body`.
template <typename F>
double batch_ns(int iters, F& body) {
  const double t0 = now_ns();
  for (int i = 0; i < iters; ++i) body();
  return (now_ns() - t0) / iters;
}

inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Median per-call ns over `reps` batches of `iters` calls of `body`.
template <typename F>
double median_ns(int reps, int iters, F&& body) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) samples.push_back(batch_ns(iters, body));
  return median(samples);
}

/// median_ns of `a` and of `b`, measured under one load: each repetition
/// runs one batch of each, and which runs first alternates.
template <typename A, typename B>
std::pair<double, double> paired_median_ns(int reps, int iters, A&& a, B&& b) {
  std::vector<double> sa;
  std::vector<double> sb;
  for (int r = 0; r < reps; ++r) {
    if (r % 2 == 0) sa.push_back(batch_ns(iters, a));
    sb.push_back(batch_ns(iters, b));
    if (r % 2 == 1) sa.push_back(batch_ns(iters, a));
  }
  return {median(sa), median(sb)};
}

}  // namespace mpixccl::bench
