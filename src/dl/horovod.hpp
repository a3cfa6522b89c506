#pragma once
// Horovod-style synchronous data-parallel trainer over the simulated stack —
// the application-level evaluation of the paper (TensorFlow + Horovod,
// Figs. 7-10).
//
// Per training step, each rank:
//   1. runs the forward pass (one fused device kernel on the compute
//      timeline),
//   2. walks the layers in reverse, accumulating gradient tensors into
//      fusion buckets (Horovod's tensor fusion); when a bucket fills, it
//      launches an allreduce on the communication runtime — nonblocking on
//      runtimes that support overlap, so communication hides under the
//      remaining backward compute,
//   3. waits for all reductions, applies the optimizer, and synchronizes.
//
// images/sec = batch * world_size / step_time, with step time measured on
// the aligned virtual clocks (max across ranks).

#include <optional>

#include "dl/model.hpp"
#include "omb/harness.hpp"
#include "sim/profiles.hpp"
#include "xccl/api.hpp"

namespace mpixccl::dl {

/// Horovod fusion-buffer threshold in bytes: the MPIXCCL_FUSION_BYTES
/// environment variable, a positive decimal byte count, or 2 MB (Horovod's
/// own default) when it is unset or empty. Any other value throws Error.
std::size_t default_fusion_bytes();

struct TrainerConfig {
  Model model = Model::resnet50();
  int batch_size = 32;
  omb::Flavor flavor = omb::Flavor::HybridXccl;
  std::optional<xccl::CclKind> backend;  ///< e.g. force MSCCL on NVIDIA
  std::size_t fusion_bytes = default_fusion_bytes();
  /// Drive bucket reductions through the persistent-collective API (one
  /// allreduce_init per bucket at setup, start/wait per step) instead of
  /// re-dispatching iallreduce every step. XcclMpi-backed flavors only;
  /// baseline flavors ignore it.
  bool persistent = false;
  /// Overlap communication with backward compute (nonblocking allreduce).
  /// The pure vendor-CCL flavor in the paper's Horovod builds reduces after
  /// the backward pass; benches model that by disabling overlap there.
  bool overlap = true;
  int warmup_steps = 2;
  int steps = 10;
};

struct TrainerResult {
  double images_per_sec = 0.0;
  double step_time_us = 0.0;
  double comm_wait_us = 0.0;  ///< average per-step time blocked on reductions
  int buckets_per_step = 0;
};

/// Run distributed training on `nodes` nodes of `profile` and report
/// aggregate throughput (identical value returned by every rank; the
/// convenience wrapper returns rank 0's copy).
TrainerResult run_training(const sim::SystemProfile& profile, int nodes,
                           const TrainerConfig& config);

}  // namespace mpixccl::dl
