#include "dl/horovod.hpp"

#include <charconv>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/ucc_baseline.hpp"
#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "mpi/mpi.hpp"
#include "obs/fleet.hpp"
#include "obs/obs.hpp"
#include "tune/online.hpp"
#include "xccl/backend.hpp"

namespace mpixccl::dl {

namespace {

/// Gradient fusion buckets: contiguous runs of reversed layers capped at the
/// fusion threshold.
struct Bucket {
  std::size_t params = 0;
};

std::vector<Bucket> build_buckets(const Model& model, std::size_t fusion_bytes) {
  std::vector<Bucket> buckets;
  Bucket current;
  for (auto it = model.layers.rbegin(); it != model.layers.rend(); ++it) {
    current.params += it->params;
    if (current.params * sizeof(float) >= fusion_bytes) {
      buckets.push_back(current);
      current = {};
    }
  }
  if (current.params > 0) buckets.push_back(current);
  return buckets;
}

/// Flavor-specific communication runtime for the trainer: launch an
/// allreduce of one bucket's floats, possibly asynchronously, and later wait
/// for everything launched this step. `bind_buckets` is called once before
/// the first step with the per-bucket counts (the buffers every bucket
/// reduction will use), letting runtimes with a persistent API compile the
/// per-bucket plans up front.
class CommRuntime {
 public:
  virtual ~CommRuntime() = default;
  virtual void bind_buckets(float* /*sendbuf*/, float* /*recvbuf*/,
                            const std::vector<std::size_t>& /*counts*/) {}
  virtual void allreduce(std::size_t bucket, float* sendbuf, float* recvbuf,
                         std::size_t count, bool async) = 0;
  virtual void wait_all() = 0;
  /// End-of-step hook: runtimes with an online tuner run one control round
  /// here (collective — every rank's trainer calls it at the same point).
  virtual void tune_step() {}
};

class XcclMpiComm final : public CommRuntime {
 public:
  XcclMpiComm(fabric::RankContext& ctx, core::Mode mode,
              std::optional<xccl::CclKind> backend, bool persistent)
      : persistent_(persistent) {
    core::XcclMpiOptions opts;
    opts.mode = mode;
    opts.backend = backend;
    rt_ = std::make_unique<core::XcclMpi>(ctx, std::move(opts));
    if (tune::online_tuning_enabled()) {
      tuner_ = std::make_unique<tune::OnlineTuner>();
    }
  }
  void tune_step() override {
    if (tuner_) tuner_->step(*rt_, rt_->comm_world());
  }
  void bind_buckets(float* sendbuf, float* recvbuf,
                    const std::vector<std::size_t>& counts) override {
    if (!persistent_) return;
    // One handle per bucket index (buckets may repeat a count; a handle must
    // not be started twice before its wait).
    handles_.reserve(counts.size());
    for (std::size_t c : counts) {
      handles_.push_back(rt_->allreduce_init(sendbuf, recvbuf, c, mini::kFloat,
                                             ReduceOp::Sum, rt_->comm_world()));
    }
  }
  void allreduce(std::size_t bucket, float* sendbuf, float* recvbuf,
                 std::size_t count, bool async) override {
    if (persistent_) {
      core::Persistent& h = handles_[bucket];
      h.start();
      if (async) {
        started_.push_back(&h);
      } else {
        h.wait();
      }
      return;
    }
    if (async) {
      pending_.push_back(rt_->iallreduce(sendbuf, recvbuf, count, mini::kFloat,
                                         ReduceOp::Sum, rt_->comm_world()));
    } else {
      rt_->allreduce(sendbuf, recvbuf, count, mini::kFloat, ReduceOp::Sum,
                     rt_->comm_world());
    }
  }
  void wait_all() override {
    for (core::Persistent* h : started_) h->wait();
    started_.clear();
    rt_->waitall(pending_);
    pending_.clear();
  }

 private:
  bool persistent_;
  std::unique_ptr<core::XcclMpi> rt_;
  std::unique_ptr<tune::OnlineTuner> tuner_;  ///< MPIXCCL_TUNE_ONLINE only
  std::vector<core::Persistent> handles_;   ///< per bucket index
  std::vector<core::Persistent*> started_;  ///< started but not yet waited
  std::vector<mini::Request> pending_;
};

class OmpiComm final : public CommRuntime {
 public:
  explicit OmpiComm(fabric::RankContext& ctx)
      : mpi_(ctx, ctx.profile().ompi_ucx, 0xd1) {}
  void allreduce(std::size_t /*bucket*/, float* sendbuf, float* recvbuf,
                 std::size_t count, bool /*async*/) override {
    // Open MPI + UCX: Horovod's MPI path completes collectives inline (no
    // stream-level overlap in this baseline).
    mpi_.allreduce(sendbuf, recvbuf, count, mini::kFloat, ReduceOp::Sum,
                   mpi_.comm_world());
  }
  void wait_all() override {}

 private:
  mini::Mpi mpi_;
};

class UccComm final : public CommRuntime {
 public:
  explicit UccComm(fabric::RankContext& ctx) : ucc_(ctx) {}
  void allreduce(std::size_t /*bucket*/, float* sendbuf, float* recvbuf,
                 std::size_t count, bool /*async*/) override {
    ucc_.allreduce(sendbuf, recvbuf, count, mini::kFloat, ReduceOp::Sum,
                   ucc_.comm_world());
  }
  void wait_all() override {}

 private:
  core::UccBaseline ucc_;
};

class PureCclComm final : public CommRuntime {
 public:
  PureCclComm(fabric::RankContext& ctx, std::optional<xccl::CclKind> backend)
      : ctx_(&ctx) {
    const xccl::CclKind kind =
        backend.value_or(xccl::native_ccl(ctx.profile().vendor));
    const sim::CclProfile& cp =
        (kind == xccl::CclKind::Msccl && ctx.profile().msccl.has_value())
            ? *ctx.profile().msccl
            : ctx.profile().ccl;
    backend_ = xccl::make_backend(kind, ctx, cp);
    throw_if_error(backend_->comm_init_rank(comm_, ctx.size(),
                                            xccl::UniqueId::derive(0xd7, 3),
                                            ctx.rank()),
                   "trainer ccl init");
  }
  void allreduce(std::size_t /*bucket*/, float* sendbuf, float* recvbuf,
                 std::size_t count, bool async) override {
    throw_if_error(backend_->all_reduce(sendbuf, recvbuf, count,
                                        DataType::Float32, ReduceOp::Sum, comm_,
                                        ctx_->stream()),
                   "trainer ccl allreduce");
    if (!async) ctx_->stream().synchronize(ctx_->clock());
  }
  void wait_all() override { ctx_->stream().synchronize(ctx_->clock()); }

 private:
  fabric::RankContext* ctx_;
  std::unique_ptr<xccl::CclBackend> backend_;
  xccl::CclComm comm_;
};

std::unique_ptr<CommRuntime> make_comm(fabric::RankContext& ctx,
                                       const TrainerConfig& config) {
  switch (config.flavor) {
    case omb::Flavor::HybridXccl:
      return std::make_unique<XcclMpiComm>(ctx, core::Mode::Hybrid,
                                           config.backend, config.persistent);
    case omb::Flavor::PureXcclInMpi:
      return std::make_unique<XcclMpiComm>(ctx, core::Mode::PureXccl,
                                           config.backend, config.persistent);
    case omb::Flavor::GpuAwareMpi:
      return std::make_unique<XcclMpiComm>(ctx, core::Mode::PureMpi,
                                           std::nullopt, config.persistent);
    case omb::Flavor::OmpiUcx: return std::make_unique<OmpiComm>(ctx);
    case omb::Flavor::OmpiUcxUcc: return std::make_unique<UccComm>(ctx);
    case omb::Flavor::PureCcl:
      return std::make_unique<PureCclComm>(ctx, config.backend);
  }
  throw Error("make_comm: unknown flavor");
}

}  // namespace

std::size_t default_fusion_bytes() {
  const char* raw = std::getenv("MPIXCCL_FUSION_BYTES");
  const std::string_view env = raw == nullptr ? "" : raw;
  if (env.empty()) return 2u << 20;
  std::size_t v = 0;
  const auto [end, ec] = std::from_chars(env.data(), env.data() + env.size(), v);
  if (ec != std::errc{} || end != env.data() + env.size() || v == 0) {
    throw Error("MPIXCCL_FUSION_BYTES='" + std::string(env) +
                "' is not a positive count of bytes");
  }
  return v;
}

TrainerResult run_training(const sim::SystemProfile& profile, int nodes,
                           const TrainerConfig& config) {
  obs::init_from_env();
  fabric::World world(fabric::WorldConfig{profile, nodes, 0, {}, {}});
  TrainerResult result;

  world.run([&](fabric::RankContext& ctx) {
    auto comm = make_comm(ctx, config);
    const std::vector<Bucket> buckets =
        build_buckets(config.model, config.fusion_bytes);
    const std::size_t total_params = config.model.total_params();
    const double bwd_us_per_param =
        config.model.bwd_us_per_image * config.batch_size /
        static_cast<double>(total_params);

    // One reusable bucket-sized buffer pair: gradient *values* are not under
    // test here (they alias across overlapped reductions); timing is.
    std::size_t max_bucket = 0;
    for (const auto& b : buckets) max_bucket = std::max(max_bucket, b.params);
    device::DeviceBuffer grads(ctx.device(), max_bucket * sizeof(float));
    device::DeviceBuffer reduced(ctx.device(), max_bucket * sizeof(float));

    // Compile the per-bucket reduction plans before the timed steps (the
    // persistent runtime turns each into an allreduce_init).
    std::vector<std::size_t> bucket_counts;
    bucket_counts.reserve(buckets.size());
    for (const auto& b : buckets) bucket_counts.push_back(b.params);
    comm->bind_buckets(grads.as<float>(), reduced.as<float>(), bucket_counts);

    // The compute timeline is a second stream: kernels run concurrently with
    // the communication launched on the default stream.
    device::Stream compute(profile.device.stream_sync_us);

    double comm_wait_total = 0.0;
    auto& registry = obs::Registry::instance();
    auto train_step = [&] {
      auto& clock = ctx.clock();
      const double step_t0 = clock.now();
      obs::Span step_span(ctx.rank(), clock, obs::SpanName::TrainStep);
      // Forward pass (one fused kernel).
      ctx.device().launch_kernel(
          config.model.fwd_us_per_image * config.batch_size, compute, clock,
          {});
      // Backward pass: per bucket, compute then reduce.
      for (std::size_t bi = 0; bi < buckets.size(); ++bi) {
        const Bucket& b = buckets[bi];
        ctx.device().launch_kernel(bwd_us_per_param * static_cast<double>(b.params),
                                   compute, clock, {});
        // The gradients of this bucket are ready when its backward kernel
        // completes; Horovod's cycle thread picks them up then.
        clock.advance_to(compute.tail());
        comm->allreduce(bi, grads.as<float>(), reduced.as<float>(), b.params,
                        config.overlap);
      }
      const double before_wait = clock.now();
      comm->wait_all();
      const double wait_us = clock.now() - before_wait;
      comm_wait_total += wait_us;
      // Optimizer update.
      ctx.device().launch_kernel(config.model.optimizer_us, compute, clock, {});
      compute.synchronize(clock);
      registry.counter("dl.steps").add(1, ctx.rank());
      // Step-boundary liveness beat: a long compute phase between collectives
      // must not read as a hang to the watchdog.
      obs::fleet::app_beat(ctx.rank());
      registry.histogram("dl.step_us").observe(clock.now() - step_t0);
      registry.histogram("dl.comm_wait_us").observe(wait_us);
      comm->tune_step();
    };

    for (int s = 0; s < config.warmup_steps; ++s) train_step();
    ctx.sync_clocks();
    const double t0 = ctx.clock().now();
    for (int s = 0; s < config.steps; ++s) train_step();
    ctx.sync_clocks();
    const double step_us = (ctx.clock().now() - t0) / config.steps;

    if (ctx.rank() == 0) {
      result.step_time_us = step_us;
      result.images_per_sec =
          static_cast<double>(config.batch_size) * ctx.size() / (step_us * 1e-6);
      result.comm_wait_us =
          comm_wait_total / (config.warmup_steps + config.steps);
      result.buckets_per_step = static_cast<int>(buckets.size());
    }
  });
  return result;
}

}  // namespace mpixccl::dl
