#include "spec.hpp"

#include <algorithm>
#include <bit>

#include "common/rng.hpp"

namespace mpixccl::e2e {

std::string_view to_string(Workload w) {
  switch (w) {
    case Workload::OmbSmall: return "omb_small";
    case Workload::OmbLarge: return "omb_large";
    case Workload::Train: return "train_resnet50";
    case Workload::Churn: return "churn_mixed";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : kAllWorkloads) {
    if (to_string(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view to_string(Op op) {
  switch (op) {
    case Op::Allreduce: return "allreduce";
    case Op::Bcast: return "bcast";
    case Op::Allgather: return "allgather";
    case Op::ReduceScatter: return "reduce_scatter_block";
    case Op::Allgatherv: return "allgatherv";
    case Op::Alltoallv: return "alltoallv";
    case Op::Gather: return "gather";
    case Op::Scatter: return "scatter";
  }
  return "?";
}

std::size_t elem_size(Elem e) {
  switch (e) {
    case Elem::Float: return 4;
    case Elem::Int32: return 4;
    case Elem::Double: return 8;
  }
  return 4;
}

namespace {

std::vector<std::size_t> pow2_sizes(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> out;
  for (std::size_t s = lo; s <= hi; s *= 2) out.push_back(s);
  return out;
}

constexpr Op kOmbOps[] = {Op::Allreduce, Op::Bcast, Op::Allgather,
                          Op::ReduceScatter};

// Default call counts size each workload's timed phase to about 13 s on a
// 4-vCPU 2 GHz Xeon VM; --scale and --seconds override them.
const WorkloadSpec kSpecs[] = {
    {Workload::OmbSmall, "thetagpu", 1, 4,
     {std::begin(kOmbOps), std::end(kOmbOps)}, pow2_sizes(8, 16384),
     {Elem::Float}, false, 1, 600000},
    {Workload::OmbLarge, "thetagpu", 2, 2,
     {std::begin(kOmbOps), std::end(kOmbOps)},
     {256u << 10, 1u << 20, 4u << 20, 8u << 20}, {Elem::Float}, false, 1,
     6000},
    {Workload::Train, "thetagpu", 2, 2, {Op::Allreduce}, {}, {Elem::Float},
     false, 1, 130},
    {Workload::Churn, "voyager", 1, 4,
     {Op::Allreduce, Op::Bcast, Op::Allgather, Op::ReduceScatter,
      Op::Allgatherv, Op::Alltoallv, Op::Gather, Op::Scatter},
     pow2_sizes(8, 1u << 20), {Elem::Float, Elem::Int32, Elem::Double}, true,
     3, 200000},
};

/// Keyed bijection on [0, n): cycle-walking over the next power of two
/// with steps that are each invertible on k-bit values.
std::uint64_t permute(std::uint64_t x, std::uint64_t n, std::uint64_t key) {
  const int k = std::bit_width(n - 1);
  const std::uint64_t mask = (std::uint64_t{1} << k) - 1;
  do {
    x = (x * 0x9e3779b97f4a7c15ull + key) & mask;
    x ^= x >> (k / 2 + 1);
    x = (x * 0xbf58476d1ce4e5b9ull + (key >> 17)) & mask;
  } while (x >= n);
  return x;
}

std::uint64_t shape_count(const WorkloadSpec& w) {
  const std::size_t kinds = w.host_buffers ? 2 : 1;
  return w.ops.size() * std::max<std::size_t>(w.sizes.size(), 1) * w.elems.size() *
         kinds * static_cast<std::size_t>(w.comms);
}

}  // namespace

const WorkloadSpec& workload_spec(Workload w) {
  return kSpecs[static_cast<std::size_t>(w)];
}

Call draw_call(const WorkloadSpec& w, std::uint64_t seed, std::uint64_t index) {
  // Stateless in the index, so every rank derives the same call without
  // sharing a generator. Each cycle of shape_count() calls is a seeded
  // permutation of every shape, so the mix is the same for every seed.
  const std::uint64_t shapes = shape_count(w);
  const std::uint64_t key = splitmix64(
      splitmix64(seed) ^ (static_cast<std::uint64_t>(w.id) << 56) ^ (index / shapes));
  std::uint64_t s = permute(index % shapes, shapes, key);
  auto digit = [&s](std::size_t radix) {
    const auto d = static_cast<std::size_t>(s % radix);
    s /= radix;
    return d;
  };
  Call c;
  c.op = w.ops[digit(w.ops.size())];
  c.bytes = w.sizes.empty() ? 0 : w.sizes[digit(w.sizes.size())];
  c.elem = w.elems[digit(w.elems.size())];
  c.host = w.host_buffers && digit(2) == 1;
  c.comm = static_cast<int>(digit(static_cast<std::size_t>(w.comms)));
  c.root_draw = static_cast<std::uint32_t>(splitmix64(key ^ index) >> 48);
  c.full_check = index % kFullCheckEvery == kFullCheckEvery - 1;
  return c;
}

namespace {

// Host times are at the reference clock (core_clock.hpp); the .wall rows are
// the same measurements as the wall clock read them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", Clock::Host, Better::Lower, 0.25, true},
    {"calls_per_s", "calls/s", Clock::Host, Better::Higher, 0.25, true},
    {"host_call_us.p50", "us", Clock::Host, Better::Lower, 0.25, true},
    {"host_call_us.p90", "us", Clock::Host, Better::Lower, 0.0, false},
    {"host_call_us.p99", "us", Clock::Host, Better::Lower, 0.0, false},
    {"host_call_us.n", "count", Clock::None, Better::Higher, 0.0, false},
    {"host_step_ms.p50", "ms", Clock::Host, Better::Lower, 0.25, true},
    {"host_step_ms.p90", "ms", Clock::Host, Better::Lower, 0.0, false},
    {"peak_rss_mb", "MB", Clock::Host, Better::Lower, 0.10, true},
    // Context for reading the host rows: the clock the core ran at, and
    // hypervisor steal (a starved run reads slow through no change of the code).
    {"host_clock_ghz", "GHz", Clock::Host, Better::Higher, 0.0, false},
    {"host_steal_pct", "%", Clock::Host, Better::Lower, 0.0, false},
    {"setup_s.wall", "s", Clock::Host, Better::Lower, 0.0, false},
    {"calls_per_s.wall", "calls/s", Clock::Host, Better::Higher, 0.0, false},
    {"host_call_us.p50.wall", "us", Clock::Host, Better::Lower, 0.0, false},
    {"vt_call_us.p50", "us", Clock::Virtual, Better::Lower, 0.0, true},
    {"vt_call_us.p99", "us", Clock::Virtual, Better::Lower, 0.0, true},
    {"vt_img_per_s", "img/s", Clock::Virtual, Better::Higher, 0.0, true},
    {"fail_ratio", "failed/attempted", Clock::None, Better::Lower, 0.0, true},
    {"attempted", "calls", Clock::None, Better::Higher, 0.0, false},
    {"failed", "calls", Clock::None, Better::Lower, 0.0, false},
};

constexpr std::string_view kOnSmall = "host_call_us.p50 on omb_small";
constexpr std::string_view kOnLarge = "calls_per_s on omb_large";
constexpr std::string_view kOnLargeTrain =
    "calls_per_s on omb_large, host_step_ms.p50 on train_resnet50";
constexpr std::string_view kOnTrain = "host_step_ms.p50 on train_resnet50";
constexpr std::string_view kOnChurn = "calls_per_s on churn_mixed";
constexpr std::string_view kOnImg = "vt_img_per_s on train_resnet50";
constexpr std::string_view kOnLargeVt = "vt_call_us.* on omb_large";

constexpr LayerSpec kLayers[] = {
    {"fabric.p2p_host_us.4K", "us", Clock::Host, kOnSmall},
    {"fabric.p2p_host_us.1M", "us", Clock::Host, kOnLargeTrain},
    {"host.busy_cores", "cores", Clock::Host, "calls_per_s on this workload"},
    {"mpi.allreduce_host_us.4K", "us", Clock::Host, kOnSmall},
    {"mpi.allreduce_host_us.64K", "us", Clock::Host, kOnSmall},
    {"mpi.allreduce_host_us.1M", "us", Clock::Host, kOnSmall},
    {"xccl.allreduce_host_us.64K", "us", Clock::Host, kOnLargeTrain},
    {"xccl.allreduce_host_us.1M", "us", Clock::Host, kOnLargeTrain},
    {"hier.allreduce_host_us.1M", "us", Clock::Host, kOnLarge},
    {"hier.allreduce_host_us.4M", "us", Clock::Host, kOnLarge},
    {"hier.prepare_host_ms", "ms", Clock::Host, "setup_s on omb_large"},
    {"hier.vt_stage_share.allreduce.pipe.node", "share", Clock::Virtual, kOnLargeVt},
    {"hier.vt_stage_share.allreduce.pipe.net", "share", Clock::Virtual, kOnLargeVt},
    {"hier.vt_stage_share.other", "share", Clock::Virtual, kOnLargeVt},
    {"core.dispatch_self_us.4K", "us", Clock::Host, kOnSmall},
    {"core.dispatch_self_us.1M", "us", Clock::Host,
     "nothing: about 0, so no move on omb_large"},
    {"core.iallreduce_wait_host_us.2M", "us", Clock::Host, kOnTrain},
    {"core.persistent_start_wait_host_us.2M", "us", Clock::Host, kOnTrain},
    {"core.fallback_self_us.1M", "us", Clock::Host, kOnChurn},
    {"core.fallback_ratio", "share", Clock::None,
     "calls_per_s and vt_call_us.* on churn_mixed"},
    {"core.engine_share.mpi", "share", Clock::None, "context only"},
    {"core.engine_share.xccl", "share", Clock::None, "context only"},
    {"core.engine_share.hier", "share", Clock::None, "context only"},
    {"plan.hit_ratio", "share", Clock::None,
     "host_call_us.p50 and calls_per_s on churn_mixed; none on omb_small"},
    {"plan.evict_per_kcall", "count/kcall", Clock::None, kOnChurn},
    {"plan.build_host_us", "us", Clock::Host,
     "setup_s everywhere, calls_per_s on churn_mixed"},
    {"plan.find_host_ns", "ns", Clock::Host, "nothing end to end"},
    {"tuning.select_host_ns", "ns", Clock::Host, kOnChurn},
    {"common.reduce_GBps.1M", "GB/s", Clock::Host, kOnLarge},
    {"common.reduce_GBps.512M", "GB/s", Clock::Host, kOnLarge},
    {"common.memcpy_GBps.1M", "GB/s", Clock::Host, kOnLarge},
    {"common.memcpy_GBps.512M", "GB/s", Clock::Host, kOnLarge},
    {"obs.decision_push_ns", "ns", Clock::Host,
     "host_call_us.p50 when decisions are logged"},
    {"obs.trace_overhead_pct", "%", Clock::Host,
     "traced over untraced host_call_us.p50 on this workload"},
    {"dl.train_host_ms", "ms", Clock::Host, kOnTrain},
    {"dl.vt_step_us", "us", Clock::Virtual, kOnImg},
    {"dl.vt_comm_wait_us", "us", Clock::Virtual, kOnImg},
    {"dl.vt_comm_wait_share", "share", Clock::Virtual, kOnImg},
    {"dl.buckets_per_step", "count", Clock::None, kOnImg},
};

template <typename T>
const T* find_by_name(std::span<const T> rows, std::string_view name) {
  const auto it = std::find_if(rows.begin(), rows.end(),
                               [&](const T& r) { return r.name == name; });
  return it == rows.end() ? nullptr : &*it;
}

}  // namespace

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
const MetricSpec* find_end_to_end(std::string_view name) {
  return find_by_name(end_to_end_metrics(), name);
}
std::span<const LayerSpec> layer_metrics() { return kLayers; }
const LayerSpec* find_layer(std::string_view name) {
  return find_by_name(layer_metrics(), name);
}

}  // namespace mpixccl::e2e
