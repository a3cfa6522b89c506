#include "omb/harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>

#include "common/format.hpp"
#include "core/ucc_baseline.hpp"
#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "obs/obs.hpp"
#include "xccl/backend.hpp"

namespace mpixccl::omb {

std::vector<std::size_t> size_sweep(std::size_t min_bytes, std::size_t max_bytes,
                                    std::size_t factor) {
  require(min_bytes > 0 && factor >= 2, "size_sweep: bad parameters");
  std::vector<std::size_t> sizes;
  for (std::size_t s = min_bytes; s <= max_bytes; s *= factor) sizes.push_back(s);
  return sizes;
}

std::string_view to_string(Flavor f) {
  switch (f) {
    case Flavor::HybridXccl: return "hybrid-xccl";
    case Flavor::PureXcclInMpi: return "xccl-in-mpi";
    case Flavor::PureCcl: return "pure-ccl";
    case Flavor::GpuAwareMpi: return "gpu-aware-mpi";
    case Flavor::OmpiUcx: return "ompi-ucx";
    case Flavor::OmpiUcxUcc: return "ompi-ucx-ucc";
  }
  return "?";
}

namespace {

const sim::CclProfile& ccl_profile_for(const sim::SystemProfile& prof,
                                       xccl::CclKind kind) {
  if (kind == xccl::CclKind::Msccl && prof.msccl.has_value()) return *prof.msccl;
  return prof.ccl;
}

/// Timed loop: warmup, clock-sync, run, clock-sync; returns max-across-ranks
/// average latency (identical on every rank thanks to sync_clocks).
double timed_loop(fabric::RankContext& ctx, int warmup, int iters,
                  const std::function<void()>& op) {
  for (int i = 0; i < warmup; ++i) op();
  ctx.sync_clocks();
  const double t0 = ctx.clock().now();
  for (int i = 0; i < iters; ++i) op();
  ctx.sync_clocks();
  return (ctx.clock().now() - t0) / iters;
}

}  // namespace

// ---- Point-to-point ---------------------------------------------------------

P2pResult run_p2p(const sim::SystemProfile& profile, const P2pConfig& config) {
  obs::init_from_env();
  const int nodes = config.scope == sim::LinkScope::IntraNode ? 1 : 2;
  const int dpn = config.scope == sim::LinkScope::IntraNode ? 2 : 1;
  fabric::World world(fabric::WorldConfig{profile, nodes, dpn, {}, {}});

  P2pResult result;
  const xccl::UniqueId id = xccl::UniqueId::derive(0xb3, 7);
  world.run([&](fabric::RankContext& ctx) {
    auto backend = xccl::make_backend(config.backend, ctx,
                                      ccl_profile_for(profile, config.backend));
    xccl::CclComm comm;
    throw_if_error(backend->comm_init_rank(comm, 2, id, ctx.rank()),
                   "omb p2p comm init");
    auto& dev = ctx.device();
    const std::size_t max_size = config.sizes.back();
    device::DeviceBuffer sbuf(dev, std::max<std::size_t>(max_size, 4));
    device::DeviceBuffer rbuf(dev, std::max<std::size_t>(max_size, 4));
    auto elems = [](std::size_t bytes) {
      return std::max<std::size_t>(bytes / sizeof(float), 1);
    };
    const int me = ctx.rank();
    const int peer = 1 - me;

    // Float32 payloads: the least common denominator across backends (HCCL
    // moves nothing else — the reason the paper had to patch OMB for Habana
    // device buffers in the first place).
    auto send_sync = [&](std::size_t bytes) {
      throw_if_error(backend->send(sbuf.get(), elems(bytes), DataType::Float32,
                                   peer, comm, ctx.stream()),
                     "omb send");
      ctx.stream().synchronize(ctx.clock());
    };
    auto recv_sync = [&](std::size_t bytes) {
      throw_if_error(backend->recv(rbuf.get(), elems(bytes), DataType::Float32,
                                   peer, comm, ctx.stream()),
                     "omb recv");
      ctx.stream().synchronize(ctx.clock());
    };

    for (const std::size_t bytes : config.sizes) {
      // osu_latency: ping-pong; report one-way latency.
      const double round_trip =
          timed_loop(ctx, config.timing.warmup(bytes), config.timing.iters(bytes),
                     [&] {
                       if (me == 0) {
                         send_sync(bytes);
                         recv_sync(bytes);
                       } else {
                         recv_sync(bytes);
                         send_sync(bytes);
                       }
                     });
      if (me == 0) result.latency.push_back(Row{bytes, round_trip / 2.0});

      // osu_bw: a window of grouped sends, then a short ack back.
      const int W = config.window;
      const double bw_time =
          timed_loop(ctx, config.timing.warmup_large, config.timing.iters_large,
                     [&] {
                       throw_if_error(backend->group_start(), "omb group");
                       for (int w = 0; w < W; ++w) {
                         if (me == 0) {
                           throw_if_error(
                               backend->send(sbuf.get(), elems(bytes),
                                             DataType::Float32, peer, comm,
                                             ctx.stream()),
                               "omb bw send");
                         } else {
                           throw_if_error(
                               backend->recv(rbuf.get(), elems(bytes),
                                             DataType::Float32, peer, comm,
                                             ctx.stream()),
                               "omb bw recv");
                         }
                       }
                       throw_if_error(backend->group_end(), "omb group");
                       ctx.stream().synchronize(ctx.clock());
                       if (me == 0) {
                         recv_sync(4);
                       } else {
                         send_sync(4);
                       }
                     });
      if (me == 0) {
        result.bw.push_back(Row{bytes, static_cast<double>(W) * bytes / bw_time});
      }

      // osu_bibw: both directions in flight.
      const double bibw_time =
          timed_loop(ctx, config.timing.warmup_large, config.timing.iters_large,
                     [&] {
                       throw_if_error(backend->group_start(), "omb group");
                       for (int w = 0; w < W; ++w) {
                         throw_if_error(
                             backend->send(sbuf.get(), elems(bytes),
                                           DataType::Float32, peer, comm,
                                           ctx.stream()),
                             "omb bibw send");
                         throw_if_error(
                             backend->recv(rbuf.get(), elems(bytes),
                                           DataType::Float32, peer, comm,
                                           ctx.stream()),
                             "omb bibw recv");
                       }
                       throw_if_error(backend->group_end(), "omb group");
                       ctx.stream().synchronize(ctx.clock());
                     });
      if (me == 0) {
        result.bibw.push_back(
            Row{bytes, 2.0 * static_cast<double>(W) * bytes / bibw_time});
      }
    }
  });
  return result;
}

// ---- Collectives --------------------------------------------------------------

namespace {

/// Per-rank bundle of every runtime a flavor might need.
struct Runtimes {
  std::unique_ptr<core::XcclMpi> hybrid;
  std::unique_ptr<core::XcclMpi> pure_xccl;
  std::unique_ptr<core::XcclMpi> pure_mpi;
  std::unique_ptr<mini::Mpi> ompi;
  std::unique_ptr<core::UccBaseline> ucc;
  std::unique_ptr<xccl::CclBackend> raw_backend;
  xccl::CclComm raw_comm;
};

/// Does the op's buffer footprint scale with the communicator size?
bool scaled_op(core::CollOp op) {
  switch (op) {
    case core::CollOp::Allgather:
    case core::CollOp::Alltoall:
    case core::CollOp::ReduceScatter:
    case core::CollOp::Gather:
    case core::CollOp::Scatter: return true;
    default: return false;
  }
}

/// Issue one collective on the "pure CCL" flavor — direct backend calls, the
/// way the OMB NCCL benchmarks drive NCCL (alltoall composed from grouped
/// send/recv exactly like the paper's Listing 1).
void run_pure_ccl(Runtimes& rts, fabric::RankContext& ctx, core::CollOp op,
                  std::size_t count, void* sbuf, void* rbuf) {
  auto& b = *rts.raw_backend;
  auto& comm = rts.raw_comm;
  auto& stream = ctx.stream();
  switch (op) {
    case core::CollOp::Allreduce:
      throw_if_error(b.all_reduce(sbuf, rbuf, count, DataType::Float32,
                                  ReduceOp::Sum, comm, stream),
                     "pure ccl allreduce");
      break;
    case core::CollOp::Bcast:
      throw_if_error(b.broadcast(rbuf, count, DataType::Float32, 0, comm, stream),
                     "pure ccl bcast");
      break;
    case core::CollOp::Reduce:
      throw_if_error(b.reduce(sbuf, rbuf, count, DataType::Float32, ReduceOp::Sum,
                              0, comm, stream),
                     "pure ccl reduce");
      break;
    case core::CollOp::Allgather:
      throw_if_error(b.all_gather(sbuf, rbuf, count, DataType::Float32, comm,
                                  stream),
                     "pure ccl allgather");
      break;
    case core::CollOp::ReduceScatter:
      throw_if_error(b.reduce_scatter(sbuf, rbuf, count, DataType::Float32,
                                      ReduceOp::Sum, comm, stream),
                     "pure ccl reduce_scatter");
      break;
    case core::CollOp::Alltoall: {
      const std::size_t block = count * sizeof(float);
      throw_if_error(b.group_start(), "pure ccl group");
      for (int r = 0; r < comm.nranks(); ++r) {
        throw_if_error(
            b.send(static_cast<std::byte*>(sbuf) + static_cast<std::size_t>(r) * block,
                   count, DataType::Float32, r, comm, stream),
            "pure ccl a2a send");
        throw_if_error(
            b.recv(static_cast<std::byte*>(rbuf) + static_cast<std::size_t>(r) * block,
                   count, DataType::Float32, r, comm, stream),
            "pure ccl a2a recv");
      }
      throw_if_error(b.group_end(), "pure ccl group");
      break;
    }
    default: throw Error("pure ccl: unsupported op");
  }
  stream.synchronize(ctx.clock());
}

/// Issue one collective on an MPI-shaped runtime.
template <typename Rt>
void run_mpi_shaped(Rt& rt, mini::Comm& comm, core::CollOp op, std::size_t count,
                    void* sbuf, void* rbuf) {
  switch (op) {
    case core::CollOp::Allreduce:
      rt.allreduce(sbuf, rbuf, count, mini::kFloat, ReduceOp::Sum, comm);
      break;
    case core::CollOp::Bcast:
      rt.bcast(rbuf, count, mini::kFloat, 0, comm);
      break;
    case core::CollOp::Reduce:
      rt.reduce(sbuf, rbuf, count, mini::kFloat, ReduceOp::Sum, 0, comm);
      break;
    case core::CollOp::Allgather:
      rt.allgather(sbuf, count, mini::kFloat, rbuf, count, mini::kFloat, comm);
      break;
    case core::CollOp::Alltoall:
      rt.alltoall(sbuf, count, mini::kFloat, rbuf, count, mini::kFloat, comm);
      break;
    default: throw Error("run_mpi_shaped: unsupported op");
  }
}

void run_flavor(Runtimes& rts, fabric::RankContext& ctx, Flavor flavor,
                core::CollOp op, std::size_t count, void* sbuf, void* rbuf) {
  switch (flavor) {
    case Flavor::HybridXccl:
      run_mpi_shaped(*rts.hybrid, rts.hybrid->comm_world(), op, count, sbuf, rbuf);
      return;
    case Flavor::PureXcclInMpi:
      run_mpi_shaped(*rts.pure_xccl, rts.pure_xccl->comm_world(), op, count, sbuf,
                     rbuf);
      return;
    case Flavor::GpuAwareMpi:
      run_mpi_shaped(*rts.pure_mpi, rts.pure_mpi->comm_world(), op, count, sbuf,
                     rbuf);
      return;
    case Flavor::OmpiUcx: {
      auto& mpi = *rts.ompi;
      switch (op) {
        case core::CollOp::Allreduce:
          mpi.allreduce(sbuf, rbuf, count, mini::kFloat, ReduceOp::Sum,
                        mpi.comm_world());
          return;
        case core::CollOp::Bcast:
          mpi.bcast(rbuf, count, mini::kFloat, 0, mpi.comm_world());
          return;
        case core::CollOp::Reduce:
          mpi.reduce(sbuf, rbuf, count, mini::kFloat, ReduceOp::Sum, 0,
                     mpi.comm_world());
          return;
        case core::CollOp::Allgather:
          mpi.allgather(sbuf, count, mini::kFloat, rbuf, count, mini::kFloat,
                        mpi.comm_world());
          return;
        case core::CollOp::Alltoall:
          mpi.alltoall(sbuf, count, mini::kFloat, rbuf, count, mini::kFloat,
                       mpi.comm_world());
          return;
        default: throw Error("ompi flavor: unsupported op");
      }
    }
    case Flavor::OmpiUcxUcc:
      run_mpi_shaped(*rts.ucc, rts.ucc->comm_world(), op, count, sbuf, rbuf);
      return;
    case Flavor::PureCcl:
      run_pure_ccl(rts, ctx, op, count, sbuf, rbuf);
      return;
  }
  throw Error("run_flavor: unknown flavor");
}

}  // namespace

FlavorSeries run_collective(const sim::SystemProfile& profile, int nodes,
                            const CollectiveConfig& config) {
  obs::init_from_env();
  fabric::World world(fabric::WorldConfig{profile, nodes, 0, {}, {}});
  const xccl::CclKind kind =
      config.backend.value_or(xccl::native_ccl(profile.vendor));
  const xccl::UniqueId raw_id = xccl::UniqueId::derive(0xc0, 11);

  FlavorSeries out;
  for (const Flavor f : config.flavors) out[f] = {};

  world.run([&](fabric::RankContext& ctx) {
    Runtimes rts;
    for (const Flavor f : config.flavors) {
      switch (f) {
        case Flavor::HybridXccl: {
          core::XcclMpiOptions opts;
          opts.mode = core::Mode::Hybrid;
          opts.backend = config.backend;
          rts.hybrid = std::make_unique<core::XcclMpi>(ctx, std::move(opts));
          break;
        }
        case Flavor::PureXcclInMpi: {
          core::XcclMpiOptions opts;
          opts.mode = core::Mode::PureXccl;
          opts.backend = config.backend;
          rts.pure_xccl = std::make_unique<core::XcclMpi>(ctx, std::move(opts));
          break;
        }
        case Flavor::GpuAwareMpi: {
          core::XcclMpiOptions opts;
          opts.mode = core::Mode::PureMpi;
          rts.pure_mpi = std::make_unique<core::XcclMpi>(ctx, std::move(opts));
          break;
        }
        case Flavor::OmpiUcx:
          rts.ompi = std::make_unique<mini::Mpi>(ctx, profile.ompi_ucx, 0xa11);
          break;
        case Flavor::OmpiUcxUcc:
          rts.ucc = std::make_unique<core::UccBaseline>(ctx);
          break;
        case Flavor::PureCcl:
          rts.raw_backend =
              xccl::make_backend(kind, ctx, ccl_profile_for(profile, kind));
          throw_if_error(rts.raw_backend->comm_init_rank(rts.raw_comm, ctx.size(),
                                                         raw_id, ctx.rank()),
                         "omb raw comm init");
          break;
      }
    }

    const auto scale =
        scaled_op(config.op) ? static_cast<std::size_t>(ctx.size()) : 1;
    for (const std::size_t bytes : config.sizes) {
      const std::size_t count = std::max<std::size_t>(bytes / sizeof(float), 1);
      const std::size_t alloc = std::max<std::size_t>(bytes, 4) * scale;
      device::DeviceBuffer sbuf(ctx.device(), alloc);
      device::DeviceBuffer rbuf(ctx.device(), alloc);
      std::memset(sbuf.get(), 0, alloc);
      std::memset(rbuf.get(), 0, alloc);

      for (const Flavor f : config.flavors) {
        const double latency = timed_loop(
            ctx, config.timing.warmup(bytes), config.timing.iters(bytes),
            [&] { run_flavor(rts, ctx, f, config.op, count, sbuf.get(), rbuf.get()); });
        if (ctx.rank() == 0) out[f].push_back(Row{bytes, latency});
      }
    }
  });
  return out;
}

void print_series_table(const std::string& title, const std::string& unit,
                        const std::vector<std::pair<std::string, Series>>& series) {
  std::printf("# %s\n", title.c_str());
  require(!series.empty(), "print_series_table: no series");
  std::vector<std::string> header{"Size"};
  header.reserve(series.size() + 1);
  for (const auto& [name, rows] : series) header.push_back(name + "(" + unit + ")");
  fmt::Table table(header);
  const Series& first = series.front().second;
  for (std::size_t i = 0; i < first.size(); ++i) {
    std::vector<std::string> row{fmt::size_label(first[i].bytes)};
    for (const auto& [name, rows] : series) {
      row.push_back(i < rows.size() ? fmt::fixed(rows[i].value, 2) : "-");
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\n");

  // Feed the machine-readable side of the bench pipeline. A table printed
  // with a '-' hole simply has no point for that (series, size) — the diff
  // tool reports it as missing rather than inventing a value.
  auto& rlog = ResultLog::instance();
  rlog.init_from_env();
  if (rlog.armed()) {
    for (const auto& [name, rows] : series) {
      for (const Row& r : rows) rlog.add(title, unit, name, r.bytes, r.value);
    }
  }
}

// ---- ResultLog --------------------------------------------------------------

ResultLog& ResultLog::instance() {
  static ResultLog log;
  return log;
}

void ResultLog::init_from_env(const std::string& bench) {
  std::call_once(env_once_, [&] {
    const char* path = std::getenv("MPIXCCL_BENCH_JSON");
    if (path != nullptr && *path != '\0') arm(path, bench);
  });
  if (!bench.empty()) {
    std::lock_guard lock(mu_);
    if (doc_.bench.empty()) doc_.bench = bench;
  }
}

void ResultLog::arm(std::string path, std::string bench) {
  bool first_arm = false;
  {
    std::lock_guard lock(mu_);
    first_arm = !armed_;
    armed_ = true;
    path_ = std::move(path);
    if (doc_.bench.empty()) doc_.bench = std::move(bench);
  }
  if (first_arm) {
    std::atexit([] { ResultLog::instance().save_if_armed(); });
  }
}

bool ResultLog::armed() const {
  std::lock_guard lock(mu_);
  return armed_;
}

void ResultLog::add(const std::string& table, const std::string& unit,
                    const std::string& series, std::size_t bytes, double value) {
  std::lock_guard lock(mu_);
  doc_.points.push_back(obs::BenchPoint{table, series, unit, bytes, value});
}

obs::BenchDoc ResultLog::doc() const {
  std::lock_guard lock(mu_);
  return doc_;
}

std::size_t ResultLog::size() const {
  std::lock_guard lock(mu_);
  return doc_.points.size();
}

void ResultLog::save(const std::string& path) const {
  obs::BenchDoc d = doc();
  std::ofstream out(path);
  require(out.good(), "ResultLog: cannot open " + path);
  out << obs::bench_json(d);
  require(out.good(), "ResultLog: write failed for " + path);
}

void ResultLog::save_if_armed() const {
  std::string path;
  {
    std::lock_guard lock(mu_);
    if (!armed_) return;
    path = path_;
  }
  save(path);
  std::fprintf(stderr, "[mpixccl] bench results (%zu points) -> %s\n", size(),
               path.c_str());
}

void ResultLog::clear() {
  std::lock_guard lock(mu_);
  doc_.points.clear();
}

}  // namespace mpixccl::omb
