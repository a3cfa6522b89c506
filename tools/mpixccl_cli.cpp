// mpixccl — command-line driver for the simulated MPI-xCCL stack.
//
//   mpixccl profiles
//   mpixccl p2p   --system=thetagpu [--backend=msccl] [--inter]
//   mpixccl sweep --system=mri --nodes=4 --op=allgather [--backend=...]
//   mpixccl train --system=thetagpu --nodes=2 --model=resnet50 --batch=64
//   mpixccl tune  --system=voyager --out=/tmp/voyager.tbl
//   mpixccl tune  --online --system=thetagpu --nodes=2 --steps=48
//   mpixccl hier  --system=mri --nodes=4 --op=allreduce
//   mpixccl topo  --system=thetagpu --nodes=2 --levels=socket:2,numa:2
//   mpixccl trace --system=thetagpu --out=/tmp/trace.json
//   mpixccl top   --system=thetagpu [--nodes=2] [--rows=20]
//   mpixccl plan  --system=thetagpu [--nodes=2] [--steps=4]
//   mpixccl perf diff BASELINE.json CURRENT.json [--rel=0.10] [--abs=0.5]
//
// Every command runs entirely in-process (threads-as-ranks simulation) and
// prints OMB-style tables; `tune` writes a tuning table consumable via
// MPIXCCL_TUNING_FILE, and `trace` writes a chrome://tracing timeline.
// `top` runs the obs demo workload and prints the perf-analysis reports
// (hottest rows, flight recorder, critical path); `perf diff` is the
// bench-regression gate (exit 1 on regression) over mpixccl.bench.v1 files.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet_gather.hpp"
#include "core/tuner.hpp"
#include "core/xccl_mpi.hpp"
#include "obs/analyze.hpp"
#include "device/device.hpp"
#include "dl/horovod.hpp"
#include "fabric/world.hpp"
#include "obs/fleet.hpp"
#include "obs/obs.hpp"
#include "omb/harness.hpp"
#include "sim/fault.hpp"
#include "sim/profiles.hpp"
#include "sim/trace.hpp"
#include "tune/online.hpp"

using namespace mpixccl;

namespace {

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) throw Error("expected --key[=value], got " + a);
    a = a.substr(2);
    const auto eq = a.find('=');
    if (eq == std::string::npos) {
      args[a] = "1";
    } else {
      args[a.substr(0, eq)] = a.substr(eq + 1);
    }
  }
  return args;
}

std::string get(const Args& args, const std::string& key,
                const std::string& fallback) {
  auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

std::optional<xccl::CclKind> backend_of(const Args& args) {
  const std::string name = get(args, "backend", "");
  if (name.empty()) return std::nullopt;
  for (const xccl::CclKind k :
       {xccl::CclKind::Nccl, xccl::CclKind::Rccl, xccl::CclKind::Hccl,
        xccl::CclKind::Msccl, xccl::CclKind::OneCcl}) {
    if (to_string(k) == name) return k;
  }
  throw Error("unknown backend: " + name);
}

core::CollOp coll_of(const std::string& name) {
  for (const core::CollOp op : core::kAllCollOps) {
    if (to_string(op) == name) return op;
  }
  throw Error("unknown collective: " + name);
}

int cmd_profiles() {
  std::printf("%-12s %-8s %-10s %-10s %s\n", "name", "vendor", "devs/node",
              "native CCL", "note");
  for (const char* name : {"thetagpu", "mri", "voyager", "aurora-like"}) {
    const sim::SystemProfile p = sim::profile_by_name(name);
    std::printf("%-12s %-8s %-10d %-10s %s\n", p.name.c_str(),
                std::string(to_string(p.vendor)).c_str(), p.devices_per_node,
                std::string(to_string(xccl::native_ccl(p.vendor))).c_str(),
                p.msccl ? "MSCCL available" : "");
  }
  return 0;
}

int cmd_p2p(const Args& args) {
  const sim::SystemProfile prof =
      sim::profile_by_name(get(args, "system", "thetagpu"));
  omb::P2pConfig cfg;
  cfg.backend = backend_of(args).value_or(xccl::native_ccl(prof.vendor));
  cfg.scope = args.contains("inter") ? sim::LinkScope::InterNode
                                     : sim::LinkScope::IntraNode;
  const omb::P2pResult r = omb::run_p2p(prof, cfg);
  omb::print_series_table(
      "p2p " + std::string(to_string(cfg.backend)) + " on " + prof.name, "value",
      {{"latency_us", r.latency}, {"bw_MBps", r.bw}, {"bibw_MBps", r.bibw}});
  return 0;
}

int cmd_sweep(const Args& args) {
  const sim::SystemProfile prof =
      sim::profile_by_name(get(args, "system", "thetagpu"));
  const int nodes = std::stoi(get(args, "nodes", "1"));
  omb::CollectiveConfig cfg;
  cfg.op = coll_of(get(args, "op", "allreduce"));
  cfg.backend = backend_of(args);
  const omb::FlavorSeries r = omb::run_collective(prof, nodes, cfg);
  std::vector<std::pair<std::string, omb::Series>> named;
  for (const auto& [flavor, series] : r) {
    named.emplace_back(std::string(to_string(flavor)), series);
  }
  omb::print_series_table(std::string(to_string(cfg.op)) + " on " + prof.name +
                              " (" + std::to_string(nodes) + " nodes)",
                          "us", named);
  return 0;
}

int cmd_train(const Args& args) {
  const sim::SystemProfile prof =
      sim::profile_by_name(get(args, "system", "thetagpu"));
  dl::TrainerConfig cfg;
  const std::string model = get(args, "model", "resnet50");
  if (model == "resnet50") {
    cfg.model = dl::Model::resnet50();
  } else if (model == "vgg16") {
    cfg.model = dl::Model::vgg16();
  } else if (model == "bert") {
    cfg.model = dl::Model::bert_base();
  } else {
    throw Error("unknown model: " + model);
  }
  cfg.batch_size = std::stoi(get(args, "batch", "32"));
  cfg.backend = backend_of(args);
  const std::string flavor = get(args, "flavor", "hybrid");
  if (flavor == "hybrid") {
    cfg.flavor = omb::Flavor::HybridXccl;
  } else if (flavor == "pure-ccl") {
    cfg.flavor = omb::Flavor::PureCcl;
  } else if (flavor == "mpi") {
    cfg.flavor = omb::Flavor::GpuAwareMpi;
  } else if (flavor == "ucc") {
    cfg.flavor = omb::Flavor::OmpiUcxUcc;
  } else {
    throw Error("unknown flavor: " + flavor);
  }
  const int nodes = std::stoi(get(args, "nodes", "1"));
  const dl::TrainerResult r = dl::run_training(prof, nodes, cfg);
  std::printf("%s on %s, %d nodes, batch %d, flavor %s:\n", model.c_str(),
              prof.name.c_str(), nodes, cfg.batch_size, flavor.c_str());
  std::printf("  %.0f img/sec, %.2f ms/step, %.2f ms comm wait, %d buckets\n",
              r.images_per_sec, r.step_time_us / 1000.0,
              r.comm_wait_us / 1000.0, r.buckets_per_step);
  return 0;
}

/// `mpixccl tune --online`: live demo of the adaptive controller. Starts
/// from a deliberately mis-tuned static table (everything forced onto flat
/// MPI), runs an allreduce workload across the size bands while stepping an
/// OnlineTuner each iteration, then prints the per-arm report, the switch
/// history and the tuning table the controller rewrote in place.
int cmd_tune_online(const Args& args) {
  const sim::SystemProfile prof =
      sim::profile_by_name(get(args, "system", "thetagpu"));
  const int nodes = std::stoi(get(args, "nodes", "2"));
  const int steps = std::stoi(get(args, "steps", "48"));

  obs::set_level(obs::Level::Decisions);
  obs::Registry::instance().reset();
  obs::DecisionLog::instance().clear();

  // Static table an offline tuner could plausibly have produced on another
  // machine: flat MPI everywhere. On a multi-GPU system the CCL ring should
  // win the large bands back online.
  core::TuningTable mistuned;
  mistuned.set_rules(core::CollOp::Allreduce, {{SIZE_MAX, core::Engine::Mpi}});

  std::string report, table;
  fabric::World world(fabric::WorldConfig{prof, nodes, /*devices_per_node=*/2});
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx, {.tuning = mistuned});
    auto& comm = rt.comm_world();
    tune::OnlineTuner tuner;
    device::DeviceBuffer send(ctx.device(), 4u << 20);
    device::DeviceBuffer recv(ctx.device(), 4u << 20);
    for (int s = 0; s < steps; ++s) {
      // One call per size band the workload actually exercises.
      for (const std::size_t bytes :
           {std::size_t{2048}, std::size_t{32768}, std::size_t{512u << 10},
            std::size_t{4u << 20}}) {
        rt.allreduce(send.get(), recv.get(), bytes / sizeof(float),
                     mini::kFloat, ReduceOp::Sum, comm);
      }
      tuner.step(rt, comm);
    }
    // Settle before reading: an exploration may be in flight, and the
    // serialized table must show the converged leaders, not a challenger.
    tuner.freeze();
    tuner.step(rt, comm);
    if (ctx.rank() == 0) {
      report = tuner.report();
      table = rt.tuning().serialize();
    }
  });
  std::printf("online tuning on %s (%d nodes x 2 devices), %d steps, "
              "static table: allreduce=mpi everywhere\n\n%s\n",
              prof.name.c_str(), nodes, steps, report.c_str());
  std::printf("adaptive table after convergence:\n%s\n", table.c_str());
  return 0;
}

int cmd_tune(const Args& args) {
  if (get(args, "online", "") == "1") return cmd_tune_online(args);
  const sim::SystemProfile prof =
      sim::profile_by_name(get(args, "system", "thetagpu"));
  const int nodes = std::stoi(get(args, "nodes", "1"));
  const std::string out = get(args, "out", "");
  fabric::World world(fabric::WorldConfig{prof, nodes, 0});
  std::string serialized;
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx);
    const core::TuningTable tuned = core::tune_offline(rt, rt.comm_world());
    if (ctx.rank() == 0) serialized = tuned.serialize();
  });
  std::printf("tuned table for %s (%d nodes):\n%s\n", prof.name.c_str(), nodes,
              serialized.c_str());
  if (!out.empty()) {
    core::TuningTable::deserialize(serialized).save_file(out);
    std::printf("written to %s (use MPIXCCL_TUNING_FILE=%s)\n", out.c_str(),
                out.c_str());
  }
  return 0;
}

int cmd_hier(const Args& args) {
  // Three-way engine comparison on one system: flat MPI vs flat xCCL vs the
  // hierarchical engine (src/hier/), the same sweep bench/abl_hier_engine
  // runs at full scale.
  const sim::SystemProfile prof =
      sim::profile_by_name(get(args, "system", "thetagpu"));
  const int nodes = std::stoi(get(args, "nodes", "2"));
  const core::CollOp op = coll_of(get(args, "op", "allreduce"));
  struct Row {
    std::size_t bytes;
    double mpi, xccl, hier;
  };
  std::vector<Row> rows;
  fabric::World world(fabric::WorldConfig{prof, nodes, 0});
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx);
    auto& comm = rt.comm_world();
    const bool hier_ok =
        core::engine_hier_supports(op) && rt.hier().applicable(comm);
    for (const std::size_t bytes :
         {std::size_t{4096}, std::size_t{65536}, std::size_t{1048576},
          std::size_t{4194304}}) {
      Row row{bytes,
              core::measure_collective(rt, comm, op, bytes, core::Engine::Mpi,
                                       1, 2),
              core::measure_collective(rt, comm, op, bytes, core::Engine::Xccl,
                                       1, 2),
              hier_ok ? core::measure_collective(rt, comm, op, bytes,
                                                 core::Engine::Hier, 1, 2)
                      : -1.0};
      if (ctx.rank() == 0) rows.push_back(row);
    }
  });
  std::printf("%s on %s (%d nodes) — engine latency, us\n",
              std::string(to_string(op)).c_str(), prof.name.c_str(), nodes);
  std::printf("%12s %12s %12s %12s\n", "bytes", "flat-mpi", "flat-xccl", "hier");
  for (const Row& r : rows) {
    if (r.hier >= 0.0) {
      std::printf("%12zu %12.1f %12.1f %12.1f\n", r.bytes, r.mpi, r.xccl,
                  r.hier);
    } else {
      std::printf("%12zu %12.1f %12.1f %12s\n", r.bytes, r.mpi, r.xccl, "n/a");
    }
  }
  if (!rows.empty() && rows.front().hier < 0.0) {
    std::printf("hier n/a: needs >= 2 nodes x >= 2 devices and a hier-capable "
                "collective\n");
  }
  return 0;
}

int cmd_topo(const Args& args) {
  // Hierarchy inspector: the detected (or --levels= overridden) locality
  // tree with per-level link pricing, the hier engine's subcommunicator
  // chain (optionally a --virtual= engine-only hierarchy) with per-level
  // leader ranks, and the comm-split cache state.
  const sim::SystemProfile prof =
      sim::profile_by_name(get(args, "system", "thetagpu"));
  const int nodes = std::stoi(get(args, "nodes", "2"));
  const std::string levels = get(args, "levels", "");
  const std::string virt = get(args, "virtual", "");
  fabric::World world(fabric::WorldConfig{prof, nodes, 0, levels});
  const sim::Topology& topo = world.topology();

  std::printf("system %s: %d nodes x %d devices/node, levels %s\n",
              prof.name.c_str(), topo.nodes(), topo.devices_per_node(),
              sim::describe_levels(topo.sub_levels()).c_str());
  const int K = topo.depth();
  // Depth-first over the locality tree: each group nests under its parent,
  // leader = lowest rank in the group.
  auto print_tree = [&](auto&& self, int d, int lo) -> void {
    const int gsz = topo.group_size(d);
    std::printf("%*s%s %d  ranks [%d, %d]  leader %d\n", 2 * d, "",
                topo.level_name(d).c_str(), lo / gsz, lo, lo + gsz - 1, lo);
    if (d == K) return;
    const int child = topo.group_size(d + 1);
    for (int c = lo; c < lo + gsz; c += child) self(self, d + 1, c);
  };
  for (int node = 0; node < topo.nodes(); ++node) {
    print_tree(print_tree, 0, topo.rank_of(node, 0));
  }

  std::ostringstream report;
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpiOptions opts;
    if (!virt.empty()) opts.hier_levels = virt;
    core::XcclMpi rt(ctx, opts);
    auto& comm = rt.comm_world();
    (void)rt.hier().applicable(comm);  // collective: builds + caches the chain
    ctx.barrier();
    if (ctx.rank() != 0) return;

    report << "device link by deepest shared scope (rank 0 view):\n";
    for (int d = K; d >= 0; --d) {
      const int peer = (d == K) ? 1 : topo.group_size(d + 1);
      if (peer >= topo.devices_per_node()) continue;  // scope has one member
      const sim::LinkParams& link = rt.mpi().device_link_to(peer);
      char line[128];
      std::snprintf(line, sizeof(line),
                    "  %-8s alpha %6.2f us   bw %9.0f MB/s\n",
                    topo.level_name(d).c_str(), link.alpha_us, link.bw_MBps);
      report << line;
    }
    if (topo.nodes() > 1) {
      const sim::LinkParams& link =
          rt.mpi().device_link_to(topo.devices_per_node());
      char line[128];
      std::snprintf(line, sizeof(line),
                    "  %-8s alpha %6.2f us   bw %9.0f MB/s\n", "net",
                    link.alpha_us, link.bw_MBps);
      report << line;
    }

    const auto& hc = rt.hier().prepare(comm);
    if (!virt.empty()) {
      report << "virtual hierarchy (engine-only): " << virt << "\n";
    }
    if (hc.usable) {
      report << "hier chain over comm_world: " << hc.level_path
             << "  (innermost dim first)\n";
      int stride = 1;
      for (std::size_t j = 0; j < hc.dims.size(); ++j) {
        report << "  dim " << j << "  " << sim::levels().name(hc.level_ids[j])
               << "(" << hc.dims[j] << ")  leaders";
        // Leaders of dim j: digit 0 in every inner dim (the ranks that
        // carry data across this boundary in the leader-chain schedules).
        int printed = 0;
        for (int r = 0; r < comm.size() && printed < 16; r += stride) {
          report << ' ' << r;
          ++printed;
        }
        if (comm.size() / stride > printed) report << " ...";
        report << '\n';
        stride *= hc.dims[j];
      }
    } else {
      report << "hier chain over comm_world: n/a (needs >= 2 nodes x >= 2 "
                "devices)\n";
    }
    report << "comm-split cache: " << rt.hier().comm_cache_size()
           << " chain(s) at epoch " << rt.hier().config_epoch() << '\n';
    for (const auto& [ch, cached] : rt.hier().cached_comms()) {
      report << "  channel " << ch << "  "
             << (cached->usable ? cached->level_path : std::string("unusable"))
             << "  (" << cached->comms.size() << " subcomms)\n";
    }
  });
  std::fputs(report.str().c_str(), stdout);
  return 0;
}

int cmd_trace(const Args& args) {
  const sim::SystemProfile prof =
      sim::profile_by_name(get(args, "system", "thetagpu"));
  const std::string out = get(args, "out", "/tmp/mpixccl_trace.json");
  sim::Trace::instance().clear();
  sim::Trace::instance().set_enabled(true);
  fabric::run_world(prof, 1, [](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx);
    device::DeviceBuffer buf(ctx.device(), 4u << 20);
    for (const std::size_t n : {64u, 4096u, 262144u, 1048576u}) {
      rt.allreduce(buf.get(), buf.get(), n, mini::kFloat, ReduceOp::Sum,
                   rt.comm_world());
      rt.bcast(buf.get(), n, mini::kFloat, 0, rt.comm_world());
    }
  });
  sim::Trace::instance().set_enabled(false);
  sim::Trace::instance().save_chrome_json(out);
  std::printf("wrote %zu spans to %s (open in chrome://tracing)\n",
              sim::Trace::instance().size(), out.c_str());
  sim::Trace::instance().clear();
  return 0;
}

/// The shared obs/top demo workload: exercises all three engines (a tuning
/// table splitting allreduce across mpi / hier / xccl by size) plus every
/// fallback class the dispatcher knows, leaving the registry, decision log,
/// trace and flight recorder populated for whichever report the caller wants.
void run_obs_workload(const sim::SystemProfile& prof, int nodes) {
  obs::set_level(obs::Level::Trace);
  obs::Registry::instance().reset();
  obs::DecisionLog::instance().clear();
  obs::FlightRecorder::instance().clear();
  sim::Trace::instance().clear();

  core::TuningTable table;
  table.set_rules(core::CollOp::Allreduce,
                  {{16384, core::Engine::Mpi},
                   {1u << 20, core::Engine::Hier},
                   {SIZE_MAX, core::Engine::Xccl}});
  table.set_rules(core::CollOp::Bcast, {{8192, core::Engine::Mpi},
                                        {SIZE_MAX, core::Engine::Xccl}});

  fabric::World world(fabric::WorldConfig{prof, nodes, /*devices_per_node=*/2});
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx, {.tuning = table});
    auto& comm = rt.comm_world();
    auto& dev = ctx.device();
    device::DeviceBuffer send(dev, 4u << 20);
    device::DeviceBuffer recv(dev, 4u << 20);

    // Size sweep across the table's three engines: 4 KB -> mpi,
    // 256 KB -> hier (2 nodes x 2 devices, so the topology qualifies),
    // 4 MB -> xccl.
    for (const std::size_t bytes :
         {std::size_t{4096}, std::size_t{262144}, std::size_t{4u << 20}}) {
      rt.allreduce(send.get(), recv.get(), bytes / sizeof(float), mini::kFloat,
                   ReduceOp::Sum, comm);
    }
    rt.bcast(send.get(), 1024, mini::kFloat, 0, comm);
    rt.bcast(send.get(), 262144, mini::kFloat, 0, comm);

    // Fallback gallery — each lands in the decision log with its own
    // machine-readable reason:
    std::vector<float> hin(256, 1.0f), hout(256);  // host buffers -> mpi
    rt.allreduce(hin.data(), hout.data(), hin.size(), mini::kFloat,
                 ReduceOp::Sum, comm);
    // MPI_DOUBLE_COMPLEX has no CCL equivalent (the paper's FFT example);
    // sized into the table's xccl zone so the CCL attempt actually happens.
    rt.allreduce(send.get(), recv.get(), 131072, mini::kDoubleComplex,
                 ReduceOp::Sum, comm);
    // Logical AND: supported by MPI, absent from the CCL op set.
    rt.allreduce(send.get(), recv.get(), 1u << 19, mini::kInt, ReduceOp::Land,
                 comm);
  });
}

int cmd_obs(const Args& args) {
  // Observability demo: run the shared workload, then dump the full surface —
  // merged report to stdout, and optionally the metrics snapshot, the
  // Chrome trace and the decision "why" report to files.
  const sim::SystemProfile prof =
      sim::profile_by_name(get(args, "system", "thetagpu"));
  const int nodes = std::stoi(get(args, "nodes", "2"));
  run_obs_workload(prof, nodes);

  std::printf("%s", obs::report().c_str());

  const std::string metrics = get(args, "metrics", "");
  const std::string trace = get(args, "trace", "");
  const std::string decisions = get(args, "decisions", "");
  if (!metrics.empty()) {
    obs::Registry::instance().save_json(metrics);
    std::printf("metrics snapshot: %s\n", metrics.c_str());
  }
  if (!trace.empty()) {
    sim::Trace::instance().save_chrome_json(trace);
    std::printf("chrome trace:     %s (%zu spans)\n", trace.c_str(),
                sim::Trace::instance().size());
  }
  if (!decisions.empty()) {
    obs::DecisionLog::instance().save_report(decisions);
    std::printf("decision report:  %s\n", decisions.c_str());
  }
  obs::set_level(obs::Level::Metrics);
  return 0;
}

int cmd_top(const Args& args) {
  // Perf-analysis surface: run the shared obs workload at full telemetry,
  // then print the three analyze reports — hottest (collective, engine,
  // size-band) rows, the flight-recorder top-K, and critical-path
  // attribution of the dispatch spans.
  const sim::SystemProfile prof =
      sim::profile_by_name(get(args, "system", "thetagpu"));
  const int nodes = std::stoi(get(args, "nodes", "2"));
  const std::size_t rows =
      static_cast<std::size_t>(std::stoul(get(args, "rows", "20")));
  run_obs_workload(prof, nodes);

  std::printf("%s\n", obs::top_report(obs::Registry::instance().snapshot(),
                                      rows).c_str());
  std::printf("%s\n", obs::FlightRecorder::instance().report().c_str());
  const auto attrs =
      obs::attribute_dispatches(sim::Trace::instance().events(),
                                obs::DecisionLog::instance().records());
  std::printf("%s", obs::critical_path_report(attrs).c_str());
  obs::set_level(obs::Level::Metrics);
  return 0;
}

int cmd_health(const Args& args) {
  // Fleet-health surface: run a trainer-like workload (per-rank compute
  // phase, then a three-size allreduce sweep across all engines) with
  // arrival-skew profiling on, optionally injecting a per-rank slowdown
  // ("--slow=3:5" runs rank 3's local work 5x slower) or a one-shot real
  // stall ("--stall=1:4:300"), then gather every rank's telemetry to rank 0
  // over the library's own collectives and print the straggler board.
  const sim::SystemProfile prof =
      sim::profile_by_name(get(args, "system", "thetagpu"));
  const int nodes = std::stoi(get(args, "nodes", "2"));
  const int steps = std::stoi(get(args, "steps", "8"));
  const double watchdog_ms = std::stod(get(args, "watchdog-ms", "0"));

  std::string faults;
  if (const std::string slow = get(args, "slow", ""); !slow.empty()) {
    faults = "slow=" + slow;
  }
  if (const std::string stall = get(args, "stall", ""); !stall.empty()) {
    if (!faults.empty()) faults += ',';
    faults += "stall=" + stall;
  }

  obs::fleet::reset();
  obs::fleet::set_profiling(true);
  obs::DecisionLog::instance().set_enabled(true);
  if (watchdog_ms > 0.0) {
    obs::fleet::Watchdog::instance().start({.timeout_ms = watchdog_ms});
  }

  core::TuningTable table;
  table.set_rules(core::CollOp::Allreduce,
                  {{16384, core::Engine::Mpi},
                   {1u << 20, core::Engine::Hier},
                   {SIZE_MAX, core::Engine::Xccl}});

  fabric::WorldConfig wc{prof, nodes,
                         std::stoi(get(args, "devices", "2"))};
  wc.hier_levels = get(args, "levels", "");
  wc.faults = faults;
  fabric::World world(wc);

  obs::fleet::FleetSnapshot snap;
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx, {.tuning = table});
    auto& comm = rt.comm_world();
    device::DeviceBuffer send(ctx.device(), 4u << 20);
    device::DeviceBuffer recv(ctx.device(), 4u << 20);
    for (int s = 0; s < steps; ++s) {
      // The compute phase between collectives is rank-local work — exactly
      // what a slowed rank stretches — so arrivals at the next collective
      // skew by the injected factor.
      for (const std::size_t bytes :
           {std::size_t{4096}, std::size_t{262144}, std::size_t{4u << 20}}) {
        ctx.clock().advance(200.0);
        rt.allreduce(send.get(), recv.get(), bytes / sizeof(float),
                     mini::kFloat, ReduceOp::Sum, comm);
      }
    }
    obs::fleet::FleetSnapshot local = core::gather_fleet(rt, comm);
    if (ctx.rank() == 0) snap = std::move(local);
  });

  std::printf("%s", snap.report().c_str());
  if (const std::string out = get(args, "out", ""); !out.empty()) {
    std::ofstream ofs(out);
    require(ofs.good(), "health: cannot open " + out);
    ofs << snap.to_json() << '\n';
    require(ofs.good(), "health: failed writing " + out);
    std::printf("fleet snapshot:   %s\n", out.c_str());
  }

  obs::fleet::Watchdog::instance().stop();
  obs::fleet::set_profiling(false);
  sim::FaultInjector::instance().clear();
  obs::set_level(obs::Level::Metrics);
  return 0;
}

int cmd_plan(const Args& args) {
  // Plan-cache surface: run a persistent-collective demo workload, then dump
  // rank 0's plan cache — keys, chosen engine, validity band, hit counts and
  // resident staging bytes — followed by the hit/miss/eviction counters.
  const sim::SystemProfile prof =
      sim::profile_by_name(get(args, "system", "thetagpu"));
  const int nodes = std::stoi(get(args, "nodes", "2"));
  const int steps = std::stoi(get(args, "steps", "4"));

  core::TuningTable table;
  table.set_rules(core::CollOp::Allreduce,
                  {{16384, core::Engine::Mpi},
                   {1u << 20, core::Engine::Hier},
                   {SIZE_MAX, core::Engine::Xccl}});

  std::string report;
  fabric::World world(fabric::WorldConfig{prof, nodes, /*devices_per_node=*/2});
  world.run([&](fabric::RankContext& ctx) {
    core::XcclMpi rt(ctx, {.tuning = table});
    auto& comm = rt.comm_world();
    device::DeviceBuffer send(ctx.device(), 4u << 20);
    device::DeviceBuffer recv(ctx.device(), 4u << 20);

    // Persistent handles across the table's three engines: one per size
    // class, started `steps` times each (start/wait replays the plan).
    core::Persistent small = rt.allreduce_init(
        send.as<float>(), recv.as<float>(), 1024, mini::kFloat, ReduceOp::Sum,
        comm);
    core::Persistent medium = rt.allreduce_init(
        send.as<float>(), recv.as<float>(), 65536, mini::kFloat, ReduceOp::Sum,
        comm);
    core::Persistent large = rt.allreduce_init(
        send.as<float>(), recv.as<float>(), 1u << 20, mini::kFloat,
        ReduceOp::Sum, comm);
    for (int s = 0; s < steps; ++s) {
      for (core::Persistent* h : {&small, &medium, &large}) {
        h->start();
        h->wait();
      }
    }
    // One-shot calls in the same size classes hit the plans the init calls
    // compiled; the bcast misses (no plan yet) and lands as a new entry.
    for (int s = 0; s < steps; ++s) {
      for (const std::size_t n : {std::size_t{1024}, std::size_t{65536},
                                  std::size_t{1u << 20}}) {
        rt.allreduce(send.get(), recv.get(), n, mini::kFloat, ReduceOp::Sum,
                     comm);
      }
    }
    rt.bcast(send.get(), 4096, mini::kFloat, 0, comm);
    if (ctx.rank() == 0) report = rt.plan_cache().report();
  });

  std::printf("plan cache on %s (%d nodes, rank 0, %d steps/handle):\n%s",
              prof.name.c_str(), nodes, steps, report.c_str());
  return 0;
}

int cmd_perf(int argc, char** argv) {
  // perf diff BASELINE CURRENT [--rel=X] [--abs=Y] — the regression gate.
  // Positional file arguments, unlike the other commands, so the paths read
  // naturally in CI scripts.
  if (argc < 3 || std::string(argv[2]) != "diff") {
    std::fprintf(stderr,
                 "usage: mpixccl perf diff <baseline.json> <current.json> "
                 "[--rel=0.10] [--abs=0.5]\n");
    return 2;
  }
  std::vector<std::string> files;
  Args opts;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const auto eq = a.find('=');
      if (eq == std::string::npos) {
        opts[a.substr(2)] = "1";
      } else {
        opts[a.substr(2, eq - 2)] = a.substr(eq + 1);
      }
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "mpixccl perf diff: expected exactly two files, got %zu\n",
                 files.size());
    return 2;
  }
  obs::DiffOptions dopt;
  dopt.rel_threshold = std::stod(get(opts, "rel", "0.10"));
  dopt.abs_floor = std::stod(get(opts, "abs", "0.5"));
  // A gate that cannot read its inputs must fail loudly, never pass: name
  // the file that broke and exit non-zero (2 = unusable inputs, distinct
  // from 1 = genuine regression).
  obs::BenchDoc baseline, current;
  try {
    baseline = obs::load_bench_json(files[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpixccl perf diff: baseline unusable: %s\n",
                 e.what());
    return 2;
  }
  try {
    current = obs::load_bench_json(files[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpixccl perf diff: current unusable: %s\n",
                 e.what());
    return 2;
  }
  if (baseline.points.empty()) {
    // Zero baseline points would make every diff vacuously green.
    std::fprintf(stderr,
                 "mpixccl perf diff: baseline '%s' contains no points — "
                 "refusing a vacuous pass\n",
                 files[0].c_str());
    return 2;
  }
  const obs::BenchDiff diff = obs::bench_diff(baseline, current, dopt);
  std::printf("%s", diff.report().c_str());
  return diff.ok() ? 0 : 1;
}

int usage() {
  std::printf(
      "usage: mpixccl <command> [--key=value ...]\n"
      "  profiles                               list simulated systems\n"
      "  p2p    --system=S [--backend=B] [--inter]\n"
      "  sweep  --system=S --nodes=N --op=OP [--backend=B]\n"
      "  train  --system=S --nodes=N --model=M --batch=B --flavor=F\n"
      "  tune   --system=S [--nodes=N] [--out=FILE]\n"
      "  tune   --online [--system=S] [--nodes=N] [--steps=K]\n"
      "                                         adaptive-controller demo: "
      "recover\n"
      "                                         from a mis-tuned table "
      "online\n"
      "  hier   --system=S [--nodes=N] [--op=OP]    compare engines incl. hier\n"
      "  topo   --system=S [--nodes=N] [--levels=SPEC] [--virtual=SPEC]\n"
      "                                         print the locality tree, hier\n"
      "                                         chain + leaders, split cache\n"
      "  trace  --system=S [--out=FILE]\n"
      "  obs    --system=S [--nodes=N] [--metrics=F] [--trace=F] "
      "[--decisions=F]\n"
      "                                         demo all engines + fallbacks,\n"
      "                                         print the observability "
      "report\n"
      "  top    --system=S [--nodes=N] [--rows=K]  hottest rows, flight\n"
      "                                         recorder, critical path\n"
      "  health --system=S [--nodes=N] [--levels=SPEC] [--slow=R:F]\n"
      "         [--stall=R:SEQ:MS] [--steps=K] [--watchdog-ms=T] "
      "[--out=FILE]\n"
      "                                         fleet telemetry demo: "
      "arrival\n"
      "                                         skew, straggler board, hier\n"
      "                                         level attribution, watchdog\n"
      "  plan   --system=S [--nodes=N] [--steps=K]  persistent-collective "
      "demo,\n"
      "                                         dump the plan cache\n"
      "  perf diff BASELINE.json CURRENT.json [--rel=0.10] [--abs=0.5]\n"
      "                                         bench-regression gate "
      "(exit 1\n"
      "                                         on regression)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    // `perf` takes positional file args; everything else is --key=value.
    if (cmd == "perf") return cmd_perf(argc, argv);
    const Args args = parse_args(argc, argv, 2);
    if (cmd == "profiles") return cmd_profiles();
    if (cmd == "p2p") return cmd_p2p(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "tune") return cmd_tune(args);
    if (cmd == "hier") return cmd_hier(args);
    if (cmd == "topo") return cmd_topo(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "obs") return cmd_obs(args);
    if (cmd == "top") return cmd_top(args);
    if (cmd == "health") return cmd_health(args);
    if (cmd == "plan") return cmd_plan(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpixccl: %s\n", e.what());
    return 1;
  }
}
