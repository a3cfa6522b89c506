// mpixccl_bench: end-to-end benchmark of the MPI-xCCL simulator.
//
//   mpixccl_bench [--workload NAME] [--seed N] [--scale F] [--seconds S]
//                 [--trace DIR] [--out FILE]
//   mpixccl_bench compare BASE.json[,BASE2.json...] CAND.json[,CAND2.json...]
//
// Without --workload every workload runs in its own process (this binary
// re-executed), so set-up time and peak RSS are per workload. The last line
// of stdout is the mpixccl.bench.v1 result document; --out writes it too.
// MPIXCCL_BENCH_FAST=1 means --scale 0.01. See README.md.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common/status.hpp"
#include "obs/analyze.hpp"
#include "obs/obs.hpp"
#include "report.hpp"

using namespace mpixccl;
using namespace mpixccl::e2e;

namespace {

struct Cli {
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  double scale = 1.0;
  bool scale_given = false;
  double seconds = 0.0;
  std::string trace_dir;
  std::string out;
};

int usage(const std::string& why) {
  std::cerr << "mpixccl_bench: " << why << "\n"
            << "usage: mpixccl_bench [--workload NAME] [--seed N] [--scale F] "
               "[--seconds S] [--trace DIR] [--out FILE]\n"
               "       mpixccl_bench compare BASE.json[,...] CAND.json[,...]\n";
  return 2;
}

std::optional<Cli> parse(int argc, char** argv, std::string& err) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + flag;
      return std::nullopt;
    }
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        cli.workload = parse_workload(v);
        if (!cli.workload) {
          err = "unknown workload '" + v + "'";
          return std::nullopt;
        }
      } else if (flag == "--seed") {
        cli.seed = std::stoull(v);
      } else if (flag == "--scale") {
        cli.scale = std::stod(v);
        cli.scale_given = true;
        if (!(cli.scale > 0.0)) throw std::invalid_argument("scale");
      } else if (flag == "--seconds") {
        cli.seconds = std::stod(v);
        if (!(cli.seconds >= 0.0)) throw std::invalid_argument("seconds");
      } else if (flag == "--trace") {
        cli.trace_dir = v;
      } else if (flag == "--out") {
        cli.out = v;
      } else {
        err = "unknown option " + flag;
        return std::nullopt;
      }
    } catch (const std::exception&) {
      err = "bad value '" + v + "' for " + flag;
      return std::nullopt;
    }
  }
  const char* fast = std::getenv("MPIXCCL_BENCH_FAST");
  if (!cli.scale_given && fast != nullptr && std::string(fast) != "0") cli.scale = 0.01;
  return cli;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  require(f.good(), "mpixccl_bench: cannot write " + path.string());
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream f(path);
  require(f.good(), "mpixccl_bench: cannot read " + path.string());
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::uint64_t failed_calls(const obs::BenchDoc& doc) {
  std::uint64_t n = 0;
  for (const obs::BenchPoint& p : doc.points) {
    if (p.series == "failed") n += static_cast<std::uint64_t>(p.value);
  }
  return n;
}

/// Shared tail of both run modes: files, then the document as the last line.
int finish(const Cli& cli, const obs::BenchDoc& doc, const std::string& host_trace) {
  if (!cli.trace_dir.empty()) {
    std::filesystem::create_directories(cli.trace_dir);
    write_file(std::filesystem::path(cli.trace_dir) / "layers.json", layers_json(doc));
    write_file(std::filesystem::path(cli.trace_dir) / "host_trace.json", host_trace);
  }
  const std::string json = obs::bench_json(doc);
  if (!cli.out.empty()) write_file(cli.out, json + "\n");
  std::cout << json << std::endl;
  return failed_calls(doc) > 0 ? 1 : 0;
}

int run_one(const Cli& cli, Workload w) {
  obs::init_from_env();
  const bool traced = !cli.trace_dir.empty();
  std::optional<HostTrace> trace;
  if (traced) trace.emplace();
  HostTrace* tp = trace ? &*trace : nullptr;
  RunOptions opt;
  opt.seed = cli.seed;
  opt.scale = cli.scale;
  opt.seconds = cli.seconds;
  opt.traced = traced;
  // Small runs are smoke tests; one set-up sample keeps them quick.
  opt.setup_reps = cli.scale < 0.1 && cli.seconds == 0.0 ? 1 : 5;
  const WorkloadResult r = run_workload(w, opt, tp);
  const double rss = peak_rss_mb();  // before the ladder's large buffers
  const NamedValues ladder = traced ? run_ladder(tp) : NamedValues{};
  obs::BenchDoc doc;
  doc.bench = "mpixccl_bench";
  add_points(doc, w, r, rss, ladder);
  std::cout << human_report(doc);
  const std::string host_trace =
      traced ? "[" + trace->to_json(std::string(to_string(w))) + "]\n" : "";
  return finish(cli, doc, host_trace);
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  return out + "'";
}

/// Re-execute this binary once per workload and merge the documents.
int run_all(const Cli& cli) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe").string();
  obs::BenchDoc merged;
  merged.bench = "mpixccl_bench";
  std::string host_trace = "[";
  int status = 0;
  for (Workload w : kAllWorkloads) {
    const std::string name(to_string(w));
    std::ostringstream cmd;
    cmd.precision(17);
    cmd << shell_quote(self) << " --workload " << name << " --seed " << cli.seed
        << " --scale " << cli.scale << " --seconds " << cli.seconds;
    const std::filesystem::path dir = std::filesystem::path(cli.trace_dir) / name;
    if (!cli.trace_dir.empty()) cmd << " --trace " << shell_quote(dir.string());
    std::fflush(stdout);
    FILE* child = popen(cmd.str().c_str(), "r");
    require(child != nullptr, "mpixccl_bench: cannot start " + name);
    std::string line;
    std::string last;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), child) != nullptr) {
      line += buf;
      if (line.back() != '\n') continue;
      if (!last.empty()) std::cout << last;
      last = line;
      line.clear();
    }
    const int rc = pclose(child);
    if (rc != 0) status = 1;
    try {
      const obs::BenchDoc doc = obs::parse_bench_json(last);
      merged.points.insert(merged.points.end(), doc.points.begin(), doc.points.end());
    } catch (const std::exception& e) {
      std::cerr << "mpixccl_bench: " << name << " printed no result: " << e.what()
                << "\n";
      status = 1;
      continue;
    }
    if (!cli.trace_dir.empty()) {
      // Each child wrote a one-element array; splice the element in.
      std::string part = read_file(dir / "host_trace.json");
      const auto open = part.find('[');
      const auto close = part.rfind(']');
      if (open != std::string::npos && close != std::string::npos && close > open) {
        host_trace += (host_trace.size() > 1 ? "," : "") +
                      part.substr(open + 1, close - open - 1);
      }
    }
  }
  const int rc = finish(cli, merged, host_trace + "]\n");
  return status != 0 ? status : rc;
}

int compare_main(int argc, char** argv) {
  if (argc != 4) return usage("compare takes two run lists");
  auto load = [](const std::string& list) {
    std::vector<obs::BenchDoc> docs;
    std::stringstream ss(list);
    std::string path;
    while (std::getline(ss, path, ',')) docs.push_back(obs::load_bench_json(path));
    return docs;
  };
  std::string report;
  const int rc = compare(load(argv[2]), load(argv[3]), report);
  std::cout << report;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::string(argv[1]) == "compare") return compare_main(argc, argv);
    std::string err;
    const std::optional<Cli> cli = parse(argc, argv, err);
    if (!cli) return usage(err);
    return cli->workload ? run_one(*cli, *cli->workload) : run_all(*cli);
  } catch (const std::exception& e) {
    std::cerr << "mpixccl_bench: " << e.what() << "\n";
    return 1;
  }
}
