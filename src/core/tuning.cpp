#include "core/tuning.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/status.hpp"

namespace mpixccl::core {

namespace {

CollOp coll_from_string(const std::string& s) {
  for (CollOp op : kAllCollOps) {
    if (to_string(op) == s) return op;
  }
  throw Error("TuningTable: unknown collective '" + s + "'");
}

Engine engine_from_string(const std::string& s) {
  if (s == "mpi") return Engine::Mpi;
  if (s == "xccl") return Engine::Xccl;
  if (s == "hier") return Engine::Hier;
  throw Error("TuningTable: unknown engine '" + s + "'");
}

/// Strict breakpoint parse: every character must be a digit and the value
/// must fit std::size_t. std::stoull would accept "12xy" (silently dropping
/// the tail) and throw std:: exceptions on garbage; tables come from files,
/// so malformed input must surface as a clear Error instead.
std::size_t breakpoint_from_string(const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    throw Error("TuningTable: malformed breakpoint '" + s +
                "' (expected a byte count or 'max')");
  }
  try {
    return std::stoull(s);
  } catch (const std::out_of_range&) {
    throw Error("TuningTable: breakpoint out of range '" + s + "'");
  }
}

}  // namespace

TuningTable TuningTable::uniform(Engine engine) {
  TuningTable t;
  for (CollOp op : kAllCollOps) {
    t.set_rules(op, {{SIZE_MAX, engine}});
  }
  return t;
}

TuningTable TuningTable::default_for(const sim::SystemProfile& profile) {
  // Crossover heuristic per the paper's Fig. 1: the CCL becomes worthwhile
  // once its bandwidth advantage amortizes the launch-overhead gap. The
  // observed thresholds: ~16 KB for Allreduce on NVIDIA, ~64 KB for
  // Allgather on AMD; Habana's 270 us launch pushes crossovers higher.
  std::size_t base = 16384;
  if (profile.vendor == Vendor::Amd) base = 32768;
  if (profile.vendor == Vendor::Habana) base = 131072;

  TuningTable t;
  t.set_rules(CollOp::Allreduce, {{base, Engine::Mpi}, {SIZE_MAX, Engine::Xccl}});
  t.set_rules(CollOp::Bcast, {{base / 2, Engine::Mpi}, {SIZE_MAX, Engine::Xccl}});
  t.set_rules(CollOp::Reduce, {{base / 2, Engine::Mpi}, {SIZE_MAX, Engine::Xccl}});
  t.set_rules(CollOp::Allgather, {{base * 2, Engine::Mpi}, {SIZE_MAX, Engine::Xccl}});
  t.set_rules(CollOp::Allgatherv,
              {{base * 2, Engine::Mpi}, {SIZE_MAX, Engine::Xccl}});
  t.set_rules(CollOp::ReduceScatter,
              {{base, Engine::Mpi}, {SIZE_MAX, Engine::Xccl}});
  t.set_rules(CollOp::Alltoall, {{base / 4, Engine::Mpi}, {SIZE_MAX, Engine::Xccl}});
  t.set_rules(CollOp::Alltoallv,
              {{base / 4, Engine::Mpi}, {SIZE_MAX, Engine::Xccl}});
  // Rooted v-collectives and scan have no CCL builtin and compose from
  // many p2p ops; MPI's trees win until messages are large.
  t.set_rules(CollOp::Gather, {{base * 4, Engine::Mpi}, {SIZE_MAX, Engine::Xccl}});
  t.set_rules(CollOp::Scatter, {{base * 4, Engine::Mpi}, {SIZE_MAX, Engine::Xccl}});
  t.set_rules(CollOp::Scan, {{SIZE_MAX, Engine::Mpi}});
  return t;
}

Engine TuningTable::select(CollOp op, std::size_t bytes) const {
  return select_entry(op, bytes).engine;
}

TuningTable::Entry TuningTable::select_entry(CollOp op, std::size_t bytes) const {
  auto it = rules_.find(op);
  if (it != rules_.end()) {
    for (const Entry& e : it->second) {
      if (bytes <= e.max_bytes) return e;
    }
  }
  return Entry{SIZE_MAX, Engine::Xccl};
}

void TuningTable::set_rules(CollOp op, std::vector<Entry> entries) {
  require(!entries.empty(), "TuningTable::set_rules: empty rule list for " +
                                std::string(to_string(op)));
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.max_bytes < b.max_bytes;
                   });
  // Duplicate breakpoints must be rejected before the SIZE_MAX extension
  // hides them: with two rules at one max_bytes the earlier would silently
  // shadow the later for every message, which is never what a table meant.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].max_bytes == entries[i - 1].max_bytes) {
      const std::size_t bp = entries[i].max_bytes;
      throw Error("TuningTable: duplicate breakpoint " +
                  (bp == SIZE_MAX ? std::string("max") : std::to_string(bp)) +
                  " for " + std::string(to_string(op)) + " (" +
                  std::string(to_string(entries[i - 1].engine)) + " vs " +
                  std::string(to_string(entries[i].engine)) +
                  "): overlapping rules would shadow each other");
    }
  }
  entries.back().max_bytes = SIZE_MAX;
  rules_[op] = std::move(entries);
}

void TuningTable::set_range(CollOp op, std::size_t lo, std::size_t hi,
                            Engine engine) {
  require(lo <= hi, "TuningTable::set_range: lo > hi");
  struct Interval {
    std::size_t lo, hi;
    Engine engine;
  };
  std::vector<Entry>& rules = rules_[op];
  if (rules.empty()) rules.push_back(Entry{SIZE_MAX, Engine::Xccl});
  std::vector<Interval> out;
  std::size_t start = 0;
  for (const Entry& e : rules) {
    const Interval iv{start, e.max_bytes, e.engine};
    start = e.max_bytes + 1;  // wraps after the SIZE_MAX tail; never read
    if (iv.hi < lo || iv.lo > hi) {
      out.push_back(iv);
      continue;
    }
    if (iv.lo < lo) out.push_back({iv.lo, lo - 1, iv.engine});
    if (iv.hi > hi) out.push_back({hi + 1, iv.hi, iv.engine});
  }
  out.push_back({lo, hi, engine});
  std::sort(out.begin(), out.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  rules.clear();
  for (const Interval& iv : out) {
    if (!rules.empty() && rules.back().engine == iv.engine) {
      rules.back().max_bytes = iv.hi;  // merge with the previous interval
    } else {
      rules.push_back(Entry{iv.hi, iv.engine});
    }
  }
}

const std::vector<TuningTable::Entry>* TuningTable::rules(CollOp op) const {
  auto it = rules_.find(op);
  return it == rules_.end() ? nullptr : &it->second;
}

std::string TuningTable::serialize() const {
  std::ostringstream os;
  bool first_op = true;
  for (const auto& [op, entries] : rules_) {
    if (!first_op) os << ';';
    first_op = false;
    os << to_string(op) << ':';
    bool first = true;
    for (const Entry& e : entries) {
      if (!first) os << ',';
      first = false;
      if (e.max_bytes == SIZE_MAX) {
        os << "max";
      } else {
        os << e.max_bytes;
      }
      os << '=' << to_string(e.engine);
    }
  }
  return os.str();
}

void TuningTable::save_file(const std::string& path) const {
  std::ofstream out(path);
  require(out.good(), "TuningTable::save_file: cannot open " + path);
  out << "# mpixccl tuning table\n" << serialize() << "\n";
  require(out.good(), "TuningTable::save_file: write failed for " + path);
}

TuningTable TuningTable::load_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "TuningTable::load_file: cannot open " + path);
  std::string text;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    text += line;
  }
  return deserialize(text);
}

TuningTable TuningTable::deserialize(const std::string& text) {
  TuningTable t;
  std::istringstream os(text);
  std::string section;
  while (std::getline(os, section, ';')) {
    if (section.empty()) continue;
    const auto colon = section.find(':');
    require(colon != std::string::npos, "TuningTable: missing ':' in " + section);
    const CollOp op = coll_from_string(section.substr(0, colon));
    // A repeated section would silently overwrite the earlier rules — in a
    // hand-edited table that is a merge mistake, not an intent.
    require(t.rules(op) == nullptr,
            "TuningTable: duplicate section for '" +
                std::string(to_string(op)) + "'");
    std::vector<Entry> entries;
    std::istringstream rules(section.substr(colon + 1));
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      const auto eq = rule.find('=');
      require(eq != std::string::npos, "TuningTable: missing '=' in " + rule);
      const std::string size_text = rule.substr(0, eq);
      const std::size_t max_bytes =
          (size_text == "max") ? SIZE_MAX : breakpoint_from_string(size_text);
      entries.push_back(Entry{max_bytes, engine_from_string(rule.substr(eq + 1))});
    }
    t.set_rules(op, std::move(entries));
  }
  return t;
}

}  // namespace mpixccl::core
