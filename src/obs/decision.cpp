#include "obs/decision.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/fleet.hpp"

namespace mpixccl::obs {

namespace {

std::string human_bytes(std::size_t b) {
  char buf[32];
  if (b >= (1u << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMB", static_cast<double>(b) / (1u << 20));
  } else if (b >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", static_cast<double>(b) / 1024);
  } else {
    std::snprintf(buf, sizeof(buf), "%zuB", b);
  }
  return buf;
}

std::string breakpoint_text(std::size_t bp) {
  if (bp == 0) return "-";
  if (bp == SIZE_MAX) return "max";
  return std::to_string(bp);
}

}  // namespace

std::string to_line(const DispatchDecision& d) {
  std::ostringstream os;
  if (d.tune != TuneAudit::None) {
    // Audit record: [bytes, breakpoint] is the retuned range and
    // table_choice -> engine the before/after engines (see TuneAudit).
    os << '#' << d.seq << " tune." << to_string(d.tune) << ' '
       << to_string(d.op) << " [" << human_bytes(d.bytes) << ", "
       << breakpoint_text(d.breakpoint) << "] " << to_string(d.table_choice);
    if (d.table_choice != d.engine) os << "->" << to_string(d.engine);
    return os.str();
  }
  os << '#' << d.seq << " r" << d.rank << ' ' << to_string(d.op) << ' '
     << human_bytes(d.bytes) << " mode=" << to_string(d.mode)
     << " bp<=" << breakpoint_text(d.breakpoint) << ' '
     << to_string(d.table_choice);
  if (d.table_choice != d.engine || d.fell_back) {
    os << "->" << to_string(d.engine);
  }
  if (d.reason != FallbackReason::None) os << " [" << to_string(d.reason) << ']';
  if (d.composed) os << " composed";
  if (!d.level_path.empty()) os << " via " << d.level_path;
  return os.str();
}

DecisionLog& DecisionLog::instance() {
  static DecisionLog log;
  return log;
}

void DecisionLog::set_enabled(bool on) { fleet::set_decision_view(on); }
bool DecisionLog::enabled() const { return fleet::decision_view(); }
std::size_t DecisionLog::size() const { return records().size(); }
void DecisionLog::clear() { fleet::clear_journals(); }

std::uint64_t DecisionLog::push(DispatchDecision d) {
  if (!enabled()) return 0;
  return fleet::journal_append(d, /*log=*/true);
}

std::vector<DispatchDecision> DecisionLog::records() const {
  return fleet::decision_records().records;
}

std::uint64_t DecisionLog::total() const {
  return fleet::decision_records().total;
}

std::array<std::uint64_t, kFallbackReasonCount> DecisionLog::reason_counts()
    const {
  return fleet::decision_records().reasons;
}

std::string DecisionLog::why_report(std::size_t max_recent) const {
  const fleet::DecisionView v = fleet::decision_records();
  std::ostringstream os;
  os << "dispatch decisions: " << v.total << " total (" << v.records.size()
     << " retained)\n";
  os << "  by engine:";
  for (const core::Engine e :
       {core::Engine::Mpi, core::Engine::Xccl, core::Engine::Hier}) {
    os << ' ' << to_string(e) << '=' << v.engines[static_cast<std::size_t>(e)];
  }
  os << '\n';
  std::uint64_t fallbacks = 0;
  for (std::size_t i = 1; i < kFallbackReasonCount; ++i) {
    fallbacks += v.reasons[i];
  }
  os << "  fallbacks/redirects: " << fallbacks << '\n';
  for (std::size_t i = 1; i < kFallbackReasonCount; ++i) {
    if (v.reasons[i] == 0) continue;
    os << "    " << to_string(static_cast<FallbackReason>(i)) << ": "
       << v.reasons[i] << '\n';
  }
  const std::size_t n = std::min(max_recent, v.records.size());
  if (n > 0) {
    os << "  recent:\n";
    for (std::size_t i = v.records.size() - n; i < v.records.size(); ++i) {
      os << "    " << to_line(v.records[i]) << '\n';
    }
  }
  return os.str();
}

void DecisionLog::save_report(const std::string& path,
                              std::size_t max_recent) const {
  std::ofstream out(path);
  require(out.good(), "DecisionLog::save_report: cannot open " + path);
  out << why_report(max_recent);
  require(out.good(), "DecisionLog::save_report: write failed");
}

}  // namespace mpixccl::obs
