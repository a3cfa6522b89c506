#include "host_trace.hpp"

#include <map>
#include <sstream>

#include "common/format.hpp"

namespace mpixccl::e2e {

HostTrace::HostTrace(std::size_t capacity) : t0_(now_us()), capacity_(capacity) {
  spans_.reserve(capacity_);
}

std::uint32_t HostTrace::begin(const char* name, std::uint64_t call_id) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    open_.push_back(kNone);
    return kNone;
  }
  const auto id = static_cast<std::uint32_t>(spans_.size());
  std::uint32_t parent = kNone;
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (*it != kNone) {
      parent = *it;
      break;
    }
  }
  spans_.push_back(Span{name, parent, call_id, now_us() - t0_, -1.0});
  open_.push_back(id);
  return id;
}

void HostTrace::end(std::uint32_t id) {
  if (!open_.empty()) open_.pop_back();
  if (id != kNone) spans_[id].end_us = now_us() - t0_;
}

std::vector<HostTrace::Summary> HostTrace::summary() const {
  // Children of one parent run one after another on this thread, so the
  // time they cover is the sum of their durations.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNone && s.end_us >= 0.0) {
      child_us[s.parent] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, Summary> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0.0) continue;
    Summary& row = by_name[s.name];
    row.name = s.name;
    ++row.count;
    row.total_us += s.end_us - s.start_us;
    row.self_us += s.end_us - s.start_us - child_us[i];
  }
  std::vector<Summary> out;
  for (auto& [name, row] : by_name) out.push_back(std::move(row));
  return out;
}

std::string HostTrace::to_json(const std::string& workload) const {
  std::ostringstream os;
  os << "{\"workload\":\"" << fmt::json_escape(workload)
     << "\",\"dropped\":" << dropped_ << ",\"summary\":[";
  bool first = true;
  for (const Summary& row : summary()) {
    os << (first ? "" : ",") << "\n{\"name\":\"" << row.name
       << "\",\"count\":" << row.count
       << ",\"total_us\":" << fmt::json_double(row.total_us)
       << ",\"self_us\":" << fmt::json_double(row.self_us) << '}';
    first = false;
  }
  os << "],\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ',';
    os << "\n{\"name\":\"" << s.name << "\",\"id\":" << i << ",\"parent\":"
       << (s.parent == kNone ? -1 : static_cast<long long>(s.parent))
       << ",\"call\":" << s.call << ",\"start_us\":" << fmt::json_double(s.start_us)
       << ",\"end_us\":" << fmt::json_double(s.end_us) << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace mpixccl::e2e
