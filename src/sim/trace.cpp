#include "sim/trace.hpp"

#include <fstream>
#include <sstream>

#include "common/format.hpp"
#include "common/status.hpp"

namespace mpixccl::sim {

namespace {

constexpr std::array<SpanInfo, kSpanNameCount> kSpans = {{
    {"plan.build", "core.plan", false},
    {"train_step", "dl", false},
    {"alltoallv.group", "xccl.stage", true},
    {"gatherv.group", "xccl.stage", true},
    {"scatterv.group", "xccl.stage", true},
    {"allgatherv.group", "xccl.stage", true},
    {"hier.comm_setup", "hier.stage", true},
    {"allreduce.pipelined", "hier.stage", true},
    {"allreduce.rs", "hier.stage", true},
    {"allreduce.ar", "hier.stage", true},
    {"allreduce.ag", "hier.stage", true},
    {"allreduce.cico_reduce", "hier.stage", true},
    {"allreduce.cico_ar", "hier.stage", true},
    {"allreduce.cico_bcast", "hier.stage", true},
    {"allreduce.pipe", "hier.stage", true},
    {"bcast.leader", "hier.stage", true},
    {"bcast.scatter", "hier.stage", true},
    {"bcast", "hier.stage", true},
    {"bcast.ag", "hier.stage", true},
    {"reduce", "hier.stage", true},
    {"allgather", "hier.stage", true},
    {"rs", "hier.stage", true},
}};

}  // namespace

const SpanInfo& span_info(SpanName s) {
  return kSpans[static_cast<std::size_t>(s)];
}

std::uint16_t LevelTable::intern(std::string_view name) {
  std::lock_guard lock(mu_);
  const std::size_t n = count_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  if (n == kCapacity) {
    throw Error("trace: cannot intern hier level '" + std::string(name) +
                "': the level table already holds " +
                std::to_string(kCapacity) + " names");
  }
  names_[n] = name;
  count_.store(n + 1, std::memory_order_release);
  return static_cast<std::uint16_t>(n);
}

std::string_view LevelTable::name(std::uint16_t id) const {
  require(id < count_.load(std::memory_order_acquire),
          "trace: unknown level id " + std::to_string(id));
  return names_[id];
}

LevelTable& levels() {
  static LevelTable t;
  return t;
}

std::string TraceEvent::name() const {
  if (is_engine()) {
    const auto op = static_cast<core::CollOp>((span - kSpanNameCount) / 3);
    return std::string(core::to_string(op));
  }
  std::string out(span_info(static_cast<SpanName>(span)).name);
  if (level != kNoLevel) (out += '.') += levels().name(level);
  return out;
}

std::string_view TraceEvent::category() const {
  if (is_engine()) {
    const auto engine = static_cast<core::Engine>((span - kSpanNameCount) % 3);
    return core::to_string(engine);
  }
  return span_info(static_cast<SpanName>(span)).category;
}

Trace& Trace::instance() {
  static Trace t;
  return t;
}

void Trace::record(const TraceEvent& e) {
  if (!enabled() || e.rank < 0 || e.rank >= kMaxRanks) return;
  Ring& r = rings_[e.rank];
  std::lock_guard lock(r.mu);
  if (r.events.size() < kRankCapacity) {
    r.events.push_back(e);
  } else {
    r.events[r.head] = e;
    r.head = (r.head + 1) % kRankCapacity;
    ++r.dropped;
  }
}

std::uint64_t Trace::dropped() const {
  std::uint64_t n = 0;
  for (const Ring& r : rings_) {
    std::lock_guard lock(r.mu);
    n += r.dropped;
  }
  return n;
}

std::size_t Trace::size() const {
  std::size_t n = 0;
  for (const Ring& r : rings_) {
    std::lock_guard lock(r.mu);
    n += r.events.size();
  }
  return n;
}

void Trace::clear() {
  for (Ring& r : rings_) {
    std::lock_guard lock(r.mu);
    r.events.clear();
    r.head = 0;
    r.dropped = 0;
  }
}

std::vector<TraceEvent> Trace::events() const {
  std::vector<TraceEvent> out;
  for (const Ring& r : rings_) {
    std::lock_guard lock(r.mu);
    const std::size_t n = r.events.size();
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(r.events[(r.head + i) % n]);
    }
  }
  return out;
}

std::string Trace::to_chrome_json() const {
  const std::vector<TraceEvent> all = events();
  const std::uint64_t evicted = dropped();
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"retainedEvents\":"
     << all.size() << ",\"droppedEvents\":" << evicted
     << ",\"totalEvents\":" << all.size() + evicted << "},\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : all) {
    if (!first) os << ',';
    first = false;
    // Level names are outside input (fmt::json_escape guards the document);
    // ts/dur need full round-trip precision or spans past ~1 s of virtual
    // time collapse onto each other at %.6g.
    os << "{\"name\":\"" << fmt::json_escape(e.name()) << "\",\"cat\":\""
       << e.category() << "\",\"ph\":\"X\",\"ts\":"
       << fmt::json_double(e.begin_us)
       << ",\"dur\":" << fmt::json_double(e.end_us - e.begin_us)
       << ",\"pid\":0,\"tid\":" << e.rank << '}';
  }
  os << "]}";
  return os.str();
}

void Trace::save_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  require(out.good(), "Trace::save_chrome_json: cannot open " + path);
  out << to_chrome_json() << '\n';
  require(out.good(), "Trace::save_chrome_json: write failed");
}

}  // namespace mpixccl::sim
