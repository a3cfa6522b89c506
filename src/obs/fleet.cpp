#include "obs/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/format.hpp"
#include "common/log.hpp"
#include "common/status.hpp"
#include "obs/obs.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"

namespace mpixccl::obs::fleet {

namespace {

using fmt::json_escape;

using fmt::num;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Activation word ---------------------------------------------------------

// One bit per source; the journal records while any is set.
constexpr std::uint32_t kDecisionBit = 1;  // decision view (DecisionLog)
constexpr std::uint32_t kProfileBit = 2;   // skew profiling + level times
constexpr std::uint32_t kWatchdogBit = 4;  // running watchdog
constexpr std::uint32_t kHeartbeatBits = kProfileBit | kWatchdogBit;

std::atomic<std::uint32_t> g_sources{0};

bool source_on(std::uint32_t bit) {
  return (g_sources.load(std::memory_order_relaxed) & bit) != 0;
}

void set_source(std::uint32_t bit, bool on) {
  if (on) {
    g_sources.fetch_or(bit, std::memory_order_relaxed);
  } else {
    g_sources.fetch_and(~bit, std::memory_order_relaxed);
  }
}

// ---- Per-rank heartbeat slots (fixed, lock-free) ----------------------------

struct alignas(64) Slot {
  std::atomic<std::uint64_t> enter_seq{0};
  std::atomic<std::uint64_t> done_seq{0};
  std::atomic<std::int64_t> beat_ns{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> plan{0};
  std::atomic<std::uint8_t> op{0};
  std::atomic<std::uint8_t> engine{0};
  std::atomic<std::uint8_t> in_flight{0};
};

Slot& slot(int rank) {
  static Slot slots[kMaxRanks];
  return slots[rank];
}

bool rank_ok(int rank) { return rank >= 0 && rank < kMaxRanks; }

// ---- Per-rank block: call journal + level times (one lock) ------------------

struct RankData {
  std::mutex mu;
  std::vector<DispatchDecision> journal;  ///< circular once full
  std::size_t head = 0;                   ///< oldest record once wrapped
  /// Decision-view dispatch tallies, kept past the ring's overwrites.
  std::array<std::uint64_t, kFallbackReasonCount> reasons{};
  std::array<std::uint64_t, 3> engines{};
  /// All-time (stage us, stage count) per level id, grown on first use.
  std::vector<std::pair<double, std::uint64_t>> levels;

  /// Journal records passing `keep`, oldest first (holding mu).
  template <typename Keep>
  [[nodiscard]] std::vector<DispatchDecision> records(Keep keep) const {
    std::vector<DispatchDecision> out;
    for (std::size_t i = 0; i < journal.size(); ++i) {
      const DispatchDecision& d = journal[(head + i) % journal.size()];
      if (keep(d)) out.push_back(d);
    }
    return out;
  }
};

// Namespace scope, so it is built before main and outlives the atexit export
// flush that reads the decision view.
RankData g_ranks[kMaxRanks];

/// Decision-view seq numbers, process-wide.
std::atomic<std::uint64_t> g_seq{0};

core::CollOp op_from_u8(std::uint8_t v) {
  require(v < std::size(core::kAllCollOps), "fleet: bad CollOp in blob");
  return static_cast<core::CollOp>(v);
}

core::Engine engine_from_u8(std::uint8_t v) {
  require(v <= 2, "fleet: bad Engine in blob");
  return static_cast<core::Engine>(v);
}

}  // namespace

bool profiling_enabled() { return source_on(kProfileBit); }
void set_profiling(bool on) { set_source(kProfileBit, on); }
bool decision_view() { return source_on(kDecisionBit); }
void set_decision_view(bool on) { set_source(kDecisionBit, on); }

void reset() {
  for (int r = 0; r < kMaxRanks; ++r) {
    Slot& s = slot(r);
    s.enter_seq.store(0, std::memory_order_relaxed);
    s.done_seq.store(0, std::memory_order_relaxed);
    s.beat_ns.store(0, std::memory_order_relaxed);
    s.bytes.store(0, std::memory_order_relaxed);
    s.plan.store(0, std::memory_order_relaxed);
    s.op.store(0, std::memory_order_relaxed);
    s.engine.store(0, std::memory_order_relaxed);
    s.in_flight.store(0, std::memory_order_relaxed);
    std::lock_guard lock(g_ranks[r].mu);
    g_ranks[r].levels.clear();
  }
  clear_journals();
}

std::uint64_t journal_append(DispatchDecision& d, bool log) {
  const std::uint32_t sources = g_sources.load(std::memory_order_relaxed);
  if (sources == 0 || !rank_ok(d.rank)) return d.seq;
  RankData& rd = g_ranks[d.rank];
  std::lock_guard lock(rd.mu);
  if (log && (sources & kDecisionBit) != 0) {
    // Taken under the rank lock so each journal stays in seq order.
    d.seq = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
    if (d.tune == TuneAudit::None) {
      ++rd.reasons[static_cast<std::size_t>(d.reason)];
      ++rd.engines[static_cast<std::size_t>(d.engine)];
    }
  }
  // Grown on the rank's first records: most of the kMaxRanks blocks never
  // hold any.
  if (rd.journal.size() < kJournalCapacity) {
    rd.journal.push_back(d);
  } else {
    rd.journal[rd.head] = d;
    rd.head = (rd.head + 1) % kJournalCapacity;
  }
  return d.seq;
}

DecisionView decision_records() {
  DecisionView v;
  v.total = g_seq.load(std::memory_order_relaxed);
  for (RankData& rd : g_ranks) {
    std::lock_guard lock(rd.mu);
    for (std::size_t i = 0; i < kFallbackReasonCount; ++i) {
      v.reasons[i] += rd.reasons[i];
    }
    for (std::size_t i = 0; i < v.engines.size(); ++i) {
      v.engines[i] += rd.engines[i];
    }
    for (const DispatchDecision& d : rd.journal) {
      if (d.seq != 0) v.records.push_back(d);
    }
  }
  std::sort(v.records.begin(), v.records.end(),
            [](const DispatchDecision& a, const DispatchDecision& b) {
              return a.seq < b.seq;
            });
  return v;
}

void clear_journals() {
  for (RankData& rd : g_ranks) {
    std::lock_guard lock(rd.mu);
    rd.journal.clear();
    rd.head = 0;
    rd.reasons = {};
    rd.engines = {};
  }
  g_seq.store(0, std::memory_order_relaxed);
}

std::uint64_t dispatch_enter(int rank, core::CollOp op) {
  if (!rank_ok(rank)) return 0;
  Slot& s = slot(rank);
  const std::uint64_t seq = s.enter_seq.load(std::memory_order_relaxed) + 1;
  // Injected stall runs before the seq bump and the beat: the stalled rank
  // looks exactly like a rank that never arrived at collective #seq, which
  // is the situation the watchdog must attribute.
  auto& faults = sim::FaultInjector::instance();
  if (faults.active()) faults.maybe_stall(rank, seq);
  s.enter_seq.store(seq, std::memory_order_relaxed);
  if (source_on(kHeartbeatBits)) {
    s.op.store(static_cast<std::uint8_t>(op), std::memory_order_relaxed);
    s.in_flight.store(1, std::memory_order_relaxed);
    s.beat_ns.store(steady_ns(), std::memory_order_relaxed);
  }
  return seq;
}

void dispatch_exit(DispatchDecision& d, bool log) {
  if (!rank_ok(d.rank) || d.call_seq == 0) return;
  Slot& s = slot(d.rank);
  s.done_seq.store(d.call_seq, std::memory_order_relaxed);
  const std::uint32_t sources = g_sources.load(std::memory_order_relaxed);
  if (sources == 0) return;
  if ((sources & kHeartbeatBits) != 0) {
    s.op.store(static_cast<std::uint8_t>(d.op), std::memory_order_relaxed);
    s.engine.store(static_cast<std::uint8_t>(d.engine),
                   std::memory_order_relaxed);
    s.bytes.store(d.bytes, std::memory_order_relaxed);
    s.in_flight.store(0, std::memory_order_relaxed);
    s.beat_ns.store(steady_ns(), std::memory_order_relaxed);
  }
  journal_append(d, log);
}

void dispatch_abort(int rank) {
  if (!rank_ok(rank)) return;
  Slot& s = slot(rank);
  s.in_flight.store(0, std::memory_order_relaxed);
  s.beat_ns.store(steady_ns(), std::memory_order_relaxed);
}

void note_plan(int rank, std::uint64_t plan_id) {
  if (!rank_ok(rank)) return;
  if (!source_on(kHeartbeatBits)) return;
  slot(rank).plan.store(plan_id, std::memory_order_relaxed);
}

void app_beat(int rank) {
  if (!rank_ok(rank)) return;
  if (!source_on(kHeartbeatBits)) return;
  slot(rank).beat_ns.store(steady_ns(), std::memory_order_relaxed);
}

void add_level_time(int rank, std::uint16_t level, double us) {
  if (!rank_ok(rank)) return;
  RankData& d = g_ranks[rank];
  std::lock_guard lock(d.mu);
  if (d.levels.size() <= level) d.levels.resize(level + std::size_t{1});
  auto& [sum_us, calls] = d.levels[level];
  sum_us += us;
  ++calls;
}

// ---- Rank-local capture -----------------------------------------------------

RankState local_rank_state(int rank) {
  RankState st;
  st.rank = rank;
  if (!rank_ok(rank)) return st;
  Slot& s = slot(rank);
  st.heartbeat.enter_seq = s.enter_seq.load(std::memory_order_relaxed);
  st.heartbeat.done_seq = s.done_seq.load(std::memory_order_relaxed);
  st.heartbeat.in_flight =
      s.in_flight.load(std::memory_order_relaxed) != 0;
  st.heartbeat.op = op_from_u8(s.op.load(std::memory_order_relaxed));
  st.heartbeat.engine = engine_from_u8(s.engine.load(std::memory_order_relaxed));
  st.heartbeat.bytes = s.bytes.load(std::memory_order_relaxed);
  st.heartbeat.plan_id = s.plan.load(std::memory_order_relaxed);
  const std::int64_t beat = s.beat_ns.load(std::memory_order_relaxed);
  st.heartbeat.age_ms =
      beat == 0 ? 0.0 : static_cast<double>(steady_ns() - beat) / 1e6;
  {
    RankData& d = g_ranks[rank];
    std::lock_guard lock(d.mu);
    st.calls =
        d.records([](const DispatchDecision& c) { return c.call_seq != 0; });
    for (std::size_t id = 0; id < d.levels.size(); ++id) {
      const auto& [us, calls] = d.levels[id];
      if (calls == 0) continue;
      st.levels.push_back(
          {std::string(sim::levels().name(static_cast<std::uint16_t>(id))), us,
           calls});
    }
  }
  std::ranges::sort(st.levels, {}, &LevelTime::level);
  return st;
}

// ---- Wire format ------------------------------------------------------------

namespace {

constexpr std::uint32_t kMagic = 0x464C5432;  // "FLT2"

template <typename T>
void put(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

void put_str(std::string& out, std::string_view s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

struct Reader {
  std::string_view data;
  std::size_t pos = 0;

  template <typename T>
  T get() {
    require(pos + sizeof(T) <= data.size(), "fleet: truncated blob");
    T v;
    std::memcpy(&v, data.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }

  std::string get_str() {
    const auto n = get<std::uint32_t>();
    require(pos + n <= data.size(), "fleet: truncated blob string");
    std::string s(data.substr(pos, n));
    pos += n;
    return s;
  }
};

}  // namespace

std::string serialize(const RankState& st) {
  std::string out;
  put<std::uint32_t>(out, kMagic);
  put<std::int32_t>(out, st.rank);
  const HeartbeatView& hb = st.heartbeat;
  put<std::uint64_t>(out, hb.enter_seq);
  put<std::uint64_t>(out, hb.done_seq);
  put<std::uint8_t>(out, hb.in_flight ? 1 : 0);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(hb.op));
  put<std::uint8_t>(out, static_cast<std::uint8_t>(hb.engine));
  put<std::uint64_t>(out, hb.bytes);
  put<std::uint64_t>(out, hb.plan_id);
  put<double>(out, hb.age_ms);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(st.levels.size()));
  for (const LevelTime& lt : st.levels) {
    put_str(out, lt.level);
    put<double>(out, lt.us);
    put<std::uint64_t>(out, lt.calls);
  }
  put<std::uint32_t>(out, static_cast<std::uint32_t>(st.calls.size()));
  for (const DispatchDecision& d : st.calls) {
    put<std::uint64_t>(out, d.seq);
    put<std::uint64_t>(out, d.call_seq);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(d.op));
    put<std::uint64_t>(out, d.bytes);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(d.mode));
    put<std::uint64_t>(out, d.breakpoint);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(d.table_choice));
    put<std::uint8_t>(out, static_cast<std::uint8_t>(d.engine));
    put<std::uint8_t>(out, static_cast<std::uint8_t>(d.reason));
    put<std::uint8_t>(out, d.fell_back ? 1 : 0);
    put<std::uint8_t>(out, d.composed ? 1 : 0);
    put_str(out, d.level_path);
    put<double>(out, d.time_us);
    put<double>(out, d.enter_us);
    put<double>(out, d.done_us);
    put<std::uint64_t>(out, d.plan_id);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(d.tune));
  }
  return out;
}

RankState deserialize(std::string_view blob) {
  Reader r{blob};
  require(r.get<std::uint32_t>() == kMagic, "fleet: bad blob magic");
  RankState st;
  st.rank = r.get<std::int32_t>();
  st.heartbeat.enter_seq = r.get<std::uint64_t>();
  st.heartbeat.done_seq = r.get<std::uint64_t>();
  st.heartbeat.in_flight = r.get<std::uint8_t>() != 0;
  st.heartbeat.op = op_from_u8(r.get<std::uint8_t>());
  st.heartbeat.engine = engine_from_u8(r.get<std::uint8_t>());
  st.heartbeat.bytes = r.get<std::uint64_t>();
  st.heartbeat.plan_id = r.get<std::uint64_t>();
  st.heartbeat.age_ms = r.get<double>();
  const auto n_levels = r.get<std::uint32_t>();
  st.levels.reserve(n_levels);
  for (std::uint32_t i = 0; i < n_levels; ++i) {
    LevelTime lt;
    lt.level = r.get_str();
    lt.us = r.get<double>();
    lt.calls = r.get<std::uint64_t>();
    st.levels.push_back(std::move(lt));
  }
  const auto n_calls = r.get<std::uint32_t>();
  st.calls.reserve(n_calls);
  for (std::uint32_t i = 0; i < n_calls; ++i) {
    DispatchDecision d;
    d.seq = r.get<std::uint64_t>();
    d.call_seq = r.get<std::uint64_t>();
    d.rank = st.rank;
    d.op = op_from_u8(r.get<std::uint8_t>());
    d.bytes = r.get<std::uint64_t>();
    d.mode = static_cast<core::Mode>(r.get<std::uint8_t>());
    d.breakpoint = r.get<std::uint64_t>();
    d.table_choice = engine_from_u8(r.get<std::uint8_t>());
    d.engine = engine_from_u8(r.get<std::uint8_t>());
    d.reason = static_cast<FallbackReason>(r.get<std::uint8_t>());
    d.fell_back = r.get<std::uint8_t>() != 0;
    d.composed = r.get<std::uint8_t>() != 0;
    d.level_path = r.get_str();
    d.time_us = r.get<double>();
    d.enter_us = r.get<double>();
    d.done_us = r.get<double>();
    d.plan_id = r.get<std::uint64_t>();
    d.tune = static_cast<TuneAudit>(r.get<std::uint8_t>());
    st.calls.push_back(std::move(d));
  }
  require(r.pos == blob.size(), "fleet: trailing bytes in blob");
  return st;
}

// ---- Fleet-wide reduction ---------------------------------------------------

FleetSnapshot assemble(std::vector<RankState> ranks, std::string profile,
                       std::string topology) {
  FleetSnapshot snap;
  snap.profile = std::move(profile);
  snap.topology = std::move(topology);
  std::sort(ranks.begin(), ranks.end(),
            [](const RankState& a, const RankState& b) {
              return a.rank < b.rank;
            });
  snap.world_size = static_cast<int>(ranks.size());

  // Rank-merged dispatch-latency distribution (the histogram-merge path).
  for (const RankState& st : ranks) {
    Histogram h;
    for (const DispatchDecision& d : st.calls) h.observe(d.elapsed_us());
    snap.fleet_latency_us =
        merge_histograms(snap.fleet_latency_us, h.snapshot());
  }

  // Join rounds by per-rank dispatch seq: uniform collectives are issued in
  // the same order on every rank, so call_seq k is round k. Only rounds
  // present on every rank with a matching (op, band) count.
  struct CellAcc {
    Histogram skew;
    double sum_skew = 0.0;
    double sum_dur = 0.0;
    std::uint64_t rounds = 0;
    std::map<int, std::uint64_t> last_counts;
  };
  std::map<std::pair<std::uint8_t, std::uint8_t>, CellAcc> cells;
  std::map<int, double> lateness;
  std::map<int, std::uint64_t> times_last;

  if (ranks.size() >= 2) {
    std::vector<std::unordered_map<std::uint64_t, const DispatchDecision*>>
        by_seq;
    by_seq.reserve(ranks.size());
    for (const RankState& st : ranks) {
      auto& m = by_seq.emplace_back();
      for (const DispatchDecision& d : st.calls) m.emplace(d.call_seq, &d);
    }
    for (const DispatchDecision& d0 : ranks.front().calls) {
      const std::size_t band = size_band_of(d0.bytes);
      std::vector<const DispatchDecision*> round{&d0};
      bool full = true;
      for (std::size_t r = 1; r < ranks.size(); ++r) {
        const auto it = by_seq[r].find(d0.call_seq);
        if (it == by_seq[r].end() || it->second->op != d0.op ||
            size_band_of(it->second->bytes) != band) {
          full = false;
          break;
        }
        round.push_back(it->second);
      }
      if (!full) continue;
      double min_enter = round.front()->enter_us;
      double max_enter = round.front()->enter_us;
      double sum_dur = 0.0;
      std::size_t last_idx = 0;
      for (std::size_t r = 0; r < round.size(); ++r) {
        const DispatchDecision& d = *round[r];
        min_enter = std::min(min_enter, d.enter_us);
        if (d.enter_us > max_enter) {
          max_enter = d.enter_us;
          last_idx = r;
        }
        sum_dur += d.elapsed_us();
      }
      const double skew = max_enter - min_enter;
      const int last_rank = ranks[last_idx].rank;
      CellAcc& cell = cells[{static_cast<std::uint8_t>(d0.op),
                             static_cast<std::uint8_t>(band)}];
      cell.skew.observe(skew);
      cell.sum_skew += skew;
      cell.sum_dur += sum_dur / static_cast<double>(round.size());
      ++cell.rounds;
      // Sub-nanosecond spread is float noise from the virtual clocks, not a
      // straggler; charging it would put every healthy fleet's rank 0 on
      // the board with a 100% share of nothing.
      constexpr double kNoiseFloorUs = 1e-3;
      if (skew > kNoiseFloorUs) {
        ++cell.last_counts[last_rank];
        ++times_last[last_rank];
        for (std::size_t r = 0; r < round.size(); ++r) {
          const double late = round[r]->enter_us - min_enter;
          if (late > kNoiseFloorUs) lateness[ranks[r].rank] += late;
        }
      }
    }
  }

  for (const auto& [key, acc] : cells) {
    SkewCell cell;
    cell.op = op_from_u8(key.first);
    cell.band = key.second;
    cell.rounds = acc.rounds;
    cell.skew_us = acc.skew.snapshot();
    cell.mean_skew_us =
        acc.rounds == 0 ? 0.0 : acc.sum_skew / static_cast<double>(acc.rounds);
    cell.mean_duration_us =
        acc.rounds == 0 ? 0.0 : acc.sum_dur / static_cast<double>(acc.rounds);
    cell.imbalance = cell.mean_duration_us > 0.0
                         ? cell.mean_skew_us / cell.mean_duration_us
                         : 0.0;
    for (const auto& [rank, n] : acc.last_counts) {
      if (n > cell.worst_count) {
        cell.worst_count = n;
        cell.worst_rank = rank;
      }
    }
    snap.skew.push_back(std::move(cell));
  }

  // Hier levels: a slow rank inflates its peers' stage time at the levels
  // that wait on it, so rank the levels by cross-rank spread.
  std::map<std::string, std::vector<std::pair<int, double>>> level_us;
  for (const RankState& st : ranks) {
    for (const LevelTime& lt : st.levels) {
      level_us[lt.level].emplace_back(st.rank, lt.us);
    }
  }
  for (const auto& [level, per_rank] : level_us) {
    LevelRow row;
    row.level = level;
    double sum = 0.0;
    double mn = per_rank.front().second;
    double mx = per_rank.front().second;
    for (const auto& [rank, us] : per_rank) {
      sum += us;
      mn = std::min(mn, us);
      if (us >= mx) {
        mx = us;
        row.max_rank = rank;
      }
    }
    row.mean_us = sum / static_cast<double>(per_rank.size());
    row.spread_us = per_rank.size() >= 2 ? mx - mn : 0.0;
    snap.levels.push_back(std::move(row));
  }
  std::sort(snap.levels.begin(), snap.levels.end(),
            [](const LevelRow& a, const LevelRow& b) {
              return a.spread_us > b.spread_us;
            });

  double total_lateness = 0.0;
  for (const auto& [rank, us] : lateness) total_lateness += us;
  for (const auto& [rank, us] : lateness) {
    if (us <= 0.0 && times_last[rank] == 0) continue;
    StragglerRow row;
    row.rank = rank;
    row.times_last = times_last[rank];
    row.lateness_us = us;
    row.share = total_lateness > 0.0 ? us / total_lateness : 0.0;
    if (!snap.levels.empty() && snap.levels.front().spread_us > 0.0) {
      row.level = snap.levels.front().level;
      row.level_spread_us = snap.levels.front().spread_us;
    }
    snap.stragglers.push_back(std::move(row));
  }
  std::sort(snap.stragglers.begin(), snap.stragglers.end(),
            [](const StragglerRow& a, const StragglerRow& b) {
              return a.lateness_us > b.lateness_us;
            });

  snap.ranks = std::move(ranks);
  return snap;
}

std::string FleetSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"mpixccl.fleet.v1\",\"meta\":{\"world_size\":"
     << world_size << ",\"profile\":\"" << json_escape(profile)
     << "\",\"topology\":\"" << json_escape(topology) << "\"},\"ranks\":[";
  bool first = true;
  for (const RankState& st : ranks) {
    if (!first) os << ',';
    first = false;
    const HeartbeatView& hb = st.heartbeat;
    os << "{\"rank\":" << st.rank << ",\"dispatches\":" << hb.done_seq
       << ",\"heartbeat\":{\"enter_seq\":" << hb.enter_seq
       << ",\"done_seq\":" << hb.done_seq << ",\"in_flight\":"
       << (hb.in_flight ? "true" : "false") << ",\"op\":\""
       << to_string(hb.op) << "\",\"engine\":\"" << to_string(hb.engine)
       << "\",\"bytes\":" << hb.bytes << ",\"plan\":" << hb.plan_id
       << ",\"age_ms\":" << num(hb.age_ms) << '}';
    Histogram lat;
    for (const DispatchDecision& d : st.calls) lat.observe(d.elapsed_us());
    os << ",\"latency_us\":" << hist_to_json(lat.snapshot());
    os << ",\"levels\":[";
    bool fl = true;
    for (const LevelTime& lt : st.levels) {
      if (!fl) os << ',';
      fl = false;
      os << "{\"level\":\"" << json_escape(lt.level) << "\",\"us\":"
         << num(lt.us) << ",\"calls\":" << lt.calls << '}';
    }
    os << "],\"decision_tail\":[";
    constexpr std::size_t kTail = 16;
    const std::size_t tail = st.calls.size() > kTail ? st.calls.size() - kTail : 0;
    for (std::size_t i = tail; i < st.calls.size(); ++i) {
      const DispatchDecision& d = st.calls[i];
      if (i != tail) os << ',';
      os << "{\"seq\":" << d.seq << ",\"op\":\"" << to_string(d.op)
         << "\",\"bytes\":" << d.bytes << ",\"engine\":\""
         << to_string(d.engine) << "\",\"reason\":\"" << to_string(d.reason)
         << "\",\"fell_back\":" << (d.fell_back ? "true" : "false")
         << ",\"level_path\":\"" << json_escape(d.level_path)
         << "\",\"time_us\":" << num(d.time_us) << '}';
    }
    os << "]}";
  }
  os << "],\"latency_us\":" << hist_to_json(fleet_latency_us) << ",\"skew\":[";
  first = true;
  for (const SkewCell& c : skew) {
    if (!first) os << ',';
    first = false;
    os << "{\"op\":\"" << to_string(c.op) << "\",\"band\":\""
       << size_band_name(c.band) << "\",\"rounds\":" << c.rounds
       << ",\"mean_skew_us\":" << num(c.mean_skew_us)
       << ",\"mean_duration_us\":" << num(c.mean_duration_us)
       << ",\"imbalance\":" << num(c.imbalance)
       << ",\"worst_rank\":" << c.worst_rank
       << ",\"worst_count\":" << c.worst_count
       << ",\"skew_us\":" << hist_to_json(c.skew_us) << '}';
  }
  os << "],\"levels\":[";
  first = true;
  for (const LevelRow& l : levels) {
    if (!first) os << ',';
    first = false;
    os << "{\"level\":\"" << json_escape(l.level) << "\",\"mean_us\":"
       << num(l.mean_us) << ",\"spread_us\":" << num(l.spread_us)
       << ",\"max_rank\":" << l.max_rank << '}';
  }
  os << "],\"stragglers\":[";
  first = true;
  for (const StragglerRow& s : stragglers) {
    if (!first) os << ',';
    first = false;
    os << "{\"rank\":" << s.rank << ",\"times_last\":" << s.times_last
       << ",\"lateness_us\":" << num(s.lateness_us) << ",\"share\":"
       << num(s.share) << ",\"level\":\"" << json_escape(s.level)
       << "\",\"level_spread_us\":" << num(s.level_spread_us) << '}';
  }
  os << "]}";
  return os.str();
}

std::string FleetSnapshot::report() const {
  std::ostringstream os;
  char line[200];
  os << "fleet health: world=" << world_size << " profile=" << profile
     << " topology=" << (topology.empty() ? "(flat)" : topology) << '\n';
  if (fleet_latency_us.count > 0) {
    os << "dispatch latency (all ranks merged): n=" << fleet_latency_us.count
       << " p50=" << num(fleet_latency_us.p50())
       << "us p90=" << num(fleet_latency_us.p90())
       << "us p99=" << num(fleet_latency_us.p99()) << "us\n";
  }
  os << "arrival skew per (collective, band):\n";
  std::snprintf(line, sizeof(line), "  %-14s %-8s %7s %14s %14s %10s %6s\n",
                "op", "band", "rounds", "mean-skew-us", "mean-dur-us",
                "imbalance", "worst");
  os << line;
  if (skew.empty()) os << "  (no seq-aligned rounds profiled)\n";
  for (const SkewCell& c : skew) {
    // snprintf, not "r" + to_string: gcc 12 -O3 flags that concatenation
    // here with a false -Wrestrict.
    char worst[16] = "-";
    if (c.worst_rank >= 0) {
      std::snprintf(worst, sizeof(worst), "r%d", c.worst_rank);
    }
    std::snprintf(line, sizeof(line),
                  "  %-14s %-8s %7llu %14s %14s %10s %-6s\n",
                  std::string(to_string(c.op)).c_str(),
                  std::string(size_band_name(c.band)).c_str(),
                  static_cast<unsigned long long>(c.rounds),
                  num(c.mean_skew_us).c_str(), num(c.mean_duration_us).c_str(),
                  num(c.imbalance).c_str(), worst);
    os << line;
  }
  os << "straggler board (by lateness):\n";
  std::snprintf(line, sizeof(line), "  %-5s %12s %14s %7s %s\n", "rank",
                "times-last", "lateness-us", "share", "skew-level");
  os << line;
  if (stragglers.empty()) os << "  (no stragglers: arrivals are balanced)\n";
  for (const StragglerRow& s : stragglers) {
    std::snprintf(line, sizeof(line), "  r%-4d %12llu %14s %6.1f%% %s\n",
                  s.rank, static_cast<unsigned long long>(s.times_last),
                  num(s.lateness_us).c_str(), 100.0 * s.share,
                  s.level.empty()
                      ? "-"
                      : (s.level + " (spread " + num(s.level_spread_us) + "us)")
                            .c_str());
    os << line;
  }
  if (!levels.empty()) {
    os << "hier levels by cross-rank stage-time spread:\n";
    std::snprintf(line, sizeof(line), "  %-12s %12s %12s %6s\n", "level",
                  "mean-us", "spread-us", "max");
    os << line;
    for (const LevelRow& l : levels) {
      std::snprintf(line, sizeof(line), "  %-12s %12s %12s r%-5d\n",
                    l.level.c_str(), num(l.mean_us).c_str(),
                    num(l.spread_us).c_str(), l.max_rank);
      os << line;
    }
  }
  os << "per-rank heartbeats:\n";
  std::snprintf(line, sizeof(line), "  %-5s %10s %9s %-14s %-5s %6s %10s\n",
                "rank", "dispatches", "in-flight", "last-op", "eng", "plan",
                "age-ms");
  os << line;
  for (const RankState& st : ranks) {
    const HeartbeatView& hb = st.heartbeat;
    std::snprintf(line, sizeof(line),
                  "  r%-4d %10llu %9s %-14s %-5s %6llu %10s\n", st.rank,
                  static_cast<unsigned long long>(hb.done_seq),
                  hb.in_flight ? "yes" : "no",
                  std::string(to_string(hb.op)).c_str(),
                  std::string(to_string(hb.engine)).c_str(),
                  static_cast<unsigned long long>(hb.plan_id),
                  num(hb.age_ms).c_str());
    os << line;
  }
  return os.str();
}

// ---- Watchdog ---------------------------------------------------------------

namespace {

/// Unset or empty reads as 0 (disabled); anything else must be a finite,
/// non-negative number of milliseconds. A lenient parse would turn "5s"
/// into a silently disabled watchdog and "nan" into a NaN poll period.
double env_ms(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0.0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(parsed) || parsed < 0.0) {
    throw Error(std::string("watchdog: malformed ") + name + "='" + v +
                "' (want a finite number of milliseconds >= 0)");
  }
  return parsed;
}

struct WatchdogState {
  std::mutex mu;
  std::condition_variable cv;
  std::thread th;
  bool stop = false;
  WatchdogConfig cfg;
  std::function<void(const HangReport&)> cb;
  std::string last_report;
  std::atomic<std::uint64_t> fires{0};
  int last_fired_rank = -1;
  std::uint64_t last_fired_seq = 0;

  // An env-armed watchdog (MPIXCCL_WATCHDOG_TIMEOUT_MS) has no natural
  // stop() call site, so the monitor thread must be joined here or the
  // process terminates on a joinable thread at static destruction.
  ~WatchdogState() {
    {
      std::lock_guard lock(mu);
      stop = true;
    }
    cv.notify_all();
    if (th.joinable()) th.join();
  }
};

WatchdogState& wd() {
  static WatchdogState s;
  return s;
}

/// One monitor pass: find hung ranks, blame the least-progressed one, and
/// build the dump. Returns false when nothing (new) is hung.
bool check_once(const WatchdogConfig& cfg, HangReport& out) {
  WatchdogState& s = wd();
  const std::int64_t now = steady_ns();
  bool any_hung = false;
  int blame = -1;
  std::uint64_t blame_enter = 0;
  std::int64_t blame_beat = 0;
  bool blame_in_flight = true;
  std::vector<int> active;
  for (int r = 0; r < kMaxRanks; ++r) {
    Slot& sl = slot(r);
    const std::uint64_t enter = sl.enter_seq.load(std::memory_order_relaxed);
    if (enter == 0) continue;
    active.push_back(r);
    const std::int64_t beat = sl.beat_ns.load(std::memory_order_relaxed);
    const bool in_flight = sl.in_flight.load(std::memory_order_relaxed) != 0;
    const double age_ms = static_cast<double>(now - beat) / 1e6;
    if (in_flight && age_ms > cfg.timeout_ms) any_hung = true;
    // Blame the least-progressed rank; prefer one not in a dispatch at all
    // (it never arrived), then the stalest beat.
    if (blame < 0 || enter < blame_enter ||
        (enter == blame_enter && !in_flight && blame_in_flight) ||
        (enter == blame_enter && in_flight == blame_in_flight &&
         beat < blame_beat)) {
      blame = r;
      blame_enter = enter;
      blame_beat = beat;
      blame_in_flight = in_flight;
    }
  }
  // Report only once the blamed rank itself has been quiet past the
  // timeout: a peer that entered the next collective earlier goes stale
  // first, and a report naming a rank stalled for less than the timeout
  // would contradict itself.
  if (!any_hung || blame < 0 ||
      static_cast<double>(now - blame_beat) / 1e6 <= cfg.timeout_ms) {
    return false;
  }
  {
    std::lock_guard lock(s.mu);
    if (blame == s.last_fired_rank && blame_enter == s.last_fired_seq) {
      return false;  // already reported this exact hang
    }
    s.last_fired_rank = blame;
    s.last_fired_seq = blame_enter;
  }

  out.rank = blame;
  out.enter_seq = blame_enter;
  out.stalled_ms = static_cast<double>(now - blame_beat) / 1e6;

  std::ostringstream os;
  os << "hang detected: rank " << blame << " has "
     << (blame_in_flight
             ? "been inside collective #" + std::to_string(blame_enter)
             : "not arrived at collective #" + std::to_string(blame_enter + 1))
     << " for " << num(out.stalled_ms) << " ms (timeout "
     << num(cfg.timeout_ms) << " ms)\n";
  os << "per-rank heartbeats:\n";
  for (const int r : active) {
    Slot& sl = slot(r);
    const double age =
        static_cast<double>(now - sl.beat_ns.load(std::memory_order_relaxed)) /
        1e6;
    char line[200];
    std::snprintf(
        line, sizeof(line),
        "  r%-4d entered=%llu done=%llu in_flight=%s op=%s engine=%s "
        "bytes=%llu plan=%llu age_ms=%s%s\n",
        r,
        static_cast<unsigned long long>(
            sl.enter_seq.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            sl.done_seq.load(std::memory_order_relaxed)),
        sl.in_flight.load(std::memory_order_relaxed) != 0 ? "yes" : "no",
        std::string(
            to_string(op_from_u8(sl.op.load(std::memory_order_relaxed))))
            .c_str(),
        std::string(to_string(
                        engine_from_u8(sl.engine.load(std::memory_order_relaxed))))
            .c_str(),
        static_cast<unsigned long long>(
            sl.bytes.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            sl.plan.load(std::memory_order_relaxed)),
        num(age).c_str(), r == blame ? "   <-- stalled" : "");
    os << line;
  }
  os << "in-flight plan for rank " << blame << ": ";
  const std::uint64_t plan = slot(blame).plan.load(std::memory_order_relaxed);
  if (plan != 0) {
    os << "plan #" << plan << '\n';
  } else {
    os << "(no cached plan: composed or uncached dispatch)\n";
  }
  os << "call-journal tail for rank " << blame << ":\n";
  std::unique_lock lock(g_ranks[blame].mu);
  const std::vector<DispatchDecision> tail = g_ranks[blame].records(
      [](const DispatchDecision& d) { return d.tune == TuneAudit::None; });
  lock.unlock();
  const std::size_t keep = 8;
  const std::size_t start = tail.size() > keep ? tail.size() - keep : 0;
  for (std::size_t i = start; i < tail.size(); ++i) {
    os << "  " << to_line(tail[i]) << '\n';
    if (!tail[i].level_path.empty()) {
      os << "    [hier levels: " << tail[i].level_path << "]\n";
    }
  }
  if (tail.empty()) os << "  (no calls recorded for this rank)\n";
  out.text = os.str();
  return true;
}

void watchdog_loop() {
  WatchdogState& s = wd();
  WatchdogConfig cfg;
  {
    std::lock_guard lock(s.mu);
    cfg = s.cfg;
  }
  const auto poll =
      std::chrono::duration<double, std::milli>(cfg.poll_ms);
  for (;;) {
    {
      std::unique_lock lock(s.mu);
      if (s.cv.wait_for(lock, poll, [&s] { return s.stop; })) return;
    }
    HangReport report;
    if (!check_once(cfg, report)) continue;
    std::function<void(const HangReport&)> cb;
    {
      std::lock_guard lock(s.mu);
      s.last_report = report.text;
      cb = s.cb;
    }
    s.fires.fetch_add(1, std::memory_order_relaxed);
    if (cb) {
      cb(report);
    } else {
      MPIXCCL_LOG_WARN("watchdog", report.text);
    }
    if (cfg.abort_on_hang) {
      MPIXCCL_LOG_ERROR("watchdog", "aborting on hang (MPIXCCL_WATCHDOG_ABORT)");
      std::abort();
    }
  }
}

}  // namespace

WatchdogConfig WatchdogConfig::from_env() {
  WatchdogConfig cfg;
  cfg.timeout_ms = env_ms("MPIXCCL_WATCHDOG_TIMEOUT_MS");
  cfg.abort_on_hang = env_switch("MPIXCCL_WATCHDOG_ABORT");
  return cfg;
}

Watchdog& Watchdog::instance() {
  static Watchdog w;
  return w;
}

void Watchdog::start(const WatchdogConfig& cfg) {
  if (cfg.timeout_ms <= 0.0) return;
  WatchdogState& s = wd();
  {
    std::lock_guard lock(s.mu);
    if (source_on(kWatchdogBit)) return;
    s.cfg = cfg;
    if (s.cfg.poll_ms <= 0.0) {
      s.cfg.poll_ms = std::clamp(cfg.timeout_ms / 4.0, 1.0, 250.0);
    }
    s.stop = false;
    s.last_fired_rank = -1;
    s.last_fired_seq = 0;
    // Arms the heartbeats and, so the dump has calls to show, the journal.
    set_source(kWatchdogBit, true);
  }
  s.th = std::thread(watchdog_loop);
}

void Watchdog::stop() {
  WatchdogState& s = wd();
  {
    std::lock_guard lock(s.mu);
    if (!source_on(kWatchdogBit)) return;
    s.stop = true;
  }
  s.cv.notify_all();
  if (s.th.joinable()) s.th.join();
  set_source(kWatchdogBit, false);
}

std::uint64_t Watchdog::fires() const {
  return wd().fires.load(std::memory_order_relaxed);
}

std::string Watchdog::last_report() const {
  WatchdogState& s = wd();
  std::lock_guard lock(s.mu);
  return s.last_report;
}

void Watchdog::set_on_hang(std::function<void(const HangReport&)> cb) {
  WatchdogState& s = wd();
  std::lock_guard lock(s.mu);
  s.cb = std::move(cb);
}

}  // namespace mpixccl::obs::fleet
