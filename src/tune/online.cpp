#include "tune/online.hpp"

#include <cstdlib>
#include <sstream>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace mpixccl::tune {

namespace {

// Byte edges of the obs size bands (see obs::size_band_of): band i covers
// [lo_i, hi_i] inclusive, lo_{i+1} = hi_i + 1.
constexpr std::size_t kBandHi[obs::kSizeBands] = {
    std::size_t{4} << 10, std::size_t{64} << 10, std::size_t{1} << 20,
    std::size_t{16} << 20, SIZE_MAX};

constexpr core::Engine kEngines[3] = {core::Engine::Mpi, core::Engine::Xccl,
                                      core::Engine::Hier};

core::CollOp coll_from_token(const std::string& s) {
  for (core::CollOp op : core::kAllCollOps) {
    if (to_string(op) == s) return op;
  }
  throw Error("OnlineTuner: unknown collective token '" + s + "'");
}

core::Engine engine_from_token(const std::string& s) {
  for (core::Engine e : kEngines) {
    if (to_string(e) == s) return e;
  }
  throw Error("OnlineTuner: unknown engine token '" + s + "'");
}

std::size_t arm_index(core::Engine e) { return static_cast<std::size_t>(e); }

}  // namespace

bool online_tuning_enabled() {
  const char* v = std::getenv("MPIXCCL_TUNE_ONLINE");
  const std::string s = v == nullptr ? "" : v;
  if (s.empty() || s == "0" || s == "off" || s == "false") return false;
  if (s == "1" || s == "on" || s == "yes" || s == "true") return true;
  throw Error("MPIXCCL_TUNE_ONLINE='" + s + "' is none of 1, on, yes, true, 0, off, false");
}

std::size_t band_lo_bytes(std::size_t band) {
  require(band < obs::kSizeBands, "band_lo_bytes: band out of range");
  return band == 0 ? 0 : kBandHi[band - 1] + 1;
}

std::size_t band_hi_bytes(std::size_t band) {
  require(band < obs::kSizeBands, "band_hi_bytes: band out of range");
  return kBandHi[band];
}

OnlineTuner::OnlineTuner(OnlineTunerConfig config)
    : config_(config), rng_(make_rng(config.seed, /*stream=*/0xad417)) {
  require(config.epsilon >= 0.0 && config.epsilon <= 1.0,
          "OnlineTuner: epsilon must be in [0, 1]");
  require(config.halving_every > 0, "OnlineTuner: halving_every must be positive");
}

CellState& OnlineTuner::cell(core::CollOp op, std::size_t band) {
  return cells_[{op, band}];
}

void OnlineTuner::observe(core::XcclMpi& rt) {
  auto& reg = obs::Registry::instance();
  // Create cells for (op, band) pairs with traffic; refresh arm stats. A
  // runtime fallback is charged to the arm whose table choice caused it.
  for (core::CollOp op : core::kAllCollOps) {
    for (std::size_t band = 0; band < obs::kSizeBands; ++band) {
      std::array<obs::HistogramSnapshot, 3> snaps;
      std::uint64_t total = 0;
      for (core::Engine e : kEngines) {
        snaps[arm_index(e)] = reg.band_latency(op, e, band);
        total += snaps[arm_index(e)].count;
      }
      auto it = cells_.find({op, band});
      if (it == cells_.end()) {
        if (total == 0) continue;  // no traffic: no arm cell yet
        CellState c;
        c.op = op;
        c.band = band;
        // The engine the table currently points this range at is the
        // incumbent leader the challengers must beat.
        c.leader = rt.tuning().select(op, band_lo_bytes(band) + 1);
        c.installed = c.leader;
        for (core::Engine e : kEngines) {
          ArmState& a = c.arms[arm_index(e)];
          a.engine = e;
          a.status = e == c.leader ? ArmStatus::Leader : ArmStatus::Active;
          // An op outside the hier engine's set can never run hier (picks
          // remap to Xccl): dead on arrival.
          if (e == core::Engine::Hier && !core::engine_hier_supports(op)) {
            a.status = ArmStatus::Eliminated;
          }
        }
        it = cells_.emplace(std::make_pair(op, band), c).first;
      }
      for (core::Engine e : kEngines) {
        ArmState& a = it->second.arms[arm_index(e)];
        a.samples = snaps[arm_index(e)].count;
        a.avg_us = snaps[arm_index(e)].avg();
        a.fallbacks = reg.band_fallbacks(op, e, band);
      }
    }
  }
}

std::string OnlineTuner::decide() {
  std::ostringstream batch;
  const bool halving = steps_ % config_.halving_every == 0;
  for (auto& [key, c] : cells_) {
    const std::string op_name(to_string(c.op));
    ArmState& leader_arm = c.arms[arm_index(c.leader)];

    // --- Evaluate an exploration in flight --------------------------------
    if (c.exploring) {
      ArmState& ch = c.arms[arm_index(c.installed)];
      if (ch.samples >= config_.min_samples) {
        const bool beats =
            leader_arm.samples == 0 ||
            (ch.avg_us > 0.0 &&
             ch.avg_us < leader_arm.avg_us * (1.0 - config_.min_improvement));
        if (beats) {
          batch << "switch " << op_name << ' ' << c.band << ' '
                << to_string(c.leader) << ' ' << to_string(c.installed)
                << '\n';
          leader_arm.status = ArmStatus::Active;
          ch.status = ArmStatus::Leader;
          c.leader = c.installed;
          ++c.switches;
        } else {
          batch << "explore " << op_name << ' ' << c.band << ' '
                << to_string(c.installed) << ' ' << to_string(c.leader)
                << '\n';
          c.installed = c.leader;
        }
        c.exploring = false;
      } else if (steps_ - c.explore_start >= 2 * config_.halving_every + 1) {
        // The install produced no samples at all (every call bounced off at
        // runtime): the arm can never be scored, so retire it and revert.
        batch << "eliminate " << op_name << ' ' << c.band << ' '
              << to_string(c.installed) << '\n';
        batch << "explore " << op_name << ' ' << c.band << ' '
              << to_string(c.installed) << ' ' << to_string(c.leader) << '\n';
        ch.status = ArmStatus::Eliminated;
        c.installed = c.leader;
        c.exploring = false;
      }
    }

    // --- Successive-halving checkpoint ------------------------------------
    if (halving) {
      double best = 0.0;
      for (const ArmState& a : c.arms) {
        if (a.status == ArmStatus::Eliminated) continue;
        if (a.samples < config_.min_samples || a.avg_us <= 0.0) continue;
        if (best == 0.0 || a.avg_us < best) best = a.avg_us;
      }
      for (ArmState& a : c.arms) {
        if (a.status != ArmStatus::Active || a.engine == c.installed) continue;
        const bool too_slow = best > 0.0 &&
                              a.samples >= config_.min_samples &&
                              a.avg_us > best * config_.eliminate_factor;
        const bool fallback_only =
            a.samples == 0 && a.fallbacks >= config_.min_samples;
        if (too_slow || fallback_only) {
          batch << "eliminate " << op_name << ' ' << c.band << ' '
                << to_string(a.engine) << '\n';
          a.status = ArmStatus::Eliminated;
        }
      }
    }

    // --- Epsilon-greedy exploration ---------------------------------------
    if (!c.exploring) {
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      if (coin(rng_) < config_.epsilon) {
        std::vector<core::Engine> candidates;
        for (const ArmState& a : c.arms) {
          if (a.status == ArmStatus::Active && a.engine != c.leader) {
            candidates.push_back(a.engine);
          }
        }
        if (!candidates.empty()) {
          std::uniform_int_distribution<std::size_t> pick(
              0, candidates.size() - 1);
          const core::Engine target = candidates[pick(rng_)];
          batch << "explore " << op_name << ' ' << c.band << ' '
                << to_string(c.leader) << ' ' << to_string(target) << '\n';
          c.exploring = true;
          c.installed = target;
          c.explore_start = steps_;
          ++c.arms[arm_index(target)].explores;
        }
      }
    }
  }
  return batch.str();
}

void OnlineTuner::apply(const std::string& directives, core::XcclMpi& rt,
                        bool audit) {
  auto& reg = obs::Registry::instance();
  std::istringstream in(directives);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string verb, op_tok;
    std::size_t band = 0;
    ls >> verb >> op_tok >> band;
    require(!ls.fail() && band < obs::kSizeBands,
            "OnlineTuner: malformed directive '" + line + "'");
    const core::CollOp op = coll_from_token(op_tok);
    const std::size_t lo = band_lo_bytes(band);
    const std::size_t hi = band_hi_bytes(band);

    obs::TuneAudit kind = obs::TuneAudit::None;
    core::Engine from = core::Engine::Mpi;
    core::Engine to = core::Engine::Mpi;
    if (verb == "explore" || verb == "switch") {
      std::string from_tok, to_tok;
      ls >> from_tok >> to_tok;
      require(!ls.fail(), "OnlineTuner: malformed directive '" + line + "'");
      kind = verb == "switch" ? obs::TuneAudit::Switch
                              : obs::TuneAudit::Explore;
      from = engine_from_token(from_tok);
      to = engine_from_token(to_tok);
      rt.retune_range(op, lo, hi, to);
    } else if (verb == "eliminate") {
      std::string engine_tok;
      ls >> engine_tok;
      require(!ls.fail(), "OnlineTuner: malformed directive '" + line + "'");
      kind = obs::TuneAudit::Eliminate;
      from = to = engine_from_token(engine_tok);
      // No table change: a separate explore directive reverts the install
      // when the eliminated arm was the one currently pointed at.
    } else {
      throw Error("OnlineTuner: unknown directive verb '" + verb + "'");
    }

    if (!audit) continue;
    history_.push_back(TuneEvent{kind, op, band, from, to, steps_});
    switch (kind) {
      case obs::TuneAudit::Switch:
        reg.counter("tune.switches").add(1, rt.rank());
        break;
      case obs::TuneAudit::Explore:
        reg.counter("tune.explorations").add(1, rt.rank());
        break;
      case obs::TuneAudit::Eliminate:
        reg.counter("tune.eliminations").add(1, rt.rank());
        break;
      default: break;
    }
    obs::DispatchDecision d;
    d.rank = rt.rank();
    d.op = op;
    d.bytes = lo;        // audit reuse: range lower edge
    d.breakpoint = hi;   // audit reuse: range upper edge
    d.mode = rt.options().mode;
    d.table_choice = from;
    d.engine = to;
    d.time_us = rt.context().clock().now();
    d.tune = kind;
    obs::DecisionLog::instance().push(d);
    MPIXCCL_LOG_DEBUG("tune", "step ", steps_, ": ", to_string(kind), " ",
                      to_string(op), " band ", band, " ", to_string(from),
                      "->", to_string(to));
  }
}

void OnlineTuner::step(core::XcclMpi& rt, mini::Comm& comm) {
  ++steps_;
  // Collectives sync the *virtual* clocks, not host-thread progress: rank 0
  // could reach observe() while another rank's thread is still recording the
  // previous collective's latency sample into the registry, and an incomplete
  // snapshot perturbs arm means and cell creation (and hence the RNG stream).
  // The barrier's happens-before (every rank arrives after its last record)
  // makes the snapshot complete and the whole loop deterministic. Frozen
  // steps never read the registry, so they skip it.
  if (!frozen_) rt.mpi().barrier(comm);
  std::string batch;
  const bool root = comm.rank() == 0;
  if (root && !frozen_) {
    observe(rt);
    batch = decide();
  } else if (root) {
    // Frozen: settle. Revert any in-flight exploration so the table points
    // every cell at its leader — a frozen measurement must time the
    // converged pick, not whatever challenger happened to be installed.
    std::ostringstream settle;
    for (auto& [key, c] : cells_) {
      if (!c.exploring) continue;
      settle << "explore " << to_string(c.op) << ' ' << c.band << ' '
             << to_string(c.installed) << ' ' << to_string(c.leader) << '\n';
      c.installed = c.leader;
      c.exploring = false;
    }
    batch = settle.str();
  }
  // Rank 0 decided; everyone applies the identical batch, so the table (and
  // hence every future engine pick) stays rank-uniform by construction.
  std::uint64_t len = batch.size();
  rt.mpi().bcast(&len, sizeof(len), mini::kByte, 0, comm);
  batch.resize(len);
  if (len > 0) {
    rt.mpi().bcast(batch.data(), len, mini::kByte, 0, comm);
    apply(batch, rt, /*audit=*/root);
  }
  if (root && !frozen_) {
    auto& reg = obs::Registry::instance();
    reg.counter("tune.steps").add(1, rt.rank());
    reg.gauge("tune.cells").set(static_cast<double>(cells_.size()));
    reg.gauge("tune.epsilon").set(config_.epsilon);
  }
}

std::string OnlineTuner::report() const {
  std::ostringstream os;
  os << "online tuner: " << steps_ << " steps, " << cells_.size()
     << " arm cells, " << history_.size() << " table mutations\n";
  os << "  collective       band     arm    state       samples  mean-us"
        "  fallbacks explores\n";
  for (const auto& [key, c] : cells_) {
    for (const ArmState& a : c.arms) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  %-16s %-8s %-6s %-11s %8llu %8.1f %10llu %8llu\n",
                    std::string(to_string(c.op)).c_str(),
                    std::string(obs::size_band_name(c.band)).c_str(),
                    std::string(to_string(a.engine)).c_str(),
                    std::string(to_string(a.status)).c_str(),
                    static_cast<unsigned long long>(a.samples), a.avg_us,
                    static_cast<unsigned long long>(a.fallbacks),
                    static_cast<unsigned long long>(a.explores));
      os << line;
    }
  }
  std::uint64_t switches = 0;
  for (const TuneEvent& ev : history_) {
    if (ev.kind == obs::TuneAudit::Switch) ++switches;
  }
  os << "  switch history (" << switches << " switches):\n";
  for (const TuneEvent& ev : history_) {
    if (ev.kind != obs::TuneAudit::Switch) continue;
    os << "    step " << ev.step << ": " << to_string(ev.op) << " band "
       << obs::size_band_name(ev.band) << " " << to_string(ev.from) << " -> "
       << to_string(ev.to) << '\n';
  }
  return os.str();
}

// ---- C-shaped API ----------------------------------------------------------

mpixcclTuner_t mpixcclTunerCreate() {
  return new OnlineTuner();
}

void mpixcclTunerStep(mpixcclTuner_t tuner, core::XcclMpi* rt,
                      mini::Comm* comm) {
  require(tuner != nullptr && rt != nullptr && comm != nullptr,
          "mpixcclTunerStep: null argument");
  tuner->step(*rt, *comm);
}

void mpixcclTunerFreeze(mpixcclTuner_t tuner) {
  require(tuner != nullptr, "mpixcclTunerFreeze: null tuner");
  tuner->freeze();
}

std::string mpixcclTunerReport(mpixcclTuner_t tuner) {
  require(tuner != nullptr, "mpixcclTunerReport: null tuner");
  return tuner->report();
}

void mpixcclTunerDestroy(mpixcclTuner_t tuner) { delete tuner; }

}  // namespace mpixccl::tune
