#pragma once
// Persistent-collective plans and the per-communicator plan cache.
//
// Every XcclMpi dispatch used to re-derive the same facts on every call:
// classify the buffers, look up the tuning table, pick an engine, resolve
// the CCL communicator or the hier subcomm splits. DL training issues the
// identical (collective, dtype, size-class, communicator) tuple millions of
// times, so the dispatcher now compiles those facts into a Plan once and
// replays it: one-shot collectives fetch (or build) the cached plan, and
// the persistent API (allreduce_init -> start/wait/free) binds a plan plus
// buffers into a handle whose start() skips tuning lookup, decision
// construction and comm-split entirely — the MPI-Advance persistent-
// collective shape over the paper's hybrid dispatch.
//
// Cache keying: (op, dtype base, redop, buffer class, ceil-log2 size class,
// communicator epoch). The size class is exact while tuning breakpoints sit
// on power-of-two boundaries (the shipped tables do); for odd breakpoints a
// plan additionally records the byte range its table rule covered, and a
// lookup whose bytes fall outside that range is treated as a miss and
// rebuilt, so a cached plan can never serve a message its tuning decision
// does not apply to. Eviction is LRU; invalidation (tuning reload, mode
// switch) empties the cache wholesale. Handles hold shared_ptr ownership,
// so an evicted or invalidated plan stays alive until its last handle drops;
// an invalidated one is marked stale, and its handles recompile on start().

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/tuning.hpp"
#include "hier/hier.hpp"
#include "obs/decision.hpp"
#include "xccl/backend.hpp"

namespace mpixccl::core {

/// Engine selection outcome, with the evidence the decision log records:
/// the raw table/mode answer, the tuning-table breakpoint consulted (0
/// when the table was bypassed) and any pre-dispatch fallback reason
/// (host buffer, hier remap).
struct EnginePick {
  Engine engine = Engine::Mpi;        ///< engine to attempt
  Engine table_choice = Engine::Mpi;  ///< what the mode/table said first
  std::size_t breakpoint = 0;
  obs::FallbackReason reason = obs::FallbackReason::None;
};

/// Everything the dispatch decision depends on, folded into a cache key.
struct PlanKey {
  CollOp op = CollOp::Allreduce;
  DataType base = DataType::Float32;
  ReduceOp redop = ReduceOp::Sum;  ///< Sum for non-reducing collectives
  bool device = false;             ///< any buffer registered as device memory
  std::uint8_t size_class = 0;     ///< bit_width of the message bytes
  std::uint64_t comm_uid = 0;      ///< mini::Comm::uid() — the comm epoch

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
  friend bool operator<(const PlanKey& a, const PlanKey& b) {
    if (a.comm_uid != b.comm_uid) return a.comm_uid < b.comm_uid;
    if (a.op != b.op) return a.op < b.op;
    if (a.base != b.base) return a.base < b.base;
    if (a.redop != b.redop) return a.redop < b.redop;
    if (a.device != b.device) return a.device < b.device;
    return a.size_class < b.size_class;
  }
};

/// Log2 size class: 0 for 0 bytes, otherwise the bit width of `bytes`
/// (messages in (2^(k-1), 2^k] share class k).
[[nodiscard]] std::uint8_t plan_size_class(std::size_t bytes);

/// One compiled dispatch: the tuning decision plus every resource the
/// execute path would otherwise resolve per call. Built by XcclMpi (which
/// owns the referenced backend/hier state); immutable after build except
/// for the hit counter the cache bumps.
struct Plan {
  PlanKey key;
  std::uint64_t id = 0;  ///< process-unique (joins flight-recorder entries)
  Mode mode = Mode::Hybrid;
  EnginePick pick;
  /// Byte range the tuning decision covers; a lookup outside it rebuilds.
  std::size_t min_bytes = 0;
  std::size_t max_bytes = SIZE_MAX;
  /// Resolved CCL communicator (engine == Xccl), owned by the XcclMpi cache.
  xccl::CclComm* ccl = nullptr;
  /// Resolved per-level subcomm chain (engine == Hier), owned by HierEngine.
  hier::HierEngine::HierComms* hier = nullptr;
  /// Hier level-config epoch the chain was built at; a lookup under a newer
  /// epoch misses (the chain no longer matches the configured hierarchy).
  std::uint64_t hier_epoch = 0;
  /// Staging bytes pre-sized at build (hier scratch reserved for the shape).
  std::size_t resident_bytes = 0;
  double build_us = 0.0;    ///< virtual time the build cost (splits, bootstrap)
  std::uint64_t hits = 0;   ///< cache hits served since build
  /// Set when an invalidation (retune, table/mode swap, hier reconfig)
  /// drops the plan — not by LRU eviction, which leaves it correct. A
  /// persistent handle holding a stale plan recompiles on its next start().
  bool stale = false;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  ///< plans dropped by invalidate_all()
};

/// Per-XcclMpi (single rank thread — no locking) LRU map of compiled plans.
class PlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit PlanCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// Cached plan for `key` valid at `bytes`, bumping LRU position, plan
  /// hits and cache hits — or nullptr (counted as a miss; a key whose plan
  /// exists but whose byte range excludes `bytes` also misses, and the next
  /// insert replaces it).
  std::shared_ptr<Plan> find(const PlanKey& key, std::size_t bytes);

  /// Insert (or replace, without an eviction tick) the plan for plan->key
  /// as most-recently-used; evicts the LRU tail beyond capacity. Returns
  /// the number of plans evicted.
  std::size_t insert(std::shared_ptr<Plan> plan);

  /// Drop every plan (tuning table or mode changed), marking each stale.
  /// Returns the count, which is also added to stats().invalidations.
  std::size_t invalidate_all();

  /// Drop (and mark stale) only the plans for which `pred` returns true (an
  /// online retune changed one arm's engine; untouched arms keep their
  /// compiled plans). Returns the count, also added to
  /// stats().invalidations.
  std::size_t invalidate_if(const std::function<bool(const Plan&)>& pred);

  [[nodiscard]] const PlanCacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  [[nodiscard]] std::size_t size() const { return lru_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Shrinking below the current fill evicts the LRU tail (counted).
  void set_capacity(std::size_t n);

  /// Sum of resident staging bytes across cached plans.
  [[nodiscard]] std::size_t resident_bytes() const;
  /// Cached plans, most-recently-used first.
  [[nodiscard]] std::vector<std::shared_ptr<const Plan>> entries() const;
  /// Ids of every cached plan (the live set reset_stats uses to purge
  /// flight-recorder entries referencing freed plans).
  [[nodiscard]] std::vector<std::uint64_t> live_ids() const;

  /// Human-readable dump: one row per plan (key, engine, validity band,
  /// hits, resident bytes) plus the counter footer — `mpixccl plan`.
  [[nodiscard]] std::string report() const;

 private:
  void evict_tail_to(std::size_t target);

  std::size_t capacity_;
  std::list<std::shared_ptr<Plan>> lru_;  ///< front = most recently used
  std::map<PlanKey, std::list<std::shared_ptr<Plan>>::iterator> index_;
  PlanCacheStats stats_;
};

/// Process-unique plan id (0 is reserved for "no plan").
[[nodiscard]] std::uint64_t next_plan_id();

}  // namespace mpixccl::core
