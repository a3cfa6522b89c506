#include "core/plan.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <sstream>

namespace mpixccl::core {

std::uint8_t plan_size_class(std::size_t bytes) {
  return static_cast<std::uint8_t>(std::bit_width(bytes));
}

std::uint64_t next_plan_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::shared_ptr<Plan> PlanCache::find(const PlanKey& key, std::size_t bytes) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  const std::shared_ptr<Plan>& plan = *it->second;
  if (bytes < plan->min_bytes || bytes > plan->max_bytes) {
    // The size class straddles a non-power-of-two tuning breakpoint: the
    // cached decision does not cover these bytes. Rebuild (the insert will
    // replace this entry).
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  it->second = lru_.begin();
  ++plan->hits;
  ++stats_.hits;
  return plan;
}

std::size_t PlanCache::insert(std::shared_ptr<Plan> plan) {
  auto it = index_.find(plan->key);
  if (it != index_.end()) {
    // Replacement (byte-range mismatch rebuild): not an eviction.
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(std::move(plan));
  index_[lru_.front()->key] = lru_.begin();
  const std::size_t before = lru_.size();
  evict_tail_to(capacity_);
  const std::size_t evicted = before - lru_.size();
  stats_.evictions += evicted;
  return evicted;
}

void PlanCache::evict_tail_to(std::size_t target) {
  while (lru_.size() > target) {
    index_.erase(lru_.back()->key);
    lru_.pop_back();
  }
}

std::size_t PlanCache::invalidate_all() {
  const std::size_t n = lru_.size();
  for (const auto& p : lru_) p->stale = true;
  lru_.clear();
  index_.clear();
  stats_.invalidations += n;
  return n;
}

std::size_t PlanCache::invalidate_if(
    const std::function<bool(const Plan&)>& pred) {
  std::size_t n = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (pred(**it)) {
      (*it)->stale = true;
      index_.erase((*it)->key);
      it = lru_.erase(it);
      ++n;
    } else {
      ++it;
    }
  }
  stats_.invalidations += n;
  return n;
}

void PlanCache::set_capacity(std::size_t n) {
  capacity_ = n;
  const std::size_t before = lru_.size();
  evict_tail_to(capacity_);
  stats_.evictions += before - lru_.size();
}

std::size_t PlanCache::resident_bytes() const {
  std::size_t total = 0;
  for (const auto& p : lru_) total += p->resident_bytes;
  return total;
}

std::vector<std::shared_ptr<const Plan>> PlanCache::entries() const {
  return {lru_.begin(), lru_.end()};
}

std::vector<std::uint64_t> PlanCache::live_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(lru_.size());
  for (const auto& p : lru_) ids.push_back(p->id);
  return ids;
}

std::string PlanCache::report() const {
  std::ostringstream os;
  os << "plan cache: " << lru_.size() << "/" << capacity_ << " plans, "
     << resident_bytes() << " resident staging bytes\n";
  os << "  id   op              dtype       redop  buf  class engine "
        "valid-bytes          hits  resident  build-us\n";
  for (const auto& p : lru_) {
    char range[40];
    if (p->max_bytes == SIZE_MAX) {
      std::snprintf(range, sizeof(range), "[%zu, max]", p->min_bytes);
    } else {
      std::snprintf(range, sizeof(range), "[%zu, %zu]", p->min_bytes,
                    p->max_bytes);
    }
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  %-4llu %-15s %-11s %-6s %-4s %-5u %-6s %-20s %-5llu "
                  "%-9zu %.1f\n",
                  static_cast<unsigned long long>(p->id),
                  std::string(to_string(p->key.op)).c_str(),
                  std::string(to_string(p->key.base)).c_str(),
                  std::string(to_string(p->key.redop)).c_str(),
                  p->key.device ? "dev" : "host",
                  static_cast<unsigned>(p->key.size_class),
                  std::string(to_string(p->pick.engine)).c_str(), range,
                  static_cast<unsigned long long>(p->hits), p->resident_bytes,
                  p->build_us);
    os << line;
  }
  char foot[160];
  std::snprintf(foot, sizeof(foot),
                "  hits %llu  misses %llu  evictions %llu  invalidations %llu\n",
                static_cast<unsigned long long>(stats_.hits),
                static_cast<unsigned long long>(stats_.misses),
                static_cast<unsigned long long>(stats_.evictions),
                static_cast<unsigned long long>(stats_.invalidations));
  os << foot;
  return os.str();
}

}  // namespace mpixccl::core
