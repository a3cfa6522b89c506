#include "fabric/world.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/log.hpp"
#include "common/status.hpp"
#include "sim/fault.hpp"

namespace mpixccl::fabric {

int RankContext::size() const { return world_->size(); }
sim::VirtualClock& RankContext::clock() { return world_->clock(rank_); }
device::Device& RankContext::device() { return world_->device(rank_); }
device::Stream& RankContext::stream() { return world_->stream(rank_); }
Endpoint& RankContext::endpoint() { return world_->endpoint(rank_); }
Endpoint& RankContext::endpoint_of(int rank) { return world_->endpoint(rank); }
const sim::Topology& RankContext::topology() const { return world_->topology(); }
const sim::SystemProfile& RankContext::profile() const { return world_->profile(); }
void RankContext::barrier() { world_->do_barrier(); }
void RankContext::sync_clocks() { world_->do_sync_clocks(rank_); }

namespace {
int resolve_world_size(const WorldConfig& c) {
  const int dpn =
      c.devices_per_node > 0 ? c.devices_per_node : c.profile.devices_per_node;
  require(c.nodes >= 1 && dpn >= 1, "WorldConfig: sizes must be >= 1");
  return c.nodes * dpn;
}
int resolve_dpn(const WorldConfig& c) {
  return c.devices_per_node > 0 ? c.devices_per_node : c.profile.devices_per_node;
}
}  // namespace

World::World(WorldConfig config)
    : config_(std::move(config)),
      topo_(config_.nodes, resolve_dpn(config_), config_.profile.vendor,
            sim::parse_level_spec(config_.hier_levels, resolve_dpn(config_))),
      devices_(config_.profile, resolve_world_size(config_)),
      clocks_(static_cast<std::size_t>(topo_.world_size())),
      streams_(static_cast<std::size_t>(topo_.world_size()),
               device::Stream(config_.profile.device.stream_sync_us)),
      barrier_(topo_.world_size()) {
  endpoints_.reserve(static_cast<std::size_t>(topo_.world_size()));
  for (int r = 0; r < topo_.world_size(); ++r) {
    endpoints_.push_back(std::make_unique<Endpoint>(r));
  }
  auto& faults = sim::FaultInjector::instance();
  if (!config_.faults.empty()) {
    faults.configure(sim::FaultPlan::parse(config_.faults));
  } else if (!faults.active()) {
    faults.configure(sim::FaultPlan::from_env());
  }
  apply_fault_scales();
}

void World::apply_fault_scales() {
  auto& faults = sim::FaultInjector::instance();
  for (int r = 0; r < topo_.world_size(); ++r) {
    clock(r).set_scale(faults.slowdown_of(r));
  }
}

void World::run(const std::function<void(RankContext&)>& body) {
  const int n = size();
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([this, r, &body, &errors] {
      RankContext ctx(*this, r);
      try {
        body(ctx);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        MPIXCCL_LOG_ERROR("world", "rank ", r, " threw an exception");
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void World::reset_time() {
  for (auto& c : clocks_) c.reset();
  apply_fault_scales();  // the injector may have been reconfigured since
  for (auto& s : streams_) {
    s = device::Stream(config_.profile.device.stream_sync_us);
  }
}

void World::do_barrier() { barrier_.arrive_and_wait(); }

void World::do_sync_clocks(int rank) {
  // Phase 1 barrier: every rank's clock value is stable and visible.
  barrier_.arrive_and_wait();
  sim::TimeUs max_t = 0.0;
  for (const auto& c : clocks_) max_t = std::max(max_t, c.now());
  // Phase 2 barrier: all threads finished reading before anyone writes.
  barrier_.arrive_and_wait();
  clock(rank).advance_to(max_t);  // each thread writes only its own slot
  // Phase 3 barrier: writes complete before anyone proceeds.
  barrier_.arrive_and_wait();
}

void run_world(const sim::SystemProfile& profile, int nodes,
               const std::function<void(RankContext&)>& body) {
  World world(WorldConfig{.profile = profile, .nodes = nodes, .hier_levels = {}, .faults = {}});
  world.run(body);
}

}  // namespace mpixccl::fabric
