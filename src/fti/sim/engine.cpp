#include "fti/sim/engine.hpp"

#include <algorithm>
#include <mutex>

#include "fti/util/error.hpp"

namespace fti::sim {

std::uint64_t EngineResult::total_cycles() const {
  std::uint64_t total = 0;
  for (const EnginePartition& run : partitions) {
    total += run.cycles;
  }
  return total;
}

std::uint64_t EngineResult::total_events() const {
  std::uint64_t total = 0;
  for (const EnginePartition& run : partitions) {
    total += run.stats.events;
  }
  return total;
}

double EngineResult::total_wall_seconds() const {
  double total = 0.0;
  for (const EnginePartition& run : partitions) {
    total += run.wall_seconds;
  }
  return total;
}

void Engine::check_lane_count(std::size_t lanes) const {
  if (lanes == 0) {
    throw util::SimError("engine '" + name() +
                         "': run_batch needs at least one lane");
  }
  if (lanes > max_lanes()) {
    throw util::SimError(
        "engine '" + name() + "': run_batch called with " +
        std::to_string(lanes) + " lanes, above the engine's maximum "
        "of " + std::to_string(max_lanes()));
  }
}

void Engine::check_batch_lanes(
    const std::vector<mem::MemoryPool*>& lanes) const {
  check_lane_count(lanes.size());
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    if (lanes[lane] == nullptr) {
      throw util::SimError("engine '" + name() + "': run_batch lane " +
                           std::to_string(lane) + " has a null memory pool");
    }
  }
}

std::vector<EngineResult> Engine::run_batch(
    const ir::Design& design, const std::vector<mem::MemoryPool*>& lanes,
    const EngineRunOptions& options) {
  check_batch_lanes(lanes);
  std::vector<EngineResult> results;
  results.reserve(lanes.size());
  for (mem::MemoryPool* pool : lanes) {
    results.push_back(run(design, *pool, options));
  }
  return results;
}

namespace {

struct Registry {
  std::mutex mutex;
  std::map<std::string, EngineFactory> factories;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace

void register_engine(const std::string& name, EngineFactory factory) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.factories[name] = std::move(factory);
}

bool has_engine(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.factories.find(name) != reg.factories.end();
}

std::vector<std::string> engine_names() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.factories.size());
  for (const auto& [name, factory] : reg.factories) {
    (void)factory;
    names.push_back(name);
  }
  return names;
}

std::unique_ptr<Engine> make_engine(const std::string& name) {
  EngineFactory factory;
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto it = reg.factories.find(name);
    if (it != reg.factories.end()) {
      factory = it->second;
    }
  }
  if (!factory) {
    std::string known;
    for (const std::string& candidate : engine_names()) {
      known += known.empty() ? "" : ", ";
      known += candidate;
    }
    throw util::SimError("unknown engine '" + name + "' (registered: " +
                         (known.empty() ? "none" : known) + ")");
  }
  return factory();
}

}  // namespace fti::sim
