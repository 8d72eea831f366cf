#include "fti/elab/checked.hpp"

#include "fti/obs/metrics.hpp"
#include "fti/util/error.hpp"

namespace fti::elab {

CheckedDesign::CheckedDesign(const ir::Design& design) : design_(design) {
  ir::validate(design);
  for (const auto& [name, config] : design.configurations) {
    nodes_.emplace(name, Node{&config, nullptr, nullptr, nullptr, nullptr});
  }
}

CheckedDesign::CheckedDesign(const ir::Design& design, const cache::Key& key)
    : CheckedDesign(design) {
  key_ = key;
}

const CheckedDesign::Node& CheckedDesign::node(std::string_view name) const {
  auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    throw util::IrError("design '" + design_.name + "' has no configuration '" +
                        std::string(name) + "'");
  }
  return it->second;
}

const ir::ConfigSlots& CheckedDesign::slots_locked(const Node& entry) const {
  static obs::Counter& resolutions = obs::counter("elab.slot_resolutions");
  if (entry.slots == nullptr) {
    entry.slots = std::make_unique<const ir::ConfigSlots>(ir::resolve_slots(
        *entry.config, ir::DatapathIndex(entry.config->datapath)));
    resolutions.inc();
  }
  return *entry.slots;
}

const ir::CombGraph& CheckedDesign::graph_locked(const Node& entry) const {
  if (entry.graph == nullptr) {
    entry.graph =
        std::make_unique<const ir::CombGraph>(entry.config->datapath);
  }
  return *entry.graph;
}

const LevelizedSchedule& CheckedDesign::schedule_locked(
    const Node& entry) const {
  static obs::Counter& builds = obs::counter("elab.schedule_builds");
  if (entry.schedule == nullptr) {
    entry.schedule = std::make_unique<const LevelizedSchedule>(
        build_levelized_schedule(graph_locked(entry)));
    builds.inc();
  }
  return *entry.schedule;
}

const ir::ConfigSlots& CheckedDesign::slots(std::string_view name) const {
  const Node& entry = node(name);
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_locked(entry);
}

const ir::CombGraph& CheckedDesign::graph(std::string_view name) const {
  const Node& entry = node(name);
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_locked(entry);
}

const LevelizedSchedule& CheckedDesign::schedule(std::string_view name) const {
  static obs::Counter& hits = obs::counter("elab.schedule_hits");
  const Node& entry = node(name);
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry.schedule != nullptr) {
    hits.inc();
  }
  return schedule_locked(entry);
}

const StateSlices& CheckedDesign::slices(std::string_view name) const {
  static obs::Counter& builds = obs::counter("elab.slice_builds");
  const Node& entry = node(name);
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry.slices == nullptr) {
    entry.slices = std::make_unique<const StateSlices>(build_state_slices(
        *entry.config, slots_locked(entry), schedule_locked(entry)));
    builds.inc();
  }
  return *entry.slices;
}

const cache::Key& CheckedDesign::key() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!key_) {
    key_ = cache::hash_design(design_);
  }
  return *key_;
}

}  // namespace fti::elab
