#include "fti/elab/checked.hpp"

#include "fti/obs/metrics.hpp"
#include "fti/util/error.hpp"

namespace fti::elab {

CheckedDesign::CheckedDesign(const ir::Design& design) : design_(design) {
  ir::validate(design);
  for (const auto& [name, config] : design.configurations) {
    nodes_.emplace(name, Node{ir::resolve_slots(
                                  config, ir::DatapathIndex(config.datapath)),
                              nullptr});
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

const ir::ConfigSlots& CheckedDesign::slots(std::string_view name) const {
  return node(name).slots;
}

const LevelizedSchedule& CheckedDesign::schedule(std::string_view name) const {
  static obs::Counter& builds = obs::counter("elab.schedule_builds");
  static obs::Counter& hits = obs::counter("elab.schedule_hits");
  const Node& entry = node(name);
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry.schedule != nullptr) {
    hits.inc();
    return *entry.schedule;
  }
  entry.schedule = std::make_unique<const LevelizedSchedule>(
      build_levelized_schedule(design_.configuration(name).datapath));
  builds.inc();
  return *entry.schedule;
}

const cache::Key& CheckedDesign::key() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!key_) {
    key_ = cache::hash_design(design_);
  }
  return *key_;
}

}  // namespace fti::elab
