#include "fti/elab/levelized.hpp"

#include "fti/util/error.hpp"

namespace fti::elab {

LevelizedSchedule build_levelized_schedule(const ir::Datapath& datapath) {
  return build_levelized_schedule(ir::CombGraph(datapath));
}

LevelizedSchedule build_levelized_schedule(const ir::CombGraph& graph) {
  const auto order = graph.levelize();
  if (!order) {
    std::string message = "levelized: combinational cycle in datapath '" +
                          graph.datapath().name + "':";
    for (const ir::CombCycle& cycle : graph.cycles()) {
      message += " [" + cycle.to_string() + "]";
    }
    throw util::SimError(message);
  }
  LevelizedSchedule schedule;
  for (const ir::CombGraph::Ranked& step : *order) {
    schedule.steps.push_back({step.unit, step.rank});
    schedule.depth = step.rank + 1;
  }
  return schedule;
}

std::shared_ptr<const LevelizedSchedule> acquire_levelized_schedule(
    const ir::Design& design, const std::string& node) {
  return std::make_shared<const LevelizedSchedule>(
      build_levelized_schedule(design.configuration(node).datapath));
}

}  // namespace fti::elab
