#include "fti/elab/levelized.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "fti/ir/comb_graph.hpp"
#include "fti/util/error.hpp"

namespace fti::elab {
namespace {

// The combinational classification and per-unit dependency lists live in
// ir/comb_graph.hpp, shared with the lint analyzer so both agree on what
// a combinational cycle is.

const std::string& comb_output(const ir::Unit& unit) {
  return unit.kind == ir::UnitKind::kMemPort ? unit.port("dout")
                                             : unit.port("out");
}

}  // namespace

LevelizedSchedule build_levelized_schedule(const ir::Datapath& datapath) {
  std::vector<const ir::Unit*> comb;
  for (const ir::Unit& unit : datapath.units) {
    if (ir::is_combinational(unit)) {
      comb.push_back(&unit);
    }
  }
  std::map<std::string, std::size_t> producer;
  for (std::size_t i = 0; i < comb.size(); ++i) {
    producer.emplace(comb_output(*comb[i]), i);
  }
  std::vector<std::vector<std::size_t>> successors(comb.size());
  std::vector<std::size_t> indegree(comb.size(), 0);
  for (std::size_t i = 0; i < comb.size(); ++i) {
    for (const std::string& wire : ir::comb_input_wires(*comb[i])) {
      auto it = producer.find(wire);
      if (it == producer.end()) {
        continue;  // sequential output, control wire or primary input
      }
      successors[it->second].push_back(i);
      ++indegree[i];
    }
  }
  // Level-synchronous Kahn: rank r holds every unit whose inputs are all
  // satisfied by ranks < r; declaration order within a rank keeps the
  // schedule deterministic.
  LevelizedSchedule schedule;
  std::vector<std::size_t> level;
  for (std::size_t i = 0; i < comb.size(); ++i) {
    if (indegree[i] == 0) {
      level.push_back(i);
    }
  }
  std::size_t scheduled = 0;
  while (!level.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : level) {
      schedule.steps.push_back({comb[i], schedule.depth});
      ++scheduled;
      for (std::size_t successor : successors[i]) {
        if (--indegree[successor] == 0) {
          next.push_back(successor);
        }
      }
    }
    std::sort(next.begin(), next.end());
    level = std::move(next);
    ++schedule.depth;
  }
  if (scheduled != comb.size()) {
    std::string message = "levelized: combinational cycle in datapath '" +
                          datapath.name + "':";
    for (const ir::CombCycle& cycle :
         ir::find_combinational_cycles(datapath)) {
      message += " [" + cycle.to_string() + "]";
    }
    throw util::SimError(message);
  }
  return schedule;
}

std::shared_ptr<const LevelizedSchedule> acquire_levelized_schedule(
    const ir::Design& design, const std::string& node) {
  return std::make_shared<const LevelizedSchedule>(
      build_levelized_schedule(design.configuration(node).datapath));
}

}  // namespace fti::elab
