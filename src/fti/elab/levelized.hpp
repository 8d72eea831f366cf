// The levelized schedule -- the classic alternative to event-driven
// simulation for synchronous designs.  At elaboration time the
// combinational units of a configuration are topologically sorted into
// ranks; one clock cycle is then a single straight-line sweep over the
// rank-ordered schedule with no event wheel, no wake lists and no delta
// cycles.  Correct because every combinational input is either a
// sequential output (stable during the sweep) or the output of a
// lower-rank unit (already up to date).
//
// The batched engine (batched.hpp) interprets the schedule, in 2-state
// or 4-state mode; the registry name "levelized" is that engine at one
// lane.  The compiled engine lowers it to C++, and the lint analyzer
// walks it too.  The engines take each node's schedule from the design's
// CheckedDesign handle (checked.hpp), which builds it once.
//
// Combinational cycles are detected at schedule-build time instead of via
// the kernel's delta-cycle limit, so a bad design fails before the first
// cycle runs.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "fti/ir/comb_graph.hpp"
#include "fti/ir/rtg.hpp"

namespace fti::elab {

/// Rank-ordered static schedule of a datapath's combinational units.
struct LevelizedSchedule {
  struct Step {
    const ir::Unit* unit;
    /// Longest combinational distance from a sequential/constant source;
    /// steps are sorted by rank, declaration order within a rank.
    std::size_t rank;
  };
  std::vector<Step> steps;
  /// Number of distinct ranks (the combinational depth of the datapath).
  std::size_t depth = 0;
};

/// Level-synchronous topological sort of the datapath's combinational
/// units (binops with latency 0, unops, consts, muxes and memory-port
/// read paths).  Throws SimError naming the units on a combinational
/// cycle.
LevelizedSchedule build_levelized_schedule(const ir::Datapath& datapath);

/// The same schedule, ranked from an already built graph of the datapath
/// (CheckedDesign keeps one per configuration).
LevelizedSchedule build_levelized_schedule(const ir::CombGraph& graph);

/// A freshly built schedule for `design.configuration(node)`; its steps
/// point into that datapath, so the caller keeps the design alive.  The
/// engines take theirs from CheckedDesign::schedule (checked.hpp), which
/// builds each node's once per handle.
std::shared_ptr<const LevelizedSchedule> acquire_levelized_schedule(
    const ir::Design& design, const std::string& node);

}  // namespace fti::elab
