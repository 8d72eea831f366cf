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
// walks it too.
//
// Combinational cycles are detected at schedule-build time instead of via
// the kernel's delta-cycle limit, so a bad design fails before the first
// cycle runs.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

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

/// Shared handle to an immutable schedule.  The steps point into the
/// datapath the schedule was built from, so the handle's owner must
/// keep that design alive (the design cache hands out aliasing
/// pointers that do exactly that).
using SharedSchedule = std::shared_ptr<const LevelizedSchedule>;

/// Memoization hook for schedules.  Given the design being elaborated
/// and the RTG node, a provider returns a schedule previously built
/// from *that design object* (pointer identity -- a provider must never
/// return a schedule built from a different design instance, even an
/// equal-content one, because the steps would dangle), or nullptr to
/// decline, in which case the engines build fresh.  Installed
/// process-wide by the design cache (cache/design_cache.hpp).
using ScheduleProvider = SharedSchedule (*)(const ir::Design& design,
                                            const std::string& node);

/// Replaces the process-global provider; nullptr restores the default
/// (always build fresh).  Thread-safe against acquire calls.
void set_schedule_provider(ScheduleProvider provider);

/// The schedule for `design.configuration(node)`: from the installed
/// provider when it has one, freshly built otherwise.  This is the one
/// entry point the batched and compiled engines use, so installing a
/// provider accelerates both.
SharedSchedule acquire_levelized_schedule(const ir::Design& design,
                                          const std::string& node);

}  // namespace fti::elab
