// Elaboration: turns one configuration's IR into a live netlist of operator
// components -- the "to hds" translation of Figure 1, executed against our
// in-process component library instead of Hades class files.
#pragma once

#include <memory>
#include <vector>

#include "fti/elab/fsm_exec.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/mem/sram.hpp"
#include "fti/mem/storage.hpp"
#include "fti/ops/clock.hpp"
#include "fti/sim/netlist.hpp"

namespace fti::elab {

/// A live, runnable configuration.  Owns the netlist; memory storage stays
/// in the caller's pool so it survives this object.
struct ElaboratedConfig {
  sim::Netlist netlist;
  sim::Net* clock = nullptr;
  sim::Net* done = nullptr;  ///< the FSM's done control wire
  ops::ClockGen* clock_gen = nullptr;
  FsmExecutor* fsm = nullptr;
  /// One multi-port SRAM per memory the datapath references (all of a
  /// memory's <unit kind="memport"> declarations collapse into one
  /// component so writes are coherent across ports).
  std::vector<mem::MultiPortSram*> srams;
};

/// Validates and elaborates `config`; memories named by the datapath are
/// created in (or fetched from) `pool`.  The reserved net name "clk" is
/// added for the clock (period ops::ClockGen::kDefaultPeriod); a datapath
/// wire of that name is rejected.
std::unique_ptr<ElaboratedConfig> elaborate(const ir::Configuration& config,
                                            mem::MemoryPool& pool);

}  // namespace fti::elab
