// Behavioural FSM executor -- the runtime object the paper's flow produces
// by translating fsm.xml to Java ("to java" -> fsm.class).  Here the XML is
// translated to a table-driven component instead of generated source: same
// role, no compilation round-trip.
//
// Moore semantics: on each rising clock edge the guards of the current
// state's transitions are evaluated (in order, first match wins) against
// the settled pre-edge status values; the control vector of the new state
// is then driven in the following delta.  When no guard matches, the
// machine stays put.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fti/ir/fsm.hpp"
#include "fti/sim/component.hpp"
#include "fti/sim/coverage.hpp"
#include "fti/sim/kernel.hpp"

namespace fti::elab {

class FsmExecutor : public sim::Component {
 public:
  /// `control_nets[i]` is the net for `datapath.control_wires[i]`; same
  /// for statuses.  The tables are compiled at construction so evaluate()
  /// is branch-table execution only.
  FsmExecutor(std::string name, const ir::Fsm& fsm,
              const ir::Datapath& datapath, sim::Net& clock,
              std::vector<sim::Net*> control_nets,
              std::vector<sim::Net*> status_nets);

  void initialize(sim::Kernel& kernel) override;
  void evaluate(sim::Kernel& kernel) override;

  /// Name of the state the machine currently sits in.
  const std::string& current_state() const;

  /// Rising edges consumed (== control steps executed).
  std::uint64_t steps() const { return steps_; }

  /// Visit counts per state, in FSM state order -- the per-state coverage
  /// a hardware implementation cannot report without extra probes.
  const std::vector<std::uint64_t>& state_visits() const { return visits_; }

  /// Full state/transition coverage of the run so far.
  sim::FsmCoverage coverage() const;

 private:
  struct CompiledLiteral {
    std::size_t status_index;
    bool expected;
  };
  struct CompiledTransition {
    std::vector<CompiledLiteral> literals;
    std::size_t target;
    std::string guard_text;
    std::uint64_t taken = 0;
  };
  struct CompiledState {
    std::string name;
    /// Values for every control net, in control_nets order.
    std::vector<sim::Bits> control_values;
    std::vector<CompiledTransition> transitions;
  };

  void drive_controls(sim::Kernel& kernel, bool force);

  sim::Net& clock_;
  std::vector<sim::Net*> controls_;
  std::vector<sim::Net*> statuses_;
  std::vector<CompiledState> states_;
  std::size_t current_ = 0;
  std::uint64_t steps_ = 0;
  std::vector<std::uint64_t> visits_;
};

}  // namespace fti::elab
