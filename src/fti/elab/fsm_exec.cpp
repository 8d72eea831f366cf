#include "fti/elab/fsm_exec.hpp"

#include "fti/util/error.hpp"

namespace fti::elab {

FsmExecutor::FsmExecutor(std::string name, const ir::Fsm& fsm,
                         const ir::Datapath& datapath, sim::Net& clock,
                         std::vector<sim::Net*> control_nets,
                         std::vector<sim::Net*> status_nets)
    : Component(std::move(name)), clock_(clock),
      controls_(std::move(control_nets)), statuses_(std::move(status_nets)) {
  FTI_ASSERT(controls_.size() == datapath.control_wires.size(),
             "control net list does not match the datapath");
  FTI_ASSERT(statuses_.size() == datapath.status_wires.size(),
             "status net list does not match the datapath");

  auto status_index = [&datapath](const std::string& wire) {
    for (std::size_t i = 0; i < datapath.status_wires.size(); ++i) {
      if (datapath.status_wires[i] == wire) {
        return i;
      }
    }
    throw util::IrError("guard uses unknown status wire '" + wire + "'");
  };
  auto control_index = [&datapath](const std::string& wire) {
    for (std::size_t i = 0; i < datapath.control_wires.size(); ++i) {
      if (datapath.control_wires[i] == wire) {
        return i;
      }
    }
    throw util::IrError("state assigns unknown control wire '" + wire + "'");
  };

  states_.reserve(fsm.states.size());
  for (const ir::State& state : fsm.states) {
    CompiledState compiled;
    compiled.name = state.name;
    compiled.control_values.reserve(controls_.size());
    for (sim::Net* control : controls_) {
      compiled.control_values.emplace_back(control->width(), 0);
    }
    for (const ir::ControlAssign& assign : state.controls) {
      std::size_t index = control_index(assign.wire);
      compiled.control_values[index] =
          sim::Bits(controls_[index]->width(), assign.value);
    }
    for (const ir::Transition& transition : state.transitions) {
      CompiledTransition compiled_transition;
      compiled_transition.target = fsm.state_index(transition.target);
      compiled_transition.guard_text = ir::to_string(transition.guard);
      for (const ir::GuardLiteral& literal : transition.guard.literals) {
        compiled_transition.literals.push_back(
            {status_index(literal.status), literal.expected});
      }
      compiled.transitions.push_back(std::move(compiled_transition));
    }
    states_.push_back(std::move(compiled));
  }
  current_ = fsm.state_index(fsm.initial);
  visits_.assign(states_.size(), 0);
  clock_.add_listener(this, sim::Listen::kRising);
}

const std::string& FsmExecutor::current_state() const {
  return states_[current_].name;
}

void FsmExecutor::drive_controls(sim::Kernel& kernel, bool force) {
  const CompiledState& state = states_[current_];
  for (std::size_t i = 0; i < controls_.size(); ++i) {
    // Skipping unchanged values keeps the event count proportional to
    // activity, which is the point of event-driven simulation.
    if (force || controls_[i]->value() != state.control_values[i]) {
      kernel.schedule(*controls_[i], state.control_values[i], 0);
    }
  }
}

void FsmExecutor::initialize(sim::Kernel& kernel) {
  visits_[current_] += 1;
  drive_controls(kernel, /*force=*/true);
}

sim::FsmCoverage FsmExecutor::coverage() const {
  sim::FsmCoverage report;
  report.fsm = name();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    report.states.push_back({states_[i].name, visits_[i]});
    for (const CompiledTransition& transition : states_[i].transitions) {
      report.transitions.push_back({states_[i].name,
                                    states_[transition.target].name,
                                    transition.guard_text,
                                    transition.taken});
    }
  }
  return report;
}

void FsmExecutor::evaluate(sim::Kernel& kernel) {
  if (!kernel.rising(clock_)) {
    return;
  }
  ++steps_;
  CompiledState& state = states_[current_];
  for (CompiledTransition& transition : state.transitions) {
    bool taken = true;
    for (const CompiledLiteral& literal : transition.literals) {
      bool level = !statuses_[literal.status_index]->value().is_zero();
      if (level != literal.expected) {
        taken = false;
        break;
      }
    }
    if (taken) {
      ++transition.taken;
      current_ = transition.target;
      visits_[current_] += 1;
      break;
    }
  }
  drive_controls(kernel, /*force=*/false);
}

}  // namespace fti::elab
