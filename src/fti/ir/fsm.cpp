#include "fti/ir/fsm.hpp"

#include <unordered_map>
#include <unordered_set>

#include "fti/util/error.hpp"
#include "fti/util/strings.hpp"

namespace fti::ir {

Guard parse_guard(std::string_view text) {
  Guard guard;
  std::string_view body = util::trim(text);
  if (body.empty() || body == "1" || body == "true") {
    return guard;
  }
  for (const std::string& raw : util::split(body, '&')) {
    std::string_view term = util::trim(raw);
    GuardLiteral literal;
    if (!term.empty() && term.front() == '!') {
      literal.expected = false;
      term = util::trim(term.substr(1));
    }
    if (!util::is_identifier(term)) {
      throw util::IrError("malformed guard term '" + std::string(raw) +
                          "' in guard '" + std::string(text) + "'");
    }
    literal.status = std::string(term);
    guard.literals.push_back(std::move(literal));
  }
  return guard;
}

std::string to_string(const Guard& guard) {
  if (guard.always()) {
    return "1";
  }
  std::string out;
  for (std::size_t i = 0; i < guard.literals.size(); ++i) {
    if (i > 0) {
      out += " & ";
    }
    if (!guard.literals[i].expected) {
      out += "!";
    }
    out += guard.literals[i].status;
  }
  return out;
}

const State* Fsm::find_state(std::string_view state_name) const {
  for (const State& s : states) {
    if (s.name == state_name) {
      return &s;
    }
  }
  return nullptr;
}

const State& Fsm::state(std::string_view state_name) const {
  const State* found = find_state(state_name);
  if (found == nullptr) {
    throw util::IrError("fsm '" + name + "' has no state '" +
                        std::string(state_name) + "'");
  }
  return *found;
}

std::size_t Fsm::state_index(std::string_view state_name) const {
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (states[i].name == state_name) {
      return i;
    }
  }
  throw util::IrError("fsm '" + name + "' has no state '" +
                      std::string(state_name) + "'");
}

void validate(const Fsm& fsm, const Datapath& datapath) {
  auto err = [&fsm](const std::string& message) {
    throw util::IrError("fsm '" + fsm.name + "': " + message);
  };

  // Per-call name indexes (see DatapathIndex for why the IR keeps none).
  const DatapathIndex index(datapath);
  std::unordered_map<std::string_view, const State*> states;
  for (const State& state : fsm.states) {
    states.emplace(state.name, &state);  // first declaration wins
  }
  auto control_wire = [&index](std::string_view name) -> const Wire* {
    return index.is_control(name) ? index.find_wire(name) : nullptr;
  };

  if (fsm.states.empty()) {
    err("has no states");
  }
  if (states.count(fsm.initial) == 0) {
    err("initial state '" + fsm.initial + "' does not exist");
  }
  const Wire* done = control_wire(fsm.done_wire);
  if (done == nullptr) {
    err("done wire '" + fsm.done_wire + "' is not a control wire of '" +
        datapath.name + "'");
  }
  if (done->width != 1) {
    err("done wire '" + fsm.done_wire + "' must be one bit");
  }

  for (const State& state : fsm.states) {
    if (states.at(state.name) != &state) {
      err("duplicate state '" + state.name + "'");
    }
    std::unordered_set<std::string_view> assigned;
    for (const ControlAssign& assign : state.controls) {
      const Wire* wire = control_wire(assign.wire);
      if (wire == nullptr) {
        err("state '" + state.name + "' assigns non-control wire '" +
            assign.wire + "'");
      }
      if (assign.value > sim::Bits::mask(wire->width)) {
        err("state '" + state.name + "' assigns value " +
            std::to_string(assign.value) + " beyond width of '" +
            assign.wire + "'");
      }
      if (!assigned.insert(assign.wire).second) {
        err("state '" + state.name + "' assigns '" + assign.wire +
            "' twice");
      }
    }
    for (const Transition& transition : state.transitions) {
      if (states.count(transition.target) == 0) {
        err("state '" + state.name + "' targets unknown state '" +
            transition.target + "'");
      }
      for (const GuardLiteral& literal : transition.guard.literals) {
        if (!index.is_status(literal.status)) {
          err("state '" + state.name + "' guard uses non-status wire '" +
              literal.status + "'");
        }
      }
    }
  }
}

}  // namespace fti::ir
