#include "fti/ir/slots.hpp"

#include <charconv>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace fti::ir {
namespace {

/// The field that holds port `name`, or nullptr for a mux input.
std::size_t* field_of(UnitSlots& unit, std::string_view name) {
  static constexpr std::pair<std::string_view, std::size_t UnitSlots::*>
      kFields[] = {{"out", &UnitSlots::out}, {"dout", &UnitSlots::out},
                   {"a", &UnitSlots::a},     {"b", &UnitSlots::b},
                   {"sel", &UnitSlots::sel}, {"d", &UnitSlots::d},
                   {"q", &UnitSlots::q},     {"en", &UnitSlots::en},
                   {"rst", &UnitSlots::rst}, {"addr", &UnitSlots::addr},
                   {"din", &UnitSlots::din}, {"we", &UnitSlots::we}};
  for (const auto& [port, member] : kFields) {
    if (port == name) {
      return &(unit.*member);
    }
  }
  return nullptr;
}

}  // namespace

ConfigSlots resolve_slots(const Configuration& config,
                          const DatapathIndex& index) {
  const Datapath& datapath = config.datapath;
  ConfigSlots slots;
  slots.first_unit = datapath.units.data();
  slots.units.reserve(datapath.units.size());
  for (const Unit& unit : datapath.units) {
    UnitSlots& ports = slots.units.emplace_back();
    ports.in.assign(unit.kind == UnitKind::kMux ? unit.mux_inputs : 0, kNone);
    for (const auto& [name, wire] : unit.ports) {
      const std::size_t slot = index.slot(wire);
      if (std::size_t* field = field_of(ports, name)) {
        *field = slot;
        continue;
      }
      // validate admits no other port than a mux's "in<i>": place it by
      // its number, not by the map's order ("in10" sorts before "in2").
      std::size_t input = 0;
      std::from_chars(name.data() + 2, name.data() + name.size(), input);
      ports.in.at(input) = slot;
    }
    if (unit.kind == UnitKind::kMemPort) {
      ports.memory = static_cast<std::size_t>(
          index.find_memory(unit.memory) - datapath.memories.data());
    }
  }
  for (const std::string& control : datapath.control_wires) {
    slots.controls.push_back(index.slot(control));
  }
  // Per wire, its first listing among the controls; a wire listed twice
  // chains to its next listing.
  std::vector<std::size_t> first(datapath.wires.size(), kNone);
  std::vector<std::size_t> next(slots.controls.size(), kNone);
  for (std::size_t c = slots.controls.size(); c-- > 0;) {
    next[c] = std::exchange(first[slots.controls[c]], c);
  }
  for (const std::string& wire : traced_wires(datapath)) {
    slots.traced.push_back(index.slot(wire));
  }

  const Fsm& fsm = config.fsm;
  std::unordered_map<std::string_view, std::size_t> state_of;
  for (std::size_t s = 0; s < fsm.states.size(); ++s) {
    state_of.emplace(fsm.states[s].name, s);
  }
  for (const State& state : fsm.states) {
    StateSlots& resolved = slots.states.emplace_back();
    for (const ControlAssign& assign : state.controls) {
      for (std::size_t c = first[index.slot(assign.wire)]; c != kNone;
           c = next[c]) {
        resolved.controls.push_back({c, assign.value});
      }
    }
    for (const Transition& transition : state.transitions) {
      TransitionSlots& edge = resolved.transitions.emplace_back();
      for (const GuardLiteral& literal : transition.guard.literals) {
        edge.literals.push_back({index.slot(literal.status), literal.expected});
      }
      edge.target = state_of.at(transition.target);
    }
  }
  slots.initial = state_of.at(fsm.initial);
  slots.done = index.slot(fsm.done_wire);
  return slots;
}

}  // namespace fti::ir
