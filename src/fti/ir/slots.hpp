// Name resolution for one validated configuration, done once.
//
// The compiler's XML links units to wires, states to control wires and
// guards to status wires by name.  resolve_slots turns every one of
// those names into a position: a wire's slot (DatapathIndex::slot), a
// memory's place in Datapath::memories, a state's place in Fsm::states.
// The sweep oracle, the batched interpreter, the dataflow lint tier and
// the C++ emitter read this table and look no name up themselves; each
// keeps its own execution rules (the zero default of an unassigned
// control, the first true transition, power-up).  elab::CheckedDesign
// keeps one table per configuration; callers holding raw IR that has
// passed validate resolve their own.
//
// The event engine's elaborator and FsmExecutor still wire by name, on
// purpose: a fault here then shows as an engine-parity mismatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fti/ir/rtg.hpp"

namespace fti::ir {

/// An absent optional port, or a port the unit's kind does not have.
inline constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// The wire slots of one unit's ports.
struct UnitSlots {
  std::size_t out = kNone;  ///< "out", or a memory port's "dout"
  std::size_t a = kNone;
  std::size_t b = kNone;
  std::size_t sel = kNone;
  std::vector<std::size_t> in;  ///< a mux's "in0".."in<n-1>", by number
  std::size_t d = kNone;
  std::size_t q = kNone;
  std::size_t en = kNone;
  std::size_t rst = kNone;
  std::size_t addr = kNone;
  std::size_t din = kNone;
  std::size_t we = kNone;
  std::size_t memory = kNone;  ///< the memory's place in Datapath::memories
};

struct LiteralSlot {
  std::size_t status;  ///< the status wire's slot
  bool expected;
};

struct TransitionSlots {
  std::vector<LiteralSlot> literals;  ///< in guard order
  std::size_t target;                 ///< place in Fsm::states
};

struct StateSlots {
  struct Assign {
    std::size_t control;  ///< place in Datapath::control_wires
    std::uint64_t value;
  };
  /// In declaration order; an assignment to a wire listed twice among
  /// the controls appears once per listing.
  std::vector<Assign> controls;
  std::vector<TransitionSlots> transitions;
};

/// Views the configuration it was resolved from, like DatapathIndex.
struct ConfigSlots {
  std::vector<UnitSlots> units;    ///< parallel to Datapath::units
  std::vector<StateSlots> states;  ///< parallel to Fsm::states
  std::size_t initial = 0;         ///< the initial state's place
  std::size_t done = 0;            ///< the done wire's slot
  std::vector<std::size_t> controls;  ///< parallel to control_wires
  std::vector<std::size_t> traced;    ///< parallel to traced_wires()
  const Unit* first_unit = nullptr;

  /// The entry of `unit`, an element of the resolved datapath's units.
  const UnitSlots& of(const Unit& unit) const {
    return units.at(static_cast<std::size_t>(&unit - first_unit));
  }
};

/// Resolves every name of `config`, which must have passed validate;
/// `index` indexes its datapath.
ConfigSlots resolve_slots(const Configuration& config,
                          const DatapathIndex& index);

}  // namespace fti::ir
