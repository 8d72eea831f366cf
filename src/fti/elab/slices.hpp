// State slices: what each FSM state of a configuration can observe.
//
// A levelized sweep recomputes every combinational wire from registers,
// controls and memories each cycle, but a state reads only a few of
// them before its next edge: the done wire, the inputs of the registers
// it loads and of every register sampled on each edge, the write ports
// it may enable, the operands of pipelined units and the status wires
// of its guards.  A state's slice is the rank-ordered set of
// combinational ops in the fan-in cones of those roots; a mux whose
// select is an FSM control contributes only the input the state
// selects (none for a select at or past its input count).
//
// Skipping the rest of the sweep is unobservable: combinational wires
// hold no state, the traced wires are register outputs and controls
// (ir::traced_wires), an out-of-range read yields 0 without throwing, a
// status wire is never a control (ir::validate), and 4-state findings
// are raised only at slice roots.  The batched engine sweeps the union
// of the slices of the states its active lanes occupy; the reference
// interpreter keeps a full sweep, so a slicing fault shows as a
// mismatch against it.
//
// The same pass lays out the edge work by state: which control-gated
// registers load in each state, which registers are sampled on every
// edge, and which control wires each transition changes -- those a
// cycle reads first, then those only traces and finals observe (the
// enables of control-gated registers, which the edge looks up by
// state instead).
//
// It also orders the states for a batch whose lanes diverge: the
// batched engine advances only the lanes of the occupied state that
// comes first in a weak topological order of the FSM (Bourdoncle,
// "Efficient chaotic iteration strategies with widenings", 1993), in
// which a loop's states follow its head and precede its exits, and the
// arms of a branch precede their join.  Lanes that run ahead wait where
// the others will arrive, so the batch reconverges and one sweep serves
// them all.  The state index will not do: HLS allocates a branch's join
// and a loop's exit before their bodies.
// CheckedDesign::slices builds one per configuration, once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fti/elab/levelized.hpp"
#include "fti/ir/slots.hpp"

namespace fti::elab {

/// A control wire taking a new value.
struct ControlChange {
  std::size_t wire;     ///< the control's wire slot
  std::uint64_t value;  ///< masked to the wire's width
};

/// The controls one transition changes, once per wire: first the `read`
/// wires some op, register, write port, pipelined unit or done reads,
/// then the rest.
struct ControlChanges {
  std::vector<ControlChange> wires;
  std::size_t read = 0;
};

struct StateSlice {
  /// Positions among the schedule's non-constant steps (constants never
  /// need re-evaluating), in rank order.
  std::vector<std::uint32_t> ops;
  /// Control-gated registers that load in this state (positions among
  /// the datapath's register units): their enable or reset is a control
  /// the state asserts.
  std::vector<std::uint32_t> loads;
  /// Per transition, in order: the control wires whose value in the
  /// target differs from this state's.
  std::vector<ControlChanges> changes;
};

struct StateSlices {
  std::vector<StateSlice> states;  ///< parallel to Fsm::states
  /// Registers whose enable or reset is not a control, sampled on every
  /// edge (positions among the register units).
  std::vector<std::uint32_t> scanned;
  /// The controls the initial state drives away from zero at power-up.
  ControlChanges power_up;
  /// The number of non-constant schedule steps.
  std::size_t ops = 0;
  /// Words per state set: ceil(states / 64).
  std::size_t state_words = 0;
  /// Per op, the set of states whose slice holds it (state_words words).
  std::vector<std::uint64_t> op_states;
  /// Per state, its position in a weak topological order of the FSM
  /// from the initial state; states the initial one cannot reach come
  /// last, in index order.
  std::vector<std::uint32_t> order;
};

/// Builds the slices of `config`, which must have passed validate;
/// `slots` and `schedule` are its resolved names and levelized schedule.
StateSlices build_state_slices(const ir::Configuration& config,
                               const ir::ConfigSlots& slots,
                               const LevelizedSchedule& schedule);

}  // namespace fti::elab
