#include "fti/elab/slices.hpp"

#include <initializer_list>
#include <limits>

#include "fti/sim/bits.hpp"

namespace fti::elab {

using ir::kNone;

namespace {

/// Bourdoncle's recursive strategy, with the recursion on an explicit
/// stack so a long FSM cannot exhaust the thread's.  visit(v) numbers v
/// and returns the lowest number reachable through unfinished states; a
/// state whose own number comes back heads a loop, whose other states
/// are renumbered and laid out after it (component(v)).  Each finished
/// state or loop is put before what its partition already holds, so a
/// partition is kept reversed and read backwards at the end.
std::vector<std::uint32_t> weak_topological_order(
    const ir::ConfigSlots& slots) {
  const std::size_t count = slots.states.size();
  constexpr std::uint32_t kFinished = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> number(count, 0);  // 0: not visited yet
  std::uint32_t numbered = 0;
  std::vector<std::uint32_t> pending;  // the states of unfinished visits
  struct Frame {
    std::uint32_t state;
    bool component;         ///< component(state), else visit(state)
    std::size_t next = 0;   ///< the next transition to follow
    std::uint32_t head = 0;  ///< visit: the lowest number reached
    bool loop = false;      ///< visit: a transition closed a loop
  };
  std::vector<Frame> frames;
  std::vector<std::vector<std::uint32_t>> partitions(1);
  auto visit = [&](std::size_t state) {
    pending.push_back(static_cast<std::uint32_t>(state));
    number[state] = ++numbered;
    frames.push_back({static_cast<std::uint32_t>(state), false, 0, numbered});
  };
  visit(slots.initial);
  while (!frames.empty()) {
    Frame& frame = frames.back();
    const std::vector<ir::TransitionSlots>& transitions =
        slots.states[frame.state].transitions;
    if (frame.next < transitions.size()) {
      const std::size_t target = transitions[frame.next++].target;
      if (number[target] == 0) {
        visit(target);  // its head is folded in when it finishes
      } else if (!frame.component && number[target] <= frame.head) {
        frame.head = number[target];
        frame.loop = true;
      }
      continue;
    }
    const Frame done = frame;
    frames.pop_back();
    if (done.component) {
      std::vector<std::uint32_t> inner = std::move(partitions.back());
      partitions.pop_back();
      partitions.back().insert(partitions.back().end(), inner.begin(),
                               inner.end());
      partitions.back().push_back(done.state);
      continue;
    }
    if (!frames.empty() && !frames.back().component &&
        done.head <= frames.back().head) {
      frames.back().head = done.head;
      frames.back().loop = true;
    }
    if (done.head != number[done.state]) {
      continue;  // part of a loop headed further up
    }
    number[done.state] = kFinished;
    std::uint32_t element = pending.back();
    pending.pop_back();
    if (!done.loop) {
      partitions.back().push_back(done.state);
      continue;
    }
    while (element != done.state) {
      number[element] = 0;
      element = pending.back();
      pending.pop_back();
    }
    partitions.emplace_back();
    frames.push_back({done.state, true});
  }
  std::vector<std::uint32_t> order(count, kFinished);
  std::uint32_t position = 0;
  for (auto it = partitions.front().rbegin(); it != partitions.front().rend();
       ++it) {
    order[*it] = position++;
  }
  for (std::uint32_t& place : order) {
    if (place == kFinished) {
      place = position++;
    }
  }
  return order;
}

}  // namespace

StateSlices build_state_slices(const ir::Configuration& config,
                               const ir::ConfigSlots& slots,
                               const LevelizedSchedule& schedule) {
  const ir::Datapath& datapath = config.datapath;
  const std::size_t state_count = slots.states.size();
  StateSlices slices;
  slices.states.resize(state_count);
  slices.state_words = (state_count + 63) / 64;

  // The ops the sweep evaluates and the op driving each wire.
  std::vector<const ir::UnitSlots*> ops;
  std::vector<std::size_t> driver(datapath.wires.size(), kNone);
  for (const LevelizedSchedule::Step& step : schedule.steps) {
    if (step.unit->kind == ir::UnitKind::kConst) {
      continue;
    }
    const ir::UnitSlots& ports = slots.of(*step.unit);
    if (driver[ports.out] == kNone) {
      driver[ports.out] = ops.size();
    }
    ops.push_back(&ports);
  }
  slices.ops = ops.size();
  slices.op_states.assign(ops.size() * slices.state_words, 0);
  slices.order = weak_topological_order(slots);

  // Each state's value of every control, per wire: all listings of a
  // wire carry the same value, so the first one speaks for it.
  std::vector<std::size_t> listing(datapath.wires.size(), kNone);
  for (std::size_t c = slots.controls.size(); c-- > 0;) {
    listing[slots.controls[c]] = c;
  }
  std::vector<std::vector<std::uint64_t>> rows(state_count);
  for (std::size_t s = 0; s < state_count; ++s) {
    rows[s].assign(slots.controls.size(), 0);
    for (const auto& [control, value] : slots.states[s].controls) {
      const ir::Wire& wire = datapath.wires[slots.controls[control]];
      rows[s][control] = value & sim::Bits::mask(wire.width);
    }
  }
  auto is_control = [&](std::size_t wire) {
    return wire != kNone && listing[wire] != kNone;
  };
  auto value_in = [&](std::size_t s, std::size_t wire) {
    return rows[s][listing[wire]];
  };
  // Registers, write ports and pipelined units, in declaration order.
  std::vector<const ir::UnitSlots*> registers;
  std::vector<const ir::UnitSlots*> writes;
  std::vector<const ir::UnitSlots*> pipelined;
  for (const ir::Unit& unit : datapath.units) {
    const ir::UnitSlots& ports = slots.of(unit);
    if (unit.kind == ir::UnitKind::kRegister) {
      registers.push_back(&ports);
    } else if (unit.kind == ir::UnitKind::kMemPort &&
               unit.mem_mode != ir::MemMode::kRead) {
      writes.push_back(&ports);
    } else if (unit.kind == ir::UnitKind::kBinOp && unit.latency > 0) {
      pipelined.push_back(&ports);
    }
  }
  // A register whose enable and reset are both controls loads exactly in
  // the states that assert one of them; the rest are scanned every edge.
  auto gated = [&](const ir::UnitSlots& reg) {
    return is_control(reg.en) && (reg.rst == kNone || is_control(reg.rst));
  };
  for (std::size_t r = 0; r < registers.size(); ++r) {
    if (!gated(*registers[r])) {
      slices.scanned.push_back(static_cast<std::uint32_t>(r));
    }
  }

  // The wires a cycle reads, whatever the state: every op input, every
  // register's d and rst (and a scanned one's en), every write port and
  // pipelined operand, and done.  A control outside this set is only
  // ever observed through traces and finals.
  std::vector<std::uint8_t> read(datapath.wires.size(), 0);
  auto reads = [&](std::initializer_list<std::size_t> wires) {
    for (std::size_t wire : wires) {
      if (wire != kNone) {
        read[wire] = 1;
      }
    }
  };
  reads({slots.done});
  for (const ir::UnitSlots* op : ops) {
    reads({op->a, op->b, op->sel, op->addr});
    for (std::size_t wire : op->in) {
      reads({wire});
    }
  }
  for (const ir::UnitSlots* reg : registers) {
    reads({reg->d, reg->rst, gated(*reg) ? kNone : reg->en});
  }
  for (const ir::UnitSlots* write : writes) {
    reads({write->we, write->addr, write->din});
  }
  for (const ir::UnitSlots* pipe : pipelined) {
    reads({pipe->a, pipe->b});
  }
  auto changes = [&](const std::vector<std::uint64_t>& from,
                     const std::vector<std::uint64_t>& to) {
    ControlChanges changed;
    for (bool first : {true, false}) {
      for (std::size_t c = 0; c < slots.controls.size(); ++c) {
        const std::size_t wire = slots.controls[c];
        if (listing[wire] == c && from[c] != to[c] &&
            (read[wire] != 0) == first) {
          changed.wires.push_back({wire, to[c]});
        }
      }
      if (first) {
        changed.read = changed.wires.size();
      }
    }
    return changed;
  };
  slices.power_up = changes(std::vector<std::uint64_t>(slots.controls.size()),
                            rows[slots.initial]);

  constexpr std::size_t kUnmarked = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> marked(ops.size(), kUnmarked);
  std::vector<std::size_t> stack;
  for (std::size_t s = 0; s < state_count; ++s) {
    StateSlice& slice = slices.states[s];
    auto asserts = [&](std::size_t wire) {
      return is_control(wire) && value_in(s, wire) != 0;
    };
    auto root = [&](std::size_t wire) {
      if (wire != kNone) {
        stack.push_back(wire);
      }
    };
    auto register_roots = [&](const ir::UnitSlots& reg) {
      root(reg.en);
      root(reg.rst);
      if (!asserts(reg.rst)) {  // a state holding reset high never reads d
        root(reg.d);
      }
    };
    root(slots.done);
    for (std::size_t r = 0; r < registers.size(); ++r) {
      const ir::UnitSlots& reg = *registers[r];
      if (gated(reg) && (asserts(reg.en) || asserts(reg.rst))) {
        slice.loads.push_back(static_cast<std::uint32_t>(r));
        register_roots(reg);
      }
    }
    for (std::uint32_t r : slices.scanned) {
      register_roots(*registers[r]);
    }
    for (const ir::UnitSlots* write : writes) {
      if (!is_control(write->we) || asserts(write->we)) {
        root(write->we);
        root(write->addr);
        root(write->din);
      }
    }
    for (const ir::UnitSlots* pipe : pipelined) {
      root(pipe->a);
      root(pipe->b);
    }
    for (const ir::TransitionSlots& transition : slots.states[s].transitions) {
      for (const ir::LiteralSlot& literal : transition.literals) {
        root(literal.status);
      }
      slice.changes.push_back(changes(rows[s], rows[transition.target]));
    }

    while (!stack.empty()) {
      const std::size_t op = driver[stack.back()];
      stack.pop_back();
      if (op == kNone || marked[op] == s) {
        continue;
      }
      marked[op] = s;
      const ir::UnitSlots& ports = *ops[op];
      for (std::size_t wire : {ports.a, ports.b, ports.addr, ports.sel}) {
        root(wire);
      }
      if (is_control(ports.sel)) {
        const std::uint64_t selected = value_in(s, ports.sel);
        if (selected < ports.in.size()) {
          root(ports.in[selected]);
        }
      } else {
        for (std::size_t wire : ports.in) {
          root(wire);
        }
      }
    }
    for (std::size_t op = 0; op < ops.size(); ++op) {
      if (marked[op] == s) {
        slice.ops.push_back(static_cast<std::uint32_t>(op));
        slices.op_states[op * slices.state_words + s / 64] |= 1ull << (s % 64);
      }
    }
  }
  return slices;
}

}  // namespace fti::elab
