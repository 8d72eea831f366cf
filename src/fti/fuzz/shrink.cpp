#include "fti/fuzz/shrink.hpp"

#include <algorithm>
#include <set>

#include "fti/sim/bits.hpp"
#include "fti/util/error.hpp"

namespace fti::fuzz {
namespace {

/// Drops RTG node `name` and relinks the linear chain around it.
bool drop_rtg_node(ir::Design& design, const std::string& name) {
  if (design.rtg.nodes.size() < 2) {
    return false;
  }
  std::string pred;
  std::string succ;
  for (const ir::RtgEdge& edge : design.rtg.edges) {
    if (edge.to == name) {
      pred = edge.from;
    }
    if (edge.from == name) {
      succ = edge.to;
    }
  }
  auto& edges = design.rtg.edges;
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [&](const ir::RtgEdge& edge) {
                               return edge.from == name || edge.to == name;
                             }),
              edges.end());
  if (!pred.empty() && !succ.empty()) {
    edges.push_back({pred, succ});
  }
  auto& nodes = design.rtg.nodes;
  nodes.erase(std::remove(nodes.begin(), nodes.end(), name), nodes.end());
  design.configurations.erase(name);
  if (design.rtg.initial == name) {
    if (succ.empty()) {
      return false;  // dropping the only entry point; give up
    }
    design.rtg.initial = succ;
  }
  return true;
}

/// True when `wire` appears in any unit port of `datapath`.
bool wire_read_or_driven(const ir::Datapath& datapath,
                         const std::string& wire) {
  for (const ir::Unit& unit : datapath.units) {
    for (const auto& [port, name] : unit.ports) {
      if (name == wire) {
        return true;
      }
    }
  }
  return false;
}

class Shrinker {
 public:
  Shrinker(const ir::Design& design, const FailurePredicate& predicate,
           const ShrinkOptions& options)
      : predicate_(predicate), options_(options) {
    result_.design = design;
  }

  ShrinkResult run() {
    bool changed = true;
    while (changed && budget_left()) {
      changed = false;
      changed |= pass_drop_rtg_nodes();
      changed |= pass_drop_units();
      changed |= pass_stub_units();
      changed |= pass_drop_memories();
      changed |= pass_clear_memory_init();
      changed |= pass_drop_fsm_states();
      changed |= pass_drop_transitions();
      changed |= pass_drop_guard_literals();
      changed |= pass_drop_control_assigns();
      changed |= pass_drop_interface_wires();
      changed |= pass_drop_dead_wires();
      changed |= pass_halve_widths();
    }
    return std::move(result_);
  }

 private:
  bool budget_left() const {
    return result_.evaluations < options_.max_evaluations;
  }

  /// Checks `candidate` once and runs the predicate on its handle; an
  /// invalid candidate is rejected without spending an evaluation.
  bool still_fails(const ir::Design& candidate) {
    try {
      const elab::CheckedDesign checked(candidate);
      ++result_.evaluations;
      return predicate_(checked);
    } catch (const util::Error&) {
      return false;
    }
  }

  /// Keeps `candidate` iff it is valid IR and still fails.
  bool accept(ir::Design candidate, const std::string& step) {
    if (!budget_left() || !still_fails(candidate)) {
      return false;
    }
    result_.design = std::move(candidate);
    result_.steps.push_back(step);
    return true;
  }

  bool pass_drop_rtg_nodes() {
    bool changed = false;
    bool retry = true;
    while (retry && budget_left()) {
      retry = false;
      // Iterate a copy: accept() replaces the design and with it the list.
      const std::vector<std::string> nodes = result_.design.rtg.nodes;
      for (const std::string& node : nodes) {
        ir::Design candidate = result_.design;
        if (!drop_rtg_node(candidate, node)) {
          continue;
        }
        if (accept(std::move(candidate), "drop partition " + node)) {
          changed = true;
          retry = true;
          break;  // node list changed; re-enumerate
        }
      }
    }
    return changed;
  }

  /// Enumerates configurations by node name over a snapshot of the node
  /// list (accept() replaces the design mid-pass, invalidating any
  /// reference into it).  A node dropped by an earlier pass is skipped.
  template <typename Fn>
  bool for_each_config(Fn&& fn) {
    bool changed = false;
    const std::vector<std::string> nodes = result_.design.rtg.nodes;
    for (const std::string& node : nodes) {
      if (result_.design.configurations.count(node) != 0) {
        changed |= fn(node);
      }
    }
    return changed;
  }

  bool pass_drop_units() {
    return for_each_config([&](const std::string& node) {
      bool changed = false;
      std::size_t i = 0;
      while (budget_left()) {
        const ir::Datapath& dp = result_.design.configurations[node].datapath;
        if (i >= dp.units.size()) {
          break;
        }
        std::string unit_name = dp.units[i].name;
        ir::Design candidate = result_.design;
        auto& units = candidate.configurations[node].datapath.units;
        units.erase(units.begin() + static_cast<std::ptrdiff_t>(i));
        if (!accept(std::move(candidate),
                    "drop unit " + unit_name + " in " + node)) {
          ++i;
        } else {
          changed = true;
        }
      }
      return changed;
    });
  }

  bool pass_stub_units() {
    return for_each_config([&](const std::string& node) {
      bool changed = false;
      std::size_t i = 0;
      while (budget_left()) {
        const ir::Datapath& dp = result_.design.configurations[node].datapath;
        if (i >= dp.units.size()) {
          break;
        }
        const ir::Unit& unit = dp.units[i];
        std::string out_port;
        switch (unit.kind) {
          case ir::UnitKind::kRegister:
            out_port = "q";
            break;
          case ir::UnitKind::kMemPort:
            out_port = unit.has_port("dout") ? "dout" : "";
            break;
          case ir::UnitKind::kConst:
            break;  // already minimal
          default:
            out_port = "out";
            break;
        }
        if (out_port.empty()) {
          ++i;
          continue;
        }
        ir::Design candidate = result_.design;
        ir::Datapath& cdp = candidate.configurations[node].datapath;
        std::string wire = cdp.units[i].port(out_port);
        ir::Unit stub;
        stub.name = cdp.units[i].name;
        stub.kind = ir::UnitKind::kConst;
        stub.width = cdp.wire(wire).width;
        stub.value = 0;
        stub.ports["out"] = wire;
        cdp.units[i] = std::move(stub);
        if (!accept(std::move(candidate),
                    "stub unit " + unit.name + " in " + node)) {
          ++i;
        } else {
          changed = true;
        }
      }
      return changed;
    });
  }

  bool pass_drop_memories() {
    return for_each_config([&](const std::string& node) {
      bool changed = false;
      std::size_t i = 0;
      while (budget_left()) {
        const ir::Datapath& dp = result_.design.configurations[node].datapath;
        if (i >= dp.memories.size()) {
          break;
        }
        std::string memory = dp.memories[i].name;
        ir::Design candidate = result_.design;
        ir::Datapath& cdp = candidate.configurations[node].datapath;
        cdp.memories.erase(cdp.memories.begin() +
                           static_cast<std::ptrdiff_t>(i));
        auto& units = cdp.units;
        units.erase(std::remove_if(units.begin(), units.end(),
                                   [&](const ir::Unit& unit) {
                                     return unit.kind ==
                                                ir::UnitKind::kMemPort &&
                                            unit.memory == memory;
                                   }),
                    units.end());
        if (!accept(std::move(candidate),
                    "drop memory " + memory + " in " + node)) {
          ++i;
        } else {
          changed = true;
        }
      }
      return changed;
    });
  }

  bool pass_clear_memory_init() {
    return for_each_config([&](const std::string& node) {
      bool changed = false;
      std::size_t i = 0;
      while (budget_left()) {
        // Re-fetch every iteration: accept() replaces the design.
        const ir::Datapath& dp =
            result_.design.configurations[node].datapath;
        if (i >= dp.memories.size()) {
          break;
        }
        if (dp.memories[i].init.empty()) {
          ++i;
          continue;
        }
        std::string memory = dp.memories[i].name;
        ir::Design candidate = result_.design;
        candidate.configurations[node].datapath.memories[i].init.clear();
        if (accept(std::move(candidate),
                   "clear init of " + memory + " in " + node)) {
          changed = true;
        }
        ++i;
      }
      return changed;
    });
  }

  bool pass_drop_fsm_states() {
    return for_each_config([&](const std::string& node) {
      bool changed = false;
      std::size_t i = 0;
      while (budget_left()) {
        const ir::Fsm& fsm = result_.design.configurations[node].fsm;
        if (i >= fsm.states.size()) {
          break;
        }
        const ir::State& state = fsm.states[i];
        if (state.name == fsm.initial) {
          ++i;
          continue;
        }
        // Transitions into the dropped state jump where its first
        // transition pointed (guards are intentionally discarded -- the
        // shrinker only preserves the failure, not the semantics).
        std::string forward = state.transitions.empty()
                                  ? std::string()
                                  : state.transitions.front().target;
        if (forward == state.name) {
          ++i;
          continue;
        }
        ir::Design candidate = result_.design;
        ir::Fsm& cfsm = candidate.configurations[node].fsm;
        std::string dropped = state.name;
        cfsm.states.erase(cfsm.states.begin() +
                          static_cast<std::ptrdiff_t>(i));
        for (ir::State& remaining : cfsm.states) {
          auto& transitions = remaining.transitions;
          if (forward.empty()) {
            transitions.erase(
                std::remove_if(transitions.begin(), transitions.end(),
                               [&](const ir::Transition& transition) {
                                 return transition.target == dropped;
                               }),
                transitions.end());
          } else {
            for (ir::Transition& transition : transitions) {
              if (transition.target == dropped) {
                transition.target = forward;
              }
            }
          }
        }
        if (!accept(std::move(candidate),
                    "drop state " + dropped + " in " + node)) {
          ++i;
        } else {
          changed = true;
        }
      }
      return changed;
    });
  }

  bool pass_drop_transitions() {
    return for_each_config([&](const std::string& node) {
      bool changed = false;
      std::size_t s = 0;
      while (budget_left()) {
        const ir::Fsm& fsm = result_.design.configurations[node].fsm;
        if (s >= fsm.states.size()) {
          break;
        }
        std::size_t t = 0;
        while (budget_left()) {
          const ir::State& state =
              result_.design.configurations[node].fsm.states[s];
          if (t >= state.transitions.size()) {
            break;
          }
          ir::Design candidate = result_.design;
          auto& transitions =
              candidate.configurations[node].fsm.states[s].transitions;
          transitions.erase(transitions.begin() +
                            static_cast<std::ptrdiff_t>(t));
          if (!accept(std::move(candidate), "drop transition " +
                                                std::to_string(t) + " of " +
                                                state.name + " in " + node)) {
            ++t;
          } else {
            changed = true;
          }
        }
        ++s;
      }
      return changed;
    });
  }

  bool pass_drop_guard_literals() {
    return for_each_config([&](const std::string& node) {
      bool changed = false;
      // Loop bounds re-read the design every time: accept() replaces it,
      // so a cached Fsm reference would dangle.
      auto fsm = [&]() -> const ir::Fsm& {
        return result_.design.configurations[node].fsm;
      };
      for (std::size_t s = 0; s < fsm().states.size(); ++s) {
        for (std::size_t t = 0;
             t < fsm().states[s].transitions.size() && budget_left(); ++t) {
          std::size_t g = 0;
          while (budget_left()) {
            const auto& literals = result_.design.configurations[node]
                                       .fsm.states[s]
                                       .transitions[t]
                                       .guard.literals;
            if (g >= literals.size()) {
              break;
            }
            ir::Design candidate = result_.design;
            auto& cliterals = candidate.configurations[node]
                                  .fsm.states[s]
                                  .transitions[t]
                                  .guard.literals;
            cliterals.erase(cliterals.begin() +
                            static_cast<std::ptrdiff_t>(g));
            if (!accept(std::move(candidate),
                        "drop guard literal in " + node)) {
              ++g;
            } else {
              changed = true;
            }
          }
        }
      }
      return changed;
    });
  }

  bool pass_drop_control_assigns() {
    return for_each_config([&](const std::string& node) {
      bool changed = false;
      // Re-read the design every time: accept() replaces it, so a cached
      // Fsm reference would dangle.
      auto fsm = [&]() -> const ir::Fsm& {
        return result_.design.configurations[node].fsm;
      };
      for (std::size_t s = 0; s < fsm().states.size(); ++s) {
        std::size_t c = 0;
        while (budget_left()) {
          const ir::State& state = fsm().states[s];
          if (c >= state.controls.size()) {
            break;
          }
          if (state.controls[c].wire == fsm().done_wire) {
            ++c;  // never un-assign done: candidates would just time out
            continue;
          }
          std::string state_name = state.name;
          ir::Design candidate = result_.design;
          auto& ccontrols =
              candidate.configurations[node].fsm.states[s].controls;
          ccontrols.erase(ccontrols.begin() + static_cast<std::ptrdiff_t>(c));
          if (!accept(std::move(candidate), "drop control assign in " +
                                                state_name + " of " + node)) {
            ++c;
          } else {
            changed = true;
          }
        }
      }
      return changed;
    });
  }

  /// Removes control/status wires no unit reads and no guard tests.
  bool pass_drop_interface_wires() {
    return for_each_config([&](const std::string& node) {
      bool changed = false;
      bool retry = true;
      while (retry && budget_left()) {
        retry = false;
        const ir::Datapath& dp =
            result_.design.configurations[node].datapath;
        const ir::Fsm& fsm = result_.design.configurations[node].fsm;
        for (const std::string& control : dp.control_wires) {
          if (control == fsm.done_wire ||
              wire_read_or_driven(dp, control)) {
            continue;
          }
          ir::Design candidate = result_.design;
          ir::Configuration& config = candidate.configurations[node];
          auto& controls = config.datapath.control_wires;
          controls.erase(
              std::remove(controls.begin(), controls.end(), control),
              controls.end());
          auto& wires = config.datapath.wires;
          wires.erase(std::remove_if(wires.begin(), wires.end(),
                                     [&](const ir::Wire& wire) {
                                       return wire.name == control;
                                     }),
                      wires.end());
          for (ir::State& state : config.fsm.states) {
            auto& assigns = state.controls;
            assigns.erase(
                std::remove_if(assigns.begin(), assigns.end(),
                               [&](const ir::ControlAssign& assign) {
                                 return assign.wire == control;
                               }),
                assigns.end());
          }
          if (accept(std::move(candidate),
                     "drop control wire " + control + " in " + node)) {
            changed = true;
            retry = true;
            break;
          }
        }
        if (retry) {
          continue;
        }
        for (const std::string& status : dp.status_wires) {
          bool guarded = false;
          for (const ir::State& state : fsm.states) {
            for (const ir::Transition& transition : state.transitions) {
              for (const ir::GuardLiteral& literal :
                   transition.guard.literals) {
                guarded = guarded || literal.status == status;
              }
            }
          }
          if (guarded) {
            continue;
          }
          ir::Design candidate = result_.design;
          auto& statuses =
              candidate.configurations[node].datapath.status_wires;
          statuses.erase(
              std::remove(statuses.begin(), statuses.end(), status),
              statuses.end());
          if (accept(std::move(candidate),
                     "drop status wire " + status + " in " + node)) {
            changed = true;
            retry = true;
            break;
          }
        }
      }
      return changed;
    });
  }

  /// Removes plain wires referenced by nothing at all.
  bool pass_drop_dead_wires() {
    return for_each_config([&](const std::string& node) {
      bool changed = false;
      std::size_t i = 0;
      while (budget_left()) {
        const ir::Datapath& dp = result_.design.configurations[node].datapath;
        if (i >= dp.wires.size()) {
          break;
        }
        const std::string& name = dp.wires[i].name;
        if (dp.is_control(name) || dp.is_status(name) ||
            wire_read_or_driven(dp, name)) {
          ++i;
          continue;
        }
        ir::Design candidate = result_.design;
        auto& wires = candidate.configurations[node].datapath.wires;
        std::string wire_name = name;
        wires.erase(wires.begin() + static_cast<std::ptrdiff_t>(i));
        if (!accept(std::move(candidate),
                    "drop wire " + wire_name + " in " + node)) {
          ++i;
        } else {
          changed = true;
        }
      }
      return changed;
    });
  }

  /// Tries halving one width class at a time, design-wide: every wire,
  /// unit, memory (and the values they carry) of width W moves to W/2.
  bool pass_halve_widths() {
    bool changed = false;
    bool retry = true;
    while (retry && budget_left()) {
      retry = false;
      std::set<std::uint32_t> widths;
      for (const auto& [node, config] : result_.design.configurations) {
        for (const ir::Wire& wire : config.datapath.wires) {
          if (wire.width >= 2) {
            widths.insert(wire.width);
          }
        }
      }
      for (std::uint32_t width : widths) {
        std::uint32_t narrow = width / 2;
        ir::Design candidate = result_.design;
        for (auto& [node, config] : candidate.configurations) {
          for (ir::Wire& wire : config.datapath.wires) {
            if (wire.width == width) {
              wire.width = narrow;
            }
          }
          for (ir::Unit& unit : config.datapath.units) {
            if (unit.width == width) {
              unit.width = narrow;
              unit.value &= sim::Bits::mask(narrow);
              unit.reset_value &= sim::Bits::mask(narrow);
            }
          }
          for (ir::MemoryDecl& memory : config.datapath.memories) {
            if (memory.width == width) {
              memory.width = narrow;
              for (std::uint64_t& word : memory.init) {
                word &= sim::Bits::mask(narrow);
              }
            }
          }
          for (ir::State& state : config.fsm.states) {
            for (ir::ControlAssign& assign : state.controls) {
              const ir::Wire* wire =
                  config.datapath.find_wire(assign.wire);
              if (wire != nullptr) {
                assign.value &= sim::Bits::mask(wire->width);
              }
            }
          }
        }
        if (accept(std::move(candidate),
                   "halve width " + std::to_string(width))) {
          changed = true;
          retry = true;
          break;  // width classes changed; recollect
        }
      }
    }
    return changed;
  }

  const FailurePredicate& predicate_;
  ShrinkOptions options_;
  ShrinkResult result_;
};

}  // namespace

std::size_t ir_node_count(const ir::Design& design) {
  std::size_t count = 0;
  for (const auto& [node, config] : design.configurations) {
    count += config.datapath.units.size();
    count += config.datapath.memories.size();
    count += config.fsm.states.size();
  }
  return count;
}

ShrinkResult shrink(const ir::Design& design,
                    const FailurePredicate& predicate,
                    const ShrinkOptions& options) {
  FTI_ASSERT(predicate(design), "shrink() called on a passing design");
  Shrinker shrinker(design, predicate, options);
  return shrinker.run();
}

}  // namespace fti::fuzz
