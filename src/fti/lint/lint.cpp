#include "fti/lint/lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "fti/ir/comb_graph.hpp"
#include "fti/ir/datapath.hpp"
#include "fti/lint/dataflow.hpp"

namespace fti::lint {

std::string_view to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";
}

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"FTI-L001", Severity::kError, "multi-driven-wire",
       "a wire (or memory write port) has more than one driver"},
      {"FTI-L002", Severity::kWarning, "undriven-wire",
       "a wire is read but nothing drives it; it reads as constant 0"},
      {"FTI-L003", Severity::kWarning, "dead-wire",
       "a declared wire is never read (dead logic or a missing connection)"},
      {"FTI-L004", Severity::kError, "width-mismatch",
       "a port is connected to a wire of the wrong width, or a literal "
       "value does not fit its declared width"},
      {"FTI-L005", Severity::kError, "combinational-cycle",
       "combinational units form a feedback loop; no levelized schedule "
       "exists"},
      {"FTI-L006", Severity::kWarning, "unreachable-state",
       "an FSM state or RTG configuration is unreachable from the initial "
       "one"},
      {"FTI-L007", Severity::kWarning, "unreachable-transition",
       "a transition can never fire: shadowed by an earlier unconditional "
       "transition, or its guard is self-contradictory"},
      {"FTI-L008", Severity::kWarning, "no-path-to-done",
       "the FSM can get stuck: a reachable state has no way out and never "
       "asserts the done wire"},
      {"FTI-L009", Severity::kWarning, "read-before-write",
       "a configuration reads a memory whose only writers run in later "
       "temporal partitions"},
      {"FTI-L010", Severity::kNote, "uninitialized-memory-read",
       "a memory is read but never written or initialized anywhere; it is "
       "assumed to be an external input"},
      {"FTI-L011", Severity::kError, "dangling-reference",
       "a name references an object that does not exist (wire, memory, "
       "state, status, control or RTG node), or a required port is "
       "missing"},
      {"FTI-L012", Severity::kError, "memory-index-out-of-bounds",
       "a memory port's address range provably (error) or possibly "
       "(warning) exceeds the memory depth"},
      {"FTI-L013", Severity::kWarning, "dead-transition-proved",
       "value-range analysis proves a transition guard constant false, or "
       "constant true shadowing its later siblings"},
      {"FTI-L014", Severity::kWarning, "live-bit-truncation",
       "a width-adapting unit (pass/sext) drops bits proven live by "
       "value-range analysis"},
      {"FTI-L015", Severity::kWarning, "possibly-zero-divisor",
       "a division or remainder's divisor is provably or possibly zero; "
       "division by zero reads all-ones deterministically, hence warning"},
      {"FTI-L016", Severity::kWarning, "semantically-unreachable",
       "an FSM state is unreachable, or a register can never load, under "
       "value-range analysis (strictly stronger than FTI-L006)"},
      {"FTI-L017", Severity::kWarning, "vacuous-comparison",
       "a comparison's result is provably constant (always true or always "
       "false)"},
  };
  return kRules;
}

bool is_semantic_rule(std::string_view id) {
  return id >= "FTI-L012" && id <= "FTI-L017" && find_rule(id) != nullptr;
}

Report without_semantic(const Report& report) {
  Report filtered;
  filtered.design = report.design;
  filtered.source = report.source;
  for (const Finding& finding : report.findings) {
    if (!is_semantic_rule(finding.rule)) {
      filtered.findings.push_back(finding);
    }
  }
  return filtered;
}

const RuleInfo* find_rule(std::string_view id) {
  for (const RuleInfo& rule : rules()) {
    if (rule.id == id) {
      return &rule;
    }
  }
  return nullptr;
}

std::size_t Report::count(Severity severity) const {
  std::size_t n = 0;
  for (const Finding& finding : findings) {
    n += finding.severity == severity ? 1 : 0;
  }
  return n;
}

std::optional<Gate> gate_from_string(std::string_view text) {
  if (text == "off") {
    return Gate::kOff;
  }
  if (text == "warn") {
    return Gate::kWarn;
  }
  if (text == "error") {
    return Gate::kError;
  }
  return std::nullopt;
}

bool blocks(Gate gate, const Report& report) {
  switch (gate) {
    case Gate::kOff:
      return false;
    case Gate::kWarn:
      return report.errors() + report.warnings() > 0;
    case Gate::kError:
      return report.errors() > 0;
  }
  return false;
}

namespace {

/// Per-wire connectivity, collected tolerantly from a raw datapath.
struct WireUse {
  /// Driver descriptions ("unit 'x' port 'out'", "control unit (fsm)").
  std::vector<std::string> drivers;
  /// Reader descriptions ("unit 'x' port 'a'", "fsm status").
  std::vector<std::string> readers;
};

class Linter {
 public:
  explicit Linter(const ir::Design& design) : design_(design) {
    report_.design = design.name;
  }

  Report run() {
    build_chain();
    // Configurations in RTG declaration order; configurations the RTG
    // does not know about (dangling, reported by lint_rtg) come after.
    std::set<std::string> seen;
    for (const std::string& node : design_.rtg.nodes) {
      auto it = design_.configurations.find(node);
      if (it != design_.configurations.end() && seen.insert(node).second) {
        lint_configuration(node, it->second);
      }
    }
    for (const auto& [node, configuration] : design_.configurations) {
      if (seen.insert(node).second) {
        lint_configuration(node, configuration);
      }
    }
    lint_rtg();
    lint_memories();
    return std::move(report_);
  }

 private:
  void add(std::string_view rule, Severity severity,
           const std::string& configuration, const std::string& object,
           std::string message) {
    report_.findings.push_back({std::string(rule), severity, configuration,
                                object, std::move(message)});
  }

  void lint_configuration(const std::string& node,
                          const ir::Configuration& configuration) {
    // One name index per configuration: lint runs on raw, possibly
    // malformed IR, and per-port find_wire scans would be quadratic.
    const ir::DatapathIndex index(configuration.datapath);
    lint_datapath(node, configuration.datapath, index, configuration.fsm);
    lint_fsm(node, configuration.fsm, index);
  }

  void lint_datapath(const std::string& node, const ir::Datapath& datapath,
                     const ir::DatapathIndex& index, const ir::Fsm& fsm) {
    std::map<std::string, WireUse> uses;

    // FSM interface: control wires are driven, status wires are read, by
    // the control unit.  Both must name declared wires.
    for (const std::string& wire : datapath.control_wires) {
      uses[wire].drivers.push_back("control unit (fsm)");
      if (index.find_wire(wire) == nullptr) {
        add("FTI-L011", Severity::kError, node, wire,
            "control list names undeclared wire '" + wire + "'");
      }
    }
    for (const std::string& wire : datapath.status_wires) {
      uses[wire].readers.push_back("fsm status");
      if (index.find_wire(wire) == nullptr) {
        add("FTI-L011", Severity::kError, node, wire,
            "status list names undeclared wire '" + wire + "'");
      }
    }

    std::set<std::string> unit_names;
    for (const ir::Unit& unit : datapath.units) {
      if (!unit_names.insert(unit.name).second) {
        add("FTI-L011", Severity::kError, node, unit.name,
            "duplicate unit name '" + unit.name + "'");
      }
      lint_unit(node, unit, index, uses);
    }

    for (const ir::Wire& wire : datapath.wires) {
      if (index.find_wire(wire.name) != &wire) {
        add("FTI-L011", Severity::kError, node, wire.name,
            "duplicate wire name '" + wire.name + "'");
      }
    }

    // FTI-L001/L002/L003: driver / reader census per declared wire.
    for (const ir::Wire& wire : datapath.wires) {
      const WireUse& use = uses[wire.name];
      if (use.drivers.size() > 1) {
        std::string list;
        for (const std::string& driver : use.drivers) {
          list += (list.empty() ? "" : ", ") + driver;
        }
        add("FTI-L001", Severity::kError, node, wire.name,
            "wire '" + wire.name + "' has " +
                std::to_string(use.drivers.size()) + " drivers: " + list);
      }
      if (use.drivers.empty() && !use.readers.empty()) {
        add("FTI-L002", Severity::kWarning, node, wire.name,
            "wire '" + wire.name + "' is read by " + use.readers.front() +
                (use.readers.size() > 1 ? " (and others)" : "") +
                " but has no driver; it reads as constant 0");
      }
      if (use.readers.empty() && wire.name != fsm.done_wire) {
        if (use.drivers.empty()) {
          add("FTI-L003", Severity::kWarning, node, wire.name,
              "wire '" + wire.name + "' is never connected");
        } else {
          add("FTI-L003", Severity::kNote, node, wire.name,
              "wire '" + wire.name + "' is driven by " + use.drivers.front() +
                  " but never read");
        }
      }
    }

    // FTI-L001 (memory flavor): at most one write-capable port per memory.
    std::map<std::string, std::vector<std::string>> memory_writers;
    for (const ir::Unit& unit : datapath.units) {
      if (unit.kind == ir::UnitKind::kMemPort &&
          unit.mem_mode != ir::MemMode::kRead) {
        memory_writers[unit.memory].push_back(unit.name);
      }
    }
    for (const auto& [memory, writers] : memory_writers) {
      if (writers.size() > 1) {
        std::string list;
        for (const std::string& writer : writers) {
          list += (list.empty() ? "'" : "', '") + writer;
        }
        add("FTI-L001", Severity::kError, node, memory,
            "memory '" + memory + "' has " + std::to_string(writers.size()) +
                " write-capable ports: " + list + "'");
      }
    }

    // FTI-L004 (literal flavor): memory init words must fit the width.
    for (const ir::MemoryDecl& memory : datapath.memories) {
      if (index.find_memory(memory.name) != &memory) {
        add("FTI-L011", Severity::kError, node, memory.name,
            "duplicate memory name '" + memory.name + "'");
      }
      if (memory.init.size() > memory.depth) {
        add("FTI-L004", Severity::kWarning, node, memory.name,
            "memory '" + memory.name + "' has " +
                std::to_string(memory.init.size()) + " init words but depth " +
                std::to_string(memory.depth));
      }
      for (std::size_t i = 0; i < memory.init.size(); ++i) {
        if (!fits(memory.init[i], memory.width)) {
          add("FTI-L004", Severity::kWarning, node, memory.name,
              "memory '" + memory.name + "' init[" + std::to_string(i) +
                  "] does not fit " + std::to_string(memory.width) + " bits");
          break;
        }
      }
    }

    // FTI-L005: combinational cycles, with the full path.
    for (const ir::CombCycle& cycle : ir::find_combinational_cycles(datapath)) {
      add("FTI-L005", Severity::kError, node,
          cycle.units.empty() ? std::string() : cycle.units.front()->name,
          "combinational cycle: " + cycle.to_string());
    }
  }

  void lint_unit(const std::string& node, const ir::Unit& unit,
                 const ir::DatapathIndex& index,
                 std::map<std::string, WireUse>& uses) {
    ir::PortSpec spec = ir::port_spec(unit);
    auto is_output = [&spec](const std::string& port) {
      return std::find(spec.outputs.begin(), spec.outputs.end(), port) !=
             spec.outputs.end();
    };

    for (const std::string& required : spec.required) {
      if (!unit.has_port(required)) {
        add("FTI-L011", Severity::kError, node, unit.name,
            "unit '" + unit.name + "' (" +
                std::string(ir::to_string(unit.kind)) +
                ") lacks required port '" + required + "'");
      }
    }
    const ir::MemoryDecl* memory = unit.kind == ir::UnitKind::kMemPort
                                       ? index.find_memory(unit.memory)
                                       : nullptr;
    if (unit.kind == ir::UnitKind::kMemPort && memory == nullptr) {
      add("FTI-L011", Severity::kError, node, unit.name,
          "memport '" + unit.name + "' references unknown memory '" +
              unit.memory + "'");
    }

    for (const auto& [port, wire] : unit.ports) {
      std::string who = "unit '" + unit.name + "' port '" + port + "'";
      if (is_output(port)) {
        uses[wire].drivers.push_back(who);
      } else {
        uses[wire].readers.push_back(who);
      }
      const ir::Wire* decl = index.find_wire(wire);
      if (decl == nullptr) {
        add("FTI-L011", Severity::kError, node, unit.name,
            who + " references undeclared wire '" + wire + "'");
        continue;
      }
      std::uint32_t expected = ir::expected_port_width(unit, port, memory);
      if (expected != 0 && decl->width != expected) {
        add("FTI-L004", Severity::kError, node, unit.name,
            who + " expects width " + std::to_string(expected) +
                " but wire '" + wire + "' has width " +
                std::to_string(decl->width));
      }
    }

    // Literal values must fit the declared width.
    if (unit.kind == ir::UnitKind::kConst && !fits(unit.value, unit.width)) {
      add("FTI-L004", Severity::kWarning, node, unit.name,
          "const '" + unit.name + "' value " + std::to_string(unit.value) +
              " does not fit " + std::to_string(unit.width) + " bits");
    }
    if (unit.kind == ir::UnitKind::kRegister &&
        !fits(unit.reset_value, unit.width)) {
      add("FTI-L004", Severity::kWarning, node, unit.name,
          "register '" + unit.name + "' reset value " +
              std::to_string(unit.reset_value) + " does not fit " +
              std::to_string(unit.width) + " bits");
    }
  }

  void lint_fsm(const std::string& node, const ir::Fsm& fsm,
                const ir::DatapathIndex& index) {
    std::map<std::string, std::size_t> state_index;
    for (std::size_t i = 0; i < fsm.states.size(); ++i) {
      if (!state_index.emplace(fsm.states[i].name, i).second) {
        add("FTI-L011", Severity::kError, node, fsm.states[i].name,
            "duplicate state name '" + fsm.states[i].name + "'");
      }
    }

    if (state_index.find(fsm.initial) == state_index.end()) {
      add("FTI-L011", Severity::kError, node, fsm.name,
          "initial state '" + fsm.initial + "' does not exist");
    }
    if (!index.is_control(fsm.done_wire)) {
      add("FTI-L011", Severity::kError, node, fsm.name,
          "done wire '" + fsm.done_wire + "' is not a declared control wire");
    } else if (const ir::Wire* done = index.find_wire(fsm.done_wire);
               done != nullptr && done->width != 1) {
      add("FTI-L004", Severity::kError, node, fsm.name,
          "done wire '" + fsm.done_wire + "' has width " +
              std::to_string(done->width) + "; the harness expects 1");
    }

    for (const ir::State& state : fsm.states) {
      lint_state(node, state, index, state_index);
    }

    // FTI-L006: reachability from the initial state over declared
    // transitions.
    std::vector<bool> reachable(fsm.states.size(), false);
    std::vector<std::size_t> frontier;
    if (auto it = state_index.find(fsm.initial); it != state_index.end()) {
      reachable[it->second] = true;
      frontier.push_back(it->second);
    }
    while (!frontier.empty()) {
      std::size_t current = frontier.back();
      frontier.pop_back();
      for (const ir::Transition& transition :
           fsm.states[current].transitions) {
        auto it = state_index.find(transition.target);
        if (it != state_index.end() && !reachable[it->second]) {
          reachable[it->second] = true;
          frontier.push_back(it->second);
        }
      }
    }
    for (std::size_t i = 0; i < fsm.states.size(); ++i) {
      if (!reachable[i]) {
        add("FTI-L006", Severity::kWarning, node, fsm.states[i].name,
            "state '" + fsm.states[i].name + "' is unreachable from initial "
            "state '" + fsm.initial + "'");
      }
    }

    // FTI-L008: a reachable state the machine can never leave and that
    // never raises done wedges the whole run (the harness waits on done).
    bool trapped = false;
    for (std::size_t i = 0; i < fsm.states.size(); ++i) {
      const ir::State& state = fsm.states[i];
      if (!reachable[i] || !state.transitions.empty() ||
          asserts_done(state, fsm)) {
        continue;
      }
      trapped = true;
      add("FTI-L008", Severity::kWarning, node, state.name,
          "trap state '" + state.name + "': no outgoing transitions and "
          "does not assert done wire '" + fsm.done_wire + "'");
    }
    if (!trapped) {
      bool done_reachable = false;
      for (std::size_t i = 0; i < fsm.states.size(); ++i) {
        done_reachable =
            done_reachable || (reachable[i] && asserts_done(fsm.states[i],
                                                            fsm));
      }
      if (!done_reachable && !fsm.states.empty()) {
        add("FTI-L008", Severity::kWarning, node, fsm.name,
            "no reachable state asserts done wire '" + fsm.done_wire +
                "'; the harness would time out");
      }
    }
  }

  void lint_state(const std::string& node, const ir::State& state,
                  const ir::DatapathIndex& index,
                  const std::map<std::string, std::size_t>& state_index) {
    for (const ir::ControlAssign& assign : state.controls) {
      if (!index.is_control(assign.wire)) {
        add("FTI-L011", Severity::kError, node, state.name,
            "state '" + state.name + "' assigns non-control wire '" +
                assign.wire + "'");
      } else if (const ir::Wire* wire = index.find_wire(assign.wire);
                 wire != nullptr && !fits(assign.value, wire->width)) {
        add("FTI-L004", Severity::kWarning, node, state.name,
            "state '" + state.name + "' assigns value " +
                std::to_string(assign.value) + " to " +
                std::to_string(wire->width) + "-bit wire '" + assign.wire +
                "'");
      }
    }

    bool shadowed = false;
    std::size_t shadow_at = 0;
    for (std::size_t t = 0; t < state.transitions.size(); ++t) {
      const ir::Transition& transition = state.transitions[t];
      if (state_index.find(transition.target) == state_index.end()) {
        add("FTI-L011", Severity::kError, node, state.name,
            "state '" + state.name + "' transition " + std::to_string(t) +
                " targets unknown state '" + transition.target + "'");
      }
      std::set<std::string> expect_high;
      std::set<std::string> expect_low;
      bool contradictory = false;
      for (const ir::GuardLiteral& literal : transition.guard.literals) {
        if (!index.is_status(literal.status)) {
          add("FTI-L011", Severity::kError, node, state.name,
              "state '" + state.name + "' transition " + std::to_string(t) +
                  " guards on non-status wire '" + literal.status + "'");
        }
        (literal.expected ? expect_high : expect_low).insert(literal.status);
        contradictory =
            contradictory || (expect_high.count(literal.status) &&
                              expect_low.count(literal.status));
      }
      if (shadowed) {
        add("FTI-L007", Severity::kWarning, node, state.name,
            "state '" + state.name + "' transition " + std::to_string(t) +
                " to '" + transition.target +
                "' can never fire: transition " + std::to_string(shadow_at) +
                " is unconditional and fires first");
      } else if (contradictory) {
        add("FTI-L007", Severity::kWarning, node, state.name,
            "state '" + state.name + "' transition " + std::to_string(t) +
                " to '" + transition.target +
                "' can never fire: its guard '" +
                ir::to_string(transition.guard) + "' is self-contradictory");
      }
      if (!shadowed && transition.guard.always()) {
        shadowed = true;
        shadow_at = t;
      }
    }
  }

  void lint_rtg() {
    const ir::Rtg& rtg = design_.rtg;
    std::set<std::string> nodes(rtg.nodes.begin(), rtg.nodes.end());
    if (nodes.size() != rtg.nodes.size()) {
      add("FTI-L011", Severity::kError, "", rtg.name,
          "rtg '" + rtg.name + "' declares duplicate nodes");
    }
    if (!nodes.count(rtg.initial)) {
      add("FTI-L011", Severity::kError, "", rtg.name,
          "rtg initial node '" + rtg.initial + "' does not exist");
    }
    std::map<std::string, std::size_t> out_degree;
    for (const ir::RtgEdge& edge : rtg.edges) {
      for (const std::string& end : {edge.from, edge.to}) {
        if (!nodes.count(end)) {
          add("FTI-L011", Severity::kError, "", end,
              "rtg edge '" + edge.from + "' -> '" + edge.to +
                  "' references unknown node '" + end + "'");
        }
      }
      if (++out_degree[edge.from] == 2) {
        add("FTI-L011", Severity::kError, "", edge.from,
            "rtg node '" + edge.from + "' has more than one successor");
      }
    }
    for (const std::string& rtg_node : rtg.nodes) {
      if (design_.configurations.find(rtg_node) ==
          design_.configurations.end()) {
        add("FTI-L011", Severity::kError, "", rtg_node,
            "rtg node '" + rtg_node + "' has no configuration");
      }
    }
    for (const auto& entry : design_.configurations) {
      if (!nodes.count(entry.first)) {
        add("FTI-L011", Severity::kError, "", entry.first,
            "configuration '" + entry.first + "' is not an rtg node");
      }
    }

    // FTI-L006 (RTG flavor): configurations off the execution chain.
    std::set<std::string> on_chain(chain_.begin(), chain_.end());
    for (const std::string& rtg_node : rtg.nodes) {
      if (!on_chain.count(rtg_node)) {
        add("FTI-L006", Severity::kWarning, "", rtg_node,
            "configuration '" + rtg_node + "' is unreachable from rtg "
            "initial node '" + rtg.initial + "'");
      }
    }
    if (cyclic_) {
      add("FTI-L011", Severity::kError, "", rtg.name,
          "rtg '" + rtg.name + "' execution chain is cyclic");
    }
  }

  /// FTI-L009 / FTI-L010: memory liveness across the temporal-partition
  /// chain.  A memory is defined by a non-empty init (applied when first
  /// created) or by any earlier write-capable port; a configuration that
  /// both reads and writes a memory is never flagged (the intra-partition
  /// order is a dynamic property).
  void lint_memories() {
    std::set<std::string> initialized;
    std::map<std::string, std::vector<std::string>> writers;
    for (const std::string& chain_node : chain_) {
      auto it = design_.configurations.find(chain_node);
      if (it == design_.configurations.end()) {
        continue;
      }
      for (const ir::MemoryDecl& memory : it->second.datapath.memories) {
        if (!memory.init.empty()) {
          initialized.insert(memory.name);
        }
      }
      for (const ir::Unit& unit : it->second.datapath.units) {
        if (unit.kind == ir::UnitKind::kMemPort &&
            unit.mem_mode != ir::MemMode::kRead) {
          writers[unit.memory].push_back(chain_node);
        }
      }
    }

    std::set<std::string> defined = initialized;
    std::set<std::string> reported;
    for (const std::string& chain_node : chain_) {
      auto it = design_.configurations.find(chain_node);
      if (it == design_.configurations.end()) {
        continue;
      }
      std::set<std::string> reads;
      std::set<std::string> writes;
      for (const ir::Unit& unit : it->second.datapath.units) {
        if (unit.kind != ir::UnitKind::kMemPort) {
          continue;
        }
        (unit.mem_mode == ir::MemMode::kWrite ? writes : reads)
            .insert(unit.memory);
        if (unit.mem_mode != ir::MemMode::kRead) {
          writes.insert(unit.memory);
        }
      }
      for (const std::string& memory : reads) {
        if (defined.count(memory) || writes.count(memory) ||
            !reported.insert(memory).second) {
          continue;
        }
        auto writer = writers.find(memory);
        if (writer != writers.end()) {
          add("FTI-L009", Severity::kWarning, chain_node, memory,
              "configuration '" + chain_node + "' reads memory '" + memory +
                  "' before its first write in configuration '" +
                  writer->second.front() + "'");
        } else {
          add("FTI-L010", Severity::kNote, chain_node, memory,
              "memory '" + memory + "' is read but never written or "
              "initialized; assuming it is an external input");
        }
      }
      for (const std::string& memory : writes) {
        defined.insert(memory);
      }
    }
  }

  static bool fits(std::uint64_t value, std::uint32_t width) {
    return width >= 64 || (value >> width) == 0;
  }

  static bool asserts_done(const ir::State& state, const ir::Fsm& fsm) {
    for (const ir::ControlAssign& assign : state.controls) {
      if (assign.wire == fsm.done_wire && assign.value != 0) {
        return true;
      }
    }
    return false;
  }

  /// The execution chain from the RTG initial node, cycle-guarded.
  void build_chain() {
    std::set<std::string> visited;
    std::string chain_node = design_.rtg.initial;
    while (!chain_node.empty() && design_.rtg.has_node(chain_node)) {
      if (!visited.insert(chain_node).second) {
        cyclic_ = true;
        break;
      }
      chain_.push_back(chain_node);
      chain_node = design_.rtg.successor(chain_node);
    }
  }

  const ir::Design& design_;
  Report report_;
  std::vector<std::string> chain_;
  bool cyclic_ = false;
};

}  // namespace

Report lint_design(const ir::Design& design) {
  return lint_design(design, Options{});
}

Report lint_design(const ir::Design& design, const Options& options) {
  Report report = Linter(design).run();
  if (options.semantic) {
    dataflow::Summary summary = dataflow::analyze(design);
    for (Finding& finding : summary.findings) {
      report.findings.push_back(std::move(finding));
    }
  }
  return report;
}

}  // namespace fti::lint
