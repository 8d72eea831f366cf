#include "fti/fuzz/inject.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "fti/fuzz/diff.hpp"
#include "fti/lint/lint.hpp"
#include "fti/mem/storage.hpp"
#include "fti/ops/alu.hpp"
#include "fti/xsim/fourstate.hpp"

namespace fti::fuzz {

namespace {

/// Configuration node names in execution order (RTG chain walk).
std::vector<std::string> chain_order(const ir::Design& design) {
  std::vector<std::string> chain;
  std::set<std::string> visited;
  std::string node = design.rtg.initial;
  while (!node.empty() && design.rtg.has_node(node) &&
         visited.insert(node).second) {
    chain.push_back(node);
    node = design.rtg.successor(node);
  }
  return chain;
}

std::vector<ir::Configuration*> chain_configurations(ir::Design& design) {
  std::vector<ir::Configuration*> configurations;
  for (const std::string& node : chain_order(design)) {
    auto it = design.configurations.find(node);
    if (it != design.configurations.end()) {
      configurations.push_back(&it->second);
    }
  }
  return configurations;
}

bool inject_multi_driver(ir::Design& design, Rng& rng) {
  // Redirect a random output port onto another already-driven wire.
  struct Site {
    ir::Unit* unit;
    std::string port;
    std::vector<std::string> targets;  ///< other driven wires
  };
  std::vector<Site> sites;
  for (ir::Configuration* config : chain_configurations(design)) {
    std::vector<std::string> driven;
    for (ir::Unit& unit : config->datapath.units) {
      for (const std::string& output : ir::port_spec(unit).outputs) {
        if (unit.has_port(output)) {
          driven.push_back(unit.port(output));
        }
      }
    }
    for (ir::Unit& unit : config->datapath.units) {
      for (const std::string& output : ir::port_spec(unit).outputs) {
        if (!unit.has_port(output)) {
          continue;
        }
        std::vector<std::string> targets;
        for (const std::string& wire : driven) {
          if (wire != unit.port(output)) {
            targets.push_back(wire);
          }
        }
        if (!targets.empty()) {
          sites.push_back({&unit, output, std::move(targets)});
        }
      }
    }
  }
  if (sites.empty()) {
    return false;
  }
  Site& site = sites[rng.index(sites.size())];
  site.unit->ports[site.port] = site.targets[rng.index(site.targets.size())];
  return true;
}

bool inject_width_mismatch(ir::Design& design, Rng& rng) {
  // Resize a wire out from under a port with a hard width expectation.
  struct Site {
    ir::Datapath* datapath;
    std::string wire;
    std::uint32_t expected;
  };
  std::vector<Site> sites;
  for (ir::Configuration* config : chain_configurations(design)) {
    for (const ir::Unit& unit : config->datapath.units) {
      for (const auto& [port, wire] : unit.ports) {
        std::uint32_t expected =
            ir::expected_port_width(unit, port, config->datapath);
        const ir::Wire* decl = config->datapath.find_wire(wire);
        if (expected != 0 && decl != nullptr && decl->width == expected) {
          sites.push_back({&config->datapath, wire, expected});
        }
      }
    }
  }
  if (sites.empty()) {
    return false;
  }
  const Site& site = sites[rng.index(sites.size())];
  for (ir::Wire& wire : site.datapath->wires) {
    if (wire.name == site.wire) {
      wire.width = site.expected == 64 ? 32 : site.expected + 1;
    }
  }
  return true;
}

bool inject_comb_cycle(ir::Design& design, Rng& rng) {
  // Feed a latency-0 binop its own output: the smallest possible loop.
  // Comparisons are skipped so the self-loop is width-clean and FTI-L005
  // is the only rule the edit can trigger.
  std::vector<ir::Unit*> sites;
  for (ir::Configuration* config : chain_configurations(design)) {
    for (ir::Unit& unit : config->datapath.units) {
      if (unit.kind == ir::UnitKind::kBinOp && unit.latency == 0 &&
          !ops::is_comparison(unit.binop) && unit.has_port("a") &&
          unit.has_port("out")) {
        sites.push_back(&unit);
      }
    }
  }
  if (sites.empty()) {
    return false;
  }
  ir::Unit* unit = sites[rng.index(sites.size())];
  unit->ports["a"] = unit->ports["out"];
  return true;
}

bool inject_dead_state(ir::Design& design, Rng& rng) {
  std::vector<ir::Fsm*> sites;
  for (ir::Configuration* config : chain_configurations(design)) {
    if (config->fsm.find_state(config->fsm.initial) != nullptr) {
      sites.push_back(&config->fsm);
    }
  }
  if (sites.empty()) {
    return false;
  }
  ir::Fsm* fsm = sites[rng.index(sites.size())];
  std::string name = "injected_dead";
  while (fsm->find_state(name) != nullptr) {
    name += "_";
  }
  ir::State dead;
  dead.name = name;
  // A valid outgoing edge keeps FTI-L011 quiet; nothing targets the
  // state, so only reachability (FTI-L006) is violated.
  dead.transitions.push_back({ir::Guard{}, fsm->initial});
  fsm->states.push_back(std::move(dead));
  return true;
}

bool inject_unreachable_transition(ir::Design& design, Rng& rng) {
  std::vector<ir::State*> sites;
  for (ir::Configuration* config : chain_configurations(design)) {
    for (ir::State& state : config->fsm.states) {
      if (!state.transitions.empty()) {
        sites.push_back(&state);
      }
    }
  }
  if (sites.empty()) {
    return false;
  }
  ir::State* state = sites[rng.index(sites.size())];
  // An unconditional transition in front shadows everything after it.
  ir::Transition shadow{ir::Guard{}, state->transitions.front().target};
  state->transitions.insert(state->transitions.begin(), std::move(shadow));
  return true;
}

bool inject_read_before_write(ir::Design& design, Rng& rng) {
  // Find a memory written by an earlier partition and read (not written)
  // by a later one, then reverse the reconfiguration chain and drop the
  // memory's power-up image: the reader now runs before every writer.
  std::vector<std::string> chain = chain_order(design);
  if (chain.size() < 2) {
    return false;
  }
  std::map<std::string, std::size_t> last_write;
  std::map<std::string, std::vector<std::size_t>> pure_reads;
  for (std::size_t position = 0; position < chain.size(); ++position) {
    auto it = design.configurations.find(chain[position]);
    if (it == design.configurations.end()) {
      return false;
    }
    std::set<std::string> reads;
    std::set<std::string> writes;
    for (const ir::Unit& unit : it->second.datapath.units) {
      if (unit.kind != ir::UnitKind::kMemPort) {
        continue;
      }
      if (unit.mem_mode != ir::MemMode::kWrite) {
        reads.insert(unit.memory);
      }
      if (unit.mem_mode != ir::MemMode::kRead) {
        writes.insert(unit.memory);
      }
    }
    for (const std::string& memory : writes) {
      last_write[memory] = position;
    }
    for (const std::string& memory : reads) {
      if (!writes.count(memory)) {
        pure_reads[memory].push_back(position);
      }
    }
  }
  std::vector<std::string> candidates;
  for (const auto& [memory, positions] : pure_reads) {
    auto write = last_write.find(memory);
    if (write != last_write.end() && positions.back() > write->second) {
      candidates.push_back(memory);
    }
  }
  if (candidates.empty()) {
    return false;
  }
  const std::string& memory = candidates[rng.index(candidates.size())];
  for (auto& [node, config] : design.configurations) {
    (void)node;
    for (ir::MemoryDecl& decl : config.datapath.memories) {
      if (decl.name == memory) {
        decl.init.clear();
      }
    }
  }
  design.rtg.initial = chain.back();
  design.rtg.edges.clear();
  for (std::size_t position = chain.size(); position-- > 1;) {
    design.rtg.edges.push_back({chain[position], chain[position - 1]});
  }
  return true;
}

bool inject_uninit_register(ir::Design& design, Rng& rng) {
  // Splice a reset-less self-holding register's power-up value into a
  // memory port's write enable via XOR.  2-state engines power the
  // register up at 0, so the XOR is the identity and every lane still
  // agrees -- the classic laundered uninitialized-read.  Under 4-state
  // semantics the register powers up X; the write enable is evaluated on
  // every clock edge of its configuration, so the X deterministically
  // trips a dynamic FTI-L010 finding.
  struct Site {
    ir::Datapath* datapath;
    std::size_t memport;  ///< index, not a pointer: the splice below
                          ///< push_backs into units and may reallocate
  };
  std::vector<Site> sites;
  for (ir::Configuration* config : chain_configurations(design)) {
    for (std::size_t index = 0; index < config->datapath.units.size();
         ++index) {
      const ir::Unit& unit = config->datapath.units[index];
      if (unit.kind == ir::UnitKind::kMemPort &&
          unit.mem_mode != ir::MemMode::kRead && unit.has_port("we")) {
        sites.push_back({&config->datapath, index});
      }
    }
  }
  if (sites.empty()) {
    return false;
  }
  Site& site = sites[rng.index(sites.size())];
  const std::string we = site.datapath->units[site.memport].port("we");
  std::uint32_t width = site.datapath->wire(we).width;
  std::string suffix;
  while (site.datapath->find_wire("uninit_q" + suffix) != nullptr ||
         site.datapath->find_wire("uninit_mix" + suffix) != nullptr ||
         site.datapath->find_unit("uninit_reg" + suffix) != nullptr ||
         site.datapath->find_unit("uninit_xor" + suffix) != nullptr) {
    suffix += "_";
  }
  site.datapath->wires.push_back({"uninit_q" + suffix, width});
  site.datapath->wires.push_back({"uninit_mix" + suffix, width});
  ir::Unit reg;
  reg.name = "uninit_reg" + suffix;
  reg.kind = ir::UnitKind::kRegister;
  reg.width = width;
  // Self-hold with no rst/en port: under 2-state the register sits at its
  // reset value (0) forever; under 4-state it sits at X forever.
  reg.ports["d"] = "uninit_q" + suffix;
  reg.ports["q"] = "uninit_q" + suffix;
  site.datapath->units.push_back(std::move(reg));
  ir::Unit mix;
  mix.name = "uninit_xor" + suffix;
  mix.kind = ir::UnitKind::kBinOp;
  mix.binop = ops::BinOp::kXor;
  mix.width = width;
  mix.ports["a"] = we;
  mix.ports["b"] = "uninit_q" + suffix;
  mix.ports["out"] = "uninit_mix" + suffix;
  site.datapath->units.push_back(std::move(mix));
  site.datapath->units[site.memport].ports["we"] = "uninit_mix" + suffix;
  return true;
}

/// Wires driven by at least one unit output in `datapath`, in
/// declaration order; the semantic injectors read these so the new
/// logic observes real computed values instead of undriven zeros.
std::vector<std::string> driven_wires(const ir::Datapath& datapath) {
  std::set<std::string> driven;
  for (const ir::Unit& unit : datapath.units) {
    for (const std::string& output : ir::port_spec(unit).outputs) {
      if (unit.has_port(output)) {
        driven.insert(unit.port(output));
      }
    }
  }
  std::vector<std::string> ordered;
  for (const ir::Wire& wire : datapath.wires) {
    if (driven.count(wire.name)) {
      ordered.push_back(wire.name);
    }
  }
  return ordered;
}

bool inject_oob_index(ir::Design& design, Rng& rng) {
  // New read port with a constant address one past the end of an
  // existing memory.  Every 2-state engine drives the out-of-range dout
  // as 0 and nothing consumes it, so simulation still agrees lane for
  // lane -- only the value-range analysis proves addr >= depth
  // (FTI-L012).
  struct Site {
    ir::Datapath* datapath;
    std::string memory;
    std::uint64_t depth;
    std::uint32_t width;
  };
  std::vector<Site> sites;
  for (ir::Configuration* config : chain_configurations(design)) {
    for (const ir::MemoryDecl& memory : config->datapath.memories) {
      sites.push_back({&config->datapath, memory.name,
                       static_cast<std::uint64_t>(memory.depth),
                       memory.width});
    }
  }
  if (sites.empty()) {
    return false;
  }
  Site& site = sites[rng.index(sites.size())];
  std::string suffix;
  while (site.datapath->find_wire("oob_addr" + suffix) != nullptr ||
         site.datapath->find_wire("oob_dout" + suffix) != nullptr ||
         site.datapath->find_unit("oob_addr" + suffix) != nullptr ||
         site.datapath->find_unit("oob_rd" + suffix) != nullptr) {
    suffix += "_";
  }
  // The first out-of-range index is `depth`; the address wire is just
  // wide enough to hold it (wider than the generator's log2(depth)
  // addresses -- memport addr accepts any width).
  std::uint32_t addr_bits = 1;
  while (addr_bits < 64 && (1ull << addr_bits) <= site.depth) {
    ++addr_bits;
  }
  site.datapath->wires.push_back({"oob_addr" + suffix, addr_bits});
  site.datapath->wires.push_back({"oob_dout" + suffix, site.width});
  ir::Unit addr;
  addr.name = "oob_addr" + suffix;
  addr.kind = ir::UnitKind::kConst;
  addr.width = addr_bits;
  addr.value = site.depth;
  addr.ports["out"] = "oob_addr" + suffix;
  site.datapath->units.push_back(std::move(addr));
  ir::Unit rd;
  rd.name = "oob_rd" + suffix;
  rd.kind = ir::UnitKind::kMemPort;
  rd.memory = site.memory;
  rd.mem_mode = ir::MemMode::kRead;
  rd.ports["addr"] = "oob_addr" + suffix;
  rd.ports["dout"] = "oob_dout" + suffix;
  site.datapath->units.push_back(std::move(rd));
  return true;
}

bool inject_const_false_guard(ir::Design& design, Rng& rng) {
  // Splice a transition guarded by a provably-false status -- ltu(x, 0)
  // is false for every x -- at the FRONT of the initial state's
  // transition list.  The transition never fires, so 2-state behaviour
  // is untouched; the initial state is always semantically reachable, so
  // the dataflow tier records the verdict and FTI-L013 fires.  The
  // single-literal guard is not syntactically self-contradictory, so the
  // structural FTI-L007 stays silent: the proof needs value analysis.
  struct Site {
    ir::Datapath* datapath;
    ir::Fsm* fsm;
    std::string operand;  ///< driven wire the comparison observes
  };
  std::vector<Site> sites;
  for (ir::Configuration* config : chain_configurations(design)) {
    ir::State* initial = nullptr;
    for (ir::State& state : config->fsm.states) {
      if (state.name == config->fsm.initial) {
        initial = &state;
      }
    }
    if (initial == nullptr) {
      continue;
    }
    for (const std::string& wire : driven_wires(config->datapath)) {
      sites.push_back({&config->datapath, &config->fsm, wire});
    }
  }
  if (sites.empty()) {
    return false;
  }
  Site& site = sites[rng.index(sites.size())];
  std::string suffix;
  while (site.datapath->find_wire("dead_zero" + suffix) != nullptr ||
         site.datapath->find_wire("dead_status" + suffix) != nullptr ||
         site.datapath->find_unit("dead_zero" + suffix) != nullptr ||
         site.datapath->find_unit("dead_ltu" + suffix) != nullptr) {
    suffix += "_";
  }
  const std::uint32_t width = site.datapath->wire(site.operand).width;
  site.datapath->wires.push_back({"dead_zero" + suffix, width});
  site.datapath->wires.push_back({"dead_status" + suffix, 1});
  site.datapath->status_wires.push_back("dead_status" + suffix);
  ir::Unit zero;
  zero.name = "dead_zero" + suffix;
  zero.kind = ir::UnitKind::kConst;
  zero.width = width;
  zero.value = 0;
  zero.ports["out"] = "dead_zero" + suffix;
  site.datapath->units.push_back(std::move(zero));
  ir::Unit cmp;
  cmp.name = "dead_ltu" + suffix;
  cmp.kind = ir::UnitKind::kBinOp;
  cmp.binop = ops::BinOp::kLtu;
  cmp.width = width;
  cmp.ports["a"] = site.operand;
  cmp.ports["b"] = "dead_zero" + suffix;
  cmp.ports["out"] = "dead_status" + suffix;
  site.datapath->units.push_back(std::move(cmp));
  for (ir::State& state : site.fsm->states) {
    if (state.name == site.fsm->initial) {
      ir::Transition never;
      never.guard.literals.push_back({"dead_status" + suffix, true});
      never.target = state.transitions.empty() ? state.name
                                               : state.transitions.front()
                                                     .target;
      state.transitions.insert(state.transitions.begin(), std::move(never));
      break;
    }
  }
  return true;
}

bool inject_live_truncation(ir::Design& design, Rng& rng) {
  // or(x, 1 << (w-1)) pins the top bit known-1 even though x itself is
  // unknown; a width-narrowing pass then provably drops a live bit
  // (FTI-L014).  The truncated wire feeds nothing, so simulation is
  // untouched -- the proof rides on known-bits propagation, not on
  // constant folding.
  struct Site {
    ir::Datapath* datapath;
    std::string operand;
    std::uint32_t width;
  };
  std::vector<Site> sites;
  for (ir::Configuration* config : chain_configurations(design)) {
    for (const std::string& wire : driven_wires(config->datapath)) {
      std::uint32_t width = config->datapath.wire(wire).width;
      if (width >= 2) {
        sites.push_back({&config->datapath, wire, width});
      }
    }
  }
  if (sites.empty()) {
    return false;
  }
  Site& site = sites[rng.index(sites.size())];
  std::string suffix;
  while (site.datapath->find_wire("trunc_high" + suffix) != nullptr ||
         site.datapath->find_wire("trunc_wide" + suffix) != nullptr ||
         site.datapath->find_wire("trunc_narrow" + suffix) != nullptr ||
         site.datapath->find_unit("trunc_high" + suffix) != nullptr ||
         site.datapath->find_unit("trunc_or" + suffix) != nullptr ||
         site.datapath->find_unit("trunc_pass" + suffix) != nullptr) {
    suffix += "_";
  }
  const std::uint32_t width = site.width;
  site.datapath->wires.push_back({"trunc_high" + suffix, width});
  site.datapath->wires.push_back({"trunc_wide" + suffix, width});
  site.datapath->wires.push_back({"trunc_narrow" + suffix, width - 1});
  ir::Unit high;
  high.name = "trunc_high" + suffix;
  high.kind = ir::UnitKind::kConst;
  high.width = width;
  high.value = 1ull << (width - 1);
  high.ports["out"] = "trunc_high" + suffix;
  site.datapath->units.push_back(std::move(high));
  ir::Unit mix;
  mix.name = "trunc_or" + suffix;
  mix.kind = ir::UnitKind::kBinOp;
  mix.binop = ops::BinOp::kOr;
  mix.width = width;
  mix.ports["a"] = site.operand;
  mix.ports["b"] = "trunc_high" + suffix;
  mix.ports["out"] = "trunc_wide" + suffix;
  site.datapath->units.push_back(std::move(mix));
  ir::Unit narrow;
  narrow.name = "trunc_pass" + suffix;
  narrow.kind = ir::UnitKind::kUnOp;
  narrow.unop = ops::UnOp::kPass;
  narrow.width = width - 1;
  narrow.ports["a"] = "trunc_wide" + suffix;
  narrow.ports["out"] = "trunc_narrow" + suffix;
  site.datapath->units.push_back(std::move(narrow));
  return true;
}

constexpr std::array<DefectInfo, 10> kDefects = {{
    {DefectClass::kMultiDriver, "multi-driver", "FTI-L001", InjectMode::kLint,
     inject_multi_driver},
    {DefectClass::kWidthMismatch, "width-mismatch", "FTI-L004",
     InjectMode::kLint, inject_width_mismatch},
    {DefectClass::kCombCycle, "comb-cycle", "FTI-L005", InjectMode::kLint,
     inject_comb_cycle},
    {DefectClass::kDeadState, "dead-state", "FTI-L006", InjectMode::kLint,
     inject_dead_state},
    {DefectClass::kUnreachableTransition, "unreachable-transition",
     "FTI-L007", InjectMode::kLint, inject_unreachable_transition},
    {DefectClass::kReadBeforeWrite, "read-before-write", "FTI-L009",
     InjectMode::kLint, inject_read_before_write},
    {DefectClass::kUninitRegister, "uninit-register", "FTI-L010",
     InjectMode::kFourState, inject_uninit_register},
    {DefectClass::kOobIndex, "oob-index", "FTI-L012", InjectMode::kSemantic,
     inject_oob_index},
    {DefectClass::kConstFalseGuard, "const-false-guard", "FTI-L013",
     InjectMode::kSemantic, inject_const_false_guard},
    {DefectClass::kLiveTruncation, "live-truncation", "FTI-L014",
     InjectMode::kSemantic, inject_live_truncation},
}};

/// Rows are indexed by DefectClass value.
constexpr bool rows_in_enum_order() {
  for (std::size_t index = 0; index < kDefects.size(); ++index) {
    if (static_cast<std::size_t>(kDefects[index].defect) != index) {
      return false;
    }
  }
  return true;
}
static_assert(rows_in_enum_order());

bool lint_fires(const ir::Design& design, std::string_view rule) {
  for (const lint::Finding& finding : lint::lint_design(design).findings) {
    if (finding.rule == rule) {
      return true;
    }
  }
  return false;
}

/// Every 4-state finding reports under FTI-L010, so any finding (or a
/// run that does not complete) fires.
bool four_state_fires(const ir::Design& design, std::string_view /*rule*/) {
  // Every memory defined: the 2-state engines define fresh memories as
  // zeros, so an undefined image would flood the run with X findings
  // that have nothing to do with registers.  Register power-up stays X.
  mem::MemoryPool stimulus;
  for (const ir::MemoryDecl& memory : design.memory_requirements()) {
    stimulus.create(memory.name, memory.depth, memory.width);
  }
  xsim::FourStateReport report =
      xsim::run_four_state(design, {&stimulus}).front();
  return !report.completed || !report.clean();
}

/// What each mode adds to the shared loop, indexed by InjectMode value.
struct ModeSpec {
  std::string_view name;
  bool (*fires)(const ir::Design& design, std::string_view rule);
  bool checks_laundering;
  std::uint64_t salt;  ///< derives the injection RNG from the case seed
  /// Applied to every generated design before the baseline check.
  void (*prepare)(ir::Design& design);
};

constexpr std::array<ModeSpec, 3> kModes = {{
    {"lint", lint_fires, false, 0x11a7, nullptr},
    {"semantic", lint_fires, true, 0x5e11, nullptr},
    // Tied-off resets leave the planted register the only one that
    // powers up X.
    {"4-state", four_state_fires, true, 0x11a7, tie_off_register_resets},
}};

const ModeSpec& mode_spec(InjectMode mode) {
  return kModes.at(static_cast<std::size_t>(mode));
}

}  // namespace

void tie_off_register_resets(ir::Design& design) {
  for (ir::Configuration* config : chain_configurations(design)) {
    ir::Datapath& datapath = config->datapath;
    std::vector<std::size_t> bare;
    for (std::size_t index = 0; index < datapath.units.size(); ++index) {
      const ir::Unit& unit = datapath.units[index];
      if (unit.kind == ir::UnitKind::kRegister && !unit.has_port("rst")) {
        bare.push_back(index);
      }
    }
    if (bare.empty()) {
      continue;
    }
    std::string suffix;
    while (datapath.find_wire("rst_tie0" + suffix) != nullptr ||
           datapath.find_unit("rst_tie0" + suffix) != nullptr) {
      suffix += "_";
    }
    std::string tie = "rst_tie0" + suffix;
    datapath.wires.push_back({tie, 1});
    ir::Unit zero;
    zero.name = tie;
    zero.kind = ir::UnitKind::kConst;
    zero.width = 1;
    zero.value = 0;
    zero.ports["out"] = tie;
    datapath.units.push_back(std::move(zero));
    for (std::size_t index : bare) {
      datapath.units[index].ports["rst"] = tie;
    }
  }
}

std::string_view to_string(InjectMode mode) { return mode_spec(mode).name; }

const DefectInfo& defect_info(DefectClass defect) {
  return kDefects.at(static_cast<std::size_t>(defect));
}

std::vector<DefectClass> defect_classes(InjectMode mode) {
  std::vector<DefectClass> classes;
  for (const DefectInfo& info : kDefects) {
    if (info.mode == mode) {
      classes.push_back(info.defect);
    }
  }
  return classes;
}

bool rule_fires(const DefectInfo& info, const ir::Design& design) {
  return mode_spec(info.mode).fires(design, info.rule);
}

bool InjectionReport::checks_laundering() const {
  return mode_spec(mode).checks_laundering;
}

bool InjectionReport::ok() const {
  for (const InjectionOutcome& outcome : outcomes) {
    if (outcome.injected == 0 || outcome.missed != 0 ||
        (checks_laundering() && outcome.laundered != outcome.injected)) {
      return false;
    }
  }
  return !outcomes.empty();
}

InjectionReport run_injection(InjectMode mode, std::uint64_t seed,
                              std::uint64_t runs,
                              const GeneratorOptions& options) {
  const ModeSpec& spec = mode_spec(mode);
  InjectionReport report;
  report.mode = mode;
  for (DefectClass defect : defect_classes(mode)) {
    const DefectInfo& info = defect_info(defect);
    InjectionOutcome outcome;
    outcome.defect = defect;
    GeneratorOptions generator = options;
    if (defect == DefectClass::kReadBeforeWrite) {
      // Injection sites need a memory flowing between partitions; bias
      // the generator toward them or most seeds offer nothing to break.
      generator.shared_memory_percent = 100;
      generator.max_configurations = std::max(2u, generator.max_configurations);
    }
    for (std::uint64_t index = 0; index < runs; ++index) {
      std::uint64_t case_seed = Rng::derive(seed, index);
      ir::Design design = generate_design_seeded(case_seed, generator);
      ++outcome.cases_tried;
      if (spec.prepare != nullptr) {
        spec.prepare(design);
      }
      // A case only counts when the detector is silent before the edit;
      // otherwise "detection" would not be attributable to the defect.
      if (rule_fires(info, design)) {
        continue;
      }
      Rng rng(Rng::derive(case_seed, spec.salt));
      if (!info.inject(design, rng)) {
        continue;
      }
      ++outcome.injected;
      // The laundering claim: every 2-state engine still agrees on the
      // edited design, so functional testing passes it.
      if (spec.checks_laundering && diff_design(design).ok) {
        ++outcome.laundered;
      }
      if (rule_fires(info, design)) {
        ++outcome.detected;
      } else {
        ++outcome.missed;
        outcome.missed_seeds.push_back(case_seed);
      }
    }
    report.outcomes.push_back(std::move(outcome));
  }
  return report;
}

}  // namespace fti::fuzz
