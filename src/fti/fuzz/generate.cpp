#include "fti/fuzz/generate.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "fti/ir/datapath.hpp"
#include "fti/ir/fsm.hpp"

namespace fti::fuzz {
namespace {

using ir::Datapath;
using ir::MemMode;
using ir::MemoryDecl;
using ir::Unit;
using ir::UnitKind;
using ir::Wire;

constexpr std::uint32_t kCounterWidth = 8;

/// Grows one configuration.  Units are only ever connected to wires that
/// already have a driver, so the combinational part is a DAG by
/// construction; registers (whose q wire is driven the moment the unit is
/// created) are the only way to close a cycle.
class ConfigBuilder {
 public:
  ConfigBuilder(Rng& rng, const GeneratorOptions& options)
      : rng_(rng), options_(options) {}

  ir::Configuration build(const std::string& node,
                          std::vector<MemoryDecl>& design_memories) {
    dp_.name = node;
    build_skeleton();
    build_controls();
    build_memories(design_memories);
    std::uint32_t grow =
        static_cast<std::uint32_t>(rng_.range(options_.min_units,
                                              std::max(options_.min_units,
                                                       options_.max_units)));
    for (std::uint32_t i = 0; i < grow; ++i) {
      grow_random_unit();
    }
    build_write_ports();
    pick_extra_statuses();
    ir::Configuration config;
    config.fsm = build_fsm(node);
    config.datapath = std::move(dp_);
    return config;
  }

 private:
  // -- wire / unit bookkeeping --------------------------------------------

  std::string new_wire(std::uint32_t width, const std::string& hint = "") {
    std::string name =
        hint.empty() ? "w" + std::to_string(wire_seq_++) : hint;
    dp_.wires.push_back({name, width});
    return name;
  }

  void mark_driven(const std::string& wire, std::uint32_t width) {
    driven_by_width_[width].push_back(wire);
  }

  std::string driven_wire(std::uint32_t width) {
    auto it = driven_by_width_.find(width);
    FTI_ASSERT(it != driven_by_width_.end() && !it->second.empty(),
               "no driven wire of width " + std::to_string(width));
    return rng_.pick(it->second);
  }

  bool has_driven(std::uint32_t width) const {
    auto it = driven_by_width_.find(width);
    return it != driven_by_width_.end() && !it->second.empty();
  }

  std::vector<std::uint32_t> driven_widths() const {
    std::vector<std::uint32_t> widths;
    for (const auto& [width, wires] : driven_by_width_) {
      if (!wires.empty()) {
        widths.push_back(width);
      }
    }
    return widths;
  }

  std::string unit_name(const char* stem) {
    return std::string(stem) + std::to_string(unit_seq_++);
  }

  /// Width-adapting pass unit: gives any driven source the exact width a
  /// port demands (mem addresses, din lanes, mux selects).
  std::string adapt_to(std::uint32_t width) {
    if (rng_.chance(60) && has_driven(width)) {
      return driven_wire(width);
    }
    std::uint32_t source_width = rng_.pick(driven_widths());
    Unit unit;
    unit.name = unit_name("adapt");
    unit.kind = UnitKind::kUnOp;
    unit.unop = rng_.chance(50) ? ops::UnOp::kPass : ops::UnOp::kSext;
    unit.width = width;
    unit.ports["a"] = driven_wire(source_width);
    std::string out = new_wire(width);
    unit.ports["out"] = out;
    dp_.units.push_back(std::move(unit));
    mark_driven(out, width);
    return out;
  }

  // -- skeleton -----------------------------------------------------------

  /// Termination guarantee: cnt <= 255 increments every cycle without any
  /// enable, a geu comparator raises `finished` once cnt reaches the limit,
  /// and the FSM's run state waits for that status.  The FSM prologue is at
  /// most max_extra_states + 2 cycles, far below the counter's wrap at 256,
  /// so `finished` is still high whenever the run state samples it.
  void build_skeleton() {
    run_limit_ = static_cast<std::uint32_t>(
        rng_.range(2, std::max<std::uint32_t>(2, options_.max_run_cycles)));
    std::string cnt_q = new_wire(kCounterWidth, "cnt_q");
    std::string cnt_next = new_wire(kCounterWidth, "cnt_next");
    std::string one = new_wire(kCounterWidth, "cnt_one");
    std::string limit = new_wire(kCounterWidth, "cnt_limit");
    std::string finished = new_wire(1, "finished");

    Unit k_one;
    k_one.name = "k_one";
    k_one.kind = UnitKind::kConst;
    k_one.width = kCounterWidth;
    k_one.value = 1;
    k_one.ports["out"] = one;
    dp_.units.push_back(std::move(k_one));

    Unit k_limit;
    k_limit.name = "k_limit";
    k_limit.kind = UnitKind::kConst;
    k_limit.width = kCounterWidth;
    k_limit.value = run_limit_;
    k_limit.ports["out"] = limit;
    dp_.units.push_back(std::move(k_limit));

    Unit k_inc;
    k_inc.name = "k_inc";
    k_inc.kind = UnitKind::kBinOp;
    k_inc.binop = ops::BinOp::kAdd;
    k_inc.width = kCounterWidth;
    k_inc.ports["a"] = cnt_q;
    k_inc.ports["b"] = one;
    k_inc.ports["out"] = cnt_next;
    dp_.units.push_back(std::move(k_inc));

    Unit k_cnt;
    k_cnt.name = "k_cnt";
    k_cnt.kind = UnitKind::kRegister;
    k_cnt.width = kCounterWidth;
    k_cnt.ports["d"] = cnt_next;
    k_cnt.ports["q"] = cnt_q;
    dp_.units.push_back(std::move(k_cnt));

    Unit k_cmp;
    k_cmp.name = "k_cmp";
    k_cmp.kind = UnitKind::kBinOp;
    k_cmp.binop = ops::BinOp::kGeu;
    k_cmp.width = kCounterWidth;
    k_cmp.ports["a"] = cnt_q;
    k_cmp.ports["b"] = limit;
    k_cmp.ports["out"] = finished;
    dp_.units.push_back(std::move(k_cmp));

    mark_driven(one, kCounterWidth);
    mark_driven(limit, kCounterWidth);
    mark_driven(cnt_next, kCounterWidth);
    mark_driven(cnt_q, kCounterWidth);
    mark_driven(finished, 1);
    dp_.status_wires.push_back(finished);
  }

  void build_controls() {
    dp_.wires.push_back({"done", 1});
    dp_.control_wires.push_back("done");
    static const std::vector<std::uint32_t> kControlWidths = {1, 1, 2, 4, 8};
    std::uint32_t extra = static_cast<std::uint32_t>(rng_.range(1, 3));
    for (std::uint32_t i = 0; i < extra; ++i) {
      std::uint32_t width = rng_.pick(kControlWidths);
      std::string name = "ctl" + std::to_string(i);
      dp_.wires.push_back({name, width});
      dp_.control_wires.push_back(name);
      mark_driven(name, width);
    }
  }

  // -- memories -----------------------------------------------------------

  void build_memories(std::vector<MemoryDecl>& design_memories) {
    if (options_.max_memories == 0) {
      return;
    }
    std::uint32_t count =
        static_cast<std::uint32_t>(rng_.range(0, options_.max_memories));
    for (std::uint32_t i = 0; i < count; ++i) {
      MemoryDecl memory;
      bool reused = false;
      if (!design_memories.empty() &&
          rng_.chance(options_.shared_memory_percent)) {
        // Hand-over through the pool: redeclare an earlier partition's
        // memory (same shape, no init -- power-up state belongs to the
        // partition that created it).
        const MemoryDecl& prior = rng_.pick(design_memories);
        if (dp_.find_memory(prior.name) == nullptr) {
          memory.name = prior.name;
          memory.depth = prior.depth;
          memory.width = prior.width;
          reused = true;
        }
      }
      if (!reused) {
        static const std::vector<std::uint32_t> kMemWidths = {4, 8, 16, 24,
                                                              32, 48, 64};
        std::uint32_t addr_bits =
            static_cast<std::uint32_t>(rng_.range(3, 5));
        memory.name = "m" + std::to_string(design_memories.size());
        memory.depth = std::size_t{1} << addr_bits;
        memory.width = rng_.pick(kMemWidths);
        if (rng_.chance(70)) {
          std::size_t words = rng_.range(1, memory.depth);
          for (std::size_t w = 0; w < words; ++w) {
            memory.init.push_back(rng_.u64() &
                                  sim::Bits::mask(memory.width));
          }
        }
        design_memories.push_back(memory);
      }
      if (dp_.find_memory(memory.name) != nullptr) {
        continue;
      }
      addr_bits_[memory.name] = select_bits(memory.depth);
      dp_.memories.push_back(memory);
      std::uint32_t read_ports =
          static_cast<std::uint32_t>(rng_.range(0, 2));
      bool want_write = rng_.chance(80);
      if (!want_write && read_ports == 0) {
        read_ports = 1;  // a memory nothing touches tests nothing
      }
      for (std::uint32_t p = 0; p < read_ports; ++p) {
        add_read_port(memory);
      }
      if (want_write) {
        pending_writes_.push_back(memory.name);
      }
    }
  }

  static std::uint32_t select_bits(std::size_t depth) {
    std::uint32_t bits = 0;
    while ((std::size_t{1} << bits) < depth) {
      ++bits;
    }
    return bits;
  }

  /// Address wires are exactly log2(depth) bits wide, so every sampled
  /// address is in range -- an out-of-range *write* is a hard SimError in
  /// both engines and must never come from the generator itself.
  void add_read_port(const MemoryDecl& memory) {
    Unit port;
    port.name = unit_name("rd");
    port.kind = UnitKind::kMemPort;
    port.memory = memory.name;
    port.mem_mode = MemMode::kRead;
    port.ports["addr"] = adapt_to(addr_bits_.at(memory.name));
    std::string dout = new_wire(memory.width);
    port.ports["dout"] = dout;
    dp_.units.push_back(std::move(port));
    mark_driven(dout, memory.width);
  }

  /// Write ports are wired last so din/addr/we can observe the whole
  /// datapath grown in between.
  void build_write_ports() {
    for (const std::string& name : pending_writes_) {
      const MemoryDecl& memory = *dp_.find_memory(name);
      Unit port;
      port.name = unit_name("wr");
      port.kind = UnitKind::kMemPort;
      port.memory = name;
      bool read_write = rng_.chance(50);
      port.mem_mode = read_write ? MemMode::kReadWrite : MemMode::kWrite;
      port.ports["addr"] = adapt_to(addr_bits_.at(name));
      port.ports["din"] = adapt_to(memory.width);
      port.ports["we"] = adapt_to(1);
      if (read_write) {
        std::string dout = new_wire(memory.width);
        port.ports["dout"] = dout;
        mark_driven(dout, memory.width);
      }
      dp_.units.push_back(std::move(port));
    }
  }

  // -- random datapath sea ------------------------------------------------

  void grow_random_unit() {
    std::uint64_t roll = rng_.range(0, 99);
    if (roll < 40) {
      grow_binop();
    } else if (roll < 55) {
      grow_unop();
    } else if (roll < 70) {
      grow_mux();
    } else if (roll < 90) {
      grow_register();
    } else {
      grow_const();
    }
  }

  void grow_binop() {
    Unit unit;
    unit.name = unit_name("fu");
    unit.kind = UnitKind::kBinOp;
    unit.binop = rng_.pick(ops::all_binops());
    unit.width = rng_.pick(driven_widths());
    unit.ports["a"] = driven_wire(unit.width);
    unit.ports["b"] = driven_wire(unit.width);
    std::uint32_t out_width =
        ops::is_comparison(unit.binop) ? 1 : unit.width;
    if (options_.allow_pipelined && !ops::is_comparison(unit.binop) &&
        rng_.chance(25)) {
      unit.latency = static_cast<std::uint32_t>(rng_.range(1, 3));
    }
    std::string out = new_wire(out_width);
    unit.ports["out"] = out;
    dp_.units.push_back(std::move(unit));
    mark_driven(out, out_width);
  }

  void grow_unop() {
    static const std::vector<std::uint32_t> kWidths = {1,  2,  4,  8,
                                                       16, 32, 48, 64};
    Unit unit;
    unit.name = unit_name("fu");
    unit.kind = UnitKind::kUnOp;
    unit.unop = rng_.pick(ops::all_unops());
    unit.width = rng_.pick(kWidths);
    unit.ports["a"] = driven_wire(rng_.pick(driven_widths()));
    std::string out = new_wire(unit.width);
    unit.ports["out"] = out;
    dp_.units.push_back(std::move(unit));
    mark_driven(out, unit.width);
  }

  void grow_mux() {
    Unit unit;
    unit.name = unit_name("mx");
    unit.kind = UnitKind::kMux;
    unit.mux_inputs = static_cast<std::uint32_t>(rng_.range(2, 4));
    std::uint32_t sel_width = ir::select_width(unit.mux_inputs);
    if (!has_driven(sel_width)) {
      unit.mux_inputs = 2;  // a 1-bit select always exists (finished)
      sel_width = 1;
    }
    unit.width = rng_.pick(driven_widths());
    for (std::uint32_t i = 0; i < unit.mux_inputs; ++i) {
      unit.ports["in" + std::to_string(i)] = driven_wire(unit.width);
    }
    unit.ports["sel"] = driven_wire(sel_width);
    std::string out = new_wire(unit.width);
    unit.ports["out"] = out;
    dp_.units.push_back(std::move(unit));
    mark_driven(out, unit.width);
  }

  void grow_register() {
    Unit unit;
    unit.name = unit_name("r");
    unit.kind = UnitKind::kRegister;
    unit.width = rng_.pick(driven_widths());
    unit.reset_value = rng_.u64() & sim::Bits::mask(unit.width);
    std::string q = new_wire(unit.width);
    unit.ports["q"] = q;
    mark_driven(q, unit.width);  // before picking d: self-feedback allowed
    unit.ports["d"] = driven_wire(unit.width);
    if (rng_.chance(40)) {
      unit.ports["en"] = driven_wire(1);
    }
    if (rng_.chance(20)) {
      unit.ports["rst"] = driven_wire(1);
    }
    dp_.units.push_back(std::move(unit));
  }

  void grow_const() {
    static const std::vector<std::uint32_t> kWidths = {1,  2,  4,  8,
                                                       16, 32, 64};
    Unit unit;
    unit.name = unit_name("k");
    unit.kind = UnitKind::kConst;
    unit.width = rng_.pick(kWidths);
    unit.value = rng_.u64() & sim::Bits::mask(unit.width);
    std::string out = new_wire(unit.width);
    unit.ports["out"] = out;
    dp_.units.push_back(std::move(unit));
    mark_driven(out, unit.width);
  }

  // -- control unit -------------------------------------------------------

  /// One-bit unit-driven wires (not the mandatory `finished`, not control
  /// wires) become additional status inputs for random guards.
  void pick_extra_statuses() {
    std::vector<std::string> candidates;
    auto it = driven_by_width_.find(1);
    if (it == driven_by_width_.end()) {
      return;
    }
    for (const std::string& wire : it->second) {
      if (!dp_.is_control(wire) && !dp_.is_status(wire)) {
        candidates.push_back(wire);
      }
    }
    std::uint32_t take = static_cast<std::uint32_t>(
        rng_.range(0, std::min<std::size_t>(3, candidates.size())));
    for (std::uint32_t i = 0; i < take && !candidates.empty(); ++i) {
      std::size_t pick = rng_.index(candidates.size());
      dp_.status_wires.push_back(candidates[pick]);
      candidates.erase(candidates.begin() +
                       static_cast<std::ptrdiff_t>(pick));
    }
  }

  ir::Guard random_guard() {
    ir::Guard guard;
    std::uint32_t literals = static_cast<std::uint32_t>(rng_.range(1, 2));
    for (std::uint32_t i = 0; i < literals; ++i) {
      guard.literals.push_back(
          {rng_.pick(dp_.status_wires), rng_.chance(50)});
    }
    return guard;
  }

  void random_assigns(ir::State& state) {
    for (const std::string& control : dp_.control_wires) {
      if (control == "done" || !rng_.chance(50)) {
        continue;
      }
      std::uint32_t width = dp_.wire(control).width;
      state.controls.push_back(
          {control, rng_.u64() & sim::Bits::mask(width)});
    }
  }

  /// Chain of states with forward-only random jumps, then a run state that
  /// waits for `finished`, then fin (asserts done, no way out).  Forward
  /// jumps keep the prologue bounded; the run state's guarded exit is what
  /// bounds the whole machine.
  ir::Fsm build_fsm(const std::string& node) {
    ir::Fsm fsm;
    fsm.name = node + "_fsm";
    fsm.done_wire = "done";

    std::vector<std::string> chain = {"init"};
    std::uint32_t extra = static_cast<std::uint32_t>(
        rng_.range(0, options_.max_extra_states));
    for (std::uint32_t i = 0; i < extra; ++i) {
      chain.push_back("s" + std::to_string(i));
    }
    chain.push_back("run");
    fsm.initial = "init";

    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      ir::State state;
      state.name = chain[i];
      random_assigns(state);
      if (rng_.chance(40) && i + 2 < chain.size()) {
        // Guarded forward jump past the immediate successor.
        std::size_t target = rng_.range(i + 2, chain.size() - 1);
        state.transitions.push_back({random_guard(), chain[target]});
      }
      state.transitions.push_back({ir::Guard{}, chain[i + 1]});
      fsm.states.push_back(std::move(state));
    }

    ir::State run;
    run.name = "run";
    random_assigns(run);
    if (rng_.chance(30) && dp_.status_wires.size() > 1) {
      // A random early exit: deterministic across engines either way.
      run.transitions.push_back({random_guard(), "fin"});
    }
    run.transitions.push_back(
        {ir::parse_guard(dp_.status_wires.front()), "fin"});
    fsm.states.push_back(std::move(run));

    ir::State fin;
    fin.name = "fin";
    fin.controls.push_back({"done", 1});
    fsm.states.push_back(std::move(fin));
    return fsm;
  }

  Rng& rng_;
  const GeneratorOptions& options_;
  Datapath dp_;
  std::map<std::uint32_t, std::vector<std::string>> driven_by_width_;
  std::map<std::string, std::uint32_t> addr_bits_;
  std::vector<std::string> pending_writes_;
  std::uint32_t wire_seq_ = 0;
  std::uint32_t unit_seq_ = 0;
  std::uint32_t run_limit_ = 0;
};

}  // namespace

ir::Design generate_design(Rng& rng, const GeneratorOptions& options) {
  ir::Design design;
  std::uint32_t configs = static_cast<std::uint32_t>(
      rng.range(1, std::max<std::uint32_t>(1, options.max_configurations)));
  design.name = "fuzz";
  design.rtg.name = "fuzz_rtg";
  std::vector<MemoryDecl> design_memories;
  for (std::uint32_t i = 0; i < configs; ++i) {
    std::string node = "p" + std::to_string(i);
    ConfigBuilder builder(rng, options);
    design.configurations.emplace(node,
                                  builder.build(node, design_memories));
    design.rtg.nodes.push_back(node);
    if (i > 0) {
      design.rtg.edges.push_back(
          {"p" + std::to_string(i - 1), node});
    }
  }
  design.rtg.initial = "p0";
  return design;
}

ir::Design generate_design_seeded(std::uint64_t seed,
                                  const GeneratorOptions& options) {
  Rng rng(seed);
  return generate_design(rng, options);
}

}  // namespace fti::fuzz
