#include "fti/codegen/cpp.hpp"

#include <cstdint>

#include "fti/codegen/semantics_text.hpp"
#include "fti/elab/compiled_abi.hpp"
#include "fti/ir/slots.hpp"
#include "fti/ops/alu.hpp"
#include "fti/util/error.hpp"

namespace fti::codegen {
namespace {

std::string u64(std::uint64_t value) { return std::to_string(value) + "ull"; }

std::uint64_t mask_of(std::uint32_t width) {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

std::string hex64(std::uint64_t value) {
  static const char* kDigits = "0123456789abcdef";
  std::string out = "0x";
  bool seen = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    int nibble = static_cast<int>((value >> shift) & 0xf);
    if (nibble != 0 || seen || shift == 0) {
      out += kDigits[nibble];
      seen = true;
    }
  }
  return out + "ull";
}

/// `(expr) & mask` at `width`, or `expr` verbatim for full-width results.
std::string masked(const std::string& expr, std::uint32_t width) {
  if (width >= 64) {
    return expr;
  }
  return "(" + expr + ") & " + hex64(mask_of(width));
}

/// Escapes a name for use inside a C string literal or comment.
std::string escaped(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (c == '\\' || c == '"') {
      out += '\\';
    }
    if (c == '\n' || c == '\r') {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

/// The helper preamble shared by every generated module: the SimError
/// formatter.  Operator semantics are not written here; every module
/// carries ops/semantics.hpp itself (kSemanticsText), the single
/// definition the ALU and the batched engine compute with too.
constexpr const char* kHelpers = R"helpers(
static int fti_fail(FtiCompiledRunV1* io, const char* pre,
                    unsigned long long n, const char* post) {
  char* out = io->error;
  unsigned long long cap = io->error_capacity;
  unsigned long long k = 0;
  for (const char* p = pre; *p != '\0' && k + 1 < cap; ++p) out[k++] = *p;
  char digits[20];
  int d = 0;
  if (n == 0ull) digits[d++] = '0';
  while (n != 0ull && d < 20) {
    digits[d++] = (char)('0' + (int)(n % 10ull));
    n /= 10ull;
  }
  while (d > 0 && k + 1 < cap) out[k++] = digits[--d];
  for (const char* p = post; *p != '\0' && k + 1 < cap; ++p) out[k++] = *p;
  if (cap != 0ull) out[k] = '\0';
  return 2;
}
)helpers";

/// Emits the run function for one RTG node.
class NodeEmitter {
 public:
  NodeEmitter(const ir::Design& design, const std::string& node,
              std::size_t node_index, const elab::LevelizedSchedule& schedule,
              std::string& out)
      : config_(design.configuration(node)),
        datapath_(config_.datapath),
        slots_(ir::resolve_slots(config_, ir::DatapathIndex(datapath_))),
        schedule_(schedule),
        node_(node),
        index_(node_index),
        out_(out) {
    trace_of_.assign(datapath_.wires.size(), kNone);
    layout_.name = node;
    layout_.traced = ir::traced_wires(datapath_);
    for (std::size_t s = 0; s < slots_.traced.size(); ++s) {
      trace_of_[slots_.traced[s]] = s;
    }
    // Declaration order, so a memport's resolved memory is its m index.
    layout_.memories = elab::cabi::memory_order(datapath_);
    for (const ir::Unit* unit : elab::cabi::write_units(datapath_)) {
      layout_.write_memories.push_back(unit->memory);
    }
    layout_.state_count = config_.fsm.states.size();
    taken_offsets_ = elab::cabi::taken_offsets(config_.fsm);
    layout_.taken_count = taken_offsets_.back();
    layout_.comb_depth = schedule.depth;
  }

  const CppNodeLayout& layout() const { return layout_; }

  void emit() {
    ln("");
    ln("/* node '" + escaped(node_) + "': " +
       std::to_string(schedule_.steps.size()) + " comb steps in " +
       std::to_string(schedule_.depth) + " ranks, " +
       std::to_string(config_.fsm.states.size()) + " FSM states */");
    ln("static int fti_run_" + std::to_string(index_) +
       "(FtiCompiledRunV1* io) {");
    ln("  const int collect = io->collect_traces != 0ull ? 1 : 0;");
    ln("  (void)collect;");
    emit_memories();
    emit_wires();
    ln("  unsigned long long cycles = 0ull;");
    ln("  unsigned long long events = 0ull;");
    ln("  unsigned long long evals = 0ull;");
    ln("  unsigned long long deltas = 0ull;");
    ln("  unsigned long long state = " + u64(slots_.initial) + ";");
    emit_pipe_state();
    emit_drive_controls();
    emit_sweep();
    emit_finish();
    emit_body();
    ln("}");
  }

 private:
  static constexpr std::size_t kNone = ir::kNone;

  void ln(const std::string& text) {
    out_ += text;
    out_ += '\n';
  }

  static std::string ref(std::size_t wire) {
    return "w" + std::to_string(wire);
  }

  std::uint32_t width_of(std::size_t wire) const {
    return datapath_.wires[wire].width;
  }

  /// Sign-bit constant of `wire` for the ops/semantics.hpp calls.
  std::string sign_of(std::size_t wire) const {
    return hex64(ops::sign_bit(width_of(wire)));
  }

  std::string binop_expr(ops::BinOp op, std::size_t a, std::size_t b,
                         std::uint32_t out_width) const {
    return masked("op_" + std::string(ops::to_string(op)) + "(" + ref(a) +
                      ", " + ref(b) + ", " + sign_of(a) + ", " + sign_of(b) +
                      ")",
                  out_width);
  }

  std::string unop_expr(ops::UnOp op, std::size_t a,
                        std::uint32_t out_width) const {
    return masked("op_" + std::string(ops::to_string(op)) + "(" + ref(a) +
                      ", " + sign_of(a) + ")",
                  out_width);
  }

  /// Change-detected commit matching the batched interpreter's commit:
  /// events count changes; traced slots also append to the host's trace ring.
  void emit_commit(const std::string& indent, std::size_t wire,
                   const std::string& expr) {
    std::string w = ref(wire);
    std::string body = "{ unsigned long long v = " + expr + "; if (" + w +
                       " != v) { " + w + " = v; ++events;";
    if (trace_of_[wire] != kNone) {
      body += " if (collect) io->trace(io->host, " + u64(trace_of_[wire]) +
              ", v);";
    }
    body += " } }";
    ln(indent + body);
  }

  void emit_memories() {
    for (std::size_t m = 0; m < datapath_.memories.size(); ++m) {
      const ir::MemoryDecl& memory = datapath_.memories[m];
      ln("  const unsigned long long* m" + std::to_string(m) +
         " = io->memories[" + u64(m) + "];  /* sram '" +
         escaped(memory.name) + "' depth " + std::to_string(memory.depth) +
         " */");
      ln("  (void)m" + std::to_string(m) + ";");
    }
  }

  void emit_wires() {
    // Constant units fold into the wire initializer: single-driver rules
    // make a const's output wire otherwise unwritten, and the first read
    // anywhere happens after the first sweep would have assigned it.
    std::vector<std::uint64_t> init(datapath_.wires.size(), 0);
    std::vector<const ir::Unit*> folded(datapath_.wires.size(), nullptr);
    for (const ir::Unit& unit : datapath_.units) {
      if (unit.kind == ir::UnitKind::kConst) {
        std::size_t out = slots_.of(unit).out;
        init[out] = unit.value & mask_of(datapath_.wires[out].width);
        folded[out] = &unit;
      }
    }
    for (std::size_t i = 0; i < datapath_.wires.size(); ++i) {
      const ir::Wire& wire = datapath_.wires[i];
      std::string comment = "wire '" + escaped(wire.name) + "' width " +
                            std::to_string(wire.width);
      if (folded[i] != nullptr) {
        comment += " (const '" + escaped(folded[i]->name) + "' folded)";
      }
      ln("  unsigned long long w" + std::to_string(i) + " = " +
         u64(init[i]) + ";  /* " + comment + " */");
      ln("  (void)w" + std::to_string(i) + ";");
    }
  }

  void emit_pipe_state() {
    std::size_t p = 0;
    for (const ir::Unit& unit : datapath_.units) {
      if (unit.kind != ir::UnitKind::kBinOp || unit.latency == 0) {
        continue;
      }
      if (unit.latency > 1) {
        std::string name = "ring" + std::to_string(p);
        std::string zeros;
        for (std::uint32_t s = 0; s + 1 < unit.latency; ++s) {
          zeros += s == 0 ? "0ull" : ", 0ull";
        }
        ln("  unsigned long long " + name + "[" +
           std::to_string(unit.latency - 1) + "] = {" + zeros +
           "};  /* pipelined '" + escaped(unit.name) + "' latency " +
           std::to_string(unit.latency) + " */");
        ln("  unsigned long long " + name + "_head = 0ull;");
      }
      ++p;
    }
  }

  /// Control driving is data, not code: a per-state switch with the
  /// commits unrolled into every arm multiplies states by controls and
  /// produced multi-megabyte translation units on real FSMs (FDCT's
  /// 159-state controller compiled for over two minutes at -O2).  A
  /// static value table indexed by state plus one run of change-detected
  /// commits keeps the generated code size proportional to the control
  /// count alone; the table lands in .rodata where the host compiler
  /// handles it in milliseconds.
  void emit_drive_controls() {
    const std::vector<std::size_t>& controls = slots_.controls;
    if (controls.empty()) {
      ln("  auto drive_controls = [&]() {};");
      return;
    }
    ln("  /* control values per FSM state; column order follows the");
    ln("     datapath control-wire declarations */");
    ln("  static const unsigned long long fti_ctrl[" +
       std::to_string(config_.fsm.states.size()) + "][" +
       std::to_string(controls.size()) + "] = {");
    for (std::size_t s = 0; s < config_.fsm.states.size(); ++s) {
      std::vector<std::uint64_t> values(controls.size(), 0);
      for (const auto& [control, value] : slots_.states[s].controls) {
        values[control] = value;
      }
      std::string row = "    {";
      for (std::size_t c = 0; c < controls.size(); ++c) {
        if (c != 0) {
          row += ", ";
        }
        row += u64(values[c] & mask_of(width_of(controls[c])));
      }
      row += "},  /* '" + escaped(config_.fsm.states[s].name) + "' */";
      ln(row);
    }
    ln("  };");
    ln("  auto drive_controls = [&]() {");
    ln("    const unsigned long long* row = fti_ctrl[state];");
    for (std::size_t c = 0; c < controls.size(); ++c) {
      emit_commit("    ", controls[c], "row[" + std::to_string(c) + "]");
    }
    ln("  };");
  }

  void emit_sweep() {
    ln("  auto sweep = [&]() {");
    ln("    ++deltas;");
    ln("    evals += " + u64(schedule_.steps.size()) + ";");
    for (const elab::LevelizedSchedule::Step& step : schedule_.steps) {
      const ir::Unit& unit = *step.unit;
      if (unit.kind == ir::UnitKind::kConst) {
        continue;  // folded into the wire initializer
      }
      const ir::UnitSlots& port = slots_.of(unit);
      std::size_t out = port.out;
      std::uint32_t out_width = datapath_.wires[out].width;
      std::string expr;
      switch (unit.kind) {
        case ir::UnitKind::kBinOp:
          expr = binop_expr(unit.binop, port.a, port.b, out_width);
          break;
        case ir::UnitKind::kUnOp:
          expr = unop_expr(unit.unop, port.a, out_width);
          break;
        case ir::UnitKind::kMux: {
          std::string sel = ref(port.sel);
          for (std::size_t i = 0; i < port.in.size(); ++i) {
            expr += sel + " == " + u64(i) + " ? " + ref(port.in[i]) + " : ";
          }
          expr += "0ull";
          break;
        }
        case ir::UnitKind::kMemPort: {
          std::string addr = ref(port.addr);
          std::string word =
              "m" + std::to_string(port.memory) + "[" + addr + "]";
          expr = addr + " < " + u64(datapath_.memories[port.memory].depth) +
                 " ? " + masked(word, out_width) + " : 0ull";
          break;
        }
        case ir::UnitKind::kConst:
        case ir::UnitKind::kRegister:
          continue;
      }
      ln("    w" + std::to_string(out) + " = " + expr + ";  /* '" +
         escaped(unit.name) + "' rank " + std::to_string(step.rank) + " */");
    }
    ln("  };");
  }

  void emit_finish() {
    ln("  auto finish = [&]() {");
    ln("    io->cycles = cycles;");
    ln("    io->events = events;");
    ln("    io->evaluations = evals;");
    ln("    io->delta_cycles = deltas;");
    if (!layout_.traced.empty()) {
      ln("    if (collect) {");
      for (std::size_t s = 0; s < layout_.traced.size(); ++s) {
        ln("      io->finals[" + u64(s) + "] = " + ref(slots_.traced[s]) +
           ";");
      }
      ln("    }");
    }
    ln("  };");
  }

  void emit_body() {
    // Power-up: registers commit their reset value exactly once.  The
    // wire locals start at zero, so only nonzero resets can be changes;
    // those commit unconditionally (value, event, trace).
    for (const ir::Unit& unit : datapath_.units) {
      if (unit.kind != ir::UnitKind::kRegister) {
        continue;
      }
      std::size_t q = slots_.of(unit).q;
      std::uint64_t reset = unit.reset_value & mask_of(width_of(q));
      if (reset == 0) {
        continue;
      }
      std::string line = "  " + ref(q) + " = " + u64(reset) + "; ++events;";
      if (trace_of_[q] != kNone) {
        line += " if (collect) io->trace(io->host, " + u64(trace_of_[q]) +
                ", " + ref(q) + ");";
      }
      ln(line + "  /* reset '" + escaped(unit.name) + "' */");
    }
    ln("  io->visits[" + u64(slots_.initial) + "] += 1ull;");
    ln("  drive_controls();");
    ln("  sweep();");
    ln("  for (;;) {");
    ln("    if (" + ref(slots_.done) + " != 0ull) break;");
    ln("    if (io->max_cycles != 0ull && cycles >= io->max_cycles) {");
    ln("      finish();");
    ln("      return 1;");
    ln("    }");
    emit_edge();
    ln("    drive_controls();");
    ln("    sweep();");
    ln("    ++cycles;");
    ln("  }");
    ln("  finish();");
    ln("  return 0;");
  }

  /// The two-phase clock edge, inlined into the loop body because the
  /// out-of-bounds write path returns straight out of the run function.
  void emit_edge() {
    std::vector<const ir::Unit*> registers;
    std::vector<const ir::Unit*> pipes;
    std::vector<const ir::Unit*> writes;
    for (const ir::Unit& unit : datapath_.units) {
      if (unit.kind == ir::UnitKind::kRegister) {
        registers.push_back(&unit);
      } else if (unit.kind == ir::UnitKind::kBinOp && unit.latency > 0) {
        pipes.push_back(&unit);
      } else if (unit.kind == ir::UnitKind::kMemPort &&
                 unit.mem_mode != ir::MemMode::kRead) {
        writes.push_back(&unit);
      }
    }
    ln("    /* clock edge: sample, transition, commit */");
    ln("    evals += " +
       u64(registers.size() + pipes.size() + writes.size()) + ";");
    for (std::size_t r = 0; r < registers.size(); ++r) {
      const ir::Unit& unit = *registers[r];
      const ir::UnitSlots& port = slots_.of(unit);
      std::string n = "rn" + std::to_string(r);
      std::string c = "rc" + std::to_string(r);
      std::string d = ref(port.d);
      std::uint64_t reset = unit.reset_value & mask_of(width_of(port.q));
      bool has_rst = port.rst != kNone;
      bool has_en = port.en != kNone;
      if (has_rst && has_en) {
        ln("    unsigned long long " + n + " = 0ull; int " + c + " = 1;");
        ln("    if (" + ref(port.rst) + " != 0ull) " + n + " = " +
           u64(reset) + "; else if (" + ref(port.en) + " == 0ull) " + c +
           " = 0; else " + n + " = " + d + ";");
      } else if (has_rst) {
        ln("    unsigned long long " + n + " = " + ref(port.rst) +
           " != 0ull ? " + u64(reset) + " : " + d + ";");
      } else if (has_en) {
        ln("    int " + c + " = " + ref(port.en) + " != 0ull ? 1 : 0;");
        ln("    unsigned long long " + n + " = " + d + ";");
      } else {
        ln("    unsigned long long " + n + " = " + d + ";");
      }
    }
    for (std::size_t p = 0; p < pipes.size(); ++p) {
      const ir::Unit& unit = *pipes[p];
      const ir::UnitSlots& port = slots_.of(unit);
      std::string eval =
          binop_expr(unit.binop, port.a, port.b, width_of(port.out));
      std::string v = "pv" + std::to_string(p);
      if (unit.latency == 1) {
        ln("    unsigned long long " + v + " = " + eval + ";");
      } else {
        std::string ring = "ring" + std::to_string(p);
        ln("    unsigned long long " + v + " = " + ring + "[" + ring +
           "_head];");
        ln("    " + ring + "[" + ring + "_head] = " + eval + ";");
        ln("    " + ring + "_head = (" + ring + "_head + 1ull) % " +
           u64(unit.latency - 1) + ";");
      }
    }
    for (std::size_t j = 0; j < writes.size(); ++j) {
      const ir::Unit& unit = *writes[j];
      const ir::UnitSlots& port = slots_.of(unit);
      const std::size_t depth = datapath_.memories[port.memory].depth;
      std::string m = "wrm" + std::to_string(j);
      std::string a = "wra" + std::to_string(j);
      std::string d = "wrd" + std::to_string(j);
      ln("    int " + m + " = 0; unsigned long long " + a +
         " = 0ull, " + d + " = 0ull;");
      ln("    if (" + ref(port.we) + " != 0ull) {");
      ln("      " + a + " = " + ref(port.addr) + ";");
      ln("      if (" + a + " >= " + u64(depth) + ") {");
      ln("        return fti_fail(io, \"compiled: sram '" +
         escaped(unit.name) + "' write to address \", " + a +
         ", \" beyond depth " + std::to_string(depth) + "\");");
      ln("      }");
      ln("      " + m + " = 1; " + d + " = " + ref(port.din) + ";");
      ln("    }");
    }
    // FSM transition on pre-edge status values; first match wins, no
    // match holds the state.
    ln("    switch (state) {");
    for (std::size_t s = 0; s < config_.fsm.states.size(); ++s) {
      const ir::State& st = config_.fsm.states[s];
      if (st.transitions.empty()) {
        continue;
      }
      ln("      case " + u64(s) + ": {  /* '" + escaped(st.name) + "' */");
      for (std::size_t t = 0; t < st.transitions.size(); ++t) {
        const ir::Transition& transition = st.transitions[t];
        const ir::TransitionSlots& resolved = slots_.states[s].transitions[t];
        std::size_t target = resolved.target;
        std::string action = "io->taken[" + u64(taken_offsets_[s] + t) +
                             "] += 1ull; state = " + u64(target) +
                             "; io->visits[" + u64(target) +
                             "] += 1ull; break;";
        if (transition.guard.always()) {
          ln("        " + action);
          break;  // later transitions are unreachable
        }
        std::string cond;
        for (const auto& [status, expected] : resolved.literals) {
          if (!cond.empty()) {
            cond += " && ";
          }
          cond += ref(status) + (expected ? " != 0ull" : " == 0ull");
        }
        ln("        if (" + cond + ") { " + action + " }");
      }
      ln("        break;");
      ln("      }");
    }
    ln("    }");
    // Commit phase: registers then pipeline outputs (the interpreter's
    // commit order), then memory writes through the host callback.
    for (std::size_t r = 0; r < registers.size(); ++r) {
      const ir::UnitSlots& port = slots_.of(*registers[r]);
      std::size_t q = port.q;
      std::string n = "rn" + std::to_string(r);
      if (port.en != kNone) {
        ln("    if (rc" + std::to_string(r) + " != 0)");
        emit_commit("      ", q, n);
      } else {
        emit_commit("    ", q, n);
      }
    }
    for (std::size_t p = 0; p < pipes.size(); ++p) {
      emit_commit("    ", slots_.of(*pipes[p]).out, "pv" + std::to_string(p));
    }
    for (std::size_t j = 0; j < writes.size(); ++j) {
      ln("    if (wrm" + std::to_string(j) +
         " != 0) { io->mem_write(io->host, " + u64(j) + ", wra" +
         std::to_string(j) + ", wrd" + std::to_string(j) + "); ++events; }");
    }
  }

  const ir::Configuration& config_;
  const ir::Datapath& datapath_;
  /// Resolved here: emit_cpp also serves callers holding a plain
  /// ir::Design.
  const ir::ConfigSlots slots_;
  const elab::LevelizedSchedule& schedule_;
  std::string node_;
  std::size_t index_;
  std::string& out_;
  /// Per wire, its position among the traced wires (kNone if untraced).
  std::vector<std::size_t> trace_of_;
  std::vector<std::size_t> taken_offsets_;
  CppNodeLayout layout_;
};

}  // namespace

CppModule emit_cpp(
    const ir::Design& design, const std::string& ir_hash,
    const std::vector<const elab::LevelizedSchedule*>& schedules) {
  FTI_ASSERT(schedules.size() == design.rtg.nodes.size(),
             "codegen: one schedule per RTG node required");
  CppModule module;
  std::string& out = module.source;
  out += "/* Generated by fti codegen::cpp. Design '" +
         escaped(design.name) + "', IR hash " + ir_hash + ", ABI v" +
         std::to_string(elab::cabi::kCompiledAbiVersion) +
         ". Do not edit. */\n";
  out += elab::cabi::kCompiledAbiText;
  // Host-computed sizeofs: any layout drift between the ABI text above
  // and the header the loading process was built with fails this
  // module's own compile instead of corrupting a run.
  out += "\nstatic_assert(sizeof(FtiCompiledRunV1) == " +
         std::to_string(sizeof(FtiCompiledRunV1)) +
         ", \"compiled ABI drift: FtiCompiledRunV1\");\n";
  out += "static_assert(sizeof(FtiCompiledNodeV1) == " +
         std::to_string(sizeof(FtiCompiledNodeV1)) +
         ", \"compiled ABI drift: FtiCompiledNodeV1\");\n";
  out += "static_assert(sizeof(FtiCompiledDesignV1) == " +
         std::to_string(sizeof(FtiCompiledDesignV1)) +
         ", \"compiled ABI drift: FtiCompiledDesignV1\");\n";
  out += "\nnamespace {\n";
  out += kSemanticsText;
  out += "}  // namespace\nusing namespace fti::ops;\n";
  out += kHelpers;
  for (std::size_t i = 0; i < design.rtg.nodes.size(); ++i) {
    NodeEmitter emitter(design, design.rtg.nodes[i], i, *schedules[i], out);
    emitter.emit();
    module.nodes.push_back(emitter.layout());
  }
  out += "\nstatic const FtiCompiledNodeV1 fti_nodes[] = {\n";
  for (std::size_t i = 0; i < module.nodes.size(); ++i) {
    const CppNodeLayout& node = module.nodes[i];
    out += "  {\"" + escaped(node.name) + "\", &fti_run_" +
           std::to_string(i) + ", " + std::to_string(node.traced.size()) +
           "ull, " + std::to_string(node.memories.size()) + "ull, " +
           std::to_string(node.state_count) + "ull, " +
           std::to_string(node.taken_count) + "ull, " +
           std::to_string(node.write_memories.size()) + "ull, " +
           std::to_string(node.comb_depth) + "ull},\n";
  }
  out += "};\n";
  out += "static const FtiCompiledDesignV1 fti_design = {" +
         std::to_string(elab::cabi::kCompiledAbiVersion) + "ull, \"" +
         ir_hash + "\", " + std::to_string(module.nodes.size()) +
         "ull, fti_nodes};\n";
  out += "extern \"C\" const FtiCompiledDesignV1* fti_compiled_design(void) "
         "{ return &fti_design; }\n";
  return module;
}

std::string emitter_fingerprint() {
  return std::string(kCppEmitterSha256) + "\n" +
         elab::cabi::kCompiledAbiText + kSemanticsText;
}

}  // namespace fti::codegen
