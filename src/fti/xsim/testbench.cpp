#include "fti/xsim/testbench.hpp"

#include <map>
#include <set>

#include "fti/codegen/verilog.hpp"
#include "fti/ir/datapath.hpp"
#include "fti/util/error.hpp"
#include "fti/xml/transform.hpp"

namespace fti::xsim {
namespace {

std::string id(const std::string& name) { return codegen::verilog_ident(name); }

/// RTG nodes in execution order (validate() already rejects cycles, the
/// visited set just keeps malformed input from looping the generator).
std::vector<std::string> execution_order(const ir::Design& design) {
  std::vector<std::string> order;
  std::set<std::string> visited;
  std::string node = design.rtg.initial;
  while (!node.empty() && design.rtg.has_node(node) &&
         visited.insert(node).second) {
    order.push_back(node);
    node = design.rtg.successor(node);
  }
  return order;
}

}  // namespace

Testbench make_testbench(const ir::Design& design,
                         const mem::MemoryPool& stimulus,
                         const TestbenchOptions& options) {
  ir::validate(design);
  Testbench bench;
  bench.nodes = execution_order(design);
  FTI_ASSERT(!bench.nodes.empty(), "design has no executable partition");

  // Instance names are positional ("dut_0", "dut_1", ...): node names go
  // through verilog_ident for the module, but the bench's own wiring and
  // the result file use indices so arbitrary IR names can never corrupt
  // either.
  auto instance = [](std::size_t k) { return "dut_" + std::to_string(k); };

  // Memory hand-over plan: `holder[mem]` is the instance whose array
  // carries the live image, the analogue of the engines' shared
  // MemoryPool entry.  Every declaring instance is preloaded with the
  // initial image; before each phase the bench copies the live image
  // into that phase's arrays.
  std::map<std::string, std::size_t> holder;
  struct Copy {
    std::size_t from;
    std::size_t to;
    std::string memory;
    std::size_t depth = 0;
  };
  std::map<std::size_t, std::vector<Copy>> copies_before;
  for (std::size_t k = 0; k < bench.nodes.size(); ++k) {
    const ir::Configuration& config = design.configuration(bench.nodes[k]);
    for (const ir::MemoryDecl& memory : config.datapath.memories) {
      std::vector<std::uint64_t> words(memory.depth, 0);
      if (stimulus.contains(memory.name)) {
        words = stimulus.get(memory.name).words();
      } else {
        for (std::size_t i = 0; i < memory.init.size() && i < memory.depth;
             ++i) {
          words[i] = memory.init[i];
        }
      }
      bench.preloads.push_back(
          {"init_" + std::to_string(k) + "_" +
               std::to_string(bench.preloads.size()) + ".hex",
           std::move(words)});
      auto it = holder.find(memory.name);
      if (it != holder.end() && it->second != k) {
        copies_before[k].push_back(
            {it->second, k, memory.name, memory.depth});
      }
      holder[memory.name] = k;
    }
  }
  for (const auto& [memory, k] : holder) {
    const ir::MemoryDecl* decl =
        design.configuration(bench.nodes[k]).datapath.find_memory(memory);
    bench.mem_outputs.push_back({memory, instance(k), decl->depth,
                                 decl->width});
  }
  for (std::size_t k = 0; k < bench.nodes.size(); ++k) {
    const ir::Datapath& datapath =
        design.configuration(bench.nodes[k]).datapath;
    for (const std::string& wire : ir::traced_wires(datapath)) {
      bench.traced.push_back({bench.nodes[k], wire, id(wire),
                              datapath.wire(wire).width});
    }
  }

  xml::Output out;
  out.writeln("// generated by fti xsim: self-checking bench for design '" +
              design.name + "'");
  out.writeln("`timescale 1ns / 1ps");
  out.writeln("module tb;");
  out.indent();
  out.writeln("integer i;");
  out.writeln("integer f;");
  out.writeln("integer errs;");
  // Cleared when a phase misses done: the engines stop at the first
  // partition that exhausts its budget, so later phases must not run.
  out.writeln("reg go = 1;");
  for (std::size_t k = 0; k < bench.nodes.size(); ++k) {
    out.writeln("reg clk_" + std::to_string(k) + " = 0;");
    out.writeln("integer cycles_" + std::to_string(k) + " = 0;");
    out.writeln("wire done_" + std::to_string(k) + ";");
  }
  out.writeln();
  for (std::size_t k = 0; k < bench.nodes.size(); ++k) {
    const ir::Configuration& config = design.configuration(bench.nodes[k]);
    out.writeln(id(config.datapath.name) + " " + instance(k) + " (.clk(clk_" +
                std::to_string(k) + "), .done_o(done_" + std::to_string(k) +
                "));");
  }
  out.writeln();
  // Golden images for the embedded self-check; only memories the bench
  // actually dumps can be checked.
  std::vector<std::pair<std::size_t, std::string>> golden;  // output idx, file
  for (std::size_t m = 0; m < bench.mem_outputs.size(); ++m) {
    const MemOutput& output = bench.mem_outputs[m];
    auto it = options.golden_memories.find(output.memory);
    if (it == options.golden_memories.end()) {
      continue;
    }
    FTI_ASSERT(it->second.size() == output.depth,
               "golden image for '" + output.memory + "' has wrong depth");
    std::string file = "gold_" + std::to_string(m) + ".hex";
    bench.preloads.push_back({file, it->second});
    golden.emplace_back(m, file);
    std::string width_range =
        output.width == 1
            ? ""
            : "[" + std::to_string(output.width - 1) + ":0] ";
    out.writeln("reg " + width_range + "gold_" + std::to_string(m) + " [0:" +
                std::to_string(output.depth - 1) + "];");
  }
  out.writeln();
  out.writeln("initial begin");
  out.indent();
  {
    // Replay the preloads in declaration order: init files first (per
    // instance, per memory), then golden files.
    std::size_t preload = 0;
    for (std::size_t k = 0; k < bench.nodes.size(); ++k) {
      const ir::Configuration& config = design.configuration(bench.nodes[k]);
      for (const ir::MemoryDecl& memory : config.datapath.memories) {
        out.writeln("$readmemh(\"" + bench.preloads[preload].file + "\", " +
                    instance(k) + "." + id(memory.name) + "_mem);");
        ++preload;
      }
    }
    for (const auto& [m, file] : golden) {
      out.writeln("$readmemh(\"" + file + "\", gold_" + std::to_string(m) +
                  ");");
    }
  }
  out.writeln("#1;");
  if (options.dump_vcd) {
    out.writeln("$dumpfile(\"" + options.vcd_file + "\");");
    std::string instances;
    for (std::size_t k = 0; k < bench.nodes.size(); ++k) {
      instances += (k > 0 ? ", " : "") + instance(k);
    }
    out.writeln("$dumpvars(1, " + instances + ");");
  }
  for (std::size_t k = 0; k < bench.nodes.size(); ++k) {
    std::string n = std::to_string(k);
    out.writeln("// phase " + n + ": partition '" + bench.nodes[k] + "'");
    out.writeln("if (go) begin");
    out.indent();
    for (const Copy& copy : copies_before[k]) {
      out.writeln("// hand memory '" + copy.memory + "' from " +
                  instance(copy.from) + " to " + instance(copy.to));
      out.writeln("for (i = 0; i < " + std::to_string(copy.depth) +
                  "; i = i + 1) " + instance(copy.to) + "." + id(copy.memory) +
                  "_mem[i] = " + instance(copy.from) + "." + id(copy.memory) +
                  "_mem[i];");
    }
    // Same cycle accounting as the engines: check done after the nets
    // settled, then clock one edge and count it.
    out.writeln("while (done_" + n + " !== 1'b1 && cycles_" + n + " < " +
                std::to_string(options.max_cycles_per_partition) +
                ") begin");
    out.indent();
    out.writeln("#2 clk_" + n + " = 1;");
    out.writeln("#2 clk_" + n + " = 0;");
    out.writeln("cycles_" + n + " = cycles_" + n + " + 1;");
    out.dedent();
    out.writeln("end");
    out.writeln("if (done_" + n + " !== 1'b1) go = 0;");
    out.dedent();
    out.writeln("end");
  }
  out.writeln();
  out.writeln("f = $fopen(\"" + options.result_file + "\", \"w\");");
  for (std::size_t k = 0; k < bench.nodes.size(); ++k) {
    std::string n = std::to_string(k);
    out.writeln("$fdisplay(f, \"partition " + n + " %0d %b\", cycles_" + n +
                ", done_" + n + ");");
  }
  for (std::size_t t = 0; t < bench.traced.size(); ++t) {
    const TracedWire& traced = bench.traced[t];
    std::size_t k = 0;
    while (bench.nodes[k] != traced.node) {
      ++k;
    }
    out.writeln("$fdisplay(f, \"final " + std::to_string(t) + " %h\", " +
                instance(k) + "." + traced.ident + ");");
  }
  for (std::size_t m = 0; m < bench.mem_outputs.size(); ++m) {
    const MemOutput& output = bench.mem_outputs[m];
    out.writeln("$fdisplay(f, \"memory " + std::to_string(m) + " " +
                std::to_string(output.depth) + "\");");
    out.writeln("for (i = 0; i < " + std::to_string(output.depth) +
                "; i = i + 1) $fdisplay(f, \"%h\", " + output.instance + "." +
                id(output.memory) + "_mem[i]);");
  }
  for (const auto& [m, file] : golden) {
    const MemOutput& output = bench.mem_outputs[m];
    out.writeln("errs = 0;");
    out.writeln("for (i = 0; i < " + std::to_string(output.depth) +
                "; i = i + 1) if (gold_" + std::to_string(m) + "[i] !== " +
                output.instance + "." + id(output.memory) +
                "_mem[i]) errs = errs + 1;");
    out.writeln("$fdisplay(f, \"selfcheck " + std::to_string(m) +
                " %0d\", errs);");
  }
  out.writeln("$fclose(f);");
  out.writeln("$finish;");
  out.dedent();
  out.writeln("end");
  out.dedent();
  out.writeln("endmodule");
  bench.text = out.str();
  return bench;
}

}  // namespace fti::xsim
