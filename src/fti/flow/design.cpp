#include <iostream>

#include "fti/codegen/dot.hpp"
#include "fti/codegen/hds.hpp"
#include "fti/codegen/systemc.hpp"
#include "fti/codegen/verilog.hpp"
#include "fti/codegen/vhdl.hpp"
#include "fti/compiler/hls.hpp"
#include "fti/elab/engines.hpp"
#include "fti/flow/flow.hpp"
#include "fti/harness/metrics.hpp"
#include "fti/ir/serde.hpp"
#include "fti/mem/memfile.hpp"
#include "fti/sim/vcd.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/table.hpp"

namespace fti::flow {

/// `fti run`: load a saved rtg.xml file set and simulate it over memory
/// files -- the infrastructure consuming compiler-emitted XML directly.
RunDesignResult run_design(const RunDesignRequest& request,
                           const FlowContext& context, std::ostream& out,
                           std::ostream& err) {
  (void)context;
  RunDesignResult result;
  ir::Design design = ir::load_design_files(request.design_path);
  const elab::CheckedDesign checked(design);
  mem::MemoryPool pool;
  // Memories named by --mem are pre-created and loaded (overriding any
  // <init> contents); everything else is created at elaboration time.
  for (const auto& memory : design.memory_requirements()) {
    if (request.inputs.find(memory.name) != request.inputs.end()) {
      pool.create(memory.name, memory.depth, memory.width);
      harness::load_inputs(pool, memory.name,
                           request.inputs.at(memory.name));
    }
  }
  auto engine = elab::make_engine(request.engine);
  sim::VcdWriter vcd(design.name);
  sim::EngineRunOptions run_options;
  run_options.max_cycles_per_partition = request.max_cycles;
  if (rejects_vcd(*engine, request.vcd_path, err)) {
    result.exit_code = 2;
    return result;
  }
  if (!request.vcd_path.empty()) {
    vcd.trace(run_options);
  }
  auto run = engine->run(checked, pool, run_options);
  out << "design '" << design.name << "': "
      << (run.completed ? "completed" : "DID NOT COMPLETE") << "\n";
  print_partition_table(run, out);
  if (!request.vcd_path.empty()) {
    vcd.write_file(request.vcd_path);
  }
  for (const auto& [array, file] : request.saves) {
    mem::save_mem_file(pool.get(array), file);
  }
  print_dumps(request.vcd_path, request.saves, out);
  result.completed = run.completed;
  result.exit_code = run.completed ? 0 : 1;
  return result;
}

TranslateResult run_translate(const TranslateRequest& request,
                              const FlowContext& context, std::ostream& out,
                              std::ostream& err) {
  (void)context;
  (void)err;
  TranslateResult result;
  const harness::TestCase& test = request.test;
  compiler::CompileOptions options;
  options.scalar_args = test.scalar_args;
  options.resources = test.resources;
  if (test.embed_inputs) {
    options.rom_contents = test.inputs;
  }
  auto compiled = compiler::compile_source(test.source, options);
  // The compiler's output is checked once, before any file is written.
  const elab::CheckedDesign checked(compiled.design);
  const ir::Design& design = checked.design();
  std::filesystem::path out_dir = request.out_dir.empty()
                                      ? std::filesystem::path(test.name)
                                      : request.out_dir;

  ir::save_design_files(design, out_dir);
  for (const std::string& node : design.rtg.nodes) {
    const auto& config = design.configuration(node);
    util::write_file(out_dir / (node + "_datapath.dot"),
                     codegen::datapath_to_dot(config.datapath));
    util::write_file(out_dir / (node + "_fsm.dot"),
                     codegen::fsm_to_dot(config.fsm));
  }
  util::write_file(out_dir / "rtg.dot", codegen::rtg_to_dot(design.rtg));
  util::write_file(out_dir / (design.name + ".hds"),
                   codegen::design_to_hds(design));
  util::write_file(out_dir / (design.name + ".vhdl"),
                   codegen::design_to_vhdl(design));
  util::write_file(out_dir / (design.name + ".v"),
                   codegen::design_to_verilog(design));
  util::write_file(out_dir / (design.name + ".sc.cpp"),
                   codegen::design_to_systemc(design));

  harness::DesignMetrics metrics = harness::compute_metrics(design);
  util::TextTable table({"configuration", "fsm states", "operators",
                         "units", "loXML dp", "loXML fsm"});
  for (const auto& config : metrics.configurations) {
    table.add_row({config.node, std::to_string(config.fsm_states),
                   std::to_string(config.operators),
                   std::to_string(config.units),
                   util::format_count(config.lo_xml_datapath),
                   util::format_count(config.lo_xml_fsm)});
  }
  out << "wrote design '" << design.name << "' to " << out_dir.string()
      << "/\n"
      << table.to_string();
  result.exit_code = 0;
  return result;
}

}  // namespace fti::flow
