#include <iostream>

#include "fti/cache/design_cache.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/compiler/sema.hpp"
#include "fti/elab/engines.hpp"
#include "fti/flow/flow.hpp"
#include "fti/mem/memfile.hpp"
#include "fti/sim/vcd.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/table.hpp"

namespace fti::flow {

int lint_exit_code(std::size_t errors) { return errors > 0 ? 3 : 4; }

VerifyResult run_verify(const VerifyRequest& request,
                        const FlowContext& context, std::ostream& out,
                        std::ostream& err) {
  VerifyResult result;
  const harness::TestCase& test = request.test;
  bool instrumented = !request.vcd_path.empty() || !request.saves.empty();

  harness::VerifyOptions options;
  options.emit_dir = request.emit_dir;
  options.engine = request.engine;
  options.lint_gate = request.lint_gate;
  options.semantic = request.semantic;
  options.lanes = request.lanes;
  options.lane_seed = request.lane_seed;
  // The instrumented re-run below replays outcome.compiled.design, which
  // a warm (cache-hit) outcome does not carry -- force cold.
  options.design_cache = instrumented ? nullptr : context.design_cache;
  options.cancel = context.cancel;
  options.xsim = request.xsim;
  options.four_state = request.four_state;
  result.outcome = harness::run_test_case(test, options);
  const harness::VerifyOutcome& outcome = result.outcome;

  if (outcome.lint_blocked) {
    out << "LINT  " << test.name << "\n"
        << lint::to_text(outcome.lint) << "  " << outcome.message << "\n";
    result.exit_code = lint_exit_code(outcome.lint.errors());
    return result;
  }
  out << (outcome.passed ? "PASS" : "FAIL") << "  " << test.name << "\n";
  if (!outcome.passed) {
    out << "  " << outcome.message << "\n";
    if (outcome.mismatches > 0) {
      out << "  mismatching words: " << outcome.mismatches << "\n";
    }
  }
  util::TextTable table(
      {"partition", "cycles", "events", "wall (s)", "fsm coverage"});
  for (const auto& partition : outcome.run.partitions) {
    table.add_row({partition.node, util::format_count(partition.cycles),
                   util::format_count(partition.stats.events),
                   util::format_double(partition.wall_seconds, 3),
                   util::format_double(partition.coverage.percent(), 1) +
                       "%"});
  }
  out << table.to_string();
  for (const auto& partition : outcome.run.partitions) {
    if (!partition.coverage.full()) {
      out << "note: weak test case -- " << partition.coverage.to_string()
          << "\n";
    }
  }
  out << "compile " << util::format_double(outcome.compile_seconds * 1e3, 1)
      << " ms, golden " << util::format_double(outcome.golden_seconds * 1e3, 1)
      << " ms, simulate " << util::format_double(outcome.sim_seconds * 1e3, 1)
      << " ms\n";

  if (request.xsim) {
    const xsim::XsimCheck& check = outcome.xsim_check;
    if (!check.ran) {
      // A missing simulator must be loud, not a silent no-op: anyone
      // reading the log should know the cosim leg did not run, and why.
      out << "xsim: SKIPPED -- " << check.skip_reason
          << " (install Icarus Verilog or set FTI_XSIM_SIM)\n";
    } else if (check.ok) {
      out << "xsim: PASS -- external simulator matches the levelized "
             "engine bit for bit ("
          << util::format_count(check.run.total_cycles) << " cycles)\n";
    } else {
      out << "xsim: FAIL -- external simulator disagrees\n";
      for (const std::string& line : check.mismatches) {
        out << "  " << line << "\n";
      }
    }
  }
  // 4-state findings are warnings: they only shade an otherwise-passing
  // run onto the warning exit code, mirroring lint's 4.
  const std::size_t lanes = outcome.four_state.size();
  std::size_t dirty_lanes = 0;
  std::uint64_t four_state_cycles = 0;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const xsim::FourStateReport& four_state = outcome.four_state[lane];
    four_state_cycles += four_state.total_cycles;
    if (four_state.clean()) {
      continue;
    }
    ++dirty_lanes;
    std::string tag = lanes > 1 ? "lane " + std::to_string(lane) + ": " : "";
    out << "4-state: " << tag << four_state.findings.size()
        << " finding(s)\n";
    for (const lint::Finding& finding : four_state.to_lint()) {
      out << "  " << tag << finding.rule << " " << finding.configuration
          << "/" << finding.object << ": " << finding.message << "\n";
    }
  }
  if (lanes > 0 && dirty_lanes == 0) {
    out << "4-state: clean -- no X reached an observable in "
        << util::format_count(four_state_cycles) << " cycles"
        << (lanes > 1 ? " over " + std::to_string(lanes) + " lanes" : "")
        << "\n";
  }

  // Optional VCD / saved memories need an instrumented re-run.
  if (instrumented) {
    compiler::Program program = compiler::parse_program(test.source);
    compiler::SemaInfo sema = compiler::check_program(program);
    mem::MemoryPool pool;
    for (const auto& [name, param] : sema.arrays) {
      pool.create(name, param.array_size, compiler::width_of(param.type));
    }
    for (const auto& [name, values] : test.inputs) {
      harness::load_inputs(pool, name, values);
    }
    auto engine = elab::make_engine(request.engine);
    sim::VcdWriter vcd(test.name);
    sim::EngineRunOptions run_options;
    run_options.max_cycles_per_partition = test.max_cycles;
    if (!request.vcd_path.empty()) {
      if (!engine->supports_tracing()) {
        err << "error: engine '" << engine->name()
            << "' does not support --vcd (use --engine event)\n";
        result.exit_code = 2;
        return result;
      }
      run_options.tracer = &vcd;
      run_options.on_netlist = [&vcd](const std::string&,
                                      sim::Netlist& netlist) {
        if (vcd.watched_count() > 0) {
          return;
        }
        for (const auto& net : netlist.nets()) {
          vcd.watch(*net);
        }
      };
    }
    engine->run(outcome.compiled.design, pool, run_options);
    if (!request.vcd_path.empty()) {
      vcd.write_file(request.vcd_path);
      out << "wrote " << request.vcd_path.string() << "\n";
    }
    for (const auto& [array, file] : request.saves) {
      mem::save_mem_file(pool.get(array), file);
      out << "wrote " << file.string() << "\n";
    }
  }
  result.exit_code = outcome.passed ? (dirty_lanes == 0 ? 0 : 4) : 1;
  return result;
}

}  // namespace fti::flow
