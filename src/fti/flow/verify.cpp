#include <iostream>

#include "fti/elab/engines.hpp"
#include "fti/flow/flow.hpp"
#include "fti/util/table.hpp"

namespace fti::flow {

int lint_exit_code(std::size_t errors) { return errors > 0 ? 3 : 4; }

bool rejects_vcd(const sim::Engine& engine,
                 const std::filesystem::path& vcd_path, std::ostream& err) {
  if (vcd_path.empty() || engine.supports_tracing()) {
    return false;
  }
  err << "error: engine '" << engine.name()
      << "' does not support --vcd (use --engine event)\n";
  return true;
}

void print_partition_table(const sim::EngineResult& run, std::ostream& out) {
  util::TextTable table(
      {"partition", "cycles", "events", "wall (s)", "fsm coverage"});
  for (const auto& partition : run.partitions) {
    table.add_row({partition.node, util::format_count(partition.cycles),
                   util::format_count(partition.stats.events),
                   util::format_double(partition.wall_seconds, 3),
                   util::format_double(partition.coverage.percent(), 1) +
                       "%"});
  }
  out << table.to_string();
}

void print_dumps(const std::filesystem::path& vcd_path,
                 const harness::MemoryFiles& saves, std::ostream& out) {
  if (!vcd_path.empty()) {
    out << "wrote " << vcd_path.string() << "\n";
  }
  for (const auto& save : saves) {
    out << "wrote " << save.second.string() << "\n";
  }
}

VerifyResult run_verify(const VerifyRequest& request,
                        const FlowContext& context, std::ostream& out,
                        std::ostream& err) {
  VerifyResult result;
  const harness::TestCase& test = request.test;
  auto engine = elab::make_engine(request.engine);
  // A usage error, so it is raised before any verification work.
  if (rejects_vcd(*engine, request.vcd_path, err)) {
    result.exit_code = 2;
    return result;
  }

  harness::VerifyOptions options;
  options.emit_dir = request.emit_dir;
  options.engine = request.engine;
  options.lint_gate = request.lint_gate;
  options.semantic = request.semantic;
  options.lanes = request.lanes;
  options.lane_seed = request.lane_seed;
  options.design_cache = context.design_cache;
  options.cancel = context.cancel;
  options.xsim = request.xsim;
  options.four_state = request.four_state;
  options.vcd_path = request.vcd_path;
  options.saves = request.saves;
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
  print_partition_table(outcome.run, out);
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

  print_dumps(request.vcd_path, request.saves, out);
  result.exit_code = outcome.passed ? (dirty_lanes == 0 ? 0 : 4) : 1;
  return result;
}

}  // namespace fti::flow
