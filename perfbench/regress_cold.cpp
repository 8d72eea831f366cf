// regress-cold: re-verify a seeded draw of kernels from scratch, one at
// a time, as `fti verify` does after a compiler change -- levelized
// engine, one lane, the default lint gate with the semantic tier, HDL
// artefacts generated, no design cache.  The compiler, lint, XML and
// codegen layers do most of the work; simulation is small; the host
// compiler, the caches and the socket are never touched.
#include <algorithm>

#include "fti/flow/flow.hpp"
#include "fti/fuzz/shrink.hpp"
#include "fti/harness/suite_io.hpp"
#include "kernels.hpp"
#include "stages.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr const char* kEngine = "levelized";
/// Rounds over the whole kernel set per requested second (a round of 15
/// kernels takes about 0.3 s on a 4-core x86 container); at least 7, so
/// p90 has ten samples beyond it.
constexpr std::size_t kRoundsPerSecond = 3;
constexpr int kSetupRepeats = 3;

fti::flow::VerifyRequest request_for(const fti::harness::TestCase& test) {
  fti::flow::VerifyRequest request;
  request.test = test;
  request.engine = kEngine;
  return request;
}

std::uint64_t codegen_lines(const fti::harness::FlowArtifacts& artifacts) {
  return artifacts.lo_hds + artifacts.lo_vhdl + artifacts.lo_verilog +
         artifacts.lo_systemc + artifacts.lo_dot;
}

/// Everything before the timed loop: write the kernel files, load them
/// back the way `fti suite` does, and verify each once so the process's
/// one-time costs (first touch of code and allocator growth) are paid
/// here.  No state carries over: there is no design cache to fill.
std::vector<fti::harness::TestCase> set_up(const RunConfig& config,
                                           const fs::path& dir,
                                           RunResult& result) {
  std::vector<fti::harness::TestCase> tests;
  for (const fs::path& path :
       write_kernels(regress_kernels(config.root, config.seed), dir)) {
    tests.push_back(fti::harness::load_test_case(path));
  }
  NullStream sink;
  for (const fti::harness::TestCase& test : tests) {
    fti::flow::VerifyResult verify =
        fti::flow::run_verify(request_for(test), {}, sink, sink);
    if (verify.exit_code != 0) {
      result.fail("set-up verify of " + test.name + ": " +
                  verify.outcome.message);
    }
  }
  return tests;
}

}  // namespace

RunResult run_regress_cold(const RunConfig& config) {
  RunResult result;
  std::vector<double> setups;
  std::vector<fti::harness::TestCase> tests;
  for (int i = 0; i < kSetupRepeats; ++i) {
    double start = now_seconds();
    tests = set_up(config,
                   config.scratch / ("kernels-" + std::to_string(i)), result);
    setups.push_back(now_seconds() - start);
  }
  std::size_t rounds = std::max<std::size_t>(
      7, kRoundsPerSecond * config.seconds);
  if (config.trace) {
    rounds = (rounds + 1) / 2;  // each job runs twice: untraced, staged
    enable_spans();
  }
  std::vector<std::size_t> order =
      stratified_order(tests.size(), rounds, config.seed);

  NullStream sink;
  fti::flow::FlowContext context;  // no design cache: every verify is cold
  std::map<std::string, std::uint64_t> seen;
  std::vector<double> latencies_ms;
  double untraced_s = 0;
  double traced_s = 0;
  // One window per round over the kernel set.
  std::vector<Mark> marks = {mark_now(0)};
  for (std::size_t position = 0; position < order.size(); ++position) {
    if (position > 0 && position % tests.size() == 0) {
      marks.push_back(mark_now(position));
    }
    const fti::harness::TestCase& test = tests[order[position]];
    ++result.attempted;
    double job_start = now_seconds();
    fti::flow::VerifyResult verify =
        fti::flow::run_verify(request_for(test), context, sink, sink);
    double job_s = now_seconds() - job_start;
    latencies_ms.push_back(job_s * 1e3);
    untraced_s += job_s;
    const fti::harness::VerifyOutcome& outcome = verify.outcome;
    if (verify.exit_code != 0 || !outcome.passed || outcome.mismatches != 0) {
      result.fail(test.name + ": " + outcome.message);
      continue;
    }
    std::uint64_t ir_nodes = fti::fuzz::ir_node_count(outcome.compiled.design);
    std::uint64_t cycles = outcome.run.total_cycles();
    std::uint64_t lines = codegen_lines(outcome.artifacts);
    std::uint64_t findings = outcome.lint.findings.size();
    result.expect_same(seen, test.name + ".ir_nodes", ir_nodes);
    result.expect_same(seen, test.name + ".cycles", cycles);
    result.expect_same(seen, test.name + ".codegen_lines", lines);
    result.expect_same(seen, test.name + ".lint_findings", findings);
    result.counts["compiler.ir_nodes"] += ir_nodes;
    result.counts["elab.cycles"] += cycles;
    result.counts["codegen.lines"] += lines;
    result.counts["lint.findings"] += findings;

    if (config.trace) {
      double staged_start = now_seconds();
      StagedVerify staged = staged_cold_verify(test, kEngine);
      traced_s += now_seconds() - staged_start;
      if (!staged.passed || staged.ir_nodes != ir_nodes ||
          staged.cycles != cycles || staged.lint_findings != findings) {
        result.fail(test.name + ": staged verify disagrees with run_verify " +
                    staged.message);
      }
      result.expect_same(seen, test.name + ".xml_bytes", staged.xml_bytes);
      result.counts["xml.bytes"] += staged.xml_bytes;
    }
  }
  marks.push_back(mark_now(order.size()));

  if (!config.trace) {
    set_end_to_end(result, median(setups), marks, latencies_ms);
    return result;
  }
  for (const auto& [name, value] : result.counts) {
    result.set(name, static_cast<double>(value), "count");
  }
  set_span_metrics(result);
  // Share of run_verify's wall time the staged spans account for.
  double staged_ms = 0;
  for (const auto& [name, totals] : span_totals()) {
    if (name != "job" && name != "elab.schedule_ms") {
      staged_ms += totals.total_ms;
    }
  }
  result.set("trace.coverage", staged_ms / (untraced_s * 1e3), "ratio");
  result.set("trace.overhead", untraced_s / traced_s, "ratio");
  return result;
}

}  // namespace perfbench
