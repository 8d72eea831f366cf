// A1 -- ablation of the compiler's resource constraints (DESIGN.md §5.5).
//
// The binder shares functional units up to a per-class limit; sweeping the
// limit trades datapath area (operators, muxes, description size) against
// schedule length (control steps -> cycles) -- the classic HLS trade-off
// the Galadriel & Nenya compiler explores, and the reason the generated
// architectures vary enough to need this infrastructure.  Functional
// results are limit-invariant (asserted by tests/test_property.cpp).
//
//   bench_ablation [--json PATH]   (conventionally PATH=BENCH_ablation.json)
#include <iostream>

#include "fti/util/cli.hpp"
#include "fti/util/json.hpp"
#include "fti/golden/fdct.hpp"
#include "fti/golden/rng.hpp"
#include "fti/harness/metrics.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/util/table.hpp"

namespace {

void record(fti::util::JsonReport& json,
            const fti::harness::TestCase& test,
            const fti::harness::VerifyOutcome& outcome) {
  fti::util::JsonReport::Workload& workload = json.workload(test.name);
  workload.set("passed", outcome.passed);
  workload.set("wall_seconds", outcome.sim_seconds);
  workload.set("cycles", outcome.run.total_cycles());
  for (const auto& partition : outcome.run.partitions) {
    workload.stats(partition.node, partition.stats);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path json_path;
  try {
    json_path = fti::util::extract_path_flag(argc, argv, "--json");
  } catch (const fti::util::UsageError& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
  }
  fti::util::JsonReport json("ablation");
  constexpr std::size_t kBlocks = 16;  // 1,024 pixels per configuration
  fti::util::TextTable table({"FU limit", "operators", "muxes",
                              "fsm states", "loXML datapath", "cycles",
                              "sim (s)", "verdict"});
  for (unsigned limit : {1u, 2u, 3u, 4u, 6u, 8u}) {
    fti::harness::TestCase test;
    test.name = "fdct_limit" + std::to_string(limit);
    test.source = fti::golden::fdct_source(kBlocks, false);
    test.scalar_args = {{"nblocks", kBlocks}};
    test.inputs = {{"in", fti::golden::make_test_image(kBlocks * 64)}};
    test.check_arrays = {"out"};
    test.resources.default_limit = limit;
    auto outcome = fti::harness::run_test_case(test);
    auto metrics =
        fti::harness::compute_metrics(outcome.compiled.design);
    const auto& config = metrics.configurations.front();
    const auto& stats = outcome.compiled.stats.front();
    table.add_row({std::to_string(limit), std::to_string(config.operators),
                   std::to_string(stats.muxes),
                   std::to_string(config.fsm_states),
                   fti::util::format_count(config.lo_xml_datapath),
                   fti::util::format_count(outcome.run.total_cycles()),
                   fti::util::format_double(outcome.sim_seconds, 3),
                   outcome.passed ? "PASS" : "FAIL"});
    record(json, test, outcome);
  }
  std::cout << "=== resource-constraint ablation, FDCT1 at 1,024 px (A1) "
               "===\n"
            << table.to_string() << "\n";
  std::cout << "expected shape: raising the limit adds operators and\n"
               "shortens the schedule (fewer states/cycles) while the\n"
               "verdict stays PASS for every point.\n\n";

  // A2: multiplier pipeline depth -- deeper multipliers stretch the
  // schedule (dependent chains wait for write-back) but never change the
  // computed image.
  fti::util::TextTable latency_table({"mul latency", "fsm states",
                                      "cycles", "sim (s)", "verdict"});
  for (unsigned latency : {0u, 1u, 2u, 4u, 8u}) {
    fti::harness::TestCase test;
    test.name = "fdct_mullat" + std::to_string(latency);
    test.source = fti::golden::fdct_source(kBlocks, false);
    test.scalar_args = {{"nblocks", kBlocks}};
    test.inputs = {{"in", fti::golden::make_test_image(kBlocks * 64)}};
    test.check_arrays = {"out"};
    test.resources.latencies = {{"mul", latency}};
    auto outcome = fti::harness::run_test_case(test);
    latency_table.add_row(
        {std::to_string(latency),
         std::to_string(outcome.compiled.stats.front().fsm_states),
         fti::util::format_count(outcome.run.total_cycles()),
         fti::util::format_double(outcome.sim_seconds, 3),
         outcome.passed ? "PASS" : "FAIL"});
    record(json, test, outcome);
  }
  std::cout << "=== multiplier pipeline-depth ablation, FDCT1 at 1,024 px "
               "(A2) ===\n"
            << latency_table.to_string() << "\n";
  std::cout << "expected shape: cycles grow with latency, results stay\n"
               "bit-identical (PASS everywhere).\n\n";

  // A3: memory read ports -- A1 showed the single SRAM port is the
  // schedule bottleneck past FU limit 3; widening to 1-write/N-read
  // memories attacks exactly that.
  fti::util::TextTable port_table({"read ports", "operators", "fsm states",
                                   "cycles", "sim (s)", "verdict"});
  for (unsigned ports : {1u, 2u, 3u, 4u}) {
    fti::harness::TestCase test;
    test.name = "fdct_ports" + std::to_string(ports);
    test.source = fti::golden::fdct_source(kBlocks, false);
    test.scalar_args = {{"nblocks", kBlocks}};
    test.inputs = {{"in", fti::golden::make_test_image(kBlocks * 64)}};
    test.check_arrays = {"out"};
    test.resources.default_limit = 4;
    test.resources.default_memory_read_ports = ports;
    auto outcome = fti::harness::run_test_case(test);
    auto metrics = fti::harness::compute_metrics(outcome.compiled.design);
    port_table.add_row(
        {std::to_string(ports),
         std::to_string(metrics.configurations.front().operators),
         std::to_string(outcome.compiled.stats.front().fsm_states),
         fti::util::format_count(outcome.run.total_cycles()),
         fti::util::format_double(outcome.sim_seconds, 3),
         outcome.passed ? "PASS" : "FAIL"});
    record(json, test, outcome);
  }
  std::cout << "=== memory read-port ablation, FDCT1 at 1,024 px, FU limit "
               "4 (A3) ===\n"
            << port_table.to_string() << "\n";
  std::cout << "expected shape: more read ports shorten the schedule at\n"
               "the cost of extra memory ports (operators), with\n"
               "bit-identical results.\n";
  if (!json_path.empty()) {
    json.write(json_path);
    std::cout << "wrote " << json_path.string() << "\n";
  }
  return 0;
}
