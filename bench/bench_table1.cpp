// E1 -- reproduction of Table I ("Results using the test infrastructure").
//
// Paper workloads: FDCT over a 4,096-pixel image (64 blocks) in one and
// two configurations, and a Hamming decoder.  For each design the bench
// reports the paper's columns next to our measured analogues:
//   loJava          -> kernel source lines
//   loXML FSM       -> lines of the emitted fsm.xml (per configuration)
//   loXML datapath  -> lines of the emitted datapath.xml
//   loJava FSM      -> lines of the generated executable description
//                      (our flow emits Verilog instead of Java)
//   operators       -> functional units + memory ports of the datapath
//   simulation time -> wall-clock seconds of the event-driven simulation
// Absolute values differ (different compiler, language, machine); the
// paper's *shape* is asserted by tests/test_integration.cpp: FDCT2's
// partitions are each smaller and faster than FDCT1, and Hamming is tiny.
//
//   bench_table1 [--json PATH]   (conventionally PATH=BENCH_table1.json)
#include <iostream>

#include "fti/util/cli.hpp"
#include "fti/util/json.hpp"
#include "fti/golden/fdct.hpp"
#include "fti/golden/rng.hpp"
#include "fti/golden/hamming.hpp"
#include "fti/harness/metrics.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/util/table.hpp"

namespace {

struct PaperRow {
  const char* example;
  int lo_java;
  const char* lo_xml_fsm;
  const char* lo_xml_datapath;
  const char* lo_java_fsm;
  const char* operators;
  const char* sim_time;
};

constexpr PaperRow kPaper[] = {
    {"FDCT1", 138, "512", "1,708", "1,175", "169", "6.9"},
    {"FDCT2", 138, "258 / 256", "860 / 891", "667 / 606", "90 / 90",
     "2.9 / 2.9"},
    {"Hamming", 45, "38", "322", "134", "37", "1.5"},
};

std::string join_per_config(const std::vector<std::string>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += " / ";
    }
    out += values[i];
  }
  return out;
}

void report(const std::string& name, const fti::harness::TestCase& test,
            fti::util::TextTable& table,
            fti::util::JsonReport& json) {
  fti::harness::VerifyOutcome outcome =
      fti::harness::run_test_case(test);
  if (!outcome.passed) {
    std::cerr << name << " FAILED: " << outcome.message << "\n";
  }
  fti::harness::DesignMetrics metrics =
      fti::harness::compute_metrics(outcome.compiled.design);
  std::vector<std::string> fsm_lines;
  std::vector<std::string> dp_lines;
  std::vector<std::string> gen_lines;
  std::vector<std::string> operators;
  for (const auto& config : metrics.configurations) {
    fsm_lines.push_back(fti::util::format_count(config.lo_xml_fsm));
    dp_lines.push_back(fti::util::format_count(config.lo_xml_datapath));
    gen_lines.push_back(fti::util::format_count(config.lo_generated));
    operators.push_back(std::to_string(config.operators));
  }
  std::vector<std::string> times;
  for (const auto& partition : outcome.run.partitions) {
    times.push_back(fti::util::format_double(partition.wall_seconds, 3));
  }
  table.add_row({name, outcome.passed ? "PASS" : "FAIL",
                 std::to_string(outcome.artifacts.lo_source),
                 join_per_config(fsm_lines), join_per_config(dp_lines),
                 join_per_config(gen_lines), join_per_config(operators),
                 join_per_config(times),
                 fti::util::format_count(outcome.run.total_cycles())});
  fti::util::JsonReport::Workload& workload = json.workload(name);
  workload.set("passed", outcome.passed);
  workload.set("cycles", outcome.run.total_cycles());
  workload.set("wall_seconds", outcome.run.total_wall_seconds());
  for (const auto& partition : outcome.run.partitions) {
    workload.set(partition.node + ".wall_seconds", partition.wall_seconds);
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
  fti::util::JsonReport json("table1");
  constexpr std::size_t kBlocks = 64;       // 4,096 pixels, as in the paper
  constexpr std::size_t kHammingWords = 4096;

  std::cout << "=== Table I (paper, DATE'05, Pentium 4 @ 2.8 GHz) ===\n";
  fti::util::TextTable paper({"Example", "loJava", "loXML FSM",
                              "loXML datapath", "loJava FSM", "operators",
                              "sim time (s)"});
  for (const PaperRow& row : kPaper) {
    paper.add_row({row.example, std::to_string(row.lo_java), row.lo_xml_fsm,
                   row.lo_xml_datapath, row.lo_java_fsm, row.operators,
                   row.sim_time});
  }
  std::cout << paper.to_string() << "\n";

  std::cout << "=== Table I (this reproduction) ===\n";
  fti::util::TextTable ours({"Example", "verdict", "loSource", "loXML FSM",
                             "loXML datapath", "loGen (Verilog)",
                             "operators", "sim time (s)", "cycles"});

  fti::harness::TestCase fdct1;
  fdct1.name = "fdct1";
  fdct1.source = fti::golden::fdct_source(kBlocks, false);
  fdct1.scalar_args = {{"nblocks", kBlocks}};
  fdct1.inputs = {{"in", fti::golden::make_test_image(kBlocks * 64)}};
  fdct1.check_arrays = {"tmp", "out"};
  report("FDCT1", fdct1, ours, json);

  fti::harness::TestCase fdct2 = fdct1;
  fdct2.name = "fdct2";
  fdct2.source = fti::golden::fdct_source(kBlocks, true);
  report("FDCT2", fdct2, ours, json);

  fti::harness::TestCase hamming;
  hamming.name = "hamming";
  hamming.source = fti::golden::hamming_source(kHammingWords);
  hamming.scalar_args = {{"n", kHammingWords}};
  hamming.inputs = {{"code",
                     fti::golden::make_codewords(kHammingWords, 31, 5)}};
  hamming.check_arrays = {"data"};
  report("Hamming", hamming, ours, json);

  std::cout << ours.to_string() << "\n";
  std::cout << "shape checks (asserted in tests/test_integration.cpp):\n"
               "  * FDCT2's partitions are each smaller than FDCT1 on the\n"
               "    description-size and operator columns;\n"
               "  * per-partition FDCT2 simulation times are roughly equal\n"
               "    (paper: 2.9 s / 2.9 s);\n"
               "  * Hamming is an order of magnitude smaller and faster.\n";
  if (!json_path.empty()) {
    json.write(json_path);
    std::cout << "wrote " << json_path.string() << "\n";
  }
  return 0;
}
