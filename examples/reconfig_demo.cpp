// Temporal partitioning demo: a three-stage pipeline (blur -> threshold ->
// histogram) split with `stage;` into three configurations that execute in
// sequence on the "reconfigurable fabric", communicating only through the
// shared SRAMs -- the execution model of the paper's RTG.
//
// Prints the RTG, per-partition statistics, and the final histogram.
#include <iostream>

#include "fti/codegen/dot.hpp"
#include "fti/golden/rng.hpp"
#include "fti/harness/testcase.hpp"

int main() {
  constexpr std::size_t kN = 256;
  std::string n = std::to_string(kN);
  fti::harness::TestCase test;
  test.name = "pipeline3";
  test.source =
      "kernel pipeline3(byte src[" + n + "], byte smooth[" + n +
      "], byte mask[" + n + "], int hist[2], int n) {\n"
      "  int i;\n"
      "  smooth[0] = src[0];\n"
      "  smooth[n - 1] = src[n - 1];\n"
      "  for (i = 1; i < n - 1; i = i + 1) {\n"
      "    smooth[i] = (src[i - 1] + 2 * src[i] + src[i + 1]) >> 2;\n"
      "  }\n"
      "  stage;\n"
      "  int j;\n"
      "  for (j = 0; j < n; j = j + 1) {\n"
      "    if (smooth[j] > 127) { mask[j] = 1; } else { mask[j] = 0; }\n"
      "  }\n"
      "  stage;\n"
      "  int k;\n"
      "  int ones = 0;\n"
      "  for (k = 0; k < n; k = k + 1) {\n"
      "    ones = ones + mask[k];\n"
      "  }\n"
      "  hist[1] = ones;\n"
      "  hist[0] = n - ones;\n"
      "}\n";
  test.scalar_args = {{"n", kN}};
  test.inputs = {{"src", fti::golden::make_random_image(kN, 99)}};
  test.check_arrays = {"smooth", "mask", "hist"};

  fti::harness::VerifyOutcome outcome = fti::harness::run_test_case(test);
  std::cout << "verdict: " << (outcome.passed ? "PASS" : "FAIL") << "\n";
  if (!outcome.passed) {
    std::cout << outcome.message << "\n";
    return 1;
  }

  std::cout << "\nreconfiguration transition graph:\n"
            << fti::codegen::rtg_to_dot(outcome.compiled.design.rtg) << "\n";
  std::cout << "partition   cycles   events   fsm-states  operators\n";
  for (std::size_t i = 0; i < outcome.run.partitions.size(); ++i) {
    const auto& partition = outcome.run.partitions[i];
    const auto& stats = outcome.compiled.stats[i];
    std::cout << partition.node << "   " << partition.cycles << "   "
              << partition.stats.events << "   " << stats.fsm_states
              << "   " << stats.operators << "\n";
  }

  // The memories carried the data between partitions; read the result.
  fti::mem::MemoryPool pool;
  pool.create("src", kN, 8);
  pool.create("smooth", kN, 8);
  pool.create("mask", kN, 8);
  pool.create("hist", 2, 32);
  fti::harness::load_inputs(pool, "src", test.inputs.at("src"));
  fti::elab::EventEngine().run(outcome.compiled.design, pool);
  std::cout << "\nhistogram: dark=" << pool.get("hist").words()[0]
            << " bright=" << pool.get("hist").words()[1] << " of " << kN
            << " pixels\n";
  return 0;
}
