// Paper-workload integration tests: the FDCT (one and two configurations)
// and the Hamming decoder run through the complete infrastructure at small
// sizes, and the simulated memories must match the golden interpreter AND
// the independently written C++ references.
#include <gtest/gtest.h>

#include "fti/compiler/parser.hpp"
#include "fti/elab/engines.hpp"
#include "fti/golden/fdct.hpp"
#include "fti/golden/fir.hpp"
#include "fti/golden/hamming.hpp"
#include "fti/golden/matmul.hpp"
#include "fti/golden/rng.hpp"
#include "fti/harness/metrics.hpp"
#include "fti/harness/testcase.hpp"

namespace fti {
namespace {

harness::TestCase fdct_case(std::size_t blocks, bool two_stage) {
  harness::TestCase test;
  test.name = two_stage ? "fdct2" : "fdct1";
  test.source = golden::fdct_source(blocks, two_stage);
  test.scalar_args = {{"nblocks", static_cast<std::int64_t>(blocks)}};
  test.inputs = {{"in", golden::make_test_image(blocks * 64)}};
  test.check_arrays = {"tmp", "out"};
  return test;
}

TEST(Integration, Fdct1SingleBlock) {
  auto outcome = harness::run_test_case(fdct_case(1, false));
  EXPECT_TRUE(outcome.passed) << outcome.message;
  EXPECT_EQ(outcome.run.partitions.size(), 1u);
}

TEST(Integration, Fdct1MatchesCppReference) {
  const std::size_t blocks = 3;
  harness::TestCase test = fdct_case(blocks, false);
  auto outcome = harness::run_test_case(test);
  ASSERT_TRUE(outcome.passed) << outcome.message;

  // Replay through the independent C++ reference and compare with a fresh
  // golden interpreter run (two independently written implementations).
  std::vector<std::uint64_t> scratch;
  std::vector<std::uint64_t> output;
  golden::fdct_reference(test.inputs.at("in"), scratch, output, blocks);

  mem::MemoryPool pool;
  compiler::Program program = compiler::parse_program(test.source);
  pool.create("in", blocks * 64, 8);
  harness::load_inputs(pool, "in", test.inputs.at("in"));
  compiler::InterpOptions interp_options;
  interp_options.scalar_args = test.scalar_args;
  compiler::run_program(program, pool, interp_options);
  EXPECT_EQ(pool.get("tmp").words(), scratch);
  EXPECT_EQ(pool.get("out").words(), output);
}

TEST(Integration, Fdct2TwoConfigurations) {
  auto outcome = harness::run_test_case(fdct_case(2, true));
  EXPECT_TRUE(outcome.passed) << outcome.message;
  ASSERT_EQ(outcome.run.partitions.size(), 2u);
  EXPECT_EQ(outcome.compiled.design.configuration_count(), 2u);
  // The two passes have similar structure, so their per-partition cycle
  // counts should be in the same ballpark (paper: 2.9 s vs 2.9 s).
  double ratio = static_cast<double>(outcome.run.partitions[0].cycles) /
                 static_cast<double>(outcome.run.partitions[1].cycles);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(Integration, HammingDecoder) {
  const std::size_t words = 64;
  harness::TestCase test;
  test.name = "hamming";
  test.source = golden::hamming_source(words);
  test.scalar_args = {{"n", static_cast<std::int64_t>(words)}};
  test.inputs = {{"code", golden::make_codewords(words, 7, 3)}};
  test.check_arrays = {"data"};
  auto outcome = harness::run_test_case(test);
  ASSERT_TRUE(outcome.passed) << outcome.message;

  // Every corrupted codeword must decode to the original data nibble.
  std::vector<std::uint64_t> expected;
  golden::hamming_reference(test.inputs.at("code"), expected);
  mem::MemoryPool pool;
  compiler::Program program = compiler::parse_program(test.source);
  pool.create("code", words, 8);
  harness::load_inputs(pool, "code", test.inputs.at("code"));
  compiler::InterpOptions interp_options;
  interp_options.scalar_args = test.scalar_args;
  compiler::run_program(program, pool, interp_options);
  EXPECT_EQ(pool.get("data").words(), expected);
}

TEST(Integration, HammingCorrectsInjectedErrors) {
  golden::Rng rng(123);
  for (int trial = 0; trial < 64; ++trial) {
    std::uint8_t nibble = static_cast<std::uint8_t>(rng.below(16));
    std::uint8_t code = golden::hamming_encode(nibble);
    std::uint8_t corrupted =
        static_cast<std::uint8_t>(code ^ (1u << rng.below(7)));
    EXPECT_EQ(golden::hamming_decode(corrupted), nibble)
        << "nibble " << int(nibble) << " corrupted " << int(corrupted);
  }
}

TEST(Integration, FirFilter) {
  const std::size_t samples = 32;
  const std::size_t taps = 4;
  harness::TestCase test;
  test.name = "fir";
  test.source = golden::fir_source(samples, taps);
  test.scalar_args = {{"n", static_cast<std::int64_t>(samples)},
                      {"taps", static_cast<std::int64_t>(taps)}};
  golden::Rng rng(11);
  test.inputs = {{"x", rng.sequence(samples + taps - 1, 512)},
                 {"h", {64, 128, 64, 32}}};
  test.check_arrays = {"y"};
  auto outcome = harness::run_test_case(test);
  ASSERT_TRUE(outcome.passed) << outcome.message;

  std::vector<std::uint64_t> expected;
  golden::fir_reference(test.inputs.at("x"), test.inputs.at("h"), expected,
                        samples, taps);
  mem::MemoryPool pool;
  compiler::Program program = compiler::parse_program(test.source);
  pool.create("x", samples + taps - 1, 16);
  pool.create("h", taps, 16);
  harness::load_inputs(pool, "x", test.inputs.at("x"));
  harness::load_inputs(pool, "h", test.inputs.at("h"));
  compiler::InterpOptions interp_options;
  interp_options.scalar_args = test.scalar_args;
  compiler::run_program(program, pool, interp_options);
  EXPECT_EQ(pool.get("y").words(), expected);
}

TEST(Integration, BaselineSimulatorAgreesOnFdct) {
  harness::TestCase test = fdct_case(1, false);
  compiler::CompileOptions options;
  options.scalar_args = test.scalar_args;
  auto compiled = compiler::compile_source(test.source, options);

  mem::MemoryPool event_pool;
  event_pool.create("in", 64, 8);
  harness::load_inputs(event_pool, "in", test.inputs.at("in"));
  auto event_run = elab::run_design(compiled.design, event_pool);
  ASSERT_TRUE(event_run.completed);

  mem::MemoryPool naive_pool;
  naive_pool.create("in", 64, 8);
  harness::load_inputs(naive_pool, "in", test.inputs.at("in"));
  auto naive_run = elab::NaiveEngine().run(compiled.design, naive_pool);
  ASSERT_TRUE(naive_run.completed);

  EXPECT_EQ(event_pool.get("out").words(), naive_pool.get("out").words());
  EXPECT_EQ(event_pool.get("tmp").words(), naive_pool.get("tmp").words());
  // Identical synchronous semantics -> identical cycle counts.
  EXPECT_EQ(event_run.total_cycles(), naive_run.total_cycles());
  // The baseline evaluates everything every cycle; the event kernel's
  // component evaluations must be strictly fewer.
  auto evaluations = [](const sim::EngineResult& run) {
    std::uint64_t total = 0;
    for (const auto& partition : run.partitions) {
      total += partition.stats.evaluations;
    }
    return total;
  };
  EXPECT_LT(evaluations(event_run), evaluations(naive_run));
}

TEST(Integration, BaselineSimulatorAgreesOnTwoStage) {
  harness::TestCase test = fdct_case(1, true);
  compiler::CompileOptions options;
  options.scalar_args = test.scalar_args;
  auto compiled = compiler::compile_source(test.source, options);

  mem::MemoryPool event_pool;
  event_pool.create("in", 64, 8);
  harness::load_inputs(event_pool, "in", test.inputs.at("in"));
  auto event_run = elab::run_design(compiled.design, event_pool);
  ASSERT_TRUE(event_run.completed);

  mem::MemoryPool naive_pool;
  naive_pool.create("in", 64, 8);
  harness::load_inputs(naive_pool, "in", test.inputs.at("in"));
  auto naive_run = elab::NaiveEngine().run(compiled.design, naive_pool);
  ASSERT_TRUE(naive_run.completed);
  EXPECT_EQ(event_pool.get("out").words(), naive_pool.get("out").words());
}

TEST(Integration, MetricsShapeMatchesTableOne) {
  compiler::CompileOptions options;
  options.scalar_args = {{"nblocks", 1}};
  auto compiled1 =
      compiler::compile_source(golden::fdct_source(1, false), options);
  auto compiled2 =
      compiler::compile_source(golden::fdct_source(1, true), options);
  auto metrics1 = harness::compute_metrics(compiled1.design);
  auto metrics2 = harness::compute_metrics(compiled2.design);
  ASSERT_EQ(metrics1.configurations.size(), 1u);
  ASSERT_EQ(metrics2.configurations.size(), 2u);
  // Table I shape: each FDCT2 partition is smaller than the whole FDCT1
  // datapath on every size column.
  for (const auto& partition : metrics2.configurations) {
    EXPECT_LT(partition.lo_xml_datapath,
              metrics1.configurations[0].lo_xml_datapath);
    EXPECT_LT(partition.operators, metrics1.configurations[0].operators);
    EXPECT_LT(partition.lo_xml_fsm, metrics1.configurations[0].lo_xml_fsm);
  }
}

}  // namespace
}  // namespace fti

namespace fti {
namespace {

TEST(Integration, MatmulWithPipelinedMultiplier) {
  const std::size_t n = 4;
  harness::TestCase test;
  test.name = "matmul";
  test.source = golden::matmul_source(n);
  test.scalar_args = {{"n", static_cast<std::int64_t>(n)}};
  golden::Rng rng(17);
  test.inputs = {{"a", rng.sequence(n * n, 200)},
                 {"b", rng.sequence(n * n, 200)}};
  test.check_arrays = {"c"};
  test.resources.latencies = {{"mul", 2}};
  auto outcome = harness::run_test_case(test);
  ASSERT_TRUE(outcome.passed) << outcome.message;

  std::vector<std::uint64_t> expected;
  golden::matmul_reference(test.inputs.at("a"), test.inputs.at("b"),
                           expected, n);
  mem::MemoryPool pool;
  compiler::Program program = compiler::parse_program(test.source);
  pool.create("a", n * n, 16);
  pool.create("b", n * n, 16);
  harness::load_inputs(pool, "a", test.inputs.at("a"));
  harness::load_inputs(pool, "b", test.inputs.at("b"));
  compiler::InterpOptions interp_options;
  interp_options.scalar_args = test.scalar_args;
  compiler::run_program(program, pool, interp_options);
  EXPECT_EQ(pool.get("c").words(), expected);
}

}  // namespace
}  // namespace fti
