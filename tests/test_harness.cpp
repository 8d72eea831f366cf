#include <gtest/gtest.h>

#include <filesystem>

#include "fti/elab/engines.hpp"
#include "fti/harness/metrics.hpp"
#include "fti/harness/suite.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/strings.hpp"

namespace fti::harness {
namespace {

TestCase square_case() {
  TestCase test;
  test.name = "square";
  test.source =
      "kernel square(int a[8], int b[8], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) { b[i] = a[i] * a[i]; }\n"
      "}\n";
  test.scalar_args = {{"n", 8}};
  test.inputs = {{"a", {1, 2, 3, 4, 5, 6, 7, 8}}};
  test.check_arrays = {"b"};
  return test;
}

TEST(TestCase, PassesAndReportsStats) {
  VerifyOutcome outcome = run_test_case(square_case());
  EXPECT_TRUE(outcome.passed);
  EXPECT_TRUE(outcome.message.empty());
  EXPECT_EQ(outcome.mismatches, 0u);
  EXPECT_GT(outcome.run.total_cycles(), 8u);
  EXPECT_GT(outcome.golden_stats.loads, 0u);
  EXPECT_EQ(outcome.artifacts.lo_source, 4u);
  EXPECT_GE(outcome.compile_seconds, 0.0);
}

TEST(TestCase, UnknownInputArrayThrows) {
  TestCase test = square_case();
  test.inputs["nothere"] = {1};
  EXPECT_THROW(run_test_case(test), util::IoError);
}

TEST(TestCase, OversizedInputThrows) {
  TestCase test = square_case();
  test.inputs["a"] = std::vector<std::uint64_t>(100, 1);
  EXPECT_THROW(run_test_case(test), util::IoError);
}

TEST(TestCase, EngineAndLaneBoundAreCheckedBeforeGoldenRuns) {
  // n overruns the arrays, so this case's golden run fails with its own
  // message; only a check made before any golden work (or per-lane pool)
  // can report the engine's lane bound or an unknown engine instead.
  TestCase test = square_case();
  test.scalar_args["n"] = 16;
  VerifyOptions options;
  options.lint_gate = lint::Gate::kOff;
  options.engine = "batched";
  options.lanes = static_cast<std::uint32_t>(
      elab::make_engine("batched")->max_lanes() + 1);
  auto message_of = [&]() -> std::string {
    try {
      run_test_case(test, options);
    } catch (const util::SimError& e) {
      return e.what();
    }
    return "no SimError";
  };
  std::string oversized = message_of();
  EXPECT_NE(oversized.find("engine 'batched': run_batch called with " +
                           std::to_string(options.lanes) + " lanes"),
            std::string::npos)
      << oversized;

  options.lanes = 1;
  options.engine = "no-such-engine";
  std::string unknown = message_of();
  EXPECT_NE(unknown.find("unknown engine 'no-such-engine'"),
            std::string::npos)
      << unknown;
}

TEST(TestCase, CycleBudgetFailureIsAVerdictNotAnException) {
  TestCase test = square_case();
  test.max_cycles = 3;  // far too few
  VerifyOutcome outcome = run_test_case(test);
  EXPECT_FALSE(outcome.passed);
  EXPECT_NE(outcome.message.find("did not complete"), std::string::npos);
}

TEST(TestCase, EmitDirWritesArtifacts) {
  auto dir = util::scratch_dir("harness-test") / "emit";
  std::filesystem::remove_all(dir);
  TestCase test = square_case();
  VerifyOptions options;
  options.emit_dir = dir;
  VerifyOutcome outcome = run_test_case(test, options);
  ASSERT_TRUE(outcome.passed) << outcome.message;
  EXPECT_TRUE(std::filesystem::exists(dir / "square" / "rtg.xml"));
  EXPECT_TRUE(
      std::filesystem::exists(dir / "square" / "datapath_square.xml"));
  EXPECT_TRUE(std::filesystem::exists(dir / "square" / "fsm_square.xml"));
  EXPECT_TRUE(std::filesystem::exists(dir / "square.v"));
  EXPECT_TRUE(std::filesystem::exists(dir / "square.vhdl"));
  EXPECT_TRUE(std::filesystem::exists(dir / "square.hds"));
  EXPECT_TRUE(std::filesystem::exists(dir / "square.dot"));
  EXPECT_TRUE(std::filesystem::exists(dir / "square.b.dat"));
  EXPECT_EQ(util::read_file(dir / "square.verdict"), "PASS\n");
}

TEST(TestCase, EmitReportsLineCountsOfWrittenFiles) {
  auto dir = util::scratch_dir("harness-test") / "emit-counts";
  std::filesystem::remove_all(dir);
  VerifyOptions options;
  options.emit_dir = dir;
  VerifyOutcome outcome = run_test_case(square_case(), options);
  ASSERT_TRUE(outcome.passed) << outcome.message;
  const FlowArtifacts& a = outcome.artifacts;
  auto lines_of = [&dir](const std::string& file) {
    return util::count_lines(util::read_file(dir / file));
  };
  EXPECT_EQ(a.lo_xml_datapath, lines_of("square/datapath_square.xml"));
  EXPECT_EQ(a.lo_xml_fsm, lines_of("square/fsm_square.xml"));
  EXPECT_EQ(a.lo_xml_rtg, lines_of("square/rtg.xml"));
  EXPECT_EQ(a.lo_hds, lines_of("square.hds"));
  EXPECT_EQ(a.lo_vhdl, lines_of("square.vhdl"));
  EXPECT_EQ(a.lo_verilog, lines_of("square.v"));
  EXPECT_EQ(a.lo_systemc, lines_of("square.sc.cpp"));
  EXPECT_EQ(a.lo_dot, lines_of("square.dot"));
  EXPECT_GT(a.lo_xml_datapath, 10u);
  EXPECT_GT(a.lo_xml_fsm, 5u);
  EXPECT_GT(a.lo_vhdl, 10u);
  EXPECT_GT(a.lo_verilog, 10u);
  EXPECT_GT(a.lo_hds, 10u);
  EXPECT_GT(a.lo_dot, 10u);
  EXPECT_EQ(a.lo_source, 4u);
}

/// Without an emit_dir nothing is written, so only the source is counted.
TEST(TestCase, SkippingArtifactsLeavesCountsZero) {
  VerifyOutcome outcome = run_test_case(square_case());
  EXPECT_TRUE(outcome.passed);
  const FlowArtifacts& a = outcome.artifacts;
  EXPECT_EQ(a.lo_vhdl, 0u);
  EXPECT_EQ(a.lo_xml_datapath + a.lo_xml_fsm + a.lo_xml_rtg + a.lo_hds +
                a.lo_verilog + a.lo_systemc + a.lo_dot,
            0u);
  EXPECT_EQ(a.lo_source, 4u);
}

TEST(TestCase, CachedArtifactCountsMatchUncached) {
  auto counts = [](const FlowArtifacts& a) {
    return std::vector<std::size_t>{a.lo_source,  a.lo_xml_datapath,
                                    a.lo_xml_fsm, a.lo_xml_rtg,
                                    a.lo_hds,     a.lo_vhdl,
                                    a.lo_verilog, a.lo_systemc,
                                    a.lo_dot};
  };
  TestCase test = square_case();
  VerifyOutcome uncached = run_test_case(test);
  ASSERT_TRUE(uncached.passed) << uncached.message;
  cache::DesignCache cache;
  VerifyOptions options;
  options.design_cache = &cache;
  for (bool warm : {false, true}) {
    VerifyOutcome cached = run_test_case(test, options);
    ASSERT_TRUE(cached.passed) << cached.message;
    EXPECT_EQ(cached.cache_hit, warm);
    EXPECT_EQ(counts(cached.artifacts), counts(uncached.artifacts))
        << "warm=" << warm;
  }
}

TEST(Suite, RunsAllAndReports) {
  TestSuite suite;
  suite.add(square_case());
  TestCase second = square_case();
  second.name = "square2";
  second.scalar_args["n"] = 4;
  suite.add(second);
  EXPECT_EQ(suite.size(), 2u);
  int observed = 0;
  VerifyOptions options;
  SuiteReport report =
      suite.run_all(options, [&observed](const SuiteRow& row) {
        ++observed;
        EXPECT_TRUE(row.passed) << row.message;
      });
  EXPECT_EQ(observed, 2);
  EXPECT_TRUE(report.all_passed());
  EXPECT_EQ(report.failures(), 0u);
  std::string table = report.to_table();
  EXPECT_NE(table.find("square"), std::string::npos);
  EXPECT_NE(table.find("PASS"), std::string::npos);
  EXPECT_NE(table.find("cycles"), std::string::npos);
}

TEST(Suite, CoverageAggregationWeightsPartitionsBySize) {
  // Two partitions with asymmetric FSMs: a tiny fully-covered one (2
  // states + 1 transition) and a large half-covered one (10 states + 10
  // transitions, 5 + 5 covered).  The old per-partition mean reported
  // (100 + 50) / 2 = 75%; pooling the counts gives 13/23 = 56.5%.
  sim::FsmCoverage tiny;
  tiny.fsm = "tiny";
  tiny.states = {{"s0", 1}, {"s1", 3}};
  tiny.transitions = {{"s0", "s1", "1", 1}};
  sim::FsmCoverage large;
  large.fsm = "large";
  for (int i = 0; i < 10; ++i) {
    large.states.push_back(
        {"s" + std::to_string(i), i < 5 ? std::uint64_t{1} : 0});
    large.transitions.push_back({"s" + std::to_string(i), "s0", "1",
                                 i < 5 ? std::uint64_t{1} : 0});
  }
  double percent = aggregate_coverage_percent({tiny, large});
  EXPECT_NEAR(percent, 100.0 * 13.0 / 23.0, 1e-9);
  EXPECT_LT(percent, 60.0);  // the unweighted mean was 75%
  // Degenerate inputs keep the documented conventions.
  EXPECT_DOUBLE_EQ(aggregate_coverage_percent({}), 100.0);
  EXPECT_DOUBLE_EQ(aggregate_coverage_percent({tiny}), 100.0);
}

TEST(Suite, ParallelRunMatchesSerialRun) {
  TestSuite suite;
  for (int n : {2, 4, 6, 8}) {
    TestCase test = square_case();
    test.name = "square" + std::to_string(n);
    test.scalar_args["n"] = n;
    suite.add(test);
  }
  VerifyOptions options;
  SuiteReport serial = suite.run_all(options, nullptr, 1);
  SuiteReport parallel = suite.run_all(options, nullptr, 4);
  EXPECT_EQ(serial.jobs, 1u);
  EXPECT_EQ(parallel.jobs, 4u);
  EXPECT_GT(parallel.wall_seconds, 0.0);
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    const SuiteRow& a = serial.rows[i];
    const SuiteRow& b = parallel.rows[i];
    // Row order and every non-timing value must be independent of jobs.
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.configurations, b.configurations);
    EXPECT_EQ(a.mismatches, b.mismatches);
    EXPECT_DOUBLE_EQ(a.coverage_percent, b.coverage_percent);
  }
}

TEST(Suite, ParallelRunPropagatesLowestFailure) {
  // Infrastructure errors (here: an input for an unknown array) must
  // cancel the campaign and rethrow deterministically.
  TestSuite suite;
  for (int i = 0; i < 4; ++i) {
    TestCase test = square_case();
    test.name = "case" + std::to_string(i);
    if (i >= 2) {
      test.inputs["nothere"] = {1};
    }
    suite.add(test);
  }
  VerifyOptions options;
  EXPECT_THROW(suite.run_all(options, nullptr, 4), util::IoError);
}

TEST(Suite, FailureIsReported) {
  TestSuite suite;
  TestCase broken = square_case();
  broken.name = "broken";
  broken.max_cycles = 2;
  suite.add(broken);
  VerifyOptions options;
  SuiteReport report = suite.run_all(options);
  EXPECT_FALSE(report.all_passed());
  EXPECT_EQ(report.failures(), 1u);
  EXPECT_NE(report.to_table().find("FAIL"), std::string::npos);
}

TEST(Metrics, PerConfigurationRows) {
  compiler::CompileOptions options;
  options.scalar_args = {{"n", 4}};
  auto compiled = compiler::compile_source(square_case().source, options);
  DesignMetrics metrics = compute_metrics(compiled.design);
  ASSERT_EQ(metrics.configurations.size(), 1u);
  const ConfigMetrics& row = metrics.configurations[0];
  EXPECT_EQ(row.node, "square");
  EXPECT_GT(row.lo_xml_datapath, row.lo_xml_fsm / 10);
  EXPECT_GT(row.lo_generated, 0u);
  EXPECT_GT(row.operators, 0u);
  EXPECT_GT(row.fsm_states, 3u);
  EXPECT_GE(row.units, row.operators);
}

TEST(Baseline, MatchesGoldenOnScalarKernel) {
  TestCase test = square_case();
  compiler::CompileOptions options;
  options.scalar_args = test.scalar_args;
  auto compiled = compiler::compile_source(test.source, options);
  mem::MemoryPool pool;
  pool.create("a", 8, 32);
  pool.create("b", 8, 32);
  load_inputs(pool, "a", test.inputs.at("a"));
  sim::EngineResult run = elab::NaiveEngine().run(compiled.design, pool);
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(pool.get("b").words(),
            (std::vector<std::uint64_t>{1, 4, 9, 16, 25, 36, 49, 64}));
  std::uint64_t evaluations = 0;
  std::uint64_t sweeps = 0;
  for (const sim::EnginePartition& partition : run.partitions) {
    evaluations += partition.stats.evaluations;
    sweeps += partition.stats.delta_cycles;
  }
  EXPECT_GT(evaluations, run.total_cycles());
  EXPECT_GE(sweeps, run.total_cycles());
}

TEST(Baseline, CycleBudgetStops) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel spin(int m[1]) { int x = 1; while (x) { m[0] = x; } }",
      options);
  mem::MemoryPool pool;
  sim::EngineRunOptions run_options;
  run_options.max_cycles_per_partition = 100;
  sim::EngineResult run =
      elab::NaiveEngine().run(compiled.design, pool, run_options);
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.total_cycles(), 100u);
}

TEST(LoadInputs, PrefixFillAndBounds) {
  mem::MemoryPool pool;
  pool.create("m", 4, 16);
  load_inputs(pool, "m", {7, 8});
  EXPECT_EQ(pool.get("m").words(),
            (std::vector<std::uint64_t>{7, 8, 0, 0}));
  EXPECT_THROW(load_inputs(pool, "m", {1, 2, 3, 4, 5}), util::IoError);
}

}  // namespace
}  // namespace fti::harness
