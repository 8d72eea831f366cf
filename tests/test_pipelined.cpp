// Multi-cycle (pipelined) functional units: component-level timing, the
// scheduler's write-back distances, and end-to-end equivalence of designs
// compiled with pipelined multipliers/dividers against the golden model
// and the naive baseline.
#include <gtest/gtest.h>

#include "fti/compiler/parser.hpp"
#include "fti/elab/engines.hpp"
#include "fti/golden/rng.hpp"
#include "fti/ir/serde.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/ops/clock.hpp"
#include "fti/ops/pipelined.hpp"
#include "fti/sim/probe.hpp"

namespace fti {
namespace {

using ops::BinOp;
using sim::Bits;

TEST(PipelinedComponent, ResultAppearsAfterLatencyEdges) {
  // Feed constants; with latency 2 the product must be visible during the
  // state after the second edge following the sampling edge.
  sim::Netlist netlist;
  sim::Net& clock = netlist.create_net("clk", 1);
  sim::Net& a = netlist.create_net("a", 16);
  sim::Net& b = netlist.create_net("b", 16);
  sim::Net& out = netlist.create_net("out", 16);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 6);
  netlist.add_component<ops::PipelinedBinaryOp>("mul", BinOp::kMul, clock,
                                                a, b, out, 2);
  sim::Probe& probe = netlist.add_component<sim::Probe>("p", out);
  sim::Kernel kernel(netlist);
  kernel.preset(a, Bits(16, 6));
  kernel.preset(b, Bits(16, 7));
  kernel.run();
  // Edges at t=5,15,25,...: sample of (6,7) from edge t=5 must retire at
  // the edge t=15 (latency-1 extra edge), so the first change to 42
  // happens at t=15.
  ASSERT_FALSE(probe.samples().empty());
  EXPECT_EQ(probe.samples()[0].value.u(), 42u);
  EXPECT_EQ(probe.samples()[0].time, 15u);
  EXPECT_EQ(out.u(), 42u);
}

TEST(PipelinedComponent, LatencyOneBehavesLikeRegisteredAlu) {
  sim::Netlist netlist;
  sim::Net& clock = netlist.create_net("clk", 1);
  sim::Net& a = netlist.create_net("a", 16);
  sim::Net& b = netlist.create_net("b", 16);
  sim::Net& out = netlist.create_net("out", 16);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 3);
  netlist.add_component<ops::PipelinedBinaryOp>("add", BinOp::kAdd, clock,
                                                a, b, out, 1);
  sim::Probe& probe = netlist.add_component<sim::Probe>("p", out);
  sim::Kernel kernel(netlist);
  kernel.preset(a, Bits(16, 3));
  kernel.preset(b, Bits(16, 4));
  kernel.run();
  ASSERT_FALSE(probe.samples().empty());
  EXPECT_EQ(probe.samples()[0].time, 5u);  // first rising edge
  EXPECT_EQ(probe.samples()[0].value.u(), 7u);
}

TEST(PipelinedSchedule, ConsumersWaitForWriteback) {
  compiler::Resources resources;
  resources.latencies["mul"] = 3;
  std::vector<compiler::MicroOp> ops;
  compiler::MicroOp mul;
  mul.kind = compiler::MicroOp::Kind::kBin;
  mul.bin = BinOp::kMul;
  mul.a = compiler::ValRef::of_const(2);
  mul.b = compiler::ValRef::of_const(3);
  mul.dst = "t0";
  ops.push_back(mul);
  compiler::MicroOp add;
  add.kind = compiler::MicroOp::Kind::kBin;
  add.bin = BinOp::kAdd;
  add.a = compiler::ValRef::of_reg("t0");
  add.b = compiler::ValRef::of_const(1);
  add.dst = "t1";
  add.preds_delay1.push_back(0);
  ops.push_back(add);
  compiler::ScheduleResult result = compiler::schedule(ops, resources);
  EXPECT_EQ(result.ops[0].step, 0u);
  EXPECT_EQ(result.ops[1].step, 4u);  // 0 + latency(3) + 1
  // The combinational add writes back at the end of its own step (4), so
  // states 0..4 suffice.
  EXPECT_EQ(result.writeback_count, 5u);
}

TEST(PipelinedSchedule, PipelineAcceptsOnePerStep) {
  // Four independent muls on ONE latency-4 instance still start in four
  // consecutive steps (II = 1), not 16.
  compiler::Resources resources;
  resources.limits["mul"] = 1;
  resources.latencies["mul"] = 4;
  std::vector<compiler::MicroOp> ops;
  for (int i = 0; i < 4; ++i) {
    compiler::MicroOp mul;
    mul.kind = compiler::MicroOp::Kind::kBin;
    mul.bin = BinOp::kMul;
    mul.a = compiler::ValRef::of_const(i);
    mul.b = compiler::ValRef::of_const(i);
    mul.dst = "t" + std::to_string(i);
    ops.push_back(mul);
  }
  compiler::ScheduleResult result = compiler::schedule(ops, resources);
  EXPECT_EQ(result.step_count, 4u);
  EXPECT_EQ(result.writeback_count, 8u);  // last start 3 + latency 4 + 1
}

harness::VerifyOutcome verify_with_latency(
    const std::string& source, std::map<std::string, std::int64_t> args,
    std::map<std::string, std::vector<std::uint64_t>> inputs,
    std::map<std::string, unsigned> latencies) {
  harness::TestCase test;
  test.name = "pipelined";
  test.source = source;
  test.scalar_args = std::move(args);
  test.inputs = std::move(inputs);
  test.resources.latencies = std::move(latencies);
  return harness::run_test_case(test);
}

TEST(PipelinedHls, MultiplyAccumulateMatchesGolden) {
  auto outcome = verify_with_latency(
      "kernel mac(short x[8], short h[8], int out[1], int n) {\n"
      "  int acc = 0;\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    acc = acc + x[i] * h[i];\n"
      "  }\n"
      "  out[0] = acc;\n"
      "}\n",
      {{"n", 8}},
      {{"x", {1, 2, 3, 4, 5, 6, 7, 8}}, {"h", {8, 7, 6, 5, 4, 3, 2, 1}}},
      {{"mul", 3}});
  EXPECT_TRUE(outcome.passed) << outcome.message;
  // The design actually carries a pipelined multiplier.
  bool found = false;
  for (const auto& [node, config] :
       outcome.compiled.design.configurations) {
    (void)node;
    for (const auto& unit : config.datapath.units) {
      if (unit.kind == ir::UnitKind::kBinOp &&
          unit.binop == BinOp::kMul) {
        EXPECT_EQ(unit.latency, 3u);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(PipelinedHls, LatencyCostsCycles) {
  const std::string source =
      "kernel m(int a[4], int b[4]) {\n"
      "  int i;\n"
      "  for (i = 0; i < 4; i = i + 1) { b[i] = a[i] * a[i]; }\n"
      "}\n";
  auto fast = verify_with_latency(source, {}, {{"a", {1, 2, 3, 4}}}, {});
  auto slow = verify_with_latency(source, {}, {{"a", {1, 2, 3, 4}}},
                                  {{"mul", 4}});
  ASSERT_TRUE(fast.passed) << fast.message;
  ASSERT_TRUE(slow.passed) << slow.message;
  EXPECT_GT(slow.run.total_cycles(), fast.run.total_cycles());
}

TEST(PipelinedHls, ComparisonLatencyIsIgnored) {
  // Configuring a latency for a comparison class must not break guards.
  auto outcome = verify_with_latency(
      "kernel c(int a[4], int b[4], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    if (a[i] < 2) { b[i] = 1; } else { b[i] = 0; }\n"
      "  }\n"
      "}\n",
      {{"n", 4}}, {{"a", {0, 1, 2, 3}}}, {{"lt", 5}});
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

TEST(PipelinedHls, SerdeAndHdlCarryLatency) {
  compiler::CompileOptions options;
  options.resources.latencies = {{"mul", 2}};
  auto compiled = compiler::compile_source(
      "kernel k(int a[2]) { a[0] = a[1] * 3; }", options);
  const auto& config = compiled.design.configuration("k");
  // XML round trip.
  auto element = ir::to_xml(config.datapath);
  ir::Datapath reparsed = ir::datapath_from_xml(*element);
  bool found = false;
  for (const auto& unit : reparsed.units) {
    if (unit.kind == ir::UnitKind::kBinOp && unit.binop == BinOp::kMul) {
      EXPECT_EQ(unit.latency, 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PipelinedIr, ValidateRejectsBadLatency) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel k(int a[2]) { a[0] = a[1] * 3; }", options);
  ir::Configuration config = std::move(
      compiled.design.configurations.begin()->second);
  for (auto& unit : config.datapath.units) {
    if (unit.kind == ir::UnitKind::kRegister) {
      unit.latency = 2;  // latency on a register is malformed
      break;
    }
  }
  EXPECT_THROW(ir::validate(config.datapath), util::IrError);
}

TEST(PipelinedBaseline, AgreesWithEventKernel) {
  const std::string source =
      "kernel p(short x[16], short y[16], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    y[i] = (x[i] * x[i] + x[i]) / (x[i] + 1);\n"
      "  }\n"
      "}\n";
  golden::Rng rng(5);
  auto inputs = rng.sequence(16, 100);
  compiler::CompileOptions options;
  options.scalar_args = {{"n", 16}};
  options.resources.latencies = {{"mul", 2}, {"div", 4}};
  auto compiled = compiler::compile_source(source, options);

  mem::MemoryPool event_pool;
  event_pool.create("x", 16, 16);
  event_pool.create("y", 16, 16);
  harness::load_inputs(event_pool, "x", inputs);
  auto event_run = elab::EventEngine().run(compiled.design, event_pool);
  ASSERT_TRUE(event_run.completed);

  mem::MemoryPool naive_pool;
  naive_pool.create("x", 16, 16);
  naive_pool.create("y", 16, 16);
  harness::load_inputs(naive_pool, "x", inputs);
  auto naive_run = elab::NaiveEngine().run(compiled.design, naive_pool);
  ASSERT_TRUE(naive_run.completed);
  EXPECT_EQ(event_pool.get("y").words(), naive_pool.get("y").words());
  EXPECT_EQ(event_run.total_cycles(), naive_run.total_cycles());
}

// Property sweep: random latency assignments never change results.
class LatencySweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(LatencySweep, FdctWithPipelinedMultipliers) {
  harness::TestCase test;
  test.name = "fdct_lat" + std::to_string(GetParam());
  test.source =
      "kernel fx(short a[32], short b[32], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    b[i] = (a[i] * 4433 + 1024) >> 11;\n"
      "  }\n"
      "}\n";
  test.scalar_args = {{"n", 32}};
  golden::Rng rng(GetParam());
  test.inputs = {{"a", rng.sequence(32, 1 << 16)}};
  test.resources.latencies = {{"mul", GetParam()}, {"add", GetParam() / 2}};
  auto outcome = harness::run_test_case(test);
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

INSTANTIATE_TEST_SUITE_P(Latencies, LatencySweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 5u, 8u));

}  // namespace
}  // namespace fti
