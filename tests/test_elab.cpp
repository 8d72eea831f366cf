#include <gtest/gtest.h>

#include "fti/compiler/hls.hpp"
#include "fti/elab/elaborator.hpp"
#include "fti/elab/engines.hpp"
#include "fti/sim/probe.hpp"
#include "fti/sim/vcd.hpp"
#include "fti/util/error.hpp"
#include "test_designs.hpp"

namespace fti::elab {
namespace {

TEST(Elaborator, BuildsAccumulatorNetlist) {
  ir::Configuration config = fti::testing::make_accumulator(5);
  mem::MemoryPool pool;
  auto live = elaborate(config, pool);
  EXPECT_NE(live->clock, nullptr);
  EXPECT_NE(live->done, nullptr);
  EXPECT_NE(live->fsm, nullptr);
  // clk + 7 declared wires.
  EXPECT_EQ(live->netlist.net_count(), 8u);
  // clkgen + fsm + 5 units.
  EXPECT_EQ(live->netlist.component_count(), 7u);
}

TEST(Elaborator, AccumulatorRunsToDone) {
  ir::Configuration config = fti::testing::make_accumulator(5);
  mem::MemoryPool pool;
  auto live = elaborate(config, pool);
  sim::Kernel kernel(live->netlist);
  auto reason = kernel.run(100000, live->done);
  EXPECT_EQ(reason, sim::Kernel::StopReason::kDoneNet);
  // The edge that leaves the run state still loads: final value target+1.
  EXPECT_EQ(live->netlist.net("acc_q").u(), 6u);
  EXPECT_EQ(live->fsm->current_state(), "halt");
}

TEST(Elaborator, FsmStateVisitCoverage) {
  ir::Configuration config = fti::testing::make_accumulator(3);
  mem::MemoryPool pool;
  auto live = elaborate(config, pool);
  sim::Kernel kernel(live->netlist);
  kernel.run(100000, live->done);
  const auto& visits = live->fsm->state_visits();
  ASSERT_EQ(visits.size(), 2u);
  EXPECT_EQ(visits[0], 1u);  // entered once (self-waiting, not re-entered)
  EXPECT_EQ(visits[1], 1u);
  EXPECT_GE(live->fsm->steps(), 4u);
}

TEST(Elaborator, RejectsReservedClockName) {
  ir::Configuration config = fti::testing::make_accumulator(3);
  config.datapath.wires.push_back({"clk", 1});
  mem::MemoryPool pool;
  EXPECT_THROW(elaborate(config, pool), util::IrError);
}

TEST(Elaborator, RejectsInvalidIr) {
  ir::Configuration config = fti::testing::make_accumulator(3);
  config.datapath.units[2].ports["a"] = "missing";
  mem::MemoryPool pool;
  EXPECT_THROW(elaborate(config, pool), util::IrError);
}

TEST(Elaborator, CreatesPoolMemories) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel k(int a[8]) { a[0] = 1; }", options);
  mem::MemoryPool pool;
  auto live =
      elaborate(compiled.design.configuration("k"), pool);
  EXPECT_TRUE(pool.contains("a"));
  EXPECT_EQ(pool.get("a").depth(), 8u);
  EXPECT_EQ(live->srams.size(), 1u);
}

TEST(RtgExec, RunsPartitionsInSequence) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel seq(int m[4]) {\n"
      "  int i;\n"
      "  for (i = 0; i < 4; i = i + 1) { m[i] = i * 5; }\n"
      "  stage;\n"
      "  int j;\n"
      "  for (j = 0; j < 4; j = j + 1) { m[j] = m[j] + 1; }\n"
      "}\n",
      options);
  mem::MemoryPool pool;
  sim::EngineResult result = EventEngine().run(compiled.design, pool);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.partitions.size(), 2u);
  EXPECT_EQ(result.partitions[0].node, "seq_p0");
  EXPECT_EQ(result.partitions[1].node, "seq_p1");
  EXPECT_EQ(pool.get("m").words(),
            (std::vector<std::uint64_t>{1, 6, 11, 16}));
  EXPECT_GT(result.total_cycles(), 0u);
  EXPECT_GT(result.total_events(), 0u);
  EXPECT_GE(result.total_wall_seconds(), 0.0);
}

TEST(RtgExec, CycleBudgetYieldsIncomplete) {
  // A while(1)-style design never raises done.
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel spin(int m[2]) {\n"
      "  int i = 0;\n"
      "  while (i < 10) { m[0] = i; i = i - 1; }\n"  // never terminates
      "}\n",
      options);
  mem::MemoryPool pool;
  sim::EngineRunOptions run_options;
  run_options.max_cycles_per_partition = 1000;
  sim::EngineResult result =
      EventEngine().run(compiled.design, pool, run_options);
  EXPECT_FALSE(result.completed);
  ASSERT_EQ(result.partitions.size(), 1u);
  EXPECT_EQ(result.partitions[0].reason, sim::Kernel::StopReason::kMaxTime);
}

TEST(RtgExec, OnNetlistHookCanAttachInstrumentation) {
  ir::Design design = ir::make_single_design(
      "probe_design", fti::testing::make_accumulator(4));
  mem::MemoryPool pool;
  sim::EngineRunOptions options;
  bool attached = false;
  std::size_t observed_changes = 0;
  // The component dies with the partition's netlist, so it reports
  // through its predicate while the partition runs.
  options.on_netlist = [&](const std::string& node, sim::Netlist& netlist) {
    EXPECT_EQ(node, "acc");
    netlist.add_component<sim::NetAssertion>(
        "watch", netlist.net("acc_q"), [&](const sim::Bits&) {
          ++observed_changes;
          return true;
        });
    attached = true;
  };
  sim::EngineResult result = EventEngine().run(design, pool, options);
  ASSERT_TRUE(attached);
  ASSERT_TRUE(result.completed);
  // acc took values 1..5 (plus the final overshoot load to 5+... ).
  EXPECT_GE(observed_changes, 4u);
}

/// Counts the tracer callbacks of one run.
class CountingTracer : public sim::Tracer {
 public:
  void on_change(sim::Time, const sim::Net&) override { ++changes; }
  void on_finish(sim::Time) override { ++finishes; }

  std::size_t changes = 0;
  std::size_t finishes = 0;
};

TEST(RtgExec, TracerWatchesFirstPartitionOnly) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel two(int m[2]) { m[0] = 1; stage; m[1] = 2; }", options);
  ASSERT_EQ(compiled.design.configurations.size(), 2u);
  mem::MemoryPool pool;
  CountingTracer tracer;
  sim::EngineRunOptions run_options;
  run_options.tracer = &tracer;
  sim::EngineResult result =
      EventEngine().run(compiled.design, pool, run_options);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.partitions.size(), 2u);
  EXPECT_EQ(tracer.finishes, 1u);
  EXPECT_GT(tracer.changes, 0u);
}

TEST(RtgExec, StatsPerPartitionAreIndependent) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel lop(int m[16]) {\n"
      "  int i;\n"
      "  for (i = 0; i < 16; i = i + 1) { m[i] = i; }\n"
      "  stage;\n"
      "  int j;\n"
      "  for (j = 0; j < 2; j = j + 1) { m[j] = 0; }\n"
      "}\n",
      options);
  mem::MemoryPool pool;
  sim::EngineResult result = EventEngine().run(compiled.design, pool);
  ASSERT_TRUE(result.completed);
  // 16 iterations vs 2: the first partition runs much longer.
  EXPECT_GT(result.partitions[0].cycles, result.partitions[1].cycles);
}

}  // namespace
}  // namespace fti::elab

namespace fti::elab {
namespace {

TEST(MemoryInit, AppliedOnceAcrossPartitions) {
  // Partition 0 declares rom with init and increments every word;
  // partition 1 declares the same init but must see partition 0's values,
  // not a reset.
  ir::Configuration p0 = fti::testing::make_accumulator(2);
  p0.datapath.memories.push_back({"rom", 2, 8, {10, 20}});
  ir::Configuration p1 = fti::testing::make_accumulator(2);
  p1.datapath.name = "acc2";
  p1.fsm.name = "acc2_fsm";
  p1.datapath.memories.push_back({"rom", 2, 8, {10, 20}});

  mem::MemoryPool pool;
  auto live0 = elaborate(p0, pool);
  EXPECT_EQ(pool.get("rom").words(), (std::vector<std::uint64_t>{10, 20}));
  pool.get("rom").write(0, 77);  // partition 0's computation
  auto live1 = elaborate(p1, pool);
  EXPECT_EQ(pool.get("rom").words(), (std::vector<std::uint64_t>{77, 20}));
}

}  // namespace
}  // namespace fti::elab

namespace fti::elab {
namespace {

TEST(Coverage, FullyCoveredLoop) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel cov(int m[4]) {\n"
      "  int i;\n"
      "  for (i = 0; i < 4; i = i + 1) { m[i] = i; }\n"
      "}\n",
      options);
  mem::MemoryPool pool;
  sim::EngineResult result = EventEngine().run(compiled.design, pool);
  ASSERT_TRUE(result.completed);
  const sim::FsmCoverage& coverage = result.partitions[0].coverage;
  EXPECT_TRUE(coverage.full()) << coverage.to_string();
  EXPECT_EQ(coverage.percent(), 100.0);
  EXPECT_EQ(coverage.states_visited(), coverage.states.size());
  // The loop branch was taken both ways: 4 body entries + 1 exit.
  std::uint64_t body_taken = 0;
  std::uint64_t exit_taken = 0;
  for (const auto& transition : coverage.transitions) {
    if (transition.guard != "1") {
      body_taken = transition.taken;
    }
  }
  (void)exit_taken;
  EXPECT_EQ(body_taken, 4u);
}

TEST(Coverage, UntakenBranchIsReported) {
  // The input never exceeds 100, so the then-branch states stay cold.
  compiler::CompileOptions options;
  options.scalar_args = {{"n", 4}};
  auto compiled = compiler::compile_source(
      "kernel cold(int a[4], int b[4], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    if (a[i] > 100) { b[i] = 1; } else { b[i] = 2; }\n"
      "  }\n"
      "}\n",
      options);
  mem::MemoryPool pool;
  pool.create("a", 4, 32);  // all zeros: condition never true
  pool.create("b", 4, 32);
  sim::EngineResult result = EventEngine().run(compiled.design, pool);
  ASSERT_TRUE(result.completed);
  const sim::FsmCoverage& coverage = result.partitions[0].coverage;
  EXPECT_FALSE(coverage.full());
  EXPECT_LT(coverage.percent(), 100.0);
  EXPECT_NE(coverage.to_string().find("never"), std::string::npos);
  // At least one state was never visited (the then-branch body).
  EXPECT_LT(coverage.states_visited(), coverage.states.size());
}

TEST(Coverage, PerPartitionReports) {
  compiler::CompileOptions options;
  auto compiled = compiler::compile_source(
      "kernel two(int m[2]) { m[0] = 1; stage; m[1] = 2; }", options);
  mem::MemoryPool pool;
  sim::EngineResult result = EventEngine().run(compiled.design, pool);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.partitions.size(), 2u);
  for (const auto& partition : result.partitions) {
    EXPECT_TRUE(partition.coverage.full())
        << partition.coverage.to_string();
    EXPECT_FALSE(partition.coverage.states.empty());
  }
}

}  // namespace
}  // namespace fti::elab
