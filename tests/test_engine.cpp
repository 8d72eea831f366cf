// The pluggable engine layer: registry behaviour, the levelized static
// scheduler, and the parity edges every backend must agree on (done-at-
// budget tie-breaking, loud combinational-loop failures, repeatable
// run()).  The parity suite is parameterized over every registered
// engine plus the fuzzer's reference interpreter, so a newly registered
// backend is covered without editing this file.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fti/compiler/hls.hpp"
#include "fti/elab/engines.hpp"
#include "fti/elab/levelized.hpp"
#include "fti/fuzz/reference.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/mem/storage.hpp"
#include "fti/util/error.hpp"
#include "test_designs.hpp"

namespace fti {
namespace {

/// Every engine the registry knows about, with the fuzz layer's
/// "reference" interpreter registered first so it participates too.
std::vector<std::string> all_engine_names() {
  fuzz::register_reference_engine();
  return elab::engine_names();
}

ir::Design accumulator_design(std::uint64_t target) {
  return ir::make_single_design("acc_design",
                                fti::testing::make_accumulator(target));
}

/// A ring of three inverters -- a combinational cycle no engine can
/// settle (the odd ring oscillates under ANY sweep order, unlike a
/// 2-inverter latch which in-order sweeps converge to a fixpoint).  The
/// FSM never raises done, so the loop is what stops the run.
ir::Design inverter_loop_design() {
  ir::Datapath dp;
  dp.name = "looped";
  dp.wires = {{"a", 1}, {"b", 1}, {"c", 1}, {"done", 1}};
  dp.control_wires = {"done"};

  auto inverter = [&dp](const char* name, const char* in, const char* out) {
    ir::Unit unit;
    unit.name = name;
    unit.kind = ir::UnitKind::kUnOp;
    unit.unop = ops::UnOp::kNot;
    unit.width = 1;
    unit.ports = {{"a", in}, {"out", out}};
    dp.units.push_back(unit);
  };
  inverter("inv_ab", "a", "b");
  inverter("inv_bc", "b", "c");
  inverter("inv_ca", "c", "a");

  ir::Fsm fsm;
  fsm.name = "loop_fsm";
  fsm.initial = "run";
  fsm.done_wire = "done";
  ir::State run;
  run.name = "run";
  fsm.states.push_back(run);

  return ir::make_single_design("looped", {std::move(dp), std::move(fsm)});
}

/// A 4-bit counter steps a 12-input mux through every input, one per
/// cycle, and a register samples the selected constant (100 + i): its
/// trace is 100..111 only if "in10"/"in11" are inputs 10 and 11, not
/// where the port map sorts them (after "in1").
ir::Design wide_mux_design() {
  ir::Datapath dp;
  dp.name = "wide_mux";
  dp.wires = {{"sel", 4}, {"next", 4}, {"one", 4}, {"last", 4},
              {"lt", 1},  {"m_out", 16}, {"r_q", 16}, {"run", 1},
              {"done", 1}};
  dp.control_wires = {"run", "done"};
  dp.status_wires = {"lt"};
  auto add = [&dp](std::string name, ir::UnitKind kind, std::uint32_t width,
                   std::map<std::string, std::string, std::less<>> ports) {
    ir::Unit& unit = dp.units.emplace_back();
    unit.name = std::move(name);
    unit.kind = kind;
    unit.width = width;
    unit.ports = std::move(ports);
    return &unit;
  };
  add("k_one", ir::UnitKind::kConst, 4, {{"out", "one"}})->value = 1;
  add("k_last", ir::UnitKind::kConst, 4, {{"out", "last"}})->value = 11;
  add("inc", ir::UnitKind::kBinOp, 4,
      {{"a", "sel"}, {"b", "one"}, {"out", "next"}})->binop = ops::BinOp::kAdd;
  add("cmp", ir::UnitKind::kBinOp, 4,
      {{"a", "sel"}, {"b", "last"}, {"out", "lt"}})->binop = ops::BinOp::kLtu;
  add("count", ir::UnitKind::kRegister, 4,
      {{"d", "next"}, {"q", "sel"}, {"en", "run"}});
  std::map<std::string, std::string, std::less<>> mux_ports = {
      {"sel", "sel"}, {"out", "m_out"}};
  for (int i = 0; i < 12; ++i) {
    const std::string wire = "k" + std::to_string(i);
    dp.wires.push_back({wire, 16});
    add("k_" + wire, ir::UnitKind::kConst, 16, {{"out", wire}})->value =
        100 + i;
    mux_ports.emplace("in" + std::to_string(i), wire);
  }
  add("mux", ir::UnitKind::kMux, 16, std::move(mux_ports))->mux_inputs = 12;
  add("r", ir::UnitKind::kRegister, 16, {{"d", "m_out"}, {"q", "r_q"}});

  ir::Fsm fsm;
  fsm.name = "wide_mux_fsm";
  fsm.initial = "go";
  fsm.done_wire = "done";
  fsm.states = {{"go", {{"run", 1}}, {{ir::parse_guard("!lt"), "stop"}}},
                {"stop", {{"done", 1}}, {}}};
  return ir::make_single_design("wide_mux", {std::move(dp), std::move(fsm)});
}

// ---------------------------------------------------------------------------
// Registry.

TEST(EngineRegistry, BuiltinsAreRegistered) {
  std::vector<std::string> names = all_engine_names();
  std::set<std::string> set(names.begin(), names.end());
  EXPECT_TRUE(set.count("event"));
  EXPECT_TRUE(set.count("naive"));
  EXPECT_TRUE(set.count("levelized"));
  EXPECT_TRUE(set.count("reference"));
}

TEST(EngineRegistry, UnknownNameThrowsListingRegistered) {
  try {
    elab::make_engine("frobnicator");
    FAIL() << "make_engine accepted an unknown name";
  } catch (const util::SimError& error) {
    std::string message = error.what();
    EXPECT_NE(message.find("unknown engine 'frobnicator'"),
              std::string::npos)
        << message;
    // The message must list what IS registered, or the flag is a guessing
    // game.
    EXPECT_NE(message.find("event"), std::string::npos) << message;
    EXPECT_NE(message.find("levelized"), std::string::npos) << message;
  }
}

TEST(EngineRegistry, FactoryReturnsFreshInstances) {
  std::unique_ptr<sim::Engine> first = elab::make_engine("event");
  std::unique_ptr<sim::Engine> second = elab::make_engine("event");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(first->name(), "event");
}

TEST(EngineRegistry, CustomEngineCanBeRegistered) {
  class StubEngine final : public sim::Engine {
   public:
    const std::string& name() const override {
      static const std::string kName = "stub";
      return kName;
    }
    sim::EngineResult run(const elab::CheckedDesign&, mem::MemoryPool&,
                          const sim::EngineRunOptions&) override {
      sim::EngineResult result;
      result.completed = true;
      return result;
    }
    sim::EnginePartition run_partition(const elab::CheckedDesign&,
                                       const std::string&, mem::MemoryPool&,
                                       const sim::EngineRunOptions&,
                                       std::size_t) override {
      return {};
    }
  };
  sim::register_engine("test_stub",
                       [] { return std::make_unique<StubEngine>(); });
  std::unique_ptr<sim::Engine> engine = elab::make_engine("test_stub");
  ASSERT_NE(engine, nullptr);
  mem::MemoryPool pool;
  ir::Design design = accumulator_design(3);
  EXPECT_TRUE(engine->run(design, pool, {}).completed);
}

// ---------------------------------------------------------------------------
// Levelized static schedule.

TEST(LevelizedSchedule, RanksRespectDependencies) {
  ir::Configuration config = fti::testing::make_accumulator(10);
  elab::LevelizedSchedule schedule =
      elab::build_levelized_schedule(config.datapath);
  // The two constants feed the adder and the comparator; the register is
  // sequential and does not appear in the combinational schedule.
  ASSERT_EQ(schedule.steps.size(), 4u);
  EXPECT_EQ(schedule.depth, 2u);
  std::map<std::string, std::size_t> rank;
  for (const elab::LevelizedSchedule::Step& step : schedule.steps) {
    rank[step.unit->name] = step.rank;
  }
  EXPECT_EQ(rank.at("k1"), 0u);
  EXPECT_EQ(rank.at("kt"), 0u);
  EXPECT_EQ(rank.at("add0"), 1u);
  EXPECT_EQ(rank.at("cmp0"), 1u);
  // Steps are emitted rank-major, so a straight-line sweep is in
  // dependency order.
  for (std::size_t i = 1; i < schedule.steps.size(); ++i) {
    EXPECT_LE(schedule.steps[i - 1].rank, schedule.steps[i].rank);
  }
}

TEST(LevelizedSchedule, DetectsCombinationalCycleAtBuildTime) {
  ir::Design design = inverter_loop_design();
  try {
    elab::build_levelized_schedule(design.configuration("looped").datapath);
    FAIL() << "cycle not detected";
  } catch (const util::SimError& error) {
    std::string message = error.what();
    EXPECT_NE(message.find("combinational cycle"), std::string::npos)
        << message;
    // Names the units stuck on the cycle, for debuggability.
    EXPECT_NE(message.find("inv_ab"), std::string::npos) << message;
    EXPECT_NE(message.find("inv_bc"), std::string::npos) << message;
    EXPECT_NE(message.find("inv_ca"), std::string::npos) << message;
  }
}

// ---------------------------------------------------------------------------
// Parity edges, against every registered engine.

class EngineParity : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<sim::Engine> engine() const {
    return elab::make_engine(GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineParity,
                         ::testing::ValuesIn(all_engine_names()));

TEST_P(EngineParity, AccumulatorRunMatchesEventEngine) {
  ir::Design design = accumulator_design(25);

  mem::MemoryPool event_pool;
  sim::EngineRunOptions options;
  options.collect_wire_data = true;
  sim::EngineResult expected =
      elab::EventEngine().run(design, event_pool, options);
  ASSERT_TRUE(expected.completed);

  mem::MemoryPool pool;
  std::unique_ptr<sim::Engine> backend = engine();
  sim::EngineResult result = backend->run(design, pool, options);
  EXPECT_TRUE(result.completed);
  ASSERT_EQ(result.partitions.size(), 1u);
  EXPECT_EQ(result.partitions[0].cycles, expected.partitions[0].cycles);
  EXPECT_EQ(result.partitions[0].reason, sim::Kernel::StopReason::kDoneNet);
  if (backend->reports_wire_data()) {
    ASSERT_TRUE(result.has_wire_data);
    // Moore timing: the edge leaving the running state still loads the
    // register, so the final value is target + 1.
    EXPECT_EQ(result.partitions[0].finals.at("acc_q"), 26u);
    EXPECT_EQ(result.partitions[0].finals.at("done"), 1u);
    EXPECT_EQ(result.partitions[0].finals, expected.partitions[0].finals);
    EXPECT_EQ(result.partitions[0].traces, expected.partitions[0].traces);
  }
}

TEST_P(EngineParity, TwelveInputMuxSelectsInputsByNumber) {
  ir::Design design = wide_mux_design();
  sim::EngineRunOptions options;
  options.collect_wire_data = true;
  mem::MemoryPool event_pool;
  sim::EngineResult expected =
      elab::EventEngine().run(design, event_pool, options);
  ASSERT_TRUE(expected.completed);
  const std::vector<std::uint64_t> selected = {
      100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111};
  ASSERT_EQ(expected.partitions[0].traces.at("r_q"), selected);

  mem::MemoryPool pool;
  std::unique_ptr<sim::Engine> backend = engine();
  sim::EngineResult result = backend->run(design, pool, options);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.partitions[0].cycles, expected.partitions[0].cycles);
  if (backend->reports_wire_data()) {
    EXPECT_EQ(result.partitions[0].traces, expected.partitions[0].traces);
    EXPECT_EQ(result.partitions[0].finals, expected.partitions[0].finals);
  }
}

TEST_P(EngineParity, DoneAtExactBudgetIsDoneNotMaxTime) {
  ir::Design design = accumulator_design(25);
  mem::MemoryPool probe_pool;
  sim::EngineResult probe = engine()->run(design, probe_pool, {});
  ASSERT_TRUE(probe.completed);
  std::uint64_t cycles = probe.partitions[0].cycles;
  ASSERT_GT(cycles, 1u);

  // Budget exactly equal to the natural run length: done wins the tie.
  sim::EngineRunOptions exact;
  exact.max_cycles_per_partition = cycles;
  mem::MemoryPool exact_pool;
  sim::EngineResult at_budget = engine()->run(design, exact_pool, exact);
  EXPECT_TRUE(at_budget.completed);
  EXPECT_EQ(at_budget.partitions[0].reason,
            sim::Kernel::StopReason::kDoneNet);
  EXPECT_EQ(at_budget.partitions[0].cycles, cycles);

  // One cycle short: the budget wins, and the reported cycle count is the
  // budget, not wherever the engine happened to stop sweeping.
  sim::EngineRunOptions short_budget;
  short_budget.max_cycles_per_partition = cycles - 1;
  mem::MemoryPool short_pool;
  sim::EngineResult capped = engine()->run(design, short_pool, short_budget);
  EXPECT_FALSE(capped.completed);
  EXPECT_EQ(capped.partitions[0].reason, sim::Kernel::StopReason::kMaxTime);
  EXPECT_EQ(capped.partitions[0].cycles, cycles - 1);

  // A zero budget means unlimited: the run completes at its natural
  // length.
  sim::EngineRunOptions unlimited;
  unlimited.max_cycles_per_partition = 0;
  mem::MemoryPool unlimited_pool;
  sim::EngineResult free_run =
      engine()->run(design, unlimited_pool, unlimited);
  EXPECT_TRUE(free_run.completed);
  EXPECT_EQ(free_run.partitions[0].reason,
            sim::Kernel::StopReason::kDoneNet);
  EXPECT_EQ(free_run.partitions[0].cycles, cycles);
}

TEST_P(EngineParity, CombinationalLoopFailsLoudly) {
  ir::Design design = inverter_loop_design();
  sim::EngineRunOptions options;
  options.max_cycles_per_partition = 100;  // the loop must hit first
  mem::MemoryPool pool;
  try {
    engine()->run(design, pool, options);
    FAIL() << "engine '" << GetParam()
           << "' did not fail on a combinational loop";
  } catch (const util::SimError& error) {
    // Every backend must diagnose the loop, not time out or hang: the
    // event kernel via its delta limit, the sweep engines via their
    // settle limit, the levelized engine at schedule-build time.
    EXPECT_NE(std::string(error.what()).find("combinational"),
              std::string::npos)
        << GetParam() << ": " << error.what();
  }
}

TEST_P(EngineParity, ReservedClockWireIsRejectedWithOneMessage) {
  // "clk" is the clock net every engine and HDL backend adds, so a
  // datapath wire of that name is invalid IR under every engine, not
  // only under the one that builds a netlist.
  ir::Design design = accumulator_design(3);
  design.configurations.begin()->second.datapath.wires.push_back({"clk", 1});
  const std::string expected =
      "ir: datapath 'acc' declares the reserved wire name 'clk'";
  for (bool batch : {false, true}) {
    mem::MemoryPool pool;
    try {
      if (batch) {
        engine()->run_batch(design, {&pool});
      } else {
        engine()->run(design, pool);
      }
      FAIL() << "engine '" << GetParam() << "' ran a design with a 'clk' "
             << (batch ? "wire in run_batch" : "wire");
    } catch (const util::IrError& error) {
      EXPECT_EQ(std::string(error.what()), expected) << GetParam();
    }
  }
}

TEST_P(EngineParity, RunIsRepeatable) {
  // Engines carry no per-run state: a second run() on the same instance
  // starts fresh and reproduces the first (the "reprogram the fabric"
  // contract used by cosim's lazy engine).
  ir::Design design = accumulator_design(12);
  std::unique_ptr<sim::Engine> backend = engine();
  sim::EngineRunOptions options;
  options.collect_wire_data = true;
  mem::MemoryPool first_pool;
  sim::EngineResult first = backend->run(design, first_pool, options);
  mem::MemoryPool second_pool;
  sim::EngineResult second = backend->run(design, second_pool, options);
  ASSERT_TRUE(first.completed);
  ASSERT_TRUE(second.completed);
  EXPECT_EQ(first.partitions[0].cycles, second.partitions[0].cycles);
  EXPECT_EQ(first.partitions[0].finals, second.partitions[0].finals);
  EXPECT_EQ(first.partitions[0].stats.evaluations,
            second.partitions[0].stats.evaluations);
}

TEST_P(EngineParity, CompiledKernelMemoriesMatchEventEngine) {
  // A real compiled design with SRAM traffic: every engine must leave the
  // pool bit-identical to the event kernel.
  const char* source =
      "kernel k(short s[16], short t[16], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    t[i] = s[i] + 3;\n"
      "  }\n"
      "}\n";
  compiler::CompileOptions compile_options;
  compile_options.scalar_args = {{"n", 16}};
  auto compiled = compiler::compile_source(source, compile_options);

  auto prime = [](mem::MemoryPool& pool) {
    pool.create("s", 16, 16);
    pool.create("t", 16, 16);
    auto& s = pool.get("s");
    for (std::size_t i = 0; i < 16; ++i) {
      s.write(i, 7 * i + 1);
    }
  };

  mem::MemoryPool event_pool;
  prime(event_pool);
  sim::EngineResult expected =
      elab::EventEngine().run(compiled.design, event_pool, {});
  ASSERT_TRUE(expected.completed);

  mem::MemoryPool pool;
  prime(pool);
  sim::EngineResult result = engine()->run(compiled.design, pool, {});
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.total_cycles(), expected.total_cycles());
  for (const std::string& array : event_pool.names()) {
    EXPECT_EQ(pool.get(array).words(), event_pool.get(array).words())
        << "array '" << array << "' differs from the event engine";
  }
}

// ---------------------------------------------------------------------------
// Batched lanes: per-lane results must be byte-identical to independent
// runs of the reference interpreter (the oracle that shares no code with
// the batched sweep; "levelized" is the batched engine at one lane).  The
// lane counts are chosen to stress the bit-packed storage: 1 and 3
// exercise a mostly-masked single word, 64 a full word with no tail, 65 a
// one-bit tail word, 127 an almost-full tail word.

class BatchedLaneParity : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(LaneCounts, BatchedLaneParity,
                         ::testing::Values(1u, 3u, 64u, 65u, 127u));

TEST_P(BatchedLaneParity, AccumulatorLanesMatchIndependentRun) {
  const std::size_t lanes = GetParam();
  ir::Design design = accumulator_design(25);
  sim::EngineRunOptions options;
  options.collect_wire_data = true;

  mem::MemoryPool single_pool;
  sim::EngineResult expected =
      fuzz::ReferenceEngine().run(design, single_pool, options);
  ASSERT_TRUE(expected.completed);
  // The reference reports no kernel stats, so the sweep's closed forms
  // are derived from its run: one event per traced value change (the
  // accumulator has no memories), four combinational units per sweep
  // plus one register per edge, one timestep per sweep.
  const sim::EnginePartition& want = expected.partitions.at(0);
  std::uint64_t want_events = 0;
  for (const auto& [wire, changes] : want.traces) {
    want_events += changes.size();
  }
  const std::uint64_t want_evaluations = (want.cycles + 1) * 4 + want.cycles;

  std::deque<mem::MemoryPool> pools(lanes);
  std::vector<mem::MemoryPool*> ptrs;
  for (mem::MemoryPool& pool : pools) {
    ptrs.push_back(&pool);
  }
  std::vector<sim::EngineResult> runs =
      elab::make_engine("batched")->run_batch(design, ptrs, options);
  ASSERT_EQ(runs.size(), lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const sim::EnginePartition& got = runs[lane].partitions.at(0);
    ASSERT_TRUE(runs[lane].completed) << "lane " << lane;
    EXPECT_EQ(got.cycles, want.cycles) << "lane " << lane;
    EXPECT_EQ(got.reason, want.reason) << "lane " << lane;
    EXPECT_EQ(got.finals, want.finals) << "lane " << lane;
    EXPECT_EQ(got.traces, want.traces) << "lane " << lane;
    EXPECT_EQ(got.stats.events, want_events) << "lane " << lane;
    EXPECT_EQ(got.stats.evaluations, want_evaluations) << "lane " << lane;
    EXPECT_EQ(got.stats.timesteps, want.cycles + 1) << "lane " << lane;
  }
}

TEST_P(BatchedLaneParity, CompiledKernelDistinctLanesMatchLevelized) {
  // Each lane gets different SRAM contents, and the branchy kernel makes
  // per-lane work (and thus write traffic) data-dependent -- so lanes
  // diverge in what they store while staying in the same control
  // lockstep.  Every lane must still match an independent reference run
  // from an identically primed pool.
  const std::size_t lanes = GetParam();
  const char* source =
      "kernel k(short s[8], short t[8], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    if (s[i] > 100) {\n"
      "      t[i] = s[i] + 3;\n"
      "      s[i] = t[i] + 1;\n"
      "    } else {\n"
      "      t[i] = s[i];\n"
      "    }\n"
      "  }\n"
      "}\n";
  compiler::CompileOptions compile_options;
  compile_options.scalar_args = {{"n", 8}};
  auto compiled = compiler::compile_source(source, compile_options);

  auto prime = [](mem::MemoryPool& pool, std::size_t lane) {
    pool.create("s", 8, 16);
    pool.create("t", 8, 16);
    mem::MemoryImage& s = pool.get("s");
    for (std::size_t i = 0; i < 8; ++i) {
      s.write(i, (lane * 37 + i * 31) % 200);
    }
  };

  std::deque<mem::MemoryPool> ref_pools(lanes);
  std::vector<sim::EngineResult> ref_runs;
  fuzz::ReferenceEngine reference;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    prime(ref_pools[lane], lane);
    ref_runs.push_back(reference.run(compiled.design, ref_pools[lane], {}));
    ASSERT_TRUE(ref_runs.back().completed) << "lane " << lane;
  }

  std::deque<mem::MemoryPool> pools(lanes);
  std::vector<mem::MemoryPool*> ptrs;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    prime(pools[lane], lane);
    ptrs.push_back(&pools[lane]);
  }
  std::vector<sim::EngineResult> runs =
      elab::make_engine("batched")->run_batch(compiled.design, ptrs, {});
  ASSERT_EQ(runs.size(), lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    ASSERT_TRUE(runs[lane].completed) << "lane " << lane;
    EXPECT_EQ(runs[lane].total_cycles(), ref_runs[lane].total_cycles())
        << "lane " << lane;
    for (const std::string& array : ref_pools[lane].names()) {
      EXPECT_EQ(pools[lane].get(array).words(),
                ref_pools[lane].get(array).words())
          << "lane " << lane << " array '" << array << "'";
    }
  }
}

/// Registers whose enables and resets diverge per lane.  Each lane reads
/// an enable pattern, a reset count and a stop count from its own `cfg`
/// memory.  `acc` loads on the data-driven enable `en` (cnt & pattern is
/// nonzero) or resets on `rst` (cnt == reset count); `hold` has only the
/// enable, `clr` only the reset.  `cnt` and `g` are gated by FSM
/// controls: `g` loads on c_run and resets on c_clr, which the one-cycle
/// `clear` state asserts without c_run.  A write port stores acc into
/// `out` whenever `en` is high, so a lane that finishes while its enable
/// stays high must stop writing.
ir::Design divergent_enable_design() {
  ir::Datapath dp;
  dp.name = "gates";
  dp.wires = {{"cnt_q", 8},  {"cnt_add", 8}, {"k1_out", 8},  {"k0_out", 8},
              {"a0_out", 2}, {"a1_out", 2},  {"a2_out", 2},  {"pat", 8},
              {"rst_at", 8}, {"limit", 8},   {"masked", 8},  {"en", 1},
              {"rst", 1},    {"fin", 1},     {"acc_q", 8},   {"acc_add", 8},
              {"hold_q", 8}, {"clr_q", 8},   {"g_q", 8},     {"slot", 2},
              {"c_run", 1},  {"c_clr", 1},   {"done", 1}};
  dp.memories = {{"cfg", 4, 8, {}}, {"out", 4, 8, {}}};
  dp.control_wires = {"c_run", "c_clr", "done"};
  dp.status_wires = {"fin"};

  auto unit = [&dp](const char* name, ir::UnitKind kind, std::uint32_t width,
                    decltype(ir::Unit::ports) ports) -> ir::Unit& {
    ir::Unit u;
    u.name = name;
    u.kind = kind;
    u.width = width;
    u.ports = std::move(ports);
    dp.units.push_back(std::move(u));
    return dp.units.back();
  };
  auto konst = [&](const char* name, std::uint32_t width,
                   std::uint64_t value, const char* out) {
    unit(name, ir::UnitKind::kConst, width, {{"out", out}}).value = value;
  };
  auto binop = [&](const char* name, ops::BinOp op, const char* a,
                   const char* b, const char* out) {
    unit(name, ir::UnitKind::kBinOp, 8, {{"a", a}, {"b", b}, {"out", out}})
        .binop = op;
  };
  auto reg = [&](const char* name, decltype(ir::Unit::ports) ports,
                 std::uint64_t reset_value) {
    unit(name, ir::UnitKind::kRegister, 8, std::move(ports)).reset_value =
        reset_value;
  };
  auto cfg_read = [&](const char* name, const char* addr, const char* out) {
    ir::Unit& port = unit(name, ir::UnitKind::kMemPort, 8,
                          {{"addr", addr}, {"dout", out}});
    port.memory = "cfg";
    port.mem_mode = ir::MemMode::kRead;
  };

  konst("k1", 8, 1, "k1_out");
  konst("k0", 8, 0, "k0_out");
  konst("a0", 2, 0, "a0_out");
  konst("a1", 2, 1, "a1_out");
  konst("a2", 2, 2, "a2_out");
  cfg_read("rd_pat", "a0_out", "pat");
  cfg_read("rd_rst", "a1_out", "rst_at");
  cfg_read("rd_lim", "a2_out", "limit");
  binop("inc", ops::BinOp::kAdd, "cnt_q", "k1_out", "cnt_add");
  binop("mask", ops::BinOp::kAnd, "cnt_q", "pat", "masked");
  binop("en_ne", ops::BinOp::kNe, "masked", "k0_out", "en");
  binop("rst_eq", ops::BinOp::kEq, "cnt_q", "rst_at", "rst");
  binop("fin_eq", ops::BinOp::kEq, "cnt_q", "limit", "fin");
  binop("acc_sum", ops::BinOp::kAdd, "acc_q", "cnt_q", "acc_add");
  unit("slot_of", ir::UnitKind::kUnOp, 2, {{"a", "cnt_q"}, {"out", "slot"}})
      .unop = ops::UnOp::kPass;

  reg("r_cnt", {{"d", "cnt_add"}, {"q", "cnt_q"}, {"en", "c_run"}}, 0);
  reg("r_acc", {{"d", "acc_add"}, {"q", "acc_q"}, {"en", "en"}, {"rst", "rst"}},
      0x5a);
  reg("r_hold", {{"d", "cnt_q"}, {"q", "hold_q"}, {"en", "en"}}, 0);
  reg("r_clr", {{"d", "acc_q"}, {"q", "clr_q"}, {"rst", "rst"}}, 0x33);
  reg("r_g", {{"d", "acc_q"}, {"q", "g_q"}, {"en", "c_run"}, {"rst", "c_clr"}},
      0x0f);

  ir::Unit& store = unit("wr_out", ir::UnitKind::kMemPort, 8,
                         {{"addr", "slot"}, {"din", "acc_q"}, {"we", "en"}});
  store.memory = "out";
  store.mem_mode = ir::MemMode::kWrite;

  ir::Fsm fsm;
  fsm.name = "gates_fsm";
  fsm.initial = "run";
  fsm.done_wire = "done";
  ir::State run;
  run.name = "run";
  run.controls = {{"c_run", 1}};
  run.transitions.push_back({ir::parse_guard("fin"), "clear"});
  ir::State clear;
  clear.name = "clear";
  clear.controls = {{"c_clr", 1}};
  clear.transitions.push_back({ir::parse_guard("1"), "halt"});
  ir::State halt;
  halt.name = "halt";
  halt.controls = {{"done", 1}};
  fsm.states = {run, clear, halt};
  return ir::make_single_design("gates", {std::move(dp), std::move(fsm)});
}

TEST_P(BatchedLaneParity, DivergentEnablesAndResetsMatchReference) {
  // Lane 0 stops first (count 6) with its enable high, so the enable
  // stays high after it finishes while other lanes run on; it also
  // resets at count 2, where its pattern disables it.  Lane 1 enables on
  // odd counts only and resets at count 10: another reset while
  // disabled.  The other lanes mix patterns, resets and stops.  The
  // cycle budget turns a lane that never finishes into a fast failure.
  const std::size_t lanes = GetParam();
  ir::Design design = divergent_enable_design();
  auto prime = [](mem::MemoryPool& pool, std::size_t lane) {
    const std::uint64_t patterns[] = {0xfd, 0x01, 0x06, 0x00, 0x55};
    mem::MemoryImage& cfg = pool.create("cfg", 4, 8);
    cfg.write(0, patterns[lane % 5]);
    cfg.write(1, (lane * 8) % 23 + 2);
    cfg.write(2, 6 + (lane * 13) % 40);
  };
  sim::EngineRunOptions options;
  options.collect_wire_data = true;
  options.max_cycles_per_partition = 1000;

  std::deque<mem::MemoryPool> ref_pools(lanes);
  std::vector<sim::EngineResult> ref_runs;
  fuzz::ReferenceEngine reference;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    prime(ref_pools[lane], lane);
    ref_runs.push_back(reference.run(design, ref_pools[lane], options));
    ASSERT_TRUE(ref_runs.back().completed) << "lane " << lane;
  }

  std::deque<mem::MemoryPool> pools(lanes);
  std::vector<mem::MemoryPool*> ptrs;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    prime(pools[lane], lane);
    ptrs.push_back(&pools[lane]);
  }
  std::vector<sim::EngineResult> runs =
      elab::make_engine("batched")->run_batch(design, ptrs, options);
  ASSERT_EQ(runs.size(), lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    ASSERT_TRUE(runs[lane].completed) << "lane " << lane;
    const sim::EnginePartition& got = runs[lane].partitions.at(0);
    const sim::EnginePartition& want = ref_runs[lane].partitions.at(0);
    EXPECT_EQ(got.cycles, want.cycles) << "lane " << lane;
    EXPECT_EQ(got.finals, want.finals) << "lane " << lane;
    EXPECT_EQ(got.traces, want.traces) << "lane " << lane;
    EXPECT_EQ(pools[lane].get("out").words(),
              ref_pools[lane].get("out").words())
        << "lane " << lane;
  }
}

// ---------------------------------------------------------------------------
// run_batch contract: the base-class fallback, and loud rejection of lane
// counts the engine cannot represent (never silent clamping).

TEST(EngineRunBatch, DefaultImplementationLoopsSingleLaneRuns) {
  ir::Design design = accumulator_design(10);
  mem::MemoryPool single;
  sim::EngineResult expected = elab::make_engine("event")->run(design, single, {});
  ASSERT_TRUE(expected.completed);

  std::deque<mem::MemoryPool> pools(3);
  std::vector<mem::MemoryPool*> ptrs;
  for (mem::MemoryPool& pool : pools) {
    ptrs.push_back(&pool);
  }
  // The event engine has no batch specialisation: the Engine base class
  // must fall back to one run() per lane.
  std::vector<sim::EngineResult> runs =
      elab::make_engine("event")->run_batch(design, ptrs, {});
  ASSERT_EQ(runs.size(), 3u);
  for (const sim::EngineResult& run : runs) {
    ASSERT_TRUE(run.completed);
    EXPECT_EQ(run.total_cycles(), expected.total_cycles());
  }
}

TEST(EngineRunBatch, DefaultImplementationTracesLaneZeroOnly) {
  // A tracer watches nets by identity, so a later lane's nets (which can
  // reuse lane 0's freed addresses) must never reach it.
  struct CountingTracer : sim::Tracer {
    std::size_t changes = 0;
    std::size_t finishes = 0;
    void on_change(sim::Time, const sim::Net&) override { ++changes; }
    void on_finish(sim::Time) override { ++finishes; }
  };
  ir::Design design = accumulator_design(10);
  CountingTracer single_tracer;
  sim::EngineRunOptions single_options;
  single_options.tracer = &single_tracer;
  mem::MemoryPool single;
  elab::make_engine("event")->run(design, single, single_options);

  CountingTracer tracer;
  std::size_t netlists = 0;
  sim::EngineRunOptions options;
  options.tracer = &tracer;
  options.on_netlist = [&](const std::string&, sim::Netlist&) { ++netlists; };
  std::deque<mem::MemoryPool> pools(3);
  std::vector<mem::MemoryPool*> ptrs;
  for (mem::MemoryPool& pool : pools) {
    ptrs.push_back(&pool);
  }
  elab::make_engine("event")->run_batch(design, ptrs, options);
  EXPECT_EQ(netlists, 1u);
  EXPECT_EQ(tracer.finishes, 1u);
  EXPECT_GT(tracer.changes, 0u);
  EXPECT_EQ(tracer.changes, single_tracer.changes);
}

TEST(EngineRunBatch, RejectsZeroLanes) {
  ir::Design design = accumulator_design(3);
  std::vector<mem::MemoryPool*> no_lanes;
  try {
    elab::make_engine("batched")->run_batch(design, no_lanes, {});
    FAIL() << "run_batch accepted an empty batch";
  } catch (const util::SimError& error) {
    EXPECT_NE(std::string(error.what()).find("at least one lane"),
              std::string::npos)
        << error.what();
  }
}

TEST(EngineRunBatch, RejectsMoreLanesThanMaximum) {
  ir::Design design = accumulator_design(3);
  std::unique_ptr<sim::Engine> engine = elab::make_engine("batched");
  mem::MemoryPool pool;
  std::vector<mem::MemoryPool*> lanes(engine->max_lanes() + 1, &pool);
  try {
    engine->run_batch(design, lanes, {});
    FAIL() << "run_batch clamped an oversized batch instead of rejecting";
  } catch (const util::SimError& error) {
    std::string message = error.what();
    EXPECT_NE(message.find("maximum"), std::string::npos) << message;
    EXPECT_NE(message.find(std::to_string(engine->max_lanes())),
              std::string::npos)
        << message;
  }
}

TEST(EngineRunBatch, RejectsNullLanePool) {
  ir::Design design = accumulator_design(3);
  mem::MemoryPool pool;
  std::vector<mem::MemoryPool*> lanes{&pool, nullptr};
  try {
    elab::make_engine("batched")->run_batch(design, lanes, {});
    FAIL() << "run_batch accepted a null lane pool";
  } catch (const util::SimError& error) {
    EXPECT_NE(std::string(error.what()).find("null"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace fti
