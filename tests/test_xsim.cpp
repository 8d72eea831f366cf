// Coverage for the external-simulator cosimulation subsystem: toolchain
// probing (and the FTI_XSIM_SIM pin/disable contract), the self-checking
// testbench generator's structure, the 4-state checker (the batched
// engine's X mode: initialization semantics, agreement with 2-state
// lanes on clean runs, per-lane findings), the E10 injection recall
// loop, and the cross-check's loud-skip path.  The final test exercises a real
// Icarus Verilog round trip and GTEST_SKIPs (with the probe's reason)
// on machines without a simulator, so the suite stays green everywhere
// while CI -- which installs iverilog -- runs the whole loop.
#include <algorithm>
#include <cstdlib>
#include <deque>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "fti/elab/engines.hpp"
#include "fti/fuzz/generate.hpp"
#include "fti/fuzz/inject.hpp"
#include "fti/fuzz/lanes.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/lint/lint.hpp"
#include "fti/mem/storage.hpp"
#include "fti/util/error.hpp"
#include "fti/xsim/driver.hpp"
#include "fti/xsim/fourstate.hpp"
#include "fti/xsim/testbench.hpp"
#include "test_designs.hpp"

namespace fti {
namespace {

/// Pins (or clears) FTI_XSIM_SIM for one test and restores the previous
/// value on the way out, so pin tests cannot leak into the real-simulator
/// round trip below.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

ir::Design accumulator_design(std::uint64_t target = 3) {
  return ir::make_single_design("acc", testing::make_accumulator(target));
}

/// The accumulator with its register's power-up made explicit: a const-0
/// reset wire, the way synthesizable designs carry reset hardware.  The
/// 4-state checker treats the register as initialized; 2-state engines
/// behave identically with or without it.
ir::Design reset_accumulator_design(std::uint64_t target = 3) {
  ir::Design design = accumulator_design(target);
  ir::Configuration& config = design.configurations.at("acc");
  config.datapath.wires.push_back({"rst0", 1});
  ir::Unit tie;
  tie.name = "rst_tie";
  tie.kind = ir::UnitKind::kConst;
  tie.width = 1;
  tie.value = 0;
  tie.ports = {{"out", "rst0"}};
  config.datapath.units.push_back(tie);
  for (ir::Unit& unit : config.datapath.units) {
    if (unit.kind == ir::UnitKind::kRegister) {
      unit.ports["rst"] = "rst0";
    }
  }
  return design;
}

// ------------------------------------------------------ toolchain probe

TEST(XsimStatus, PinToMissingBinaryDisablesLane) {
  EnvGuard pin("FTI_XSIM_SIM", "/nonexistent/xsim-compiler");
  xsim::XsimStatus status = xsim::xsim_status();
  EXPECT_FALSE(status.available);
  EXPECT_FALSE(xsim::xsim_available());
  // The pin is the whole story: the reason names it instead of falling
  // through to a $PATH probe that might succeed.
  EXPECT_NE(status.reason.find("FTI_XSIM_SIM"), std::string::npos)
      << status.reason;
  EXPECT_NE(status.reason.find("not an executable"), std::string::npos)
      << status.reason;
}

TEST(XsimStatus, ProbeIsUncachedAcrossEnvironmentChanges) {
  {
    EnvGuard pin("FTI_XSIM_SIM", "/nonexistent/xsim-compiler");
    EXPECT_FALSE(xsim::xsim_available());
  }
  // With the pin gone the probe must re-run; whatever it finds, the
  // status has to be self-consistent (a reason when unavailable, a
  // compiler path when available).
  xsim::XsimStatus status = xsim::xsim_status();
  if (status.available) {
    EXPECT_FALSE(status.compile.empty());
  } else {
    EXPECT_FALSE(status.reason.empty());
  }
}

// -------------------------------------------------- testbench generator

TEST(Testbench, SelfCheckingBenchStructure) {
  ir::Design design = accumulator_design(3);
  mem::MemoryPool pool;
  xsim::Testbench bench = xsim::make_testbench(design, pool);

  // One DUT instance per RTG node, positional naming.
  ASSERT_EQ(bench.nodes.size(), 1u);
  EXPECT_EQ(bench.nodes[0], "acc");
  EXPECT_NE(bench.text.find("module tb;"), std::string::npos);
  EXPECT_NE(bench.text.find("dut_0"), std::string::npos);

  // The bench is self-contained: it dumps a VCD and writes the
  // machine-readable result file the driver parses back.
  EXPECT_NE(bench.text.find("$dumpfile(\"dump.vcd\");"), std::string::npos);
  EXPECT_NE(bench.text.find("$fopen(\"result.txt\""), std::string::npos);
  EXPECT_NE(bench.text.find("partition 0"), std::string::npos);

  // Traced wires cover the engines' observables: the register q wire and
  // both control wires, each with its width.
  std::vector<std::string> traced;
  for (const xsim::TracedWire& wire : bench.traced) {
    EXPECT_EQ(wire.node, "acc");
    traced.push_back(wire.wire);
  }
  EXPECT_NE(std::find(traced.begin(), traced.end(), "acc_q"), traced.end());
  EXPECT_NE(std::find(traced.begin(), traced.end(), "done"), traced.end());

  // The accumulator has no memories: nothing to preload, nothing to dump.
  EXPECT_TRUE(bench.preloads.empty());
  EXPECT_TRUE(bench.mem_outputs.empty());
}

// ------------------------------------------------------ 4-state checker

TEST(FourState, ResetLessRegisterPowerUpIsReported) {
  // The plain accumulator's register has no rst port: under 4-state
  // semantics it powers up X, the comparator output goes X, and the FSM
  // guard reads an unknown -- an observable-point finding.  Every
  // 2-state engine launders exactly this (acc_q powers up at its reset
  // value 0), which is the gap the checker exists to close.
  mem::MemoryPool pool;
  xsim::FourStateReport report =
      xsim::run_four_state(accumulator_design(3), {&pool}).front();
  ASSERT_FALSE(report.clean());
  std::vector<lint::Finding> findings = report.to_lint();
  ASSERT_FALSE(findings.empty());
  for (const lint::Finding& finding : findings) {
    EXPECT_EQ(finding.rule, "FTI-L010");
    EXPECT_EQ(finding.configuration, "acc");
    EXPECT_FALSE(finding.object.empty());
    EXPECT_NE(finding.message.find("4-state"), std::string::npos);
  }
}

TEST(FourState, ResetRegisterRunsClean) {
  mem::MemoryPool pool;
  xsim::FourStateReport report =
      xsim::run_four_state(reset_accumulator_design(3), {&pool}).front();
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.clean()) << report.to_lint().empty()
                              << " findings expected none";
  EXPECT_GT(report.total_cycles, 0u);
}

TEST(FourState, FindingsAreDeduplicatedAndCapped) {
  mem::MemoryPool pool;
  xsim::FourStateOptions options;
  options.max_findings = 2;
  xsim::FourStateReport report =
      xsim::run_four_state(accumulator_design(50), {&pool}, options).front();
  // 50 poisoned cycles must not produce 50 copies of the same finding.
  EXPECT_LE(report.findings.size(), 2u);
  EXPECT_FALSE(report.clean());
}

/// Every memory the design uses, created zero-filled: fully defined
/// stimulus, E10's clean-baseline recipe.
void zero_fill(const ir::Design& design, mem::MemoryPool& pool) {
  for (const ir::MemoryDecl& memory : design.memory_requirements()) {
    pool.create(memory.name, memory.depth, memory.width);
  }
}

using FindingKey =
    std::tuple<std::string, std::string, std::uint64_t, std::string>;

std::vector<FindingKey> finding_keys(const xsim::FourStateReport& report) {
  std::vector<FindingKey> keys;
  for (const xsim::FourStateFinding& finding : report.findings) {
    keys.emplace_back(finding.node, finding.object, finding.cycle,
                      finding.message);
  }
  return keys;
}

TEST(FourState, CleanLanesMatchTwoStateBatchedLanes) {
  // Property over generator designs: with every register reset tied off
  // and fully defined stimulus (lane 0 zero-filled, the rest random), a
  // lane the 4-state run reports clean ends exactly where its 2-state
  // batched lane does -- final memories, cycles, and completion (every
  // partition before the last stops on done, so completion is the stop
  // reason).
  elab::register_builtin_engines();
  constexpr std::uint32_t kLanes = 3;
  fuzz::GeneratorOptions options;
  options.max_units = 12;
  options.max_configurations = 2;
  std::size_t clean = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ir::Design design = fuzz::generate_design_seeded(seed, options);
    fuzz::tie_off_register_resets(design);
    auto prime = [&](std::deque<mem::MemoryPool>& pools) {
      pools.resize(kLanes);
      std::vector<mem::MemoryPool*> ptrs;
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        if (lane == 0) {
          zero_fill(design, pools[lane]);
        } else {
          fuzz::prime_lane_pool(design, seed, lane, pools[lane]);
        }
        ptrs.push_back(&pools[lane]);
      }
      return ptrs;
    };
    std::deque<mem::MemoryPool> two_pools;
    std::deque<mem::MemoryPool> four_pools;
    std::vector<mem::MemoryPool*> two = prime(two_pools);
    std::vector<mem::MemoryPool*> four = prime(four_pools);
    sim::EngineRunOptions run_options;
    run_options.max_cycles_per_partition =
        xsim::FourStateOptions{}.max_cycles_per_partition;
    std::vector<sim::EngineResult> runs;
    try {
      runs = elab::make_engine("batched")->run_batch(design, two, run_options);
    } catch (const util::SimError&) {
      continue;  // a known out-of-range write; 4-state may only see X
    }
    std::vector<xsim::FourStateReport> reports =
        xsim::run_four_state(design, four);
    ASSERT_EQ(reports.size(), kLanes);
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      if (!reports[lane].clean()) {
        continue;
      }
      ++clean;
      SCOPED_TRACE("seed " + std::to_string(seed) + " lane " +
                   std::to_string(lane));
      EXPECT_EQ(reports[lane].completed, runs[lane].completed);
      EXPECT_EQ(reports[lane].total_cycles, runs[lane].total_cycles());
      ASSERT_EQ(four_pools[lane].names(), two_pools[lane].names());
      for (const std::string& name : two_pools[lane].names()) {
        EXPECT_EQ(four_pools[lane].get(name).words(),
                  two_pools[lane].get(name).words())
            << name;
      }
    }
  }
  EXPECT_GE(clean, 40u);
}

TEST(FourState, FindingsStayInTheirLane) {
  // A design whose fresh memories carry X to an observable: a lane that
  // leaves them fresh reports, lanes whose stimulus defines them stay
  // clean, and every lane of the batch reports exactly what it reports
  // alone.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ir::Design design = fuzz::generate_design_seeded(seed, {});
    fuzz::tie_off_register_resets(design);
    if (design.memory_requirements().empty()) {
      continue;
    }
    auto solo = [&](bool defined) {
      mem::MemoryPool pool;
      if (defined) {
        zero_fill(design, pool);
      }
      return xsim::run_four_state(design, {&pool}).front();
    };
    xsim::FourStateReport defined = solo(true);
    xsim::FourStateReport fresh = solo(false);
    if (!defined.clean() || fresh.clean()) {
      continue;
    }
    std::deque<mem::MemoryPool> pools(3);
    zero_fill(design, pools[0]);
    zero_fill(design, pools[2]);
    std::vector<xsim::FourStateReport> reports =
        xsim::run_four_state(design, {&pools[0], &pools[1], &pools[2]});
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_TRUE(reports[0].clean());
    EXPECT_TRUE(reports[2].clean());
    EXPECT_FALSE(reports[1].clean());
    EXPECT_EQ(finding_keys(reports[1]), finding_keys(fresh));
    for (std::size_t lane : {0u, 2u}) {
      EXPECT_EQ(reports[lane].completed, defined.completed);
      EXPECT_EQ(reports[lane].total_cycles, defined.total_cycles);
    }
    EXPECT_EQ(reports[1].completed, fresh.completed);
    EXPECT_EQ(reports[1].total_cycles, fresh.total_cycles);
    return;
  }
  FAIL() << "no generated design reads a fresh memory into an observable";
}

TEST(FourState, PipelineStagesPowerUpUnknown) {
  // A latency-2 adder of two constants feeds a write port enabled on the
  // first two edges.  Before the first edge its output wire still holds
  // its defined initial zero; after it, the stage that powered up X
  // reaches the output, so the second write stores X.
  ir::Datapath dp;
  dp.name = "pipe";
  dp.wires = {{"one", 8}, {"sum", 8}, {"zero", 2}, {"c_we", 1}, {"done", 1}};
  dp.control_wires = {"c_we", "done"};
  dp.memories = {{"m", 4, 8, {}}};
  ir::Unit one;
  one.name = "k_one";
  one.kind = ir::UnitKind::kConst;
  one.width = 8;
  one.value = 1;
  one.ports = {{"out", "one"}};
  dp.units.push_back(one);
  ir::Unit zero = one;
  zero.name = "k_zero";
  zero.width = 2;
  zero.value = 0;
  zero.ports = {{"out", "zero"}};
  dp.units.push_back(zero);
  ir::Unit add;
  add.name = "p_add";
  add.kind = ir::UnitKind::kBinOp;
  add.binop = ops::BinOp::kAdd;
  add.width = 8;
  add.latency = 2;
  add.ports = {{"a", "one"}, {"b", "one"}, {"out", "sum"}};
  dp.units.push_back(add);
  ir::Unit store;
  store.name = "wr_m";
  store.kind = ir::UnitKind::kMemPort;
  store.width = 8;
  store.memory = "m";
  store.mem_mode = ir::MemMode::kWrite;
  store.ports = {{"addr", "zero"}, {"din", "sum"}, {"we", "c_we"}};
  dp.units.push_back(store);
  ir::Fsm fsm;
  fsm.name = "pipe_fsm";
  fsm.initial = "w1";
  fsm.done_wire = "done";
  for (const char* name : {"w1", "w2"}) {
    ir::State write;
    write.name = name;
    write.controls = {{"c_we", 1}};
    write.transitions.push_back(
        {ir::parse_guard("1"), std::string(name) == "w1" ? "w2" : "halt"});
    fsm.states.push_back(write);
  }
  ir::State halt;
  halt.name = "halt";
  halt.controls = {{"done", 1}};
  fsm.states.push_back(halt);
  ir::Design design =
      ir::make_single_design("pipe", {std::move(dp), std::move(fsm)});

  mem::MemoryPool pool;
  xsim::FourStateReport report = xsim::run_four_state(design, {&pool}).front();
  EXPECT_TRUE(report.completed);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].object, "m");
  EXPECT_EQ(report.findings[0].cycle, 1u);
  EXPECT_NE(report.findings[0].message.find("uninitialized (X) data"),
            std::string::npos);
}

TEST(FourState, KnownWriteBeyondDepthIsASimError) {
  // A write to a known address past a memory's depth is an
  // infrastructure error in 4-state mode too, as in 2-state runs -- not
  // a finding.
  ir::Datapath dp;
  dp.name = "oob";
  dp.wires = {{"addr", 2}, {"data", 8}, {"c_we", 1}, {"done", 1}};
  dp.control_wires = {"c_we", "done"};
  dp.memories = {{"m", 3, 8, {}}};
  auto konst = [&](const char* name, std::uint32_t width,
                   std::uint64_t value, const char* out) {
    ir::Unit unit;
    unit.name = name;
    unit.kind = ir::UnitKind::kConst;
    unit.width = width;
    unit.value = value;
    unit.ports = {{"out", out}};
    dp.units.push_back(unit);
  };
  konst("k_addr", 2, 3, "addr");
  konst("k_data", 8, 7, "data");
  ir::Unit store;
  store.name = "wr_m";
  store.kind = ir::UnitKind::kMemPort;
  store.width = 8;
  store.memory = "m";
  store.mem_mode = ir::MemMode::kWrite;
  store.ports = {{"addr", "addr"}, {"din", "data"}, {"we", "c_we"}};
  dp.units.push_back(store);
  ir::Fsm fsm;
  fsm.name = "oob_fsm";
  fsm.initial = "write";
  fsm.done_wire = "done";
  ir::State write;
  write.name = "write";
  write.controls = {{"c_we", 1}};
  write.transitions.push_back({ir::parse_guard("1"), "halt"});
  fsm.states.push_back(write);
  ir::State halt;
  halt.name = "halt";
  halt.controls = {{"done", 1}};
  fsm.states.push_back(halt);
  ir::Design design =
      ir::make_single_design("oob", {std::move(dp), std::move(fsm)});

  mem::MemoryPool two_state;
  EXPECT_THROW(elab::make_engine("batched")->run(design, two_state),
               util::SimError);
  mem::MemoryPool four_state;
  EXPECT_THROW(xsim::run_four_state(design, {&four_state}), util::SimError);
}

// --------------------------------------------- E10 injection recall loop

TEST(Inject, FourStateCatchesWhatTwoStateLaunders) {
  // The experiment-E10 loop at smoke scale: every injected
  // uninit-register defect must leave the 2-state differential lanes in
  // agreement (laundered) while the 4-state checker reports it.
  fuzz::GeneratorOptions options;
  options.max_units = 12;
  options.max_configurations = 2;
  fuzz::InjectionReport report = fuzz::run_injection(
      fuzz::InjectMode::kFourState, /*seed=*/7, /*runs=*/20, options);
  ASSERT_EQ(report.outcomes.size(), 1u);
  const fuzz::InjectionOutcome& outcome = report.outcomes.front();
  EXPECT_EQ(outcome.defect, fuzz::DefectClass::kUninitRegister);
  EXPECT_GT(outcome.injected, 0u);
  EXPECT_EQ(outcome.laundered, outcome.injected);
  EXPECT_EQ(outcome.detected, outcome.injected);
  EXPECT_EQ(outcome.missed, 0u);
  EXPECT_TRUE(report.ok());
}

TEST(Inject, UninitRegisterIsNotInStaticRecallGate) {
  // Static lint cannot see the defect; it must stay out of the
  // lint-recall class list or the gate would report misses.
  for (fuzz::DefectClass defect :
       fuzz::defect_classes(fuzz::InjectMode::kLint)) {
    EXPECT_NE(defect, fuzz::DefectClass::kUninitRegister);
  }
  const fuzz::DefectInfo& info =
      fuzz::defect_info(fuzz::DefectClass::kUninitRegister);
  EXPECT_EQ(info.rule, "FTI-L010");
  EXPECT_EQ(info.mode, fuzz::InjectMode::kFourState);
}

TEST(Inject, FourStateDetectorAttributesOnlyThePlantedDefect) {
  // A design whose fresh memories carry X to an observable: the 4-state
  // run is clean with every memory defined but reports findings when
  // memories start undefined.  The loop's detector must call it clean
  // before the edit -- its stimulus is defined -- and dirty only once
  // the uninit-register defect is planted, so a detection is the
  // planted defect's and not the fresh memories'.
  const fuzz::DefectInfo& info =
      fuzz::defect_info(fuzz::DefectClass::kUninitRegister);
  const std::uint64_t case_seed = fuzz::Rng::derive(/*seed=*/1, /*index=*/0);
  ir::Design design = fuzz::generate_design_seeded(case_seed, {});
  fuzz::tie_off_register_resets(design);
  mem::MemoryPool defined;
  zero_fill(design, defined);
  ASSERT_TRUE(xsim::run_four_state(design, {&defined}).front().clean());
  mem::MemoryPool fresh;
  ASSERT_FALSE(xsim::run_four_state(design, {&fresh}).front().clean());

  EXPECT_FALSE(fuzz::rule_fires(info, design));
  fuzz::Rng rng(fuzz::Rng::derive(case_seed, 0x11a7));
  ASSERT_TRUE(info.inject(design, rng));
  EXPECT_TRUE(fuzz::rule_fires(info, design));
}

// ------------------------------------------------- cross-check skip path

TEST(CrossCheck, SkipsLoudlyWithoutSimulator) {
  EnvGuard pin("FTI_XSIM_SIM", "/nonexistent/xsim-compiler");
  mem::MemoryPool pool;
  xsim::XsimCheck check = xsim::cross_check(accumulator_design(3), pool);
  EXPECT_FALSE(check.ran);
  EXPECT_FALSE(check.ok);
  EXPECT_FALSE(check.skip_reason.empty());

  xsim::XsimRun run = xsim::run_external(accumulator_design(3), pool);
  EXPECT_FALSE(run.ran);
  EXPECT_FALSE(run.skip_reason.empty());
  EXPECT_TRUE(run.error.empty());
}

// --------------------------------------------- real-simulator round trip

TEST(CrossCheck, RoundTripMatchesLevelizedEngine) {
  xsim::XsimStatus status = xsim::xsim_status();
  if (!status.available) {
    GTEST_SKIP() << "cosimulation unavailable: " << status.reason;
  }
  mem::MemoryPool pool;
  xsim::XsimCheck check = xsim::cross_check(accumulator_design(3), pool);
  ASSERT_TRUE(check.ran);
  EXPECT_TRUE(check.ok) << (check.mismatches.empty()
                                ? std::string("(no detail)")
                                : check.mismatches.front());
  EXPECT_TRUE(check.run.completed);
  EXPECT_GT(check.run.total_cycles, 0u);
  // The register's final value follows the Moore-timing contract the
  // engines implement: target + 1.
  auto it = check.run.finals.find("acc/acc_q");
  ASSERT_NE(it, check.run.finals.end());
  EXPECT_EQ(it->second, 4u);
}

}  // namespace
}  // namespace fti
