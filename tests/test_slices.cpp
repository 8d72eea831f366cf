// State-sliced sweeps (elab/slices.hpp): the batched engine evaluates
// only the combinational ops the occupied FSM states can observe, so
// every lane must still match an independent run of the reference
// interpreter -- the full-sweep oracle -- on cycles, stop reasons,
// finals, traces, memories and coverage, at lane counts that span a
// single word, a full word and a one-bit tail word.  The workloads
// cover a lockstep design (FDCT1), divergent lanes (Hamming, whose
// correction branch depends on each lane's codewords), an FSM of more
// than 64 states whose lanes diverge (so a state set spans two words),
// and branch arms that both hold data-dependent loops, so diverged
// lanes wait while the other arm's lanes run (also with a pipelined
// multiplier, whose lanes then sample at different cycles).  Budgets,
// 4-state finding cycles, the fault a batch names, the weak
// topological order and the slice tables and memos are pinned too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fti/cache/design_cache.hpp"
#include "fti/compiler/hls.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/elab/batched.hpp"
#include "fti/elab/checked.hpp"
#include "fti/elab/engines.hpp"
#include "fti/fuzz/reference.hpp"
#include "fti/golden/fdct.hpp"
#include "fti/golden/hamming.hpp"
#include "fti/golden/rng.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/lint/lint.hpp"
#include "fti/mem/storage.hpp"
#include "fti/obs/metrics.hpp"

namespace fti {
namespace {

class ObsOn {
 public:
  ObsOn() : was_enabled_(obs::enabled()) { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(was_enabled_); }

 private:
  bool was_enabled_;
};

/// A data-dependent branch with long arms: 109 FSM states, and lanes
/// whose words differ take different arms.
std::string branchy_source() {
  std::string source =
      "kernel branchy(int a[8], int b[8], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    int x = a[i];\n"
      "    if (x > 100) {\n";
  for (int k = 0; k < 8; ++k) {
    source += "      b[" + std::to_string(k) + "] = b[" + std::to_string(k) +
              "] + x * " + std::to_string(k + 1) + ";\n";
  }
  for (int k = 0; k < 8; ++k) {
    source += "      b[" + std::to_string(k) + "] = b[" + std::to_string(k) +
              "] ^ (x >> " + std::to_string(k) + ");\n";
  }
  source += "    } else {\n";
  for (int k = 0; k < 8; ++k) {
    source += "      b[" + std::to_string(k) + "] = b[" + std::to_string(k) +
              "] - x;\n";
  }
  for (int k = 0; k < 8; ++k) {
    source += "      b[" + std::to_string(k) + "] = b[" + std::to_string(k) +
              "] | (x << " + std::to_string(k) + ");\n";
  }
  source += "    }\n  }\n}\n";
  return source;
}

/// Both arms of a data-dependent branch hold a loop whose trip count
/// depends on the lane's data, so lanes in one arm wait for the other.
std::string arms_source() {
  return "kernel arms(int a[8], int b[8], int n) {\n"
         "  int i;\n"
         "  for (i = 0; i < n; i = i + 1) {\n"
         "    int x = a[i];\n"
         "    int c = 1;\n"
         "    if (x > 100) {\n"
         "      while (x > 100) {\n"
         "        x = x - 37;\n"
         "        c = c * 3;\n"
         "      }\n"
         "    } else {\n"
         "      while (x > 0) {\n"
         "        x = x - 13;\n"
         "        c = c * 5 + x;\n"
         "      }\n"
         "    }\n"
         "    b[i] = c;\n"
         "  }\n"
         "}\n";
}

struct Workload {
  std::string source;
  std::map<std::string, std::int64_t> args;
  /// The input arrays of `lane`.
  std::function<std::map<std::string, std::vector<std::uint64_t>>(
      std::size_t lane)>
      inputs;
  /// Pipeline latencies per FU class (none: combinational).
  std::map<std::string, unsigned> latencies = {};
};

Workload workload(const std::string& name) {
  if (name == "fdct1") {
    return {golden::fdct_source(1, false), {{"nblocks", 1}},
            [](std::size_t lane) {
              return std::map<std::string, std::vector<std::uint64_t>>{
                  {"in", golden::make_random_image(64, lane + 1)}};
            }};
  }
  if (name == "hamming") {
    return {golden::hamming_source(16), {{"n", 16}},
            [](std::size_t lane) {
              return std::map<std::string, std::vector<std::uint64_t>>{
                  {"code", golden::make_codewords(16, lane + 1, lane % 4)}};
            }};
  }
  auto values = [](std::size_t lane) {
    std::vector<std::uint64_t> a(8);
    for (std::size_t i = 0; i < 8; ++i) {
      a[i] = (lane * 53 + i * 71) % 200;
    }
    return std::map<std::string, std::vector<std::uint64_t>>{{"a", a}};
  };
  if (name == "arms") {
    return {arms_source(), {{"n", 8}}, values};
  }
  if (name == "arms_piped") {
    return {arms_source(), {{"n", 8}}, values, {{"mul", 2}}};
  }
  return {branchy_source(), {{"n", 8}}, values};
}

/// Creates every array parameter of `source` in `pool` and loads the
/// lane's inputs.
void prime(mem::MemoryPool& pool, const Workload& work, std::size_t lane) {
  compiler::Program program = compiler::parse_program(work.source);
  for (const auto& param : program.params) {
    if (param.is_array) {
      pool.create(param.name, param.array_size,
                  compiler::width_of(param.type));
    }
  }
  for (const auto& [array, values] : work.inputs(lane)) {
    harness::load_inputs(pool, array, values);
  }
}

ir::Design compile(const Workload& work) {
  compiler::CompileOptions options;
  options.scalar_args = work.args;
  options.resources.latencies = work.latencies;
  return compiler::compile_source(work.source, options).design;
}

void expect_same_coverage(const sim::FsmCoverage& got,
                          const sim::FsmCoverage& want,
                          const std::string& where) {
  ASSERT_EQ(got.states.size(), want.states.size()) << where;
  for (std::size_t s = 0; s < want.states.size(); ++s) {
    EXPECT_EQ(got.states[s].name, want.states[s].name) << where;
    EXPECT_EQ(got.states[s].visits, want.states[s].visits)
        << where << " state " << want.states[s].name;
  }
  ASSERT_EQ(got.transitions.size(), want.transitions.size()) << where;
  for (std::size_t t = 0; t < want.transitions.size(); ++t) {
    EXPECT_EQ(got.transitions[t].taken, want.transitions[t].taken)
        << where << " transition " << want.transitions[t].from << " -> "
        << want.transitions[t].to;
  }
}

/// One lane's partition against the reference's: everything a lane
/// reports but the event counts the reference defines differently.
void expect_same_partition(const sim::EnginePartition& got,
                           const sim::EnginePartition& want,
                           const std::string& where) {
  EXPECT_EQ(got.cycles, want.cycles) << where;
  EXPECT_EQ(got.reason, want.reason) << where;
  EXPECT_EQ(got.finals, want.finals) << where;
  EXPECT_EQ(got.traces, want.traces) << where;
  expect_same_coverage(got.coverage, want.coverage, where);
}

struct ParityCase {
  const char* workload;
  std::size_t lanes;
};

std::string case_name(const ::testing::TestParamInfo<ParityCase>& info) {
  return std::string(info.param.workload) + "_" +
         std::to_string(info.param.lanes) + "_lanes";
}

class SliceParity : public ::testing::TestWithParam<ParityCase> {};

INSTANTIATE_TEST_SUITE_P(
    Workloads, SliceParity,
    ::testing::Values(ParityCase{"fdct1", 1}, ParityCase{"fdct1", 8},
                      ParityCase{"fdct1", 64}, ParityCase{"fdct1", 65},
                      ParityCase{"hamming", 1}, ParityCase{"hamming", 8},
                      ParityCase{"hamming", 64}, ParityCase{"hamming", 65},
                      ParityCase{"branchy", 1}, ParityCase{"branchy", 8},
                      ParityCase{"branchy", 64}, ParityCase{"branchy", 65},
                      ParityCase{"arms", 1}, ParityCase{"arms", 8},
                      ParityCase{"arms", 64}, ParityCase{"arms", 65},
                      ParityCase{"arms_piped", 1}, ParityCase{"arms_piped", 8},
                      ParityCase{"arms_piped", 64},
                      ParityCase{"arms_piped", 65}),
    case_name);

/// One independent reference run per lane, the oracle of every check.
struct ReferenceRuns {
  std::deque<mem::MemoryPool> pools;
  std::vector<sim::EngineResult> runs;
};

ReferenceRuns run_reference(const ir::Design& design, const Workload& work,
                            std::size_t lanes,
                            const sim::EngineRunOptions& options) {
  ReferenceRuns reference;
  reference.pools.resize(lanes);
  fuzz::ReferenceEngine engine;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    prime(reference.pools[lane], work, lane);
    reference.runs.push_back(
        engine.run(design, reference.pools[lane], options));
  }
  return reference;
}

/// Every workload finishes in under 1,000 cycles; the budget turns a
/// lane that never finishes into a fast failure instead of a long run
/// whose traces fill memory.
constexpr std::uint64_t kCycleBudget = 5'000;

TEST_P(SliceParity, TwoStateLanesMatchReference) {
  const Workload work = workload(GetParam().workload);
  const std::size_t lanes = GetParam().lanes;
  const ir::Design design = compile(work);
  const elab::CheckedDesign checked(design);
  sim::EngineRunOptions options;
  options.collect_wire_data = true;
  options.max_cycles_per_partition = kCycleBudget;
  const ReferenceRuns reference =
      run_reference(design, work, lanes, options);

  std::deque<mem::MemoryPool> pools(lanes);
  std::vector<mem::MemoryPool*> ptrs;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    prime(pools[lane], work, lane);
    ptrs.push_back(&pools[lane]);
  }
  std::vector<sim::EngineResult> runs =
      elab::make_engine("batched")->run_batch(checked, ptrs, options);
  ASSERT_EQ(runs.size(), lanes);

  std::unique_ptr<sim::Engine> single = elab::make_engine("levelized");
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::string where = "lane " + std::to_string(lane);
    const sim::EngineResult& want = reference.runs[lane];
    const sim::EngineResult& got = runs[lane];
    ASSERT_TRUE(want.completed) << where;
    ASSERT_EQ(got.completed, want.completed) << where;
    ASSERT_EQ(got.partitions.size(), want.partitions.size()) << where;
    // Events count clocked changes and memory writes, which the
    // reference (it counts combinational changes too) does not report
    // separately: the lane alone, at one lane, is their oracle.
    mem::MemoryPool alone_pool;
    prime(alone_pool, work, lane);
    const sim::EngineResult alone = single->run(checked, alone_pool, options);
    ASSERT_EQ(alone.partitions.size(), got.partitions.size()) << where;
    for (std::size_t p = 0; p < want.partitions.size(); ++p) {
      const sim::EnginePartition& g = got.partitions[p];
      const sim::EnginePartition& w = want.partitions[p];
      EXPECT_EQ(g.cycles, w.cycles) << where;
      EXPECT_EQ(g.reason, w.reason) << where;
      EXPECT_EQ(g.finals, w.finals) << where;
      EXPECT_EQ(g.traces, w.traces) << where;
      expect_same_coverage(g.coverage, w.coverage, where);
      EXPECT_EQ(g.stats.events, alone.partitions[p].stats.events) << where;
      EXPECT_EQ(g.stats.evaluations, alone.partitions[p].stats.evaluations)
          << where;
    }
    for (const std::string& array : reference.pools[lane].names()) {
      EXPECT_EQ(pools[lane].get(array).words(),
                reference.pools[lane].get(array).words())
          << where << " array '" << array << "'";
      EXPECT_EQ(alone_pool.get(array).words(),
                reference.pools[lane].get(array).words())
          << where << " alone, array '" << array << "'";
    }
  }
}

TEST_P(SliceParity, FourStateLanesMatchReference) {
  // Fully defined stimulus: the X mode must raise no finding and end
  // with the 2-state oracle's cycles and memories.
  const Workload work = workload(GetParam().workload);
  const std::size_t lanes = GetParam().lanes;
  const ir::Design design = compile(work);
  sim::EngineRunOptions budget;
  budget.max_cycles_per_partition = kCycleBudget;
  const ReferenceRuns reference = run_reference(design, work, lanes, budget);

  std::deque<mem::MemoryPool> pools(lanes);
  std::vector<mem::MemoryPool*> ptrs;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    prime(pools[lane], work, lane);
    ptrs.push_back(&pools[lane]);
  }
  elab::FourStateOptions four_state;
  four_state.max_cycles_per_partition = kCycleBudget;
  std::vector<elab::FourStateLane> runs =
      elab::run_four_state_lanes(design, ptrs, four_state);
  ASSERT_EQ(runs.size(), lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::string where = "lane " + std::to_string(lane);
    EXPECT_TRUE(runs[lane].completed) << where;
    EXPECT_EQ(runs[lane].total_cycles, reference.runs[lane].total_cycles())
        << where;
    EXPECT_TRUE(runs[lane].findings.empty())
        << where << ": " << runs[lane].findings.front().message;
    for (const std::string& array : reference.pools[lane].names()) {
      EXPECT_EQ(pools[lane].get(array).words(),
                reference.pools[lane].get(array).words())
          << where << " array '" << array << "'";
    }
  }
}

TEST(StateSlices, BranchyFsmSpansTwoStateWords) {
  const ir::Design design = compile(workload("branchy"));
  const elab::CheckedDesign checked(design);
  const std::string& node = design.rtg.initial;
  const elab::StateSlices& slices = checked.slices(node);
  ASSERT_GT(slices.states.size(), 64u);
  EXPECT_EQ(slices.state_words, 2u);
  EXPECT_EQ(slices.op_states.size(), slices.ops * 2);
}

TEST(StateSlices, SlicesAreSortedSubsetsMatchingTheStateSets) {
  for (const char* name : {"fdct1", "hamming", "branchy"}) {
    const ir::Design design = compile(workload(name));
    const elab::CheckedDesign checked(design);
    for (const auto& [node, config] : design.configurations) {
      const elab::StateSlices& slices = checked.slices(node);
      ASSERT_EQ(slices.states.size(), config.fsm.states.size()) << name;
      std::size_t total = 0;
      for (std::size_t s = 0; s < slices.states.size(); ++s) {
        const std::vector<std::uint32_t>& ops = slices.states[s].ops;
        EXPECT_TRUE(std::is_sorted(ops.begin(), ops.end())) << name;
        EXPECT_LT(ops.size(), slices.ops) << name << " state " << s;
        total += ops.size();
        for (std::uint32_t op : ops) {
          ASSERT_LT(op, slices.ops);
          EXPECT_NE(slices.op_states[op * slices.state_words + s / 64] &
                        (1ull << (s % 64)),
                    0u);
        }
      }
      std::size_t members = 0;
      for (std::uint64_t word : slices.op_states) {
        members += static_cast<std::size_t>(std::popcount(word));
      }
      EXPECT_EQ(members, total) << name;
    }
  }
}

/// A register samples a 3-input mux whose select is a control: states
/// s0..s2 select inputs 0..2 (q+1, q+2, q+3), s3 selects 3, past the
/// last input, so the mux reads zero.
ir::Design control_select_design() {
  ir::Datapath dp;
  dp.name = "select";
  dp.wires = {{"q", 8},   {"k1", 8},   {"k2", 8},  {"k3", 8},
              {"in0", 8}, {"in1", 8},  {"in2", 8}, {"m", 8},
              {"sel", 2}, {"c_en", 1}, {"done", 1}};
  dp.control_wires = {"sel", "c_en", "done"};
  auto add = [&dp](const char* name, ir::UnitKind kind,
                   std::map<std::string, std::string, std::less<>> ports) {
    ir::Unit& unit = dp.units.emplace_back();
    unit.name = name;
    unit.kind = kind;
    unit.width = 8;
    unit.ports = std::move(ports);
    return &unit;
  };
  add("c1", ir::UnitKind::kConst, {{"out", "k1"}})->value = 1;
  add("c2", ir::UnitKind::kConst, {{"out", "k2"}})->value = 2;
  add("c3", ir::UnitKind::kConst, {{"out", "k3"}})->value = 3;
  add("add0", ir::UnitKind::kBinOp, {{"a", "q"}, {"b", "k1"}, {"out", "in0"}});
  add("add1", ir::UnitKind::kBinOp, {{"a", "q"}, {"b", "k2"}, {"out", "in1"}});
  add("add2", ir::UnitKind::kBinOp, {{"a", "q"}, {"b", "k3"}, {"out", "in2"}});
  add("mux", ir::UnitKind::kMux,
      {{"sel", "sel"}, {"in0", "in0"}, {"in1", "in1"}, {"in2", "in2"},
       {"out", "m"}})
      ->mux_inputs = 3;
  add("r", ir::UnitKind::kRegister, {{"d", "m"}, {"q", "q"}, {"en", "c_en"}});

  ir::Fsm fsm;
  fsm.name = "select_fsm";
  fsm.initial = "s0";
  fsm.done_wire = "done";
  const ir::Guard always = ir::parse_guard("1");
  fsm.states = {{"s0", {{"sel", 0}, {"c_en", 1}}, {{always, "s1"}}},
                {"s1", {{"sel", 1}, {"c_en", 1}}, {{always, "s2"}}},
                {"s2", {{"sel", 2}, {"c_en", 1}}, {{always, "s3"}}},
                {"s3", {{"sel", 3}, {"c_en", 1}}, {{always, "halt"}}},
                {"halt", {{"done", 1}}, {}}};
  return ir::make_single_design("select", {std::move(dp), std::move(fsm)});
}

TEST(StateSlices, ControlSelectedMuxKeepsOnlyTheSelectedInput) {
  const ir::Design design = control_select_design();
  const elab::CheckedDesign checked(design);
  const elab::StateSlices& slices = checked.slices(design.rtg.initial);
  // The non-constant steps in rank order: add0, add1, add2, then mux.
  ASSERT_EQ(slices.ops, 4u);
  using Ops = std::vector<std::uint32_t>;
  EXPECT_EQ(slices.states[0].ops, (Ops{0, 3}));
  EXPECT_EQ(slices.states[1].ops, (Ops{1, 3}));
  EXPECT_EQ(slices.states[2].ops, (Ops{2, 3}));
  EXPECT_EQ(slices.states[3].ops, (Ops{3}))
      << "a select past the last input reads no input";
  EXPECT_EQ(slices.states[4].ops, Ops{}) << "halt loads nothing";
}

/// Runs `design` (no memories) on the reference interpreter and on
/// 1, 8, 64 and 65 batched lanes; every lane must match the reference.
/// Returns the reference run.
sim::EngineResult expect_lanes_match_reference(const ir::Design& design) {
  sim::EngineRunOptions options;
  options.collect_wire_data = true;
  options.max_cycles_per_partition = 100;
  mem::MemoryPool reference_pool;
  sim::EngineResult want =
      fuzz::ReferenceEngine().run(design, reference_pool, options);
  EXPECT_TRUE(want.completed);
  for (std::size_t lanes : {1u, 8u, 64u, 65u}) {
    std::deque<mem::MemoryPool> pools(lanes);
    std::vector<mem::MemoryPool*> ptrs;
    for (mem::MemoryPool& pool : pools) {
      ptrs.push_back(&pool);
    }
    std::vector<sim::EngineResult> runs =
        elab::make_engine("batched")->run_batch(design, ptrs, options);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const sim::EnginePartition& got = runs[lane].partitions.at(0);
      const sim::EnginePartition& w = want.partitions.at(0);
      EXPECT_EQ(got.cycles, w.cycles) << lanes << " lanes, lane " << lane;
      EXPECT_EQ(got.finals, w.finals) << lanes << " lanes, lane " << lane;
      EXPECT_EQ(got.traces, w.traces) << lanes << " lanes, lane " << lane;
    }
  }
  return want;
}

TEST(StateSlices, ControlSelectPastLastInputMatchesReference) {
  const sim::EngineResult want =
      expect_lanes_match_reference(control_select_design());
  // q: 0 -> 1 (q+1) -> 3 (q+2) -> 6 (q+3) -> 0 (select past the inputs).
  EXPECT_EQ(want.partitions.at(0).traces.at("q"),
            (std::vector<std::uint64_t>{1, 3, 6, 0}));
}

/// A counter q runs to 12 while a latency-2 unit computes q * 3 + 1 and
/// a register samples its output.  Nothing but the pipelined unit reads
/// the product q * 3, so only its operand roots keep it in the slice.
ir::Design pipelined_operand_design() {
  ir::Datapath dp;
  dp.name = "piped";
  dp.wires = {{"q", 8},   {"k1", 8}, {"k3", 8},   {"k_lim", 8},
              {"inc", 8}, {"t", 8},  {"p", 8},    {"r", 8},
              {"lt", 1},  {"c_en", 1}, {"done", 1}};
  dp.control_wires = {"c_en", "done"};
  dp.status_wires = {"lt"};
  auto add = [&dp](const char* name, ir::UnitKind kind,
                   std::map<std::string, std::string, std::less<>> ports) {
    ir::Unit& unit = dp.units.emplace_back();
    unit.name = name;
    unit.kind = kind;
    unit.width = 8;
    unit.ports = std::move(ports);
    return &unit;
  };
  add("c1", ir::UnitKind::kConst, {{"out", "k1"}})->value = 1;
  add("c3", ir::UnitKind::kConst, {{"out", "k3"}})->value = 3;
  add("c_lim", ir::UnitKind::kConst, {{"out", "k_lim"}})->value = 12;
  add("add", ir::UnitKind::kBinOp, {{"a", "q"}, {"b", "k1"}, {"out", "inc"}});
  add("mul", ir::UnitKind::kBinOp, {{"a", "q"}, {"b", "k3"}, {"out", "t"}})
      ->binop = ops::BinOp::kMul;
  add("pipe", ir::UnitKind::kBinOp, {{"a", "t"}, {"b", "k1"}, {"out", "p"}})
      ->latency = 2;
  add("cmp", ir::UnitKind::kBinOp, {{"a", "q"}, {"b", "k_lim"}, {"out", "lt"}})
      ->binop = ops::BinOp::kLtu;
  add("count", ir::UnitKind::kRegister,
      {{"d", "inc"}, {"q", "q"}, {"en", "c_en"}});
  add("sample", ir::UnitKind::kRegister,
      {{"d", "p"}, {"q", "r"}, {"en", "c_en"}});

  ir::Fsm fsm;
  fsm.name = "piped_fsm";
  fsm.initial = "run";
  fsm.done_wire = "done";
  fsm.states = {{"run", {{"c_en", 1}}, {{ir::parse_guard("!lt"), "halt"}}},
                {"halt", {{"done", 1}}, {}}};
  return ir::make_single_design("piped", {std::move(dp), std::move(fsm)});
}

/// A free-running tick feeds a latency-2 unit (tick * 3 + 1) on every
/// edge.  Each lane counts q up to the limit in its memory `lim`, then
/// passes one idle state before `take` samples the unit's output, so
/// lanes with lower limits wait in `idle` with products in flight, and
/// must resume with the ring slot of their own cycle count.
ir::Design waiting_pipeline_design() {
  ir::Datapath dp;
  dp.name = "waits";
  dp.wires = {{"q", 8},   {"tick", 8}, {"k0", 8},  {"k1", 8},   {"k3", 8},
              {"lim", 8}, {"inc", 8},  {"next", 8}, {"t", 8},   {"p", 8},
              {"r", 8},   {"lt", 1},   {"c_en", 1}, {"c_s", 1}, {"done", 1}};
  dp.control_wires = {"c_en", "c_s", "done"};
  dp.status_wires = {"lt"};
  dp.memories = {{"lim", 1, 8, {}}};
  auto add = [&dp](const char* name, ir::UnitKind kind,
                   std::map<std::string, std::string, std::less<>> ports) {
    ir::Unit& unit = dp.units.emplace_back();
    unit.name = name;
    unit.kind = kind;
    unit.width = 8;
    unit.ports = std::move(ports);
    return &unit;
  };
  add("c0", ir::UnitKind::kConst, {{"out", "k0"}})->value = 0;
  add("c1", ir::UnitKind::kConst, {{"out", "k1"}})->value = 1;
  add("c3", ir::UnitKind::kConst, {{"out", "k3"}})->value = 3;
  ir::Unit* read =
      add("rd", ir::UnitKind::kMemPort, {{"addr", "k0"}, {"dout", "lim"}});
  read->memory = "lim";
  read->mem_mode = ir::MemMode::kRead;
  add("add", ir::UnitKind::kBinOp, {{"a", "q"}, {"b", "k1"}, {"out", "inc"}});
  add("step", ir::UnitKind::kBinOp,
      {{"a", "tick"}, {"b", "k1"}, {"out", "next"}});
  add("mul", ir::UnitKind::kBinOp, {{"a", "tick"}, {"b", "k3"}, {"out", "t"}})
      ->binop = ops::BinOp::kMul;
  add("pipe", ir::UnitKind::kBinOp, {{"a", "t"}, {"b", "k1"}, {"out", "p"}})
      ->latency = 2;
  add("cmp", ir::UnitKind::kBinOp, {{"a", "q"}, {"b", "lim"}, {"out", "lt"}})
      ->binop = ops::BinOp::kLtu;
  add("count", ir::UnitKind::kRegister,
      {{"d", "inc"}, {"q", "q"}, {"en", "c_en"}});
  add("ticker", ir::UnitKind::kRegister, {{"d", "next"}, {"q", "tick"}});
  add("sample", ir::UnitKind::kRegister,
      {{"d", "p"}, {"q", "r"}, {"en", "c_s"}});

  ir::Fsm fsm;
  fsm.name = "waits_fsm";
  fsm.initial = "run";
  fsm.done_wire = "done";
  const ir::Guard always = ir::parse_guard("1");
  fsm.states = {{"run", {{"c_en", 1}}, {{ir::parse_guard("!lt"), "idle"}}},
                {"idle", {}, {{always, "take"}}},
                {"take", {{"c_s", 1}}, {{always, "halt"}}},
                {"halt", {{"done", 1}}, {}}};
  return ir::make_single_design("waits", {std::move(dp), std::move(fsm)});
}

TEST(Reconvergence, PipelineRingFollowsEachLanesOwnCycles) {
  const ir::Design design = waiting_pipeline_design();
  const elab::CheckedDesign checked(design);
  sim::EngineRunOptions options;
  options.collect_wire_data = true;
  options.max_cycles_per_partition = 200;
  auto prime_lim = [](mem::MemoryPool& pool, std::size_t lane) {
    pool.create("lim", 1, 8).write(0, 2 + lane % 7);
  };
  std::vector<sim::EngineResult> want;
  for (std::size_t lane = 0; lane < 65; ++lane) {
    mem::MemoryPool pool;
    prime_lim(pool, lane);
    want.push_back(fuzz::ReferenceEngine().run(design, pool, options));
    ASSERT_TRUE(want.back().completed);
  }
  EXPECT_NE(want[0].partitions.at(0).finals.at("r"),
            want[1].partitions.at(0).finals.at("r"));
  for (std::size_t lanes : {1u, 8u, 64u, 65u}) {
    std::deque<mem::MemoryPool> pools(lanes);
    std::vector<mem::MemoryPool*> ptrs;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      prime_lim(pools[lane], lane);
      ptrs.push_back(&pools[lane]);
    }
    const std::vector<sim::EngineResult> runs =
        elab::make_engine("batched")->run_batch(checked, ptrs, options);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      expect_same_partition(
          runs[lane].partitions.at(0), want[lane].partitions.at(0),
          std::to_string(lanes) + " lanes, lane " + std::to_string(lane));
    }
  }
}

TEST(StateSlices, PipelinedOperandsStayInEverySlice) {
  const sim::EngineResult want =
      expect_lanes_match_reference(pipelined_operand_design());
  EXPECT_FALSE(want.partitions.at(0).traces.at("r").empty());
}

TEST(StateSlices, SweepEvaluatesOnlyTheOccupiedSlices) {
  ObsOn obs_on;
  const Workload work = workload("fdct1");
  const ir::Design design = compile(work);
  const elab::CheckedDesign checked(design);
  obs::Counter& swept = obs::counter("engine.ops_swept");
  const std::uint64_t before = swept.value();
  mem::MemoryPool pool;
  prime(pool, work, 0);
  sim::EngineRunOptions options;
  options.max_cycles_per_partition = kCycleBudget;
  const sim::EngineResult run =
      elab::make_engine("levelized")->run(checked, pool, options);
  ASSERT_TRUE(run.completed);
  std::uint64_t full = 0;  // what an unsliced sweep would evaluate
  for (const sim::EnginePartition& partition : run.partitions) {
    full += (partition.cycles + 1) * checked.slices(partition.node).ops;
  }
  const std::uint64_t ops = swept.value() - before;
  EXPECT_GT(ops, 0u);
  EXPECT_LT(ops * 4, full) << "FDCT1 states observe a small share of ops";
}

TEST(CheckedDesign, SlicesAreBuiltOncePerNode) {
  ObsOn obs_on;
  obs::Counter& builds = obs::counter("elab.slice_builds");
  const ir::Design design = compile(workload("hamming"));
  const elab::CheckedDesign checked(design);
  const std::uint64_t before = builds.value();
  const elab::StateSlices& first = checked.slices(design.rtg.initial);
  const elab::StateSlices& second = checked.slices(design.rtg.initial);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(builds.value() - before, 1u);
}

TEST(CheckedDesign, ConcurrentFirstRequestsBuildOnce) {
  // Four threads lint and run the same fresh handle at once: each memo is
  // built by one of them and every thread sees the same results.
  ObsOn obs_on;
  obs::Counter& slices = obs::counter("elab.slice_builds");
  obs::Counter& resolutions = obs::counter("elab.slot_resolutions");
  obs::Counter& graphs = obs::counter("ir.comb_graph_builds");
  const Workload work = workload("hamming");
  const ir::Design design = compile(work);
  const elab::CheckedDesign checked(design);
  const std::uint64_t slices_before = slices.value();
  const std::uint64_t resolutions_before = resolutions.value();
  const std::uint64_t graphs_before = graphs.value();
  constexpr std::size_t kThreads = 4;
  std::vector<std::uint64_t> cycles(kThreads);
  std::vector<std::string> lint_json(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      lint_json[t] = lint::to_json(lint::lint_design(checked));
      std::deque<mem::MemoryPool> pools(8);
      std::vector<mem::MemoryPool*> ptrs;
      for (std::size_t lane = 0; lane < pools.size(); ++lane) {
        prime(pools[lane], work, lane);
        ptrs.push_back(&pools[lane]);
      }
      for (const sim::EngineResult& run :
           elab::make_engine("batched")->run_batch(checked, ptrs, {})) {
        cycles[t] += run.total_cycles();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(slices.value() - slices_before, 1u);
  EXPECT_EQ(resolutions.value() - resolutions_before, 1u);
  EXPECT_EQ(graphs.value() - graphs_before, design.configuration_count())
      << "one graph per node";
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(cycles[t], cycles[0]);
    EXPECT_EQ(lint_json[t], lint_json[0]);
  }
}

harness::TestCase hamming_case() {
  harness::TestCase test;
  test.name = "hamming";
  test.source = golden::hamming_source(8);
  test.scalar_args = {{"n", 8}};
  test.inputs = {{"code", golden::make_codewords(8, 3, 2)}};
  test.max_cycles = kCycleBudget;
  return test;
}

TEST(CheckedDesign, EventEngineJobResolvesNoSlotTable) {
  ObsOn obs_on;
  obs::Counter& resolutions = obs::counter("elab.slot_resolutions");
  harness::VerifyOptions options;
  options.engine = "event";
  std::uint64_t before = resolutions.value();
  harness::VerifyOutcome event =
      harness::run_test_case(hamming_case(), options);
  ASSERT_TRUE(event.passed) << event.message;
  EXPECT_EQ(resolutions.value(), before)
      << "the name-wired event engine resolved a slot table";

  options.engine = "batched";
  before = resolutions.value();
  harness::VerifyOutcome batched =
      harness::run_test_case(hamming_case(), options);
  ASSERT_TRUE(batched.passed) << batched.message;
  EXPECT_EQ(resolutions.value() - before, 1u) << "one per configuration";
}

TEST(CheckedDesign, WarmHitBuildsNoSlicesOrSlots) {
  ObsOn obs_on;
  obs::Counter& slices = obs::counter("elab.slice_builds");
  obs::Counter& resolutions = obs::counter("elab.slot_resolutions");
  cache::DesignCache cache(4);
  harness::VerifyOptions options;
  options.engine = "batched";
  options.lanes = 8;
  options.design_cache = &cache;
  harness::VerifyOutcome cold = harness::run_test_case(hamming_case(), options);
  ASSERT_TRUE(cold.passed) << cold.message;

  const std::uint64_t slices_before = slices.value();
  const std::uint64_t resolutions_before = resolutions.value();
  harness::VerifyOutcome warm = harness::run_test_case(hamming_case(), options);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.passed) << warm.message;
  EXPECT_EQ(slices.value(), slices_before);
  EXPECT_EQ(resolutions.value(), resolutions_before);
}

/// Primes `lanes` pools of `work` and returns pointers to them.
std::vector<mem::MemoryPool*> primed(std::deque<mem::MemoryPool>& pools,
                                     const Workload& work, std::size_t lanes) {
  pools.resize(lanes);
  std::vector<mem::MemoryPool*> ptrs;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    prime(pools[lane], work, lane);
    ptrs.push_back(&pools[lane]);
  }
  return ptrs;
}

TEST(Reconvergence, PipelinedWorkloadHasALatencyTwoUnit) {
  const ir::Design design = compile(workload("arms_piped"));
  bool piped = false;
  for (const auto& [node, config] : design.configurations) {
    for (const ir::Unit& unit : config.datapath.units) {
      piped = piped || unit.latency >= 2;
    }
  }
  EXPECT_TRUE(piped);
}

/// A data-dependent inner loop: lane 0 spins in it far past the budget,
/// the others leave it and then wait behind lane 0 (the loop comes
/// before the store in the weak topological order) until its budget
/// runs out, and only then finish.
TEST(Reconvergence, BudgetRunsOutInAnEarlyLoopWhileOthersFinish) {
  const Workload work{
      "kernel spin(int a[4], int b[4], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    int v = a[i];\n"
      "    int c = 0;\n"
      "    while (v > 0) {\n"
      "      v = v - 1;\n"
      "      c = c + 1;\n"
      "    }\n"
      "    b[i] = c;\n"
      "  }\n"
      "}\n",
      {{"n", 4}},
      [](std::size_t lane) {
        std::vector<std::uint64_t> a = {lane == 0 ? 1'000'000u : 5 + lane % 7,
                                        3, 1 + lane % 5, 2};
        return std::map<std::string, std::vector<std::uint64_t>>{{"a", a}};
      }};
  const ir::Design design = compile(work);
  const elab::CheckedDesign checked(design);
  sim::EngineRunOptions options;
  options.collect_wire_data = true;
  options.max_cycles_per_partition = 2'000;
  const ReferenceRuns reference = run_reference(design, work, 65, options);
  EXPECT_EQ(reference.runs[0].partitions.at(0).reason,
            sim::Kernel::StopReason::kMaxTime);
  EXPECT_EQ(reference.runs[1].partitions.at(0).reason,
            sim::Kernel::StopReason::kDoneNet);
  for (std::size_t lanes : {1u, 8u, 64u, 65u}) {
    std::deque<mem::MemoryPool> pools;
    std::vector<sim::EngineResult> runs = elab::make_engine("batched")->run_batch(
        checked, primed(pools, work, lanes), options);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::string where =
          std::to_string(lanes) + " lanes, lane " + std::to_string(lane);
      ASSERT_EQ(runs[lane].completed, reference.runs[lane].completed) << where;
      expect_same_partition(runs[lane].partitions.at(0),
                            reference.runs[lane].partitions.at(0), where);
      EXPECT_EQ(pools[lane].get("b").words(),
                reference.pools[lane].get("b").words())
          << where;
    }
  }
}

/// Each lane's 4-state findings, with their cycles, match the lane run
/// alone: `u` is never primed, so it reads X, and the first store of X
/// data comes after a loop whose trip count is the lane's own.
TEST(Reconvergence, FourStateFindingCyclesMatchOneLaneRuns) {
  const std::string source =
      "kernel late(int a[4], int u[4], int b[4], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    int v = a[i];\n"
      "    int c = 0;\n"
      "    while (v > 0) {\n"
      "      v = v - 1;\n"
      "      c = c + 1;\n"
      "    }\n"
      "    b[i] = c + u[i];\n"
      "  }\n"
      "}\n";
  compiler::CompileOptions compile_options;
  compile_options.scalar_args = {{"n", 4}};
  const ir::Design design =
      compiler::compile_source(source, compile_options).design;
  const elab::CheckedDesign checked(design);
  auto prime_a = [](mem::MemoryPool& pool, std::size_t lane) {
    harness::load_inputs(pool, "a",
                         {1 + lane % 9, 2 + lane % 3, 4, 1 + lane % 2});
  };
  elab::FourStateOptions options;
  options.max_cycles_per_partition = 5'000;
  std::vector<elab::FourStateLane> alone;
  for (std::size_t lane = 0; lane < 65; ++lane) {
    mem::MemoryPool pool;
    pool.create("a", 4, 32);
    prime_a(pool, lane);
    alone.push_back(elab::run_four_state_lanes(checked, {&pool}, options)[0]);
    ASSERT_FALSE(alone.back().findings.empty()) << "lane " << lane;
  }
  EXPECT_NE(alone[0].findings.front().cycle, alone[1].findings.front().cycle)
      << "the lanes meet the X at different cycles";
  for (std::size_t lanes : {8u, 64u, 65u}) {
    std::deque<mem::MemoryPool> pools(lanes);
    std::vector<mem::MemoryPool*> ptrs;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      pools[lane].create("a", 4, 32);
      prime_a(pools[lane], lane);
      ptrs.push_back(&pools[lane]);
    }
    const std::vector<elab::FourStateLane> runs =
        elab::run_four_state_lanes(checked, ptrs, options);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::string where =
          std::to_string(lanes) + " lanes, lane " + std::to_string(lane);
      EXPECT_EQ(runs[lane].completed, alone[lane].completed) << where;
      EXPECT_EQ(runs[lane].total_cycles, alone[lane].total_cycles) << where;
      ASSERT_EQ(runs[lane].findings.size(), alone[lane].findings.size())
          << where;
      for (std::size_t f = 0; f < alone[lane].findings.size(); ++f) {
        const elab::FourStateFinding& got = runs[lane].findings[f];
        const elab::FourStateFinding& want = alone[lane].findings[f];
        EXPECT_EQ(got.cycle, want.cycle) << where << ": " << want.message;
        EXPECT_EQ(got.object, want.object) << where;
        EXPECT_EQ(got.message, want.message) << where;
      }
    }
  }
}

/// The write to b lands after a loop of a[0] iterations at address
/// a[1]; depth 4, so a[1] >= 4 faults.
std::string batch_abort_message(
    const std::vector<std::vector<std::uint64_t>>& lanes) {
  const std::string source =
      "kernel wild(int a[2], int b[4]) {\n"
      "  int v = a[0];\n"
      "  while (v > 0) {\n"
      "    v = v - 1;\n"
      "  }\n"
      "  b[a[1]] = v;\n"
      "}\n";
  const ir::Design design =
      compiler::compile_source(source, compiler::CompileOptions{}).design;
  std::deque<mem::MemoryPool> pools(lanes.size());
  std::vector<mem::MemoryPool*> ptrs;
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    pools[lane].create("a", 2, 32);
    pools[lane].create("b", 4, 32);
    harness::load_inputs(pools[lane], "a", lanes[lane]);
    ptrs.push_back(&pools[lane]);
  }
  try {
    elab::make_engine("batched")->run_batch(design, ptrs, {});
  } catch (const util::SimError& error) {
    return error.what();
  }
  return "no fault";
}

TEST(Reconvergence, BatchAbortNamesTheSmallestLaneCycle) {
  // Lane 1 faults at an earlier cycle of its own than lane 0, lane 2
  // writes in range.
  EXPECT_NE(batch_abort_message({{40, 9}, {3, 6}, {40, 2}})
                .find("lane 1 write to address 6"),
            std::string::npos);
  // The same cycle: the lower lane.
  EXPECT_NE(batch_abort_message({{3, 9}, {3, 6}})
                .find("lane 0 write to address 9"),
            std::string::npos);
  // A lone faulting lane is named whatever the others do.
  EXPECT_NE(batch_abort_message({{2, 1}, {7, 3}, {50, 5}})
                .find("lane 2 write to address 5"),
            std::string::npos);
}

/// Lanes that diverge on their codewords reconverge, so the batch sweeps
/// little more than its slowest lane runs cycles: a counter guard on
/// the scheduling, free of timing.
TEST(Reconvergence, DivergedHammingSweepsCloseToItsSlowestLane) {
  ObsOn obs_on;
  const Workload work{golden::hamming_source(512), {{"n", 512}},
                      [](std::size_t lane) {
                        golden::Rng rng(lane + 1);
                        return std::map<std::string,
                                        std::vector<std::uint64_t>>{
                            {"code", rng.sequence(512, 128)}};
                      }};
  const ir::Design design = compile(work);
  ASSERT_EQ(design.configuration_count(), 1u);
  const elab::CheckedDesign checked(design);
  const std::size_t depth = checked.schedule(design.rtg.initial).depth;
  obs::Counter& levels = obs::counter("engine.levels_swept");
  obs::Counter& swept = obs::counter("engine.ops_swept");
  const std::uint64_t before = levels.value();
  const std::uint64_t ops_before = swept.value();
  std::deque<mem::MemoryPool> pools;
  sim::EngineRunOptions options;
  options.max_cycles_per_partition = 100'000;
  const std::vector<sim::EngineResult> runs =
      elab::make_engine("batched")->run_batch(checked,
                                              primed(pools, work, 8), options);
  const std::uint64_t sweeps = (levels.value() - before) / depth;
  const std::uint64_t ops = swept.value() - ops_before;
  // What the slowest lane sweeps alone: reconverged lanes share slices.
  std::uint64_t alone = 0;
  for (std::size_t lane = 0; lane < 8; ++lane) {
    mem::MemoryPool pool;
    prime(pool, work, lane);
    const std::uint64_t start = swept.value();
    elab::make_engine("levelized")->run(checked, pool, options);
    alone = std::max(alone, swept.value() - start);
  }
  EXPECT_LE(ops * 100, alone * 125)
      << ops << " ops swept for 8 lanes, " << alone << " for the costliest alone";
  std::uint64_t slowest = 0;
  std::uint64_t fastest = ~0ull;
  std::uint64_t total = 0;
  for (const sim::EngineResult& run : runs) {
    ASSERT_TRUE(run.completed);
    slowest = std::max(slowest, run.total_cycles());
    fastest = std::min(fastest, run.total_cycles());
    total += run.total_cycles();
  }
  EXPECT_LT(fastest, slowest) << "the lanes diverge";
  EXPECT_LE(sweeps * 100, slowest * 105)
      << sweeps << " sweeps for a slowest lane of " << slowest << " cycles";
  EXPECT_LE(sweeps, total + 1) << "each edge advances at least one lane";
}

TEST(StateSlices, OrderIsAPermutationStartingAtTheInitialState) {
  for (const char* name : {"fdct1", "hamming", "branchy", "arms"}) {
    const ir::Design design = compile(workload(name));
    const elab::CheckedDesign checked(design);
    for (const auto& [node, config] : design.configurations) {
      const elab::StateSlices& slices = checked.slices(node);
      std::vector<std::uint32_t> order = slices.order;
      ASSERT_EQ(order.size(), config.fsm.states.size()) << name;
      EXPECT_EQ(order[checked.slots(node).initial], 0u) << name;
      std::sort(order.begin(), order.end());
      for (std::size_t s = 0; s < order.size(); ++s) {
        EXPECT_EQ(order[s], s) << name;
      }
    }
  }
  // A chain is ordered as it runs.
  const ir::Design chain = control_select_design();
  EXPECT_EQ(elab::CheckedDesign(chain).slices(chain.rtg.initial).order,
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace fti
