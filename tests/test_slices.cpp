// State-sliced sweeps (elab/slices.hpp): the batched engine evaluates
// only the combinational ops the occupied FSM states can observe, so
// every lane must still match an independent run of the reference
// interpreter -- the full-sweep oracle -- on cycles, stop reasons,
// finals, traces, memories and coverage, at lane counts that span a
// single word, a full word and a one-bit tail word.  The workloads
// cover a lockstep design (FDCT1), divergent lanes (Hamming, whose
// correction branch depends on each lane's codewords) and an FSM of
// more than 64 states whose lanes diverge (so a state set spans two
// words).  The slice tables and the handle's memos are pinned too.
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

struct Workload {
  std::string source;
  std::map<std::string, std::int64_t> args;
  /// The input arrays of `lane`.
  std::function<std::map<std::string, std::vector<std::uint64_t>>(
      std::size_t lane)>
      inputs;
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
  return {branchy_source(), {{"n", 8}}, [](std::size_t lane) {
            std::vector<std::uint64_t> a(8);
            for (std::size_t i = 0; i < 8; ++i) {
              a[i] = (lane * 53 + i * 71) % 200;
            }
            return std::map<std::string, std::vector<std::uint64_t>>{{"a", a}};
          }};
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
                      ParityCase{"branchy", 64}, ParityCase{"branchy", 65}),
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

}  // namespace
}  // namespace fti
