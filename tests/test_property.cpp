// Property test: randomly generated kernels must produce bit-identical
// memory contents across all three executions of the infrastructure --
// the golden interpreter, the event-driven simulation of the compiled
// datapaths (via the full XML round-trip) and the naive full-evaluation
// baseline.  Any divergence pinpoints a bug in the compiler, a serializer
// or one of the simulators.
#include <gtest/gtest.h>

#include <deque>
#include <sstream>

#include "fti/compiler/parser.hpp"
#include "fti/elab/engines.hpp"
#include "fti/fuzz/diff.hpp"
#include "fti/fuzz/generate.hpp"
#include "fti/fuzz/lanes.hpp"
#include "fti/fuzz/rand.hpp"
#include "fti/golden/rng.hpp"
#include "fti/harness/testcase.hpp"

namespace fti {
namespace {

class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate(std::size_t partitions = 1) {
    out_.str("");
    out_ << "kernel fuzz(int a[16], short b[16], int n) {\n";
    for (std::size_t partition = 0; partition < partitions; ++partition) {
      if (partition > 0) {
        out_ << "  stage;\n";
        // Partitions communicate through the arrays only: fresh locals.
        local_names_.clear();
        assignable_.clear();
      }
      int locals = 2 + static_cast<int>(rng_.below(3));
      for (int i = 0; i < locals; ++i) {
        std::string name =
            "v" + std::to_string(partition) + "_" + std::to_string(i);
        local_names_.push_back(name);
        assignable_.push_back(name);
        out_ << "  int " << name << " = " << rng_.below(100) << ";\n";
      }
      gen_statements(2 + rng_.below(5), 0);
    }
    out_ << "}\n";
    return out_.str();
  }

 private:
  /// Any readable local (including loop variables).
  std::string pick_local() {
    return local_names_[rng_.below(local_names_.size())];
  }

  /// Assignment targets exclude loop variables -- a body that rewrites its
  /// own induction variable need not terminate.
  std::string pick_assignable() {
    return assignable_[rng_.below(assignable_.size())];
  }

  /// Index expressions are masked to the array size, so generated programs
  /// never fault on bounds.
  std::string index_expr(int depth) {
    return "((" + expr(depth) + ") & 15)";
  }

  std::string expr(int depth) {
    if (depth <= 0 || rng_.below(3) == 0) {
      switch (rng_.below(3)) {
        case 0:
          return std::to_string(rng_.below(1000));
        case 1:
          return pick_local();
        default:
          return "n";
      }
    }
    switch (rng_.below(12)) {
      case 0:
        return "(" + expr(depth - 1) + " + " + expr(depth - 1) + ")";
      case 1:
        return "(" + expr(depth - 1) + " - " + expr(depth - 1) + ")";
      case 2:
        return "(" + expr(depth - 1) + " * " + expr(depth - 1) + ")";
      case 3:
        return "(" + expr(depth - 1) + " & " + expr(depth - 1) + ")";
      case 4:
        return "(" + expr(depth - 1) + " | " + expr(depth - 1) + ")";
      case 5:
        return "(" + expr(depth - 1) + " ^ " + expr(depth - 1) + ")";
      case 6:
        return "(" + expr(depth - 1) + " >> " +
               std::to_string(rng_.below(8)) + ")";
      case 7:
        return "(" + expr(depth - 1) + " << " +
               std::to_string(rng_.below(4)) + ")";
      case 8:
        return "a[" + index_expr(depth - 1) + "]";
      case 9:
        return "b[" + index_expr(depth - 1) + "]";
      case 10:
        return "(" + expr(depth - 1) + " / (" + expr(depth - 1) + "))";
      default:
        return "min(" + expr(depth - 1) + ", " + expr(depth - 1) + ")";
    }
  }

  std::string condition(int depth) {
    static const char* kCmps[] = {"<", "<=", ">", ">=", "==", "!="};
    return expr(depth) + " " + kCmps[rng_.below(6)] + " " + expr(depth);
  }

  void gen_statements(std::uint64_t count, int nest) {
    for (std::uint64_t i = 0; i < count; ++i) {
      gen_statement(nest);
    }
  }

  void gen_statement(int nest) {
    std::string pad(static_cast<std::size_t>(2 + 2 * nest), ' ');
    switch (rng_.below(nest >= 2 ? 4 : 6)) {
      case 0:
        out_ << pad << pick_assignable() << " = " << expr(2) << ";\n";
        break;
      case 1:
        out_ << pad << "a[" << index_expr(1) << "] = " << expr(2) << ";\n";
        break;
      case 2:
        out_ << pad << "b[" << index_expr(1) << "] = " << expr(2) << ";\n";
        break;
      case 3:
        out_ << pad << pick_assignable() << " = " << pick_local() << " + a["
             << index_expr(1) << "];\n";
        break;
      case 4: {
        out_ << pad << "if (" << condition(1) << ") {\n";
        gen_statements(1 + rng_.below(2), nest + 1);
        if (rng_.below(2) == 0) {
          out_ << pad << "} else {\n";
          gen_statements(1 + rng_.below(2), nest + 1);
        }
        out_ << pad << "}\n";
        break;
      }
      default: {
        std::string loop_var = "i" + std::to_string(loop_counter_++);
        out_ << pad << "int " << loop_var << ";\n";
        out_ << pad << "for (" << loop_var << " = 0; " << loop_var << " < "
             << (1 + rng_.below(8)) << "; " << loop_var << " = " << loop_var
             << " + 1) {\n";
        local_names_.push_back(loop_var);
        gen_statements(1 + rng_.below(3), nest + 1);
        out_ << pad << "}\n";
        break;
      }
    }
  }

  golden::Rng rng_;
  std::ostringstream out_;
  std::vector<std::string> local_names_;
  std::vector<std::string> assignable_;
  int loop_counter_ = 0;
};

class RandomProgramEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramEquivalence, AllThreeExecutionsAgree) {
  ProgramGenerator generator(GetParam());
  std::string source = generator.generate();
  SCOPED_TRACE(source);

  golden::Rng data_rng(GetParam() * 7919 + 1);
  harness::TestCase test;
  test.name = "fuzz" + std::to_string(GetParam());
  test.source = source;
  test.scalar_args = {{"n", static_cast<std::int64_t>(data_rng.below(16))}};
  test.inputs = {{"a", data_rng.sequence(16, 1 << 20)},
                 {"b", data_rng.sequence(16, 1 << 16)}};
  harness::VerifyOptions options;
  options.generate_artifacts = false;

  // Golden interpreter vs event-driven simulation (with XML round-trip).
  harness::VerifyOutcome outcome = harness::run_test_case(test, options);
  EXPECT_TRUE(outcome.passed) << outcome.message;

  // Naive baseline must agree with the golden model too.
  mem::MemoryPool golden_pool;
  mem::MemoryPool naive_pool;
  for (auto* pool : {&golden_pool, &naive_pool}) {
    pool->create("a", 16, 32);
    pool->create("b", 16, 16);
    harness::load_inputs(*pool, "a", test.inputs.at("a"));
    harness::load_inputs(*pool, "b", test.inputs.at("b"));
  }
  compiler::Program program = compiler::parse_program(source);
  compiler::InterpOptions interp_options;
  interp_options.scalar_args = test.scalar_args;
  compiler::run_program(program, golden_pool, interp_options);

  compiler::CompileOptions compile_options;
  compile_options.scalar_args = test.scalar_args;
  auto compiled = compiler::compile_source(source, compile_options);
  sim::EngineResult naive = elab::NaiveEngine().run(compiled.design,
                                                     naive_pool);
  ASSERT_TRUE(naive.completed);
  EXPECT_EQ(golden_pool.get("a").words(), naive_pool.get("a").words());
  EXPECT_EQ(golden_pool.get("b").words(), naive_pool.get("b").words());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramEquivalence,
                         ::testing::Range<std::uint64_t>(1, 41));

// Multi-partition programs: the fuzz kernel is split into 2-3 temporal
// partitions, exercising the RTG executor, reconfiguration teardown and
// the shared memory pool under random workloads.
class RandomPartitionedEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPartitionedEquivalence, RtgRunsMatchGolden) {
  ProgramGenerator generator(GetParam() * 131 + 7);
  std::string source = generator.generate(2 + GetParam() % 2);
  SCOPED_TRACE(source);
  golden::Rng data_rng(GetParam() + 5000);
  harness::TestCase test;
  test.name = "pfuzz" + std::to_string(GetParam());
  test.source = source;
  test.scalar_args = {{"n", static_cast<std::int64_t>(data_rng.below(16))}};
  test.inputs = {{"a", data_rng.sequence(16, 1 << 20)},
                 {"b", data_rng.sequence(16, 1 << 16)}};
  harness::VerifyOptions options;
  options.generate_artifacts = false;
  harness::VerifyOutcome outcome = harness::run_test_case(test, options);
  EXPECT_TRUE(outcome.passed) << outcome.message;
  EXPECT_GE(outcome.run.partitions.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPartitionedEquivalence,
                         ::testing::Range<std::uint64_t>(1, 21));

// Sweeping resource constraints must never change results, only schedules.
class ResourceSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ResourceSweep, ConstraintsChangeScheduleNotSemantics) {
  ProgramGenerator generator(1234);
  std::string source = generator.generate();
  harness::TestCase test;
  test.name = "rsweep" + std::to_string(GetParam());
  test.source = source;
  golden::Rng data_rng(77);
  test.scalar_args = {{"n", 9}};
  test.inputs = {{"a", data_rng.sequence(16, 1 << 20)},
                 {"b", data_rng.sequence(16, 1 << 16)}};
  test.resources.default_limit = GetParam();
  harness::VerifyOptions options;
  options.generate_artifacts = false;
  harness::VerifyOutcome outcome = harness::run_test_case(test, options);
  EXPECT_TRUE(outcome.passed) << outcome.message << "\n" << source;
}

INSTANTIATE_TEST_SUITE_P(Limits, ResourceSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

// ---------------------------------------------------------------------------
// Lane isolation: in a batched run, lanes must never interact.  Mutating
// lane k's stimulus may change only lane k's outputs -- every other
// lane's cycle counts, wire traces, finals and final memory words must
// stay byte-identical, including memory and FSM state effects.

class LaneIsolation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LaneIsolation, MutatingOneLaneChangesOnlyThatLane) {
  const std::uint64_t seed = GetParam();
  // Lane stimulus lives in the memory pools, so pick a generated design
  // that actually owns memories (retry a few derived seeds if needed).
  ir::Design design;
  bool found = false;
  for (std::uint64_t attempt = 0; attempt < 32 && !found; ++attempt) {
    design =
        fuzz::generate_design_seeded(fuzz::Rng::derive(seed, attempt), {});
    found = !design.memory_requirements().empty();
  }
  ASSERT_TRUE(found) << "no generated design with memories for seed "
                     << seed;

  constexpr std::uint32_t kLanes = 9;
  constexpr std::uint32_t kMutated = 4;
  sim::EngineRunOptions ropts;
  ropts.max_cycles_per_partition = 100'000;
  ropts.collect_wire_data = true;

  // Batch A primes every lane from `seed`; batch B re-primes only lane 4
  // from a different seed.
  auto run_batch = [&](std::uint64_t mutated_seed) {
    std::deque<mem::MemoryPool> pools(kLanes);
    std::vector<mem::MemoryPool*> ptrs;
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      fuzz::prime_lane_pool(design, lane == kMutated ? mutated_seed : seed,
                            lane, pools[lane]);
      ptrs.push_back(&pools[lane]);
    }
    std::vector<sim::EngineResult> runs =
        elab::make_engine("batched")->run_batch(design, ptrs, ropts);
    std::vector<fuzz::Observation> observed;
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      observed.push_back(fuzz::observe_result(
          "lane" + std::to_string(lane), std::move(runs[lane]),
          pools[lane]));
    }
    return observed;
  };
  std::vector<fuzz::Observation> batch_a = run_batch(seed);
  std::vector<fuzz::Observation> batch_b = run_batch(seed ^ 0xbadc0ffeull);

  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    if (lane == kMutated) {
      continue;
    }
    std::vector<std::string> diffs =
        fuzz::compare_observation_pair(batch_a[lane], batch_b[lane]);
    EXPECT_TRUE(diffs.empty())
        << "lane " << lane << " bled from mutating lane " << kMutated
        << ": " << (diffs.empty() ? "" : diffs.front());
  }

  // The mutated lane itself must match its own independent single-lane
  // levelized run over an identically primed pool.
  mem::MemoryPool twin;
  fuzz::prime_lane_pool(design, seed ^ 0xbadc0ffeull, kMutated, twin);
  sim::EngineResult independent =
      elab::make_engine("levelized")->run(design, twin, ropts);
  fuzz::Observation want = fuzz::observe_result(
      "lane" + std::to_string(kMutated), std::move(independent), twin);
  std::vector<std::string> diffs =
      fuzz::compare_observation_pair(want, batch_b[kMutated]);
  EXPECT_TRUE(diffs.empty())
      << "mutated lane disagrees with its independent run: "
      << (diffs.empty() ? "" : diffs.front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneIsolation,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace fti
