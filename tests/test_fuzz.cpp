// Smoke coverage for the differential fuzzing subsystem.  Seeds are
// fixed, so a failure here is a real regression, not flakiness:
//  * a 25-design campaign (with at least one multi-configuration RTG)
//    must agree across all execution paths,
//  * campaign reports must be identical regardless of the worker count,
//  * an injected flipped-carry operator bug must be caught and shrunk to
//    a tiny repro (acceptance experiment from the issue, kept as a
//    permanent regression test via the reference-side operator hook),
//  * checked-in corpus repros of previously fixed bugs must stay green.
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fti/fuzz/corpus.hpp"
#include "fti/fuzz/diff.hpp"
#include "fti/fuzz/fuzzer.hpp"
#include "fti/fuzz/generate.hpp"
#include "fti/fuzz/rand.hpp"
#include "fti/fuzz/shrink.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/ops/alu.hpp"

namespace fti::fuzz {
namespace {

GeneratorOptions smoke_generator() {
  GeneratorOptions options;
  options.max_units = 12;
  options.max_run_cycles = 24;
  return options;
}

TEST(Fuzz, SmokeCampaignAgreesOnAllPaths) {
  FuzzOptions options;
  options.seed = 7;
  options.runs = 25;
  options.jobs = 2;
  options.generator = smoke_generator();
  FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.cases_run, 25u);
  EXPECT_GE(report.multi_configuration_designs, 1u)
      << "the smoke corpus must exercise at least one multi-config RTG";
  EXPECT_GT(report.total_cycles, 0u);
  ASSERT_TRUE(report.ok()) << report.failures.size() << " mismatching "
                           << "designs; first case seed "
                           << report.failures.front().case_seed;
}

TEST(Fuzz, ReportIsIndependentOfWorkerCount) {
  FuzzOptions options;
  options.seed = 11;
  options.runs = 12;
  options.generator = smoke_generator();
  options.jobs = 1;
  FuzzReport serial = run_fuzz(options);
  options.jobs = 4;
  FuzzReport parallel = run_fuzz(options);
  EXPECT_EQ(serial.cases_run, parallel.cases_run);
  EXPECT_EQ(serial.multi_configuration_designs,
            parallel.multi_configuration_designs);
  EXPECT_EQ(serial.total_cycles, parallel.total_cycles);
  EXPECT_EQ(serial.failures.size(), parallel.failures.size());
}

TEST(Fuzz, FlippedCarryBugIsCaughtAndShrunkSmall) {
  FuzzOptions options;
  options.seed = 3;
  options.runs = 40;
  options.jobs = 2;
  options.generator = smoke_generator();
  options.max_failures = 3;
  // Inject the classic off-by-one-carry adder bug into the reference
  // interpreter only; every adder-bearing design now disagrees with the
  // event kernel, exactly as a miscompiled FU would.
  options.diff.reference.eval_binop =
      [](ops::BinOp op, const sim::Bits& a, const sim::Bits& b,
         std::uint32_t out_width) {
        sim::Bits result = ops::eval_binop(op, a, b, out_width);
        if (op == ops::BinOp::kAdd) {
          result = sim::Bits(out_width, result.u() + 1);
        }
        return result;
      };
  FuzzReport report = run_fuzz(options);
  ASSERT_FALSE(report.ok()) << "the injected carry bug went undetected";
  for (const FuzzFailure& failure : report.failures) {
    EXPECT_FALSE(failure.mismatches.empty());
    EXPECT_LE(failure.shrunk_nodes, 10u)
        << "case seed " << failure.case_seed << " shrank only to "
        << failure.shrunk_nodes << " nodes (from " << failure.original_nodes
        << ")";
    EXPECT_LE(failure.shrunk_nodes, failure.original_nodes);
    EXPECT_NO_THROW(ir::validate(failure.shrunk));
  }
}

TEST(Fuzz, ShrinkerReachesSmallValidFixpoint) {
  ir::Design design = generate_design_seeded(21);
  std::size_t before = ir_node_count(design);
  // An always-failing predicate makes the shrinker drive the design to
  // its structural minimum; every intermediate candidate must validate.
  ShrinkResult result =
      shrink(design, [](const elab::CheckedDesign&) { return true; });
  EXPECT_LT(ir_node_count(result.design), before);
  EXPECT_NO_THROW(ir::validate(result.design));
  EXPECT_FALSE(result.steps.empty());
}

TEST(Fuzz, CorpusReprosStayFixed) {
  std::filesystem::path dir =
      std::filesystem::path(FTI_TEST_DATA_DIR).parent_path() / "corpus";
  std::vector<CorpusEntry> corpus = load_corpus(dir);
  ASSERT_FALSE(corpus.empty()) << "expected checked-in repros in " << dir;
  for (const CorpusEntry& entry : corpus) {
    SCOPED_TRACE("corpus entry " + entry.name);
    EXPECT_FALSE(entry.mismatches.empty())
        << "a repro records the mismatches observed when it was minted";
    ASSERT_NO_THROW(ir::validate(entry.design));
    // Shrunk repros may never assert done, so cap the replay budget.
    DiffOptions options;
    options.max_cycles_per_partition = 512;
    DiffResult result = diff_design(entry.design, options);
    EXPECT_TRUE(result.ok)
        << "previously fixed bug resurfaced:\n"
        << (result.mismatches.empty() ? std::string("(no detail)")
                                      : result.mismatches.front());
  }
}

TEST(Fuzz, CorpusEntriesRoundTripThroughReproXml) {
  CorpusEntry entry;
  entry.name = "rt";
  entry.seed = 42;
  entry.design = generate_design_seeded(42, smoke_generator());
  entry.mismatches = {"finals[p0/x]: kernel=1 reference=2", "cycles differ"};
  CorpusEntry reloaded = repro_from_xml(to_repro_xml(entry));
  EXPECT_EQ(reloaded.name, entry.name);
  EXPECT_EQ(reloaded.seed, entry.seed);
  EXPECT_EQ(reloaded.mismatches, entry.mismatches);
  EXPECT_EQ(ir_node_count(reloaded.design), ir_node_count(entry.design));
}

}  // namespace
}  // namespace fti::fuzz
