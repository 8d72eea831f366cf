// Content-addressed design cache: hash canonicalization, LRU behaviour,
// warm-vs-cold equivalence and thread safety (the TSan preset runs the
// whole binary under the `cache` label).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "fti/cache/design_cache.hpp"
#include "fti/cache/ir_hash.hpp"
#include "fti/compiler/hls.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/ir/serde.hpp"
#include "fti/lint/lint.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/xml/parser.hpp"
#include "fti/xml/writer.hpp"

namespace fti::cache {
namespace {

harness::TestCase square_case(int arrays = 8) {
  harness::TestCase test;
  test.name = "square";
  test.source =
      "kernel square(int a[" + std::to_string(arrays) + "], int b[" +
      std::to_string(arrays) +
      "], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) { b[i] = a[i] * a[i]; }\n"
      "}\n";
  test.scalar_args = {{"n", arrays}};
  std::vector<std::uint64_t> values(arrays);
  for (int i = 0; i < arrays; ++i) {
    values[i] = static_cast<std::uint64_t>(i + 1);
  }
  test.inputs = {{"a", values}};
  test.check_arrays = {"b"};
  return test;
}

ir::Design compile_case(const harness::TestCase& test) {
  compiler::CompileOptions options;
  options.scalar_args = test.scalar_args;
  options.resources = test.resources;
  return compiler::compile_source(test.source, options).design;
}

/// Reverses every order-insensitive declaration list in the design.
/// Name-based connectivity means this is the same hardware.
ir::Design reorder_declarations(ir::Design design) {
  for (auto& [node, config] : design.configurations) {
    std::reverse(config.datapath.wires.begin(), config.datapath.wires.end());
    std::reverse(config.datapath.units.begin(), config.datapath.units.end());
    std::reverse(config.datapath.memories.begin(),
                 config.datapath.memories.end());
    std::reverse(config.datapath.control_wires.begin(),
                 config.datapath.control_wires.end());
    std::reverse(config.datapath.status_wires.begin(),
                 config.datapath.status_wires.end());
    std::reverse(config.fsm.states.begin(), config.fsm.states.end());
  }
  std::reverse(design.rtg.nodes.begin(), design.rtg.nodes.end());
  std::reverse(design.rtg.edges.begin(), design.rtg.edges.end());
  return design;
}

TEST(IrHash, StableUnderDeclarationReorder) {
  ir::Design design = compile_case(square_case());
  ir::Design shuffled = reorder_declarations(design);
  EXPECT_EQ(hash_design(design), hash_design(shuffled));
}

TEST(IrHash, StableAcrossXmlRoundTrip) {
  ir::Design design = compile_case(square_case());
  std::string text = xml::to_string(*ir::to_xml(design));
  ir::Design reparsed = ir::design_from_xml(*xml::parse(text));
  EXPECT_EQ(hash_design(design), hash_design(reparsed));
}

TEST(IrHash, SemanticEditChangesKey) {
  ir::Design design = compile_case(square_case());
  Key base = hash_design(design);

  ir::Design widened = design;
  for (auto& [node, config] : widened.configurations) {
    for (ir::Unit& unit : config.datapath.units) {
      if (unit.kind == ir::UnitKind::kConst) {
        unit.value += 1;
        break;
      }
    }
    break;
  }
  EXPECT_NE(base, hash_design(widened));

  ir::Design renamed = design;
  renamed.name += "_other";
  EXPECT_NE(base, hash_design(renamed));
}

TEST(IrHash, DistinctDesignsDisagree) {
  Key a = hash_design(compile_case(square_case(8)));
  Key b = hash_design(compile_case(square_case(16)));
  EXPECT_NE(a, b);
  EXPECT_NE(a.to_string(), b.to_string());
  EXPECT_EQ(a.to_string().size(), 32u);
}

TEST(DesignCache, InsertFindAndStats) {
  DesignCache cache(4);
  ir::Design design = compile_case(square_case());
  Key key = hash_design(design);

  EXPECT_EQ(cache.find(key), nullptr);
  auto entry = cache.insert(key, std::move(design), lint::Report{});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->key, key);
  EXPECT_EQ(cache.find(key), entry);

  DesignCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DesignCache, EntryHandleReportsItsInsertKeyWithoutRehashing) {
  DesignCache cache(4);
  ir::Design design = compile_case(square_case());
  Key key = hash_design(design);
  EXPECT_EQ(cache.insert(key, design, lint::Report{})->checked.key(), key);

  // Under a key the design does not hash to, the handle still reports
  // the insert key: it was handed over, not computed a second time.
  DesignCache other(4);
  Key planted{key.hi ^ 1, key.lo};
  EXPECT_EQ(other.insert(planted, std::move(design), lint::Report{})
                ->checked.key(),
            planted);
}

TEST(DesignCache, LruEvictsOldestUnderTinyCapacity) {
  DesignCache cache(2);
  std::vector<Key> keys;
  for (int size : {4, 8, 16}) {
    ir::Design design = compile_case(square_case(size));
    Key key = hash_design(design);
    keys.push_back(key);
    cache.insert(key, std::move(design), lint::Report{});
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // First inserted is least-recently-used, so it fell out.
  EXPECT_EQ(cache.find(keys[0]), nullptr);
  EXPECT_NE(cache.find(keys[1]), nullptr);
  EXPECT_NE(cache.find(keys[2]), nullptr);
}

TEST(DesignCache, SourceAliasFollowsEviction) {
  DesignCache cache(1);
  ir::Design design = compile_case(square_case(4));
  Key ir_key = hash_design(design);
  Key source_key{1234, 5678};

  cache.insert(ir_key, std::move(design), lint::Report{});
  cache.alias_source(source_key, ir_key);
  EXPECT_NE(cache.find_source(source_key), nullptr);

  // Inserting another design evicts the target; the alias must not
  // resurrect it.
  ir::Design other = compile_case(square_case(8));
  cache.insert(hash_design(other), std::move(other), lint::Report{});
  EXPECT_EQ(cache.find_source(source_key), nullptr);
}

/// Enables obs for the scope, restoring the previous setting after.
class ObsOn {
 public:
  ObsOn() : was_enabled_(obs::enabled()) { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(was_enabled_); }

 private:
  bool was_enabled_;
};

TEST(DesignCache, ScheduleMemoBuildsOncePerNode) {
  ObsOn obs_on;
  obs::Counter& builds = obs::counter("elab.schedule_builds");
  obs::Counter& hits = obs::counter("elab.schedule_hits");
  DesignCache cache(4);
  ir::Design design = compile_case(square_case());
  std::string node = design.rtg.nodes.front();
  Key key = hash_design(design);
  auto entry = cache.insert(key, std::move(design), lint::Report{});

  const std::uint64_t builds_before = builds.value();
  const std::uint64_t hits_before = hits.value();
  auto first = cache.schedule_for(entry, node);
  auto second = cache.schedule_for(entry, node);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(builds.value() - builds_before, 1u);
  EXPECT_EQ(hits.value() - hits_before, 1u);
}

TEST(DesignCache, WarmHitNeverRevalidates) {
  ObsOn obs_on;
  obs::Counter& validations = obs::counter("ir.validations");
  harness::TestCase test = square_case();
  DesignCache cache(4);
  harness::VerifyOptions options;
  options.design_cache = &cache;
  harness::VerifyOutcome cold = harness::run_test_case(test, options);
  ASSERT_TRUE(cold.passed) << cold.message;

  const std::uint64_t before = validations.value();
  harness::VerifyOutcome warm = harness::run_test_case(test, options);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.passed) << warm.message;
  EXPECT_EQ(validations.value(), before)
      << "a warm hit re-validated the cached design";
}

/// The tentpole invariant: a cache-hit run must be indistinguishable
/// from the cold run apart from wall-clock fields.
TEST(DesignCache, WarmRunMatchesColdByteForByte) {
  harness::TestCase test = square_case();

  harness::VerifyOptions cold_options;
  harness::VerifyOutcome cold = harness::run_test_case(test, cold_options);
  ASSERT_TRUE(cold.passed);
  EXPECT_FALSE(cold.cache_hit);

  DesignCache cache(4);
  harness::VerifyOptions cached_options;
  cached_options.design_cache = &cache;
  harness::VerifyOutcome first = harness::run_test_case(test, cached_options);
  EXPECT_FALSE(first.cache_hit);
  harness::VerifyOutcome warm = harness::run_test_case(test, cached_options);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_GE(cache.stats().hits, 1u);

  for (const harness::VerifyOutcome* outcome : {&first, &warm}) {
    EXPECT_EQ(outcome->passed, cold.passed);
    EXPECT_EQ(outcome->message, cold.message);
    EXPECT_EQ(outcome->mismatches, cold.mismatches);
    EXPECT_EQ(outcome->lint_blocked, cold.lint_blocked);
    EXPECT_EQ(outcome->lint.errors(), cold.lint.errors());
    EXPECT_EQ(outcome->lint.warnings(), cold.lint.warnings());
    EXPECT_EQ(outcome->run.completed, cold.run.completed);
    ASSERT_EQ(outcome->run.partitions.size(), cold.run.partitions.size());
    for (std::size_t i = 0; i < cold.run.partitions.size(); ++i) {
      const auto& got = outcome->run.partitions[i];
      const auto& want = cold.run.partitions[i];
      EXPECT_EQ(got.node, want.node);
      EXPECT_EQ(got.cycles, want.cycles);
      EXPECT_EQ(got.stats.events, want.stats.events);
      EXPECT_EQ(got.coverage.percent(), want.coverage.percent());
    }
  }
  // The warm run must not have re-run the HLS compiler.
  EXPECT_EQ(warm.compiled.design.rtg.nodes.size(), 0u);
}

TEST(DesignCache, WarmRunHonoursLintGatePerRequest) {
  harness::TestCase test = square_case();
  DesignCache cache(4);
  harness::VerifyOptions options;
  options.design_cache = &cache;
  harness::VerifyOutcome cold = harness::run_test_case(test, options);
  ASSERT_TRUE(cold.passed);

  // Same design, now with the gate off: still a cache hit, still passes.
  harness::VerifyOptions off = options;
  off.lint_gate = lint::Gate::kOff;
  harness::VerifyOutcome warm = harness::run_test_case(test, off);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.passed);
}

/// Kernel whose compiled design carries exactly one semantic finding (an
/// FTI-L016 never-enabled temporary register) and no structural ones --
/// the observable that separates the semantic-on and -off views.
harness::TestCase semantic_warning_case() {
  harness::TestCase test;
  test.name = "mulacc";
  test.source =
      "kernel mulacc(int x[8], int y[8], int a, int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    y[i] = a * x[i] + y[i];\n"
      "  }\n"
      "}\n";
  test.scalar_args = {{"a", 3}, {"n", 8}};
  test.inputs = {{"x", {1, 2, 3, 4, 5, 6, 7, 8}},
                 {"y", {8, 7, 6, 5, 4, 3, 2, 1}}};
  test.check_arrays = {"y"};
  return test;
}

bool has_semantic_finding(const lint::Report& report) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [](const lint::Finding& finding) {
                       return lint::is_semantic_rule(finding.rule);
                     });
}

TEST(DesignCache, WarmRunHonoursSemanticTierPerRequest) {
  harness::TestCase test = semantic_warning_case();
  DesignCache cache(4);
  harness::VerifyOptions options;
  options.design_cache = &cache;

  harness::VerifyOutcome cold = harness::run_test_case(test, options);
  ASSERT_TRUE(cold.passed) << cold.message;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(has_semantic_finding(cold.lint)) << to_text(cold.lint);
  EXPECT_GE(cold.lint.warnings(), 1u);

  // Same design with the semantic tier off: still a warm hit, and the
  // semantic findings disappear from the outcome's view.
  harness::VerifyOptions off = options;
  off.semantic = false;
  harness::VerifyOutcome warm_off = harness::run_test_case(test, off);
  EXPECT_TRUE(warm_off.cache_hit);
  EXPECT_TRUE(warm_off.passed);
  EXPECT_FALSE(has_semantic_finding(warm_off.lint))
      << to_text(warm_off.lint);

  // Flipping it back on restores the full memoized report -- the cache
  // stores the semantic-on analysis and filters per request, so neither
  // direction of the flip depends on what earlier requests asked for.
  harness::VerifyOutcome warm_on = harness::run_test_case(test, options);
  EXPECT_TRUE(warm_on.cache_hit);
  EXPECT_TRUE(has_semantic_finding(warm_on.lint)) << to_text(warm_on.lint);
  EXPECT_EQ(warm_on.lint.warnings(), cold.lint.warnings());
  EXPECT_EQ(warm_on.lint.findings.size(), cold.lint.findings.size());
}

TEST(DesignCache, WarmHitNeverRerunsDataflowFixpoint) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& analyses = obs::counter("dataflow.analyses");

  harness::TestCase test = semantic_warning_case();
  DesignCache cache(4);
  harness::VerifyOptions options;
  options.design_cache = &cache;

  const std::uint64_t before = analyses.value();
  harness::VerifyOutcome cold = harness::run_test_case(test, options);
  ASSERT_TRUE(cold.passed) << cold.message;
  const std::uint64_t after_cold = analyses.value();
  EXPECT_GT(after_cold, before) << "cold run must run the fixpoint";

  // Warm resubmissions -- semantic on AND off -- re-gate from the
  // memoized report without a single new dataflow analysis.
  harness::VerifyOutcome warm_on = harness::run_test_case(test, options);
  EXPECT_TRUE(warm_on.cache_hit);
  harness::VerifyOptions off = options;
  off.semantic = false;
  harness::VerifyOutcome warm_off = harness::run_test_case(test, off);
  EXPECT_TRUE(warm_off.cache_hit);
  EXPECT_EQ(analyses.value(), after_cold)
      << "a warm hit re-ran the abstract interpreter";

  obs::set_enabled(was_enabled);
}

TEST(DesignCache, EmitDirBypassesCache) {
  harness::TestCase test = square_case();
  DesignCache cache(4);
  harness::VerifyOptions options;
  options.design_cache = &cache;
  harness::VerifyOutcome first = harness::run_test_case(test, options);
  ASSERT_TRUE(first.passed);

  harness::VerifyOptions emitting = options;
  emitting.emit_dir =
      std::filesystem::temp_directory_path() /
      ("fti_cache_emit_" + std::to_string(::getpid()));
  harness::VerifyOutcome emitted = harness::run_test_case(test, emitting);
  EXPECT_FALSE(emitted.cache_hit);
  EXPECT_TRUE(emitted.passed);
  std::filesystem::remove_all(emitting.emit_dir);
}

TEST(DesignCache, CancellationThrowsAtStageBoundary) {
  harness::TestCase test = square_case();
  std::atomic<bool> cancel{true};
  harness::VerifyOptions options;
  options.cancel = &cancel;
  EXPECT_THROW(harness::run_test_case(test, options), util::CancelledError);
}

/// Many threads hammering the same design: every run must pass, and the
/// cache must converge on one entry.  Primarily a TSan target.
TEST(DesignCache, ConcurrentHammerConvergesOnOneEntry) {
  harness::TestCase test = square_case();
  DesignCache cache(8);
  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 3;
  std::atomic<int> passed{0};
  std::atomic<int> warm{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        harness::VerifyOptions options;
        options.design_cache = &cache;
        harness::VerifyOutcome outcome = harness::run_test_case(test, options);
        passed += outcome.passed ? 1 : 0;
        warm += outcome.cache_hit ? 1 : 0;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(passed.load(), kThreads * kRunsPerThread);
  // At least the strictly-later runs were warm, and all runs after the
  // first insertion share one cached design.
  EXPECT_GE(warm.load(), kThreads * kRunsPerThread - kThreads);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GE(cache.stats().hits, static_cast<std::uint64_t>(warm.load()));
}

}  // namespace
}  // namespace fti::cache
