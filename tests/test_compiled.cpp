// Degradation matrix of the "compiled" execution engine: every rung of
// the fallback ladder in elab/compiled.hpp gets a test --
//  * no usable host toolchain        -> silent-correct levelized fallback,
//  * compiler rejects generated code -> SimError carrying its stderr,
//    sticky across runs (one compiler invocation, not one per run),
//  * corrupted cached shared object  -> evicted and recompiled,
//  * wrong-design object under a key -> rejected by the embedded-hash
//    check, never trusted,
//  * object from another build fingerprint -> never looked up, and
//    rejected by the embedded key when planted under the current one,
//  * warm on-disk cache              -> dlopen with zero compiler work,
//    asserted by pointing FTI_COMPILED_CXX at a booby-trapped script
//    that records (and fails) any invocation.
// The build tiers get their own tests: one-shot (-O0, never published)
// and reused (-O2, published) modules agree with levelized, and the
// registry moves between tiers as elab/compiled.hpp documents.
// Everything runs against a private FTI_COMPILED_CACHE_DIR so parallel
// ctest binaries cannot see each other's objects.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "fti/compiler/hls.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/elab/compiled.hpp"
#include "fti/elab/engines.hpp"
#include "fti/fuzz/diff.hpp"
#include "fti/fuzz/generate.hpp"
#include "fti/golden/fdct.hpp"
#include "fti/golden/rng.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/mem/storage.hpp"
#include "fti/sim/engine.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "test_designs.hpp"

namespace fti {
namespace {

/// Sets an environment variable for one scope and restores the previous
/// state (including "was unset") on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

/// Fresh directory under the system temp dir, removed by the caller.
std::filesystem::path make_temp_dir(const char* tag) {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      (std::string("fti-compiled-") + tag + "-XXXXXX"))
                         .string();
  char* made = ::mkdtemp(tmpl.data());
  if (made == nullptr) {
    ADD_FAILURE() << "mkdtemp failed for " << tmpl;
    return std::filesystem::temp_directory_path();
  }
  return std::filesystem::path(made);
}

/// RAII cleanup so a failing assertion doesn't leak temp dirs.
struct TempDir {
  explicit TempDir(const char* tag) : path(make_temp_dir(tag)) {}
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  std::filesystem::path path;
};

ir::Design accumulator_design(std::uint64_t target) {
  return ir::make_single_design("acc_design",
                                fti::testing::make_accumulator(target));
}

sim::EngineResult run_design(const ir::Design& design,
                             const std::string& engine) {
  elab::register_builtin_engines();
  mem::MemoryPool pool;
  sim::EngineRunOptions options;
  options.collect_wire_data = true;
  return elab::make_engine(engine)->run(design, pool, options);
}

/// A compiler stand-in that logs every invocation to `marker` and fails.
/// Used both to prove a compile error surfaces its stderr and to prove a
/// warm cache never reaches the compiler at all.
std::string write_failing_compiler(const std::filesystem::path& dir,
                                   const std::filesystem::path& marker) {
  std::filesystem::path script = dir / "fake-cxx";
  util::write_file(script.string(),
                   "#!/bin/sh\n"
                   "echo 'synthetic-diagnostic: injected toolchain failure' "
                   ">&2\n"
                   "echo invoked >> '" +
                       marker.string() +
                       "'\n"
                       "exit 1\n");
  ::chmod(script.c_str(), 0755);
  return script.string();
}

std::vector<std::filesystem::path> cached_objects(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> objects;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".so") {
      objects.push_back(entry.path());
    }
  }
  return objects;
}

/// Replace a published cache object the way anything outside the store
/// would have to: write a sibling, then rename over the key.  The store
/// itself only ever publishes by atomic rename, so a corrupted entry
/// always arrives on a fresh inode; modifying the published file in
/// place would instead alias the loader's still-mapped pages (module
/// handles are deliberately never dlclosed) and test the wrong thing.
void plant_object(const std::filesystem::path& target,
                  const std::string& bytes) {
  std::filesystem::path staged = target;
  staged += ".planted";
  util::write_file(staged.string(), bytes);
  std::filesystem::rename(staged, target);
}

std::size_t marker_invocations(const std::filesystem::path& marker) {
  if (!std::filesystem::exists(marker)) {
    return 0;
  }
  std::string text = util::read_file(marker.string());
  return static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
}

TEST(CompiledDegradation, NoToolchainFallsBackToLevelized) {
  TempDir cache("fallback");
  ScopedEnv cache_env("FTI_COMPILED_CACHE_DIR", cache.path.string());
  ScopedEnv cxx_env("FTI_COMPILED_CXX", "/nonexistent/fti-no-such-compiler");
  elab::compiled_reset_for_testing();
  EXPECT_FALSE(elab::compiled_backend_available());
  elab::CompiledStatus status = elab::compiled_status();
  EXPECT_FALSE(status.available);
  EXPECT_NE(status.reason.find("FTI_COMPILED_CXX"), std::string::npos)
      << status.reason;

  ir::Design design = accumulator_design(7);
  elab::CompiledStats before = elab::compiled_stats();
  sim::EngineResult compiled = run_design(design, "compiled");
  sim::EngineResult levelized = run_design(design, "levelized");

  ASSERT_TRUE(compiled.completed);
  ASSERT_EQ(compiled.partitions.size(), 1u);
  EXPECT_EQ(compiled.partitions[0].finals, levelized.partitions[0].finals);
  EXPECT_EQ(compiled.partitions[0].traces, levelized.partitions[0].traces);
  EXPECT_EQ(compiled.partitions[0].cycles, levelized.partitions[0].cycles);

  elab::CompiledStats after = elab::compiled_stats();
  EXPECT_GT(after.fallbacks, before.fallbacks);
  EXPECT_EQ(after.compiles, before.compiles);
  EXPECT_TRUE(cached_objects(cache.path).empty());
}

TEST(CompiledDegradation, CompileFailureSurfacesCompilerStderrAndSticks) {
  TempDir cache("compile-error");
  TempDir tools("tools");
  std::filesystem::path marker = tools.path / "invocations.log";
  std::string script = write_failing_compiler(tools.path, marker);
  ScopedEnv cache_env("FTI_COMPILED_CACHE_DIR", cache.path.string());
  ScopedEnv cxx_env("FTI_COMPILED_CXX", script);
  elab::compiled_reset_for_testing();
  ASSERT_TRUE(elab::compiled_backend_available());

  ir::Design design = accumulator_design(5);
  try {
    run_design(design, "compiled");
    FAIL() << "a failing host compiler must surface as SimError";
  } catch (const util::SimError& error) {
    std::string message = error.what();
    EXPECT_NE(message.find("synthetic-diagnostic"), std::string::npos)
        << message;
    EXPECT_NE(message.find("fake-cxx"), std::string::npos) << message;
    EXPECT_NE(message.find("(exit status 1)"), std::string::npos) << message;
  }
  EXPECT_EQ(marker_invocations(marker), 1u);

  // The failure is sticky per design hash: the rerun re-throws without
  // paying a second compiler invocation.
  EXPECT_THROW(run_design(design, "compiled"), util::SimError);
  EXPECT_EQ(marker_invocations(marker), 1u);
}

TEST(CompiledCache, CorruptedCachedObjectIsEvictedAndRecompiled) {
  TempDir cache("corrupt");
  ScopedEnv cache_env("FTI_COMPILED_CACHE_DIR", cache.path.string());
  elab::compiled_reset_for_testing();
  if (!elab::compiled_backend_available()) {
    GTEST_SKIP() << "no host C++ toolchain in this environment";
  }

  ir::Design design = accumulator_design(9);
  ASSERT_TRUE(run_design(design, "compiled").completed);
  std::vector<std::filesystem::path> objects = cached_objects(cache.path);
  ASSERT_EQ(objects.size(), 1u);
  plant_object(objects[0], "this is not a shared object\n");

  elab::compiled_reset_for_testing();
  elab::CompiledStats before = elab::compiled_stats();
  sim::EngineResult rerun = run_design(design, "compiled");
  ASSERT_TRUE(rerun.completed);
  EXPECT_EQ(rerun.partitions[0].finals.at("acc_q"), 10u);

  elab::CompiledStats after = elab::compiled_stats();
  EXPECT_EQ(after.load_rejects, before.load_rejects + 1);
  EXPECT_EQ(after.compiles, before.compiles + 1);
  EXPECT_EQ(after.fallbacks, before.fallbacks);
}

TEST(CompiledCache, WrongDesignObjectUnderAKeyIsRejectedByItsHash) {
  TempDir cache("wrong-hash");
  ScopedEnv cache_env("FTI_COMPILED_CACHE_DIR", cache.path.string());
  elab::compiled_reset_for_testing();
  if (!elab::compiled_backend_available()) {
    GTEST_SKIP() << "no host C++ toolchain in this environment";
  }

  ir::Design first = accumulator_design(5);
  ir::Design second = accumulator_design(11);
  ASSERT_TRUE(run_design(first, "compiled").completed);
  std::vector<std::filesystem::path> after_first = cached_objects(cache.path);
  ASSERT_EQ(after_first.size(), 1u);
  ASSERT_TRUE(run_design(second, "compiled").completed);
  std::vector<std::filesystem::path> all = cached_objects(cache.path);
  ASSERT_EQ(all.size(), 2u);
  std::filesystem::path other =
      all[0] == after_first[0] ? all[1] : all[0];
  // A well-formed module for the WRONG design, planted under first's
  // key: dlopen succeeds, the embedded ir_hash does not match the
  // filename key, and the loader must reject instead of trusting it.
  plant_object(after_first[0], util::read_file(other.string()));

  elab::compiled_reset_for_testing();
  elab::CompiledStats before = elab::compiled_stats();
  sim::EngineResult rerun = run_design(first, "compiled");
  ASSERT_TRUE(rerun.completed);
  EXPECT_EQ(rerun.partitions[0].finals.at("acc_q"), 6u);

  elab::CompiledStats after = elab::compiled_stats();
  EXPECT_EQ(after.load_rejects, before.load_rejects + 1);
  EXPECT_EQ(after.compiles, before.compiles + 1);
}

TEST(CompiledCache, ObjectFromAnotherBuildFingerprintIsNeverLoaded) {
  TempDir cache("fingerprint");
  ScopedEnv cache_env("FTI_COMPILED_CACHE_DIR", cache.path.string());
  elab::compiled_reset_for_testing();
  if (!elab::compiled_backend_available()) {
    GTEST_SKIP() << "no host C++ toolchain in this environment";
  }

  ir::Design design = accumulator_design(31);
  elab::compiled_set_fingerprint_for_testing("build-a");
  ASSERT_TRUE(run_design(design, "compiled").completed);
  std::vector<std::filesystem::path> old_build = cached_objects(cache.path);
  ASSERT_EQ(old_build.size(), 1u);

  // The same IR under another build (say, an edited semantics header):
  // a miss and a fresh compile, published under a new name.
  elab::compiled_set_fingerprint_for_testing("build-b");
  elab::CompiledStats before = elab::compiled_stats();
  sim::EngineResult rebuilt = run_design(design, "compiled");
  ASSERT_TRUE(rebuilt.completed);
  EXPECT_EQ(rebuilt.partitions[0].finals.at("acc_q"), 32u);
  elab::CompiledStats after = elab::compiled_stats();
  EXPECT_EQ(after.compiles, before.compiles + 1);
  EXPECT_EQ(after.cache_hits_disk, before.cache_hits_disk);
  std::vector<std::filesystem::path> all = cached_objects(cache.path);
  ASSERT_EQ(all.size(), 2u);
  std::filesystem::path new_build = all[0] == old_build[0] ? all[1] : all[0];

  // The old build's object planted under the new build's name: its
  // baked-in key gives it away, so it is rejected and rebuilt.
  plant_object(new_build, util::read_file(old_build[0].string()));
  elab::compiled_set_fingerprint_for_testing("build-b");
  before = elab::compiled_stats();
  sim::EngineResult planted = run_design(design, "compiled");
  ASSERT_TRUE(planted.completed);
  EXPECT_EQ(planted.partitions[0].finals.at("acc_q"), 32u);
  after = elab::compiled_stats();
  EXPECT_EQ(after.load_rejects, before.load_rejects + 1);
  EXPECT_EQ(after.compiles, before.compiles + 1);
  EXPECT_EQ(after.cache_hits_disk, before.cache_hits_disk);
}

TEST(CompiledCache, WarmDiskHitSkipsTheHostCompilerEntirely) {
  TempDir cache("warm");
  TempDir tools("tools");
  ScopedEnv cache_env("FTI_COMPILED_CACHE_DIR", cache.path.string());
  elab::compiled_reset_for_testing();
  if (!elab::compiled_backend_available()) {
    GTEST_SKIP() << "no host C++ toolchain in this environment";
  }

  ir::Design design = accumulator_design(13);
  ASSERT_TRUE(run_design(design, "compiled").completed);
  ASSERT_EQ(cached_objects(cache.path).size(), 1u);

  // Forget the loaded module, then boobytrap the toolchain: any compiler
  // invocation now logs itself and fails the build.  A correct warm-cache
  // path must dlopen the cached object and never notice.
  elab::compiled_reset_for_testing();
  std::filesystem::path marker = tools.path / "invocations.log";
  std::string script = write_failing_compiler(tools.path, marker);
  ScopedEnv cxx_env("FTI_COMPILED_CXX", script);

  elab::CompiledStats before = elab::compiled_stats();
  sim::EngineResult warm = run_design(design, "compiled");
  ASSERT_TRUE(warm.completed);
  EXPECT_EQ(warm.partitions[0].finals.at("acc_q"), 14u);

  elab::CompiledStats after = elab::compiled_stats();
  EXPECT_EQ(after.cache_hits_disk, before.cache_hits_disk + 1);
  EXPECT_EQ(after.compiles, before.compiles);
  EXPECT_EQ(after.fallbacks, before.fallbacks);
  EXPECT_EQ(marker_invocations(marker), 0u);

  // Same process again: now the in-memory registry answers, no dlopen.
  elab::CompiledStats mid = elab::compiled_stats();
  ASSERT_TRUE(run_design(design, "compiled").completed);
  elab::CompiledStats final_stats = elab::compiled_stats();
  EXPECT_EQ(final_stats.cache_hits_memory, mid.cache_hits_memory + 1);
  EXPECT_EQ(final_stats.cache_hits_disk, mid.cache_hits_disk);
  EXPECT_EQ(marker_invocations(marker), 0u);
}

using elab::CompiledTier;

sim::EngineResult run_tier(const ir::Design& design, CompiledTier tier) {
  mem::MemoryPool pool;
  sim::EngineRunOptions options;
  options.collect_wire_data = true;
  return elab::CompiledEngine(tier).run(design, pool, options);
}

void expect_same_observation(const fuzz::Observation& expected,
                             const fuzz::Observation& actual,
                             const std::string& what) {
  SCOPED_TRACE(what + ": " + actual.engine + " vs " + expected.engine);
  EXPECT_TRUE(actual.error.empty()) << actual.error;
  EXPECT_EQ(actual.completed, expected.completed);
  EXPECT_EQ(actual.total_cycles, expected.total_cycles);
  EXPECT_EQ(actual.cycles, expected.cycles);
  EXPECT_EQ(actual.finals, expected.finals);
  EXPECT_EQ(actual.traces, expected.traces);
  EXPECT_EQ(actual.memories, expected.memories);
}

TEST(CompiledTiers, OneShotAndReusedModulesMatchLevelizedOnFuzzDesigns) {
  TempDir cache("tiers-fuzz");
  ScopedEnv cache_env("FTI_COMPILED_CACHE_DIR", cache.path.string());
  elab::compiled_reset_for_testing();
  if (!elab::compiled_backend_available()) {
    GTEST_SKIP() << "no host C++ toolchain in this environment";
  }
  elab::register_builtin_engines();
  constexpr std::uint64_t kDesigns = 16;
  elab::CompiledStats before = elab::compiled_stats();
  for (std::uint64_t seed = 1; seed <= kDesigns; ++seed) {
    ir::Design design = fuzz::generate_design_seeded(seed);
    auto observe = [&](const char* label, sim::Engine& engine) {
      mem::MemoryPool pool;
      sim::EngineRunOptions options;
      options.max_cycles_per_partition = 100'000;
      options.collect_wire_data = true;
      return fuzz::observe_result(label, engine.run(design, pool, options),
                                  pool);
    };
    std::unique_ptr<sim::Engine> levelized = elab::make_engine("levelized");
    elab::CompiledEngine one_shot(CompiledTier::kOneShot);
    elab::CompiledEngine reused(CompiledTier::kReused);
    fuzz::Observation expected = observe("levelized", *levelized);
    std::string what = "seed " + std::to_string(seed);
    expect_same_observation(expected, observe("one-shot", one_shot), what);
    expect_same_observation(expected, observe("reused", reused), what);
  }
  elab::CompiledStats after = elab::compiled_stats();
  EXPECT_EQ(after.oneshot_compiles - before.oneshot_compiles, kDesigns);
  EXPECT_EQ(after.compiles - before.compiles, 2 * kDesigns);
  EXPECT_EQ(after.fallbacks, before.fallbacks);
  EXPECT_EQ(cached_objects(cache.path).size(), kDesigns);
}

TEST(CompiledTiers, OneShotAndReusedModulesMatchLevelizedOnFdct) {
  TempDir cache("tiers-fdct");
  ScopedEnv cache_env("FTI_COMPILED_CACHE_DIR", cache.path.string());
  elab::compiled_reset_for_testing();
  if (!elab::compiled_backend_available()) {
    GTEST_SKIP() << "no host C++ toolchain in this environment";
  }
  elab::register_builtin_engines();
  constexpr std::size_t kBlocks = 2;
  std::string source = golden::fdct_source(kBlocks, false);
  compiler::CompileOptions options;
  options.scalar_args = {{"nblocks", kBlocks}};
  ir::Design design = compiler::compile_source(source, options).design;
  compiler::Program program = compiler::parse_program(source);
  std::vector<std::uint64_t> image = golden::make_test_image(kBlocks * 64);
  auto observe = [&](const char* label, sim::Engine& engine) {
    mem::MemoryPool pool;
    for (const auto& param : program.params) {
      if (param.is_array) {
        pool.create(param.name, param.array_size,
                    compiler::width_of(param.type));
      }
    }
    harness::load_inputs(pool, "in", image);
    sim::EngineRunOptions run_options;
    run_options.collect_wire_data = true;
    return fuzz::observe_result(label, engine.run(design, pool, run_options),
                                pool);
  };
  std::unique_ptr<sim::Engine> levelized = elab::make_engine("levelized");
  elab::CompiledEngine one_shot(CompiledTier::kOneShot);
  elab::CompiledEngine reused(CompiledTier::kReused);
  fuzz::Observation expected = observe("levelized", *levelized);
  ASSERT_TRUE(expected.completed);
  expect_same_observation(expected, observe("one-shot", one_shot), "FDCT1");
  expect_same_observation(expected, observe("reused", reused), "FDCT1");
}

TEST(CompiledTiers, OneShotNeverPublishesAndReusedPublishesOnce) {
  TempDir cache("tiers-store");
  ScopedEnv cache_env("FTI_COMPILED_CACHE_DIR", cache.path.string());
  elab::compiled_reset_for_testing();
  if (!elab::compiled_backend_available()) {
    GTEST_SKIP() << "no host C++ toolchain in this environment";
  }

  ir::Design design = accumulator_design(17);
  elab::CompiledStats before = elab::compiled_stats();
  sim::EngineResult first = run_tier(design, CompiledTier::kOneShot);
  ASSERT_TRUE(first.completed);
  EXPECT_EQ(first.partitions[0].finals.at("acc_q"), 18u);
  // Not even a scratch file is left behind.
  EXPECT_TRUE(std::filesystem::is_empty(cache.path));
  // A second one-shot run is an in-memory hit.
  ASSERT_TRUE(run_tier(design, CompiledTier::kOneShot).completed);
  elab::CompiledStats mid = elab::compiled_stats();
  EXPECT_EQ(mid.compiles, before.compiles + 1);
  EXPECT_EQ(mid.oneshot_compiles, before.oneshot_compiles + 1);
  EXPECT_EQ(mid.cache_hits_memory, before.cache_hits_memory + 1);
  EXPECT_TRUE(std::filesystem::is_empty(cache.path));

  // Another process (a fresh registry) has nothing to load from disk.
  elab::compiled_reset_for_testing();
  ASSERT_TRUE(run_tier(design, CompiledTier::kReused).completed);
  elab::CompiledStats after = elab::compiled_stats();
  EXPECT_EQ(after.cache_hits_disk, mid.cache_hits_disk);
  EXPECT_EQ(after.compiles, mid.compiles + 1);
  EXPECT_EQ(after.oneshot_compiles, mid.oneshot_compiles);
  EXPECT_EQ(cached_objects(cache.path).size(), 1u);
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(cache.path),
                          std::filesystem::directory_iterator()),
            1);
}

TEST(CompiledTiers, ReusedAcquireUpgradesAOneShotModule) {
  TempDir cache("tiers-upgrade");
  ScopedEnv cache_env("FTI_COMPILED_CACHE_DIR", cache.path.string());
  elab::compiled_reset_for_testing();
  if (!elab::compiled_backend_available()) {
    GTEST_SKIP() << "no host C++ toolchain in this environment";
  }

  ir::Design design = accumulator_design(19);
  ASSERT_TRUE(run_tier(design, CompiledTier::kOneShot).completed);
  elab::CompiledStats before = elab::compiled_stats();
  sim::EngineResult reused = run_tier(design, CompiledTier::kReused);
  ASSERT_TRUE(reused.completed);
  EXPECT_EQ(reused.partitions[0].finals.at("acc_q"), 20u);
  elab::CompiledStats after = elab::compiled_stats();
  EXPECT_EQ(after.compiles, before.compiles + 1);
  EXPECT_EQ(after.oneshot_compiles, before.oneshot_compiles);
  EXPECT_EQ(after.cache_hits_memory, before.cache_hits_memory);
  EXPECT_EQ(cached_objects(cache.path).size(), 1u);

  // The slot now holds the -O2 module: both tiers hit it in memory.
  ASSERT_TRUE(run_tier(design, CompiledTier::kReused).completed);
  ASSERT_TRUE(run_tier(design, CompiledTier::kOneShot).completed);
  elab::CompiledStats final_stats = elab::compiled_stats();
  EXPECT_EQ(final_stats.compiles, after.compiles);
  EXPECT_EQ(final_stats.cache_hits_memory, after.cache_hits_memory + 2);
}

TEST(CompiledTiers, OneShotAcquireAcceptsAReusedModule) {
  TempDir cache("tiers-accept");
  TempDir tools("tools");
  ScopedEnv cache_env("FTI_COMPILED_CACHE_DIR", cache.path.string());
  elab::compiled_reset_for_testing();
  if (!elab::compiled_backend_available()) {
    GTEST_SKIP() << "no host C++ toolchain in this environment";
  }

  ir::Design design = accumulator_design(23);
  ASSERT_TRUE(run_tier(design, CompiledTier::kReused).completed);
  std::filesystem::path marker = tools.path / "invocations.log";
  std::string script = write_failing_compiler(tools.path, marker);
  ScopedEnv cxx_env("FTI_COMPILED_CXX", script);

  // In memory...
  elab::CompiledStats before = elab::compiled_stats();
  ASSERT_TRUE(run_tier(design, CompiledTier::kOneShot).completed);
  elab::CompiledStats mid = elab::compiled_stats();
  EXPECT_EQ(mid.cache_hits_memory, before.cache_hits_memory + 1);
  // ...and on disk, in a fresh registry.
  elab::compiled_reset_for_testing();
  sim::EngineResult warm = run_tier(design, CompiledTier::kOneShot);
  ASSERT_TRUE(warm.completed);
  EXPECT_EQ(warm.partitions[0].finals.at("acc_q"), 24u);
  elab::CompiledStats after = elab::compiled_stats();
  EXPECT_EQ(after.cache_hits_disk, mid.cache_hits_disk + 1);
  EXPECT_EQ(after.compiles, before.compiles);
  EXPECT_EQ(after.fallbacks, before.fallbacks);
  EXPECT_EQ(marker_invocations(marker), 0u);
}

TEST(CompiledTiers, CompileFailuresStickAcrossBothTiers) {
  TempDir tools("tools");
  std::filesystem::path marker = tools.path / "invocations.log";
  std::string script = write_failing_compiler(tools.path, marker);
  for (CompiledTier first : {CompiledTier::kOneShot, CompiledTier::kReused}) {
    TempDir cache("tiers-sticky");
    ScopedEnv cache_env("FTI_COMPILED_CACHE_DIR", cache.path.string());
    ScopedEnv cxx_env("FTI_COMPILED_CXX", script);
    elab::compiled_reset_for_testing();
    std::size_t invocations = marker_invocations(marker);
    ir::Design design = accumulator_design(29);
    try {
      run_tier(design, first);
      FAIL() << "a failing host compiler must surface as SimError";
    } catch (const util::SimError& error) {
      std::string message = error.what();
      EXPECT_NE(message.find("synthetic-diagnostic"), std::string::npos)
          << message;
      EXPECT_NE(message.find("(exit status 1)"), std::string::npos)
          << message;
    }
    EXPECT_EQ(marker_invocations(marker), invocations + 1);
    EXPECT_THROW(run_tier(design, CompiledTier::kOneShot), util::SimError);
    EXPECT_THROW(run_tier(design, CompiledTier::kReused), util::SimError);
    EXPECT_EQ(marker_invocations(marker), invocations + 1);
    EXPECT_TRUE(std::filesystem::is_empty(cache.path));
  }
}

}  // namespace
}  // namespace fti
