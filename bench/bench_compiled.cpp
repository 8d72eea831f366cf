// E9 -- compiled-engine cost ladder: cold compile vs warm cache vs the
// interpreter it replaces (the batched engine at one lane, registered
// as "levelized").
//
// The "compiled" engine lowers each levelized schedule to straight-line
// C++, pays one host-compiler invocation per design, and then reuses
// the shared object through two cache tiers (in-process module
// registry, on-disk SoStore).  This benchmark prices every rung on the
// paper's FDCT kernel:
//
//   levelized    the interpreted baseline the backend falls back to
//                (the one-lane batched sweep)
//   cold         emit + host compile + dlopen + run (empty cache)
//   warm-disk    fresh process shape: dlopen straight off SoStore
//   warm-memory  fti-serve resubmission shape: registry hit, zero I/O
//
// Every run is cross-checked against the levelized baseline (cycles and
// final memory words bit-identical), and the compiled_stats() deltas
// are asserted so the series measure what their names claim (the cold
// run compiles exactly once; neither warm run compiles at all).
//
// A second table (E12) prices the two build tiers at run time: the
// median warm-memory run of an -O2 (kReused) module against an -O0
// (kOneShot) module of the same design, on FDCT1 and every kernel in
// examples/kernels, each cross-checked against the levelized result.
//
//   bench_compiled [--json PATH]   (conventionally PATH=BENCH_compiled.json)
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "fti/compiler/hls.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/elab/compiled.hpp"
#include "fti/elab/engines.hpp"
#include "fti/golden/fdct.hpp"
#include "fti/golden/rng.hpp"
#include "fti/harness/suite_io.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/util/cli.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/json.hpp"
#include "fti/util/table.hpp"

namespace {

struct Measure {
  double seconds = 0;
  std::uint64_t cycles = 0;
  bool identical = true;
};

fti::sim::EngineResult run_once(const fti::ir::Design& design,
                                const std::string& engine,
                                fti::mem::MemoryPool& pool) {
  fti::sim::EngineRunOptions options;
  options.collect_wire_data = true;
  return fti::elab::make_engine(engine)->run(design, pool, options);
}

/// A design plus the memories its pool starts from.
struct Workload {
  struct Array {
    std::string name;
    std::size_t depth;
    unsigned width;
  };

  std::string name;
  fti::ir::Design design;
  std::vector<Array> arrays;
  std::map<std::string, std::vector<std::uint64_t>> inputs;

  Workload(std::string name, fti::ir::Design design, std::string_view source,
           std::map<std::string, std::vector<std::uint64_t>> inputs)
      : name(std::move(name)),
        design(std::move(design)),
        inputs(std::move(inputs)) {
    for (const auto& param : fti::compiler::parse_program(source).params) {
      if (param.is_array) {
        arrays.push_back({param.name, param.array_size,
                          fti::compiler::width_of(param.type)});
      }
    }
  }

  void prime(fti::mem::MemoryPool& pool) const {
    for (const Array& array : arrays) {
      pool.create(array.name, array.depth, array.width);
    }
    for (const auto& [name, values] : inputs) {
      fti::harness::load_inputs(pool, name, values);
    }
  }
};

/// Warm runs per tier; the table reports their median.
constexpr int kRepeats = 9;

struct TierMeasure {
  double first_seconds = 0;  ///< the run that builds (or loads) the module
  double median_seconds = 0;
  bool identical = true;
};

/// Runs `engine` on `work` once, then kRepeats more times for the
/// median.  Every run is checked against `baseline`.
TierMeasure warm_median(fti::sim::Engine& engine, const Workload& work,
                        const fti::sim::EngineResult& baseline,
                        const fti::mem::MemoryPool& baseline_pool) {
  TierMeasure m;
  std::vector<double> samples;
  for (int i = 0; i <= kRepeats; ++i) {
    fti::mem::MemoryPool pool;
    work.prime(pool);
    fti::sim::EngineRunOptions options;
    options.collect_wire_data = true;
    fti::util::Stopwatch timer;
    fti::sim::EngineResult result = engine.run(work.design, pool, options);
    (i == 0 ? m.first_seconds : samples.emplace_back()) = timer.seconds();
    m.identical = m.identical && result.completed &&
                  result.total_cycles() == baseline.total_cycles();
    for (const std::string& name : baseline_pool.names()) {
      m.identical = m.identical && pool.get(name).words() ==
                                       baseline_pool.get(name).words();
    }
  }
  std::sort(samples.begin(), samples.end());
  m.median_seconds = samples[samples.size() / 2];
  return m;
}

/// A fresh private object cache (exported as FTI_COMPILED_CACHE_DIR)
/// and an empty module registry, so the next acquire of every design
/// compiles.  Empty path when mkdtemp fails.
std::filesystem::path fresh_object_cache(const char* stem) {
  std::string pattern =
      (std::filesystem::temp_directory_path() / stem).string() + "-XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    return {};
  }
  ::setenv("FTI_COMPILED_CACHE_DIR", pattern.c_str(), 1);
  fti::elab::compiled_reset_for_testing();
  return pattern;
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path json_path;
  try {
    json_path = fti::util::extract_path_flag(argc, argv, "--json");
  } catch (const fti::util::UsageError& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
  }
  fti::elab::register_builtin_engines();

  // A private object cache so the bench always measures a true cold
  // compile, whatever earlier runs left in the default store.
  std::string cache_template =
      (std::filesystem::temp_directory_path() / "fti-bench-compiled-XXXXXX")
          .string();
  char* cache_dir = ::mkdtemp(cache_template.data());
  if (cache_dir == nullptr) {
    std::cerr << argv[0] << ": mkdtemp failed\n";
    return 1;
  }
  ::setenv("FTI_COMPILED_CACHE_DIR", cache_dir, 1);
  fti::elab::compiled_reset_for_testing();
  if (!fti::elab::compiled_backend_available()) {
    std::cerr << argv[0] << ": no usable host C++ compiler ("
              << fti::elab::compiled_status().reason
              << "); nothing to measure\n";
    return 1;
  }

  constexpr std::size_t kBlocks = 16;
  std::string source = fti::golden::fdct_source(kBlocks, false);
  fti::compiler::CompileOptions options;
  options.scalar_args = {{"nblocks", kBlocks}};
  auto compiled = fti::compiler::compile_source(source, options);
  fti::compiler::Program program = fti::compiler::parse_program(source);
  std::vector<std::uint64_t> image =
      fti::golden::make_test_image(kBlocks * 64);
  auto prime = [&](fti::mem::MemoryPool& pool) {
    for (const auto& param : program.params) {
      if (param.is_array) {
        pool.create(param.name, param.array_size,
                    fti::compiler::width_of(param.type));
      }
    }
    fti::harness::load_inputs(pool, "in", image);
  };

  // Baseline: the interpreter every other series must match bit-for-bit.
  fti::mem::MemoryPool baseline_pool;
  prime(baseline_pool);
  fti::util::Stopwatch watch;
  fti::sim::EngineResult baseline =
      run_once(compiled.design, "levelized", baseline_pool);
  double levelized_seconds = watch.seconds();

  auto series = [&](const char* label) {
    fti::mem::MemoryPool pool;
    prime(pool);
    fti::elab::CompiledStats before = fti::elab::compiled_stats();
    fti::util::Stopwatch timer;
    fti::sim::EngineResult result = run_once(compiled.design, "compiled", pool);
    Measure m;
    m.seconds = timer.seconds();
    m.cycles = result.total_cycles();
    fti::elab::CompiledStats after = fti::elab::compiled_stats();
    m.identical = result.completed &&
                  result.total_cycles() == baseline.total_cycles();
    for (const std::string& name : baseline_pool.names()) {
      m.identical = m.identical && pool.get(name).words() ==
                                       baseline_pool.get(name).words();
    }
    if (after.fallbacks != before.fallbacks) {
      std::cerr << label << ": unexpected levelized fallback\n";
      m.identical = false;
    }
    return m;
  };

  Measure cold = series("cold");
  Measure warm_memory = series("warm-memory");
  fti::elab::compiled_reset_for_testing();
  Measure warm_disk = series("warm-disk");

  fti::elab::CompiledStats stats = fti::elab::compiled_stats();
  bool series_honest = stats.compiles == 1 && stats.cache_hits_disk >= 1 &&
                       stats.cache_hits_memory >= 1;

  // E12: the build tiers priced end to end.  Each tier starts from an
  // empty registry and object cache, so its first run of every design
  // is a cold build at that tier; the median of the warm runs after it
  // is what a reused module saves.
  std::vector<Workload> workloads;
  workloads.emplace_back("fdct1", compiled.design, source,
                         std::map<std::string, std::vector<std::uint64_t>>{
                             {"in", image}});
  std::vector<std::filesystem::path> kernels;
  for (const auto& entry :
       std::filesystem::directory_iterator(FTI_EXAMPLE_KERNELS_DIR)) {
    if (entry.path().extension() == ".k") {
      kernels.push_back(entry.path());
    }
  }
  std::sort(kernels.begin(), kernels.end());
  for (const auto& path : kernels) {
    fti::harness::TestCase test = fti::harness::load_test_case(path);
    fti::compiler::CompileOptions kernel_options;
    kernel_options.resources = test.resources;
    kernel_options.scalar_args = test.scalar_args;
    workloads.emplace_back(
        test.name,
        fti::compiler::compile_source(test.source, kernel_options).design,
        test.source, test.inputs);
  }
  struct TierRow {
    fti::mem::MemoryPool baseline_pool;
    fti::sim::EngineResult baseline;
    TierMeasure levelized, reused, one_shot;
  };
  std::vector<TierRow> tier_rows(workloads.size());
  std::unique_ptr<fti::sim::Engine> levelized =
      fti::elab::make_engine("levelized");
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    TierRow& row = tier_rows[i];
    workloads[i].prime(row.baseline_pool);
    fti::sim::EngineRunOptions run_options;
    run_options.collect_wire_data = true;
    row.baseline =
        levelized->run(workloads[i].design, row.baseline_pool, run_options);
    row.levelized = warm_median(*levelized, workloads[i], row.baseline,
                                row.baseline_pool);
  }
  bool tiers_honest = true;
  std::vector<std::filesystem::path> tier_dirs;
  auto tier_pass = [&](fti::elab::CompiledTier tier,
                       TierMeasure TierRow::*into) {
    tier_dirs.push_back(fresh_object_cache("fti-bench-tiers"));
    fti::elab::CompiledEngine engine(tier);
    fti::elab::CompiledStats before = fti::elab::compiled_stats();
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      TierRow& row = tier_rows[i];
      row.*into = warm_median(engine, workloads[i], row.baseline,
                              row.baseline_pool);
    }
    fti::elab::CompiledStats after = fti::elab::compiled_stats();
    bool one_shot = tier == fti::elab::CompiledTier::kOneShot;
    // One build per design, no fallback, and only the reused tier
    // publishes to the object cache.
    tiers_honest = tiers_honest && !tier_dirs.back().empty() &&
                   after.compiles - before.compiles == workloads.size() &&
                   after.oneshot_compiles - before.oneshot_compiles ==
                       (one_shot ? workloads.size() : 0) &&
                   after.fallbacks == before.fallbacks &&
                   std::filesystem::is_empty(tier_dirs.back()) == one_shot;
  };
  tier_pass(fti::elab::CompiledTier::kReused, &TierRow::reused);
  tier_pass(fti::elab::CompiledTier::kOneShot, &TierRow::one_shot);
  bool tiers_identical = true;

  fti::util::JsonReport report("compiled");
  fti::util::TextTable table(
      {"series", "wall (s)", "vs levelized", "cycles", "identical"});
  auto row = [&](const char* name, double seconds, const Measure* m) {
    table.add_row({name, fti::util::format_double(seconds, 4),
                   fti::util::format_double(seconds / levelized_seconds, 2),
                   m == nullptr ? fti::util::format_count(
                                      baseline.total_cycles())
                                : fti::util::format_count(m->cycles),
                   m == nullptr ? "--" : (m->identical ? "yes" : "NO")});
    fti::util::JsonReport::Workload& workload = report.workload(name);
    workload.set("wall_seconds", seconds);
    workload.set("vs_levelized", seconds / levelized_seconds);
    if (m != nullptr) {
      workload.set("bit_identical", m->identical);
    }
  };
  row("levelized", levelized_seconds, nullptr);
  row("cold (emit+cc+dlopen)", cold.seconds, &cold);
  row("warm-disk (dlopen)", warm_disk.seconds, &warm_disk);
  row("warm-memory (registry)", warm_memory.seconds, &warm_memory);
  report.workload("stats").set("compiles", stats.compiles);
  report.workload("stats").set("cache_hits_disk", stats.cache_hits_disk);
  report.workload("stats").set("cache_hits_memory", stats.cache_hits_memory);
  report.workload("stats").set("series_honest", series_honest);

  fti::util::TextTable tier_table(
      {"design", "cycles", "levelized (ms)", "-O2 cold (s)", "-O0 cold (s)",
       "-O2 warm (ms)", "-O0 warm (ms)", "-O0 / -O2 warm", "identical"});
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const TierRow& row = tier_rows[i];
    bool identical = row.levelized.identical && row.reused.identical &&
                     row.one_shot.identical;
    tiers_identical = tiers_identical && identical;
    double ratio = row.one_shot.median_seconds / row.reused.median_seconds;
    tier_table.add_row(
        {workloads[i].name,
         fti::util::format_count(row.baseline.total_cycles()),
         fti::util::format_double(row.levelized.median_seconds * 1e3, 3),
         fti::util::format_double(row.reused.first_seconds, 3),
         fti::util::format_double(row.one_shot.first_seconds, 3),
         fti::util::format_double(row.reused.median_seconds * 1e3, 3),
         fti::util::format_double(row.one_shot.median_seconds * 1e3, 3),
         fti::util::format_double(ratio, 2), identical ? "yes" : "NO"});
    fti::util::JsonReport::Workload& workload =
        report.workload("tiers/" + workloads[i].name);
    workload.set("levelized_ms", row.levelized.median_seconds * 1e3);
    workload.set("o2_cold_s", row.reused.first_seconds);
    workload.set("o0_cold_s", row.one_shot.first_seconds);
    workload.set("o2_warm_ms", row.reused.median_seconds * 1e3);
    workload.set("o0_warm_ms", row.one_shot.median_seconds * 1e3);
    workload.set("o0_over_o2_warm", ratio);
    workload.set("bit_identical", identical);
  }
  report.workload("stats").set("tiers_honest", tiers_honest);

  std::cout << "=== compiled engine: cold vs warm vs interpreter, FDCT1 ("
            << kBlocks * 64 << " px) (E9) ===\n"
            << table.to_string() << "\n";
  std::cout << "compiles=" << stats.compiles
            << " disk_hits=" << stats.cache_hits_disk
            << " memory_hits=" << stats.cache_hits_memory
            << (series_honest ? "" : "  [UNEXPECTED CACHE BEHAVIOUR]")
            << "\n";
  std::cout << "\n=== build tiers: cold build, then median warm-memory run "
               "of "
            << kRepeats << " (E12) ===\n"
            << tier_table.to_string()
            << (tiers_honest ? ""
                             : "  [UNEXPECTED TIER CACHE BEHAVIOUR]\n");
  if (!json_path.empty()) {
    report.write(json_path);
    std::cout << "wrote " << json_path.string() << "\n";
  }
  std::filesystem::remove_all(cache_dir);
  for (const auto& dir : tier_dirs) {
    std::filesystem::remove_all(dir);
  }
  bool ok = series_honest && cold.identical && warm_disk.identical &&
            warm_memory.identical && tiers_honest && tiers_identical;
  return ok ? 0 : 1;
}
