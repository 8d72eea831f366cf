// E3 -- event-driven vs full-evaluation vs levelized simulation.
//
// The paper motivates a software event-driven engine with prior results
// showing such simulators beating conventional HDL simulation [2][3].  We
// reproduce the comparison against our own faithful stand-ins for the two
// classic strategies: the full-sweep "naive" baseline (re-evaluate every
// combinational unit until settled, every cycle) and the statically
// scheduled "levelized" engine (one rank-ordered straight-line sweep per
// cycle -- the batched engine at one lane).  All three engines share operator semantics and must
// produce bit-identical memories, so the differences isolate scheduling
// strategy.
//
// Each design is checked once (one elab::CheckedDesign shared by the
// three engines); every engine runs it once untimed, which builds the
// handle's schedule, slot and slice memos and warms the caches, then
// kTimedRuns times over freshly primed pools.  A column is the median of
// the timed runs' simulated wall time.
//
//   bench_baseline [--json PATH]   (conventionally PATH=BENCH_baseline.json)
//                  [--obs]         record observability metrics + spans
//                                  during the runs (E4 overhead harness:
//                                  diff wall times against a run without)
#include <algorithm>
#include <iostream>

#include "fti/obs/metrics.hpp"
#include "fti/util/cli.hpp"
#include "fti/util/json.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/elab/engines.hpp"
#include "fti/golden/fdct.hpp"
#include "fti/golden/rng.hpp"
#include "fti/golden/hamming.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/util/table.hpp"

namespace {

constexpr std::size_t kTimedRuns = 3;

struct EngineRun {
  fti::sim::EngineResult result;
  fti::mem::MemoryPool pool;
  double seconds = 0;
  std::uint64_t evaluations = 0;
};

void compare(const std::string& name, const std::string& source,
             std::map<std::string, std::int64_t> args,
             std::map<std::string, std::vector<std::uint64_t>> inputs,
             fti::util::TextTable& table, fti::util::JsonReport& report) {
  fti::compiler::CompileOptions options;
  options.scalar_args = args;
  auto compiled = fti::compiler::compile_source(source, options);
  auto prime = [&](fti::mem::MemoryPool& pool) {
    fti::compiler::Program program = fti::compiler::parse_program(source);
    for (const auto& param : program.params) {
      if (param.is_array) {
        pool.create(param.name, param.array_size,
                    fti::compiler::width_of(param.type));
      }
    }
    for (const auto& [array, values] : inputs) {
      fti::harness::load_inputs(pool, array, values);
    }
  };

  const fti::elab::CheckedDesign checked(compiled.design);
  const std::vector<std::string> engines{"event", "naive", "levelized"};
  std::map<std::string, EngineRun> runs;
  for (const std::string& engine_name : engines) {
    auto engine = fti::elab::make_engine(engine_name);
    fti::mem::MemoryPool warmup;
    prime(warmup);
    engine->run(checked, warmup, {});
    // The first timed run's pool and result are the ones compared.
    EngineRun& run = runs[engine_name];
    prime(run.pool);
    run.result = engine->run(checked, run.pool, {});
    std::vector<double> seconds{run.result.total_wall_seconds()};
    while (seconds.size() < kTimedRuns) {
      fti::mem::MemoryPool pool;
      prime(pool);
      seconds.push_back(engine->run(checked, pool, {}).total_wall_seconds());
    }
    std::sort(seconds.begin(), seconds.end());
    run.seconds = seconds[kTimedRuns / 2];
    for (const auto& partition : run.result.partitions) {
      run.evaluations += partition.stats.evaluations;
    }
  }

  const EngineRun& event = runs.at("event");
  const EngineRun& naive = runs.at("naive");
  const EngineRun& levelized = runs.at("levelized");
  bool identical = true;
  for (const std::string& engine_name : engines) {
    identical = identical && runs.at(engine_name).result.completed;
  }
  for (const std::string& array : naive.pool.names()) {
    for (const std::string& engine_name : engines) {
      identical = identical && event.pool.get(array).words() ==
                                   runs.at(engine_name).pool.get(array)
                                       .words();
    }
  }

  table.add_row(
      {name, fti::util::format_count(event.result.total_cycles()),
       fti::util::format_count(event.evaluations),
       fti::util::format_count(naive.evaluations),
       fti::util::format_double(event.seconds, 3),
       fti::util::format_double(naive.seconds, 3),
       fti::util::format_double(levelized.seconds, 3),
       fti::util::format_double(naive.seconds / event.seconds, 2),
       fti::util::format_double(naive.seconds / levelized.seconds, 2),
       identical ? "yes" : "NO"});

  fti::util::JsonReport::Workload& workload = report.workload(name);
  workload.set("cycles", event.result.total_cycles());
  workload.set("bit_identical", identical);
  for (const std::string& engine_name : engines) {
    const EngineRun& run = runs.at(engine_name);
    workload.set(engine_name + ".wall_seconds", run.seconds);
    fti::sim::KernelStats total;
    for (const auto& partition : run.result.partitions) {
      total.events += partition.stats.events;
      total.evaluations += partition.stats.evaluations;
      total.delta_cycles += partition.stats.delta_cycles;
      total.timesteps += partition.stats.timesteps;
      total.end_time += partition.stats.end_time;
    }
    workload.stats(engine_name, total);
  }
  workload.set("speedup.event_vs_naive", naive.seconds / event.seconds);
  workload.set("speedup.levelized_vs_naive",
               naive.seconds / levelized.seconds);
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
  bool obs_enabled = fti::util::extract_flag(argc, argv, "--obs");
  if (obs_enabled) {
    fti::obs::set_enabled(true);
  }
  fti::util::JsonReport report("baseline");
  report.set("obs_enabled", obs_enabled);
  report.set("timed_runs", static_cast<std::uint64_t>(kTimedRuns));
  fti::util::TextTable table({"design", "cycles", "evals (event)",
                              "evals (naive)", "event (s)", "naive (s)",
                              "levelized (s)", "event spd", "lev spd",
                              "bit-identical"});

  constexpr std::size_t kBlocks = 64;
  compare("FDCT1 (4,096 px)", fti::golden::fdct_source(kBlocks, false),
          {{"nblocks", kBlocks}},
          {{"in", fti::golden::make_test_image(kBlocks * 64)}}, table,
          report);
  compare("FDCT2 (4,096 px)", fti::golden::fdct_source(kBlocks, true),
          {{"nblocks", kBlocks}},
          {{"in", fti::golden::make_test_image(kBlocks * 64)}}, table,
          report);
  constexpr std::size_t kWords = 4096;
  compare("Hamming (4,096 words)", fti::golden::hamming_source(kWords),
          {{"n", kWords}},
          {{"code", fti::golden::make_codewords(kWords, 31, 5)}}, table,
          report);

  std::cout << "=== event / naive / levelized engine comparison (E3) ===\n"
            << table.to_string() << "\n";
  std::cout
      << "expected shape: the event kernel touches only active components\n"
         "(naive/event eval ratio > 1, growing with datapath size); the\n"
         "levelized engine trades that activity filter for a straight-line\n"
         "sweep with zero scheduling overhead, so both beat the\n"
         "evaluate-until-settled baseline.\n";
  if (!json_path.empty()) {
    report.write(json_path);
    std::cout << "wrote " << json_path.string() << "\n";
  }
  return 0;
}
