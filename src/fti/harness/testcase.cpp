#include "fti/harness/testcase.hpp"

#include <algorithm>
#include <deque>

#include "fti/cache/design_cache.hpp"
#include "fti/codegen/dot.hpp"
#include "fti/codegen/hds.hpp"
#include "fti/codegen/verilog.hpp"
#include "fti/codegen/systemc.hpp"
#include "fti/codegen/vhdl.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/compiler/sema.hpp"
#include "fti/ir/serde.hpp"
#include "fti/lint/lint.hpp"
#include "fti/mem/memfile.hpp"
#include "fti/sim/bits.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/strings.hpp"
#include "fti/xml/parser.hpp"
#include "fti/xml/writer.hpp"

namespace fti::harness {

void load_inputs(mem::MemoryPool& pool, const std::string& name,
                 const std::vector<std::uint64_t>& values) {
  mem::MemoryImage& image = pool.get(name);
  if (values.size() > image.depth()) {
    throw util::IoError("input for '" + name + "' has " +
                        std::to_string(values.size()) +
                        " words but the memory holds " +
                        std::to_string(image.depth()));
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    image.write(i, values[i]);
  }
}

namespace {

/// Creates pool images for every array parameter and fills the declared
/// inputs, so golden and simulated runs start from identical memory.
void prime_pool(const compiler::Program& program,
                const compiler::SemaInfo& sema, const TestCase& test,
                mem::MemoryPool& pool, bool load_values) {
  (void)program;
  for (const auto& [name, param] : sema.arrays) {
    pool.create(name, param.array_size, compiler::width_of(param.type));
  }
  for (const auto& [name, values] : test.inputs) {
    if (sema.arrays.find(name) == sema.arrays.end()) {
      throw util::IoError("test case feeds unknown array '" + name + "'");
    }
    if (load_values) {
      load_inputs(pool, name, values);
    }
  }
}

/// Seed-derived random stimulus for lanes k >= 1 of a batched verify.
/// Deliberately a local splitmix64: the harness cannot depend on fti_fuzz
/// (the fuzzer already links the harness).
class LaneRng {
 public:
  explicit LaneRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Fills every array parameter with (seed, lane)-derived random words --
/// the same contents for the golden pool and the simulated pool of that
/// lane, so both sides start from identical memory.  The sign bit stays
/// clear: kernels with data-dependent loops are commonly written against
/// non-negative inputs (`while (v != 0) v = v >> 1;` never terminates on
/// a negative word under arithmetic shift), and a stimulus lane that
/// hangs the design tests nothing.
void prime_random_lane(const compiler::SemaInfo& sema, std::uint64_t seed,
                       std::uint32_t lane, mem::MemoryPool& pool) {
  LaneRng rng(seed ^ (0xa0761d6478bd642full * (lane + 1)));
  for (const auto& [name, param] : sema.arrays) {
    std::uint32_t width = compiler::width_of(param.type);
    std::uint64_t mask =
        width > 1 ? sim::Bits::mask(width - 1) : sim::Bits::mask(width);
    mem::MemoryImage& image = pool.create(name, param.array_size, width);
    for (std::size_t i = 0; i < image.depth(); ++i) {
      image.write(i, rng.next() & mask);
    }
  }
}

/// "lane K: " prefix for multi-lane verdict messages; empty for the
/// classic single-lane run.
std::string lane_tag(std::uint32_t lane, std::uint32_t lane_count) {
  return lane_count > 1 ? "lane " + std::to_string(lane) + ": " : "";
}

/// Stage-boundary cancellation point (see VerifyOptions::cancel).
void check_cancel(const VerifyOptions& options) {
  if (options.cancel && options.cancel->load(std::memory_order_relaxed)) {
    throw util::CancelledError("verify cancelled");
  }
}

/// Source-level cache key: everything that determines the compiled
/// design.  Program text, scalar arguments and resource limits feed the
/// compiler directly; inputs only shape the design when they are baked
/// in as ROM contents.  Stimulus-only knobs (non-embedded inputs,
/// check_arrays, max_cycles, test name) stay out -- they vary per
/// request without invalidating the design.
cache::Key source_key_of(const TestCase& test) {
  cache::Hasher hasher;
  hasher.mix_string("testcase");
  hasher.mix_string(test.source);
  hasher.mix_u64(test.scalar_args.size());
  for (const auto& [name, value] : test.scalar_args) {
    hasher.mix_string(name);
    hasher.mix_u64(static_cast<std::uint64_t>(value));
  }
  const compiler::Resources& resources = test.resources;
  hasher.mix_string("resources");
  hasher.mix_u64(resources.limits.size());
  for (const auto& [fu_class, limit] : resources.limits) {
    hasher.mix_string(fu_class);
    hasher.mix_u32(limit);
  }
  hasher.mix_u32(resources.default_limit);
  hasher.mix_u64(resources.latencies.size());
  for (const auto& [fu_class, latency] : resources.latencies) {
    hasher.mix_string(fu_class);
    hasher.mix_u32(latency);
  }
  hasher.mix_u64(resources.memory_read_ports.size());
  for (const auto& [array, ports] : resources.memory_read_ports) {
    hasher.mix_string(array);
    hasher.mix_u32(ports);
  }
  hasher.mix_u32(resources.default_memory_read_ports);
  hasher.mix_bool(test.embed_inputs);
  if (test.embed_inputs) {
    hasher.mix_u64(test.inputs.size());
    for (const auto& [name, values] : test.inputs) {
      hasher.mix_string(name);
      hasher.mix_u64(values.size());
      for (std::uint64_t value : values) {
        hasher.mix_u64(value);
      }
    }
  }
  return hasher.key();
}

/// Line counts of the design's XML dialects and, when asked for, of
/// every generated backend -- which a non-empty emit_dir also receives.
FlowArtifacts design_artifacts(const ir::Design& design,
                               const TestCase& test,
                               const VerifyOptions& options) {
  FlowArtifacts artifacts;
  for (const std::string& node : design.rtg.nodes) {
    const ir::Configuration& config = design.configuration(node);
    artifacts.lo_xml_datapath +=
        util::count_lines(xml::to_string(*ir::to_xml(config.datapath)));
    artifacts.lo_xml_fsm +=
        util::count_lines(xml::to_string(*ir::to_xml(config.fsm)));
  }
  artifacts.lo_xml_rtg =
      util::count_lines(xml::to_string(*ir::to_xml(design.rtg)));
  if (!options.generate_artifacts) {
    return artifacts;
  }
  std::string hds = codegen::design_to_hds(design);
  std::string vhdl = codegen::design_to_vhdl(design);
  std::string verilog = codegen::design_to_verilog(design);
  std::string systemc = codegen::design_to_systemc(design);
  std::string dot;
  for (const std::string& node : design.rtg.nodes) {
    const ir::Configuration& config = design.configuration(node);
    dot += codegen::datapath_to_dot(config.datapath);
    dot += codegen::fsm_to_dot(config.fsm);
  }
  dot += codegen::rtg_to_dot(design.rtg);
  artifacts.lo_hds = util::count_lines(hds);
  artifacts.lo_vhdl = util::count_lines(vhdl);
  artifacts.lo_verilog = util::count_lines(verilog);
  artifacts.lo_systemc = util::count_lines(systemc);
  artifacts.lo_dot = util::count_lines(dot);
  if (!options.emit_dir.empty()) {
    util::write_file(options.emit_dir / (test.name + ".hds"), hds);
    util::write_file(options.emit_dir / (test.name + ".vhdl"), vhdl);
    util::write_file(options.emit_dir / (test.name + ".v"), verilog);
    util::write_file(options.emit_dir / (test.name + ".sc.cpp"), systemc);
    util::write_file(options.emit_dir / (test.name + ".dot"), dot);
  }
  return artifacts;
}

/// design_artifacts() plus the source's line count.  Cached designs
/// memoize the design's counts on the entry (first run pays, warm
/// resubmissions read); cacheable runs never emit to disk (a non-empty
/// emit_dir forces the cache off), so those counts are a pure function
/// of the design.
FlowArtifacts collect_artifacts(const ir::Design& design,
                                const TestCase& test,
                                const VerifyOptions& options,
                                const cache::DesignCache::Entry& entry) {
  FlowArtifacts artifacts;
  if (entry) {
    std::lock_guard<std::mutex> lock(entry->schedule_mutex);
    std::optional<FlowArtifacts>& memo =
        entry->artifact_lines[options.generate_artifacts ? 1 : 0];
    if (!memo) {
      memo = design_artifacts(design, test, options);
    }
    artifacts = *memo;
  } else {
    artifacts = design_artifacts(design, test, options);
  }
  artifacts.lo_source = util::count_lines(test.source);
  return artifacts;
}

}  // namespace

VerifyOutcome run_test_case(const TestCase& test,
                            const VerifyOptions& options) {
  VerifyOutcome outcome;
  util::Stopwatch watch;
  check_cancel(options);

  // 0. Parse + sema run even on a warm cache hit: the golden interpreter
  //    (step 4) replays the program, and pool priming needs the array
  //    shapes.  Only the back half of compilation -- HLS, lint and the
  //    XML round-trip -- is memoizable.
  compiler::Program program = compiler::parse_program(test.source);
  compiler::SemaInfo sema = compiler::check_program(program);

  const bool cacheable = options.design_cache != nullptr &&
                         !options.post_compile && options.emit_dir.empty();
  cache::Key source_key;
  cache::DesignCache::Entry entry;
  if (cacheable) {
    source_key = source_key_of(test);
    entry = options.design_cache->find_source(source_key);
  }

  // The design the simulator consumes: the cached entry's design on a
  // hit, this run's round-tripped design otherwise.  When caching, even
  // the cold run simulates the instance the cache now owns, so the
  // schedule provider memoizes from the very first run.
  const ir::Design* design = nullptr;
  ir::Design local_design;

  if (entry) {
    // Warm path: HLS, lint and the round-trip are skipped; the gate is
    // re-applied per request from the cached report, so a stricter gate
    // still blocks exactly like a cold run would.
    outcome.cache_hit = true;
    outcome.compile_seconds = watch.seconds();
    if (options.lint_gate != lint::Gate::kOff) {
      // The cached report carries the semantic tier; a --semantic=off
      // request sees the filtered view without re-running the fixpoint.
      outcome.lint = options.semantic ? entry->lint
                                      : lint::without_semantic(entry->lint);
      if (lint::blocks(options.lint_gate, outcome.lint)) {
        outcome.lint_blocked = true;
        outcome.passed = false;
        outcome.message =
            "lint gate: design '" + outcome.lint.design + "' has " +
            std::to_string(outcome.lint.errors()) + " error(s), " +
            std::to_string(outcome.lint.warnings()) +
            " warning(s); simulation not started";
        return outcome;
      }
    }
    design = entry->design.get();
  } else {
    // 1. Compile.
    compiler::CompileOptions compile_options;
    compile_options.resources = test.resources;
    compile_options.scalar_args = test.scalar_args;
    if (test.embed_inputs) {
      // Bake the inputs into the <memory> declarations: the XML file set
      // is then self-contained and elaboration applies them as power-up
      // state.
      compile_options.rom_contents = test.inputs;
    }
    outcome.compiled = compiler::compile_program(program, compile_options);
    outcome.compile_seconds = watch.seconds();
    if (options.post_compile) {
      options.post_compile(outcome.compiled.design);
    }
    check_cancel(options);

    // 2. Lint gate.  Runs on the raw compiled design (lint never throws
    //    on malformed IR, unlike the round-trip below), so a structural
    //    defect is reported with rule IDs instead of a parse-time
    //    exception, and a gated design never reaches the simulator.
    //    When caching, the report is computed even with the gate off, so
    //    the cache entry can answer any later request's gate.
    lint::Report lint_report;
    if (options.lint_gate != lint::Gate::kOff || cacheable) {
      // A cacheable run always analyzes with the semantic tier on, so
      // the cache entry can answer any later request's view; the filter
      // below gives this request what it asked for.
      lint::Options lint_options;
      lint_options.semantic = options.semantic || cacheable;
      lint_report = lint::lint_design(outcome.compiled.design, lint_options);
    }
    if (options.lint_gate != lint::Gate::kOff) {
      outcome.lint = options.semantic ? lint_report
                                      : lint::without_semantic(lint_report);
      if (lint::blocks(options.lint_gate, outcome.lint)) {
        outcome.lint_blocked = true;
        outcome.passed = false;
        outcome.message =
            "lint gate: design '" + outcome.lint.design + "' has " +
            std::to_string(outcome.lint.errors()) + " error(s), " +
            std::to_string(outcome.lint.warnings()) +
            " warning(s); simulation not started";
        if (!options.emit_dir.empty()) {
          util::write_file(options.emit_dir / (test.name + ".verdict"),
                           outcome.message + "\n");
        }
        return outcome;
      }
    }

    // 3. XML round-trip (the simulator consumes the re-parsed design).
    if (!options.emit_dir.empty()) {
      auto paths = ir::save_design_files(outcome.compiled.design,
                                         options.emit_dir / test.name);
      local_design = ir::load_design_files(paths.front());
    } else {
      std::string serialized =
          xml::to_string(*ir::to_xml(outcome.compiled.design));
      local_design = ir::design_from_xml(*xml::parse(serialized));
      // The round-trip must be lossless: re-serialising the parsed design
      // must reproduce the exact document.
      std::string reserialized = xml::to_string(*ir::to_xml(local_design));
      if (reserialized != serialized) {
        throw util::XmlError("XML round-trip of design '" +
                             local_design.name + "' is not stable");
      }
    }
    if (cacheable) {
      cache::Key ir_key = cache::hash_design(local_design);
      entry = options.design_cache->insert(ir_key, std::move(local_design),
                                           std::move(lint_report));
      options.design_cache->alias_source(source_key, ir_key);
      design = entry->design.get();
    } else {
      design = &local_design;
    }
  }
  check_cancel(options);
  outcome.artifacts = collect_artifacts(*design, test, options, entry);

  // 4. Golden runs, one per stimulus lane.  Lane 0 replays the declared
  //    inputs; lanes k >= 1 replay the same seed-derived random contents
  //    the matching simulated lane starts from.
  std::uint32_t lane_count = std::max<std::uint32_t>(1, options.lanes);
  watch.reset();
  std::deque<mem::MemoryPool> golden_pools(lane_count);
  compiler::InterpOptions interp_options;
  interp_options.scalar_args = test.scalar_args;
  for (std::uint32_t lane = 0; lane < lane_count; ++lane) {
    check_cancel(options);
    if (lane == 0) {
      prime_pool(program, sema, test, golden_pools[0], /*load_values=*/true);
    } else {
      prime_random_lane(sema, options.lane_seed, lane, golden_pools[lane]);
    }
    compiler::InterpStats stats =
        compiler::run_program(program, golden_pools[lane], interp_options);
    if (lane == 0) {
      outcome.golden_stats = stats;
    }
  }
  outcome.golden_seconds = watch.seconds();
  check_cancel(options);

  // 5. Simulated run: ONE engine invocation covers every lane (engines
  //    without a native batch path fall back to looping single runs).
  //    Lane 0 of an embedded-inputs test keeps its pool empty so
  //    elaboration applies the baked power-up contents; random lanes
  //    always pre-prime, which overrides the baked init -- engines apply
  //    <memory init=...> only to images the pool does not hold yet.
  watch.reset();
  std::deque<mem::MemoryPool> sim_pools(lane_count);
  std::vector<mem::MemoryPool*> lane_ptrs;
  lane_ptrs.reserve(lane_count);
  for (std::uint32_t lane = 0; lane < lane_count; ++lane) {
    if (lane == 0) {
      if (!test.embed_inputs) {
        prime_pool(program, sema, test, sim_pools[0], /*load_values=*/true);
      }
    } else {
      prime_random_lane(sema, options.lane_seed, lane, sim_pools[lane]);
    }
    lane_ptrs.push_back(&sim_pools[lane]);
  }
  sim::EngineRunOptions run_options;
  run_options.max_cycles_per_partition = test.max_cycles;
  std::unique_ptr<sim::Engine> engine = elab::make_engine(options.engine);
  std::vector<sim::EngineResult> runs =
      engine->run_batch(*design, lane_ptrs, run_options);
  outcome.sim_seconds = watch.seconds();
  check_cancel(options);
  for (std::uint32_t lane = 0; lane < lane_count; ++lane) {
    if (!runs[lane].completed) {
      outcome.passed = false;
      outcome.message =
          lane_tag(lane, lane_count) + "simulation did not complete: "
          "partition '" + runs[lane].partitions.back().node +
          "' stopped with reason '" +
          sim::to_string(runs[lane].partitions.back().reason) + "'";
      outcome.run = std::move(runs[lane]);
      if (!options.emit_dir.empty()) {
        util::write_file(options.emit_dir / (test.name + ".verdict"),
                         outcome.message + "\n");
      }
      return outcome;
    }
  }
  outcome.run = std::move(runs[0]);

  // 6. Compare memory contents per lane ("a simple comparison of data
  //    content is performed to verify results").
  std::vector<std::string> arrays = test.check_arrays;
  if (arrays.empty()) {
    for (const auto& [name, param] : sema.arrays) {
      (void)param;
      arrays.push_back(name);
    }
  }
  for (std::uint32_t lane = 0; lane < lane_count; ++lane) {
    mem::MemoryPool& golden_pool = golden_pools[lane];
    mem::MemoryPool& sim_pool = sim_pools[lane];
    for (const std::string& array : arrays) {
      const mem::MemoryImage& expected = golden_pool.get(array);
      if (!sim_pool.contains(array)) {
        // The design never referenced this array (possible with embedded
        // inputs, where only referenced memories exist): its contents are
        // the unchanged initial values.  Only lane 0 can get here; random
        // lanes pre-create every array.
        const auto& param = sema.arrays.at(array);
        sim_pool.create(array, param.array_size,
                        compiler::width_of(param.type));
        auto values = test.inputs.find(array);
        if (values != test.inputs.end()) {
          load_inputs(sim_pool, array, values->second);
        }
      }
      const mem::MemoryImage& actual = sim_pool.get(array);
      for (std::size_t i = 0; i < expected.depth(); ++i) {
        if (expected.words()[i] != actual.words()[i]) {
          if (outcome.mismatches == 0) {
            outcome.message = lane_tag(lane, lane_count) + "memory '" +
                              array + "' word " + std::to_string(i) +
                              ": golden " +
                              std::to_string(expected.words()[i]) +
                              " != simulated " +
                              std::to_string(actual.words()[i]);
          }
          ++outcome.mismatches;
        }
      }
    }
  }
  outcome.passed = outcome.mismatches == 0;

  // 7. Opt-in cosimulation and 4-state passes, both over a fresh lane-0
  //    stimulus pool (the simulated pools hold post-run contents).
  if (options.xsim || options.four_state) {
    check_cancel(options);
    mem::MemoryPool stimulus;
    if (!test.embed_inputs) {
      prime_pool(program, sema, test, stimulus, /*load_values=*/true);
    }
    if (options.xsim) {
      xsim::XsimOptions xsim_options;
      xsim_options.max_cycles_per_partition = test.max_cycles;
      outcome.xsim_check = xsim::cross_check(*design, stimulus, xsim_options);
      if (outcome.xsim_check.ran && !outcome.xsim_check.ok &&
          outcome.passed) {
        outcome.passed = false;
        outcome.message =
            "xsim: external simulator disagrees with the levelized engine: " +
            outcome.xsim_check.mismatches.front();
      }
    }
    if (options.four_state) {
      xsim::FourStateOptions four_state_options;
      four_state_options.max_cycles_per_partition = test.max_cycles;
      outcome.four_state =
          xsim::run_four_state(*design, stimulus, four_state_options);
      outcome.four_state_ran = true;
    }
  }

  if (!options.emit_dir.empty()) {
    for (const std::string& array : arrays) {
      mem::save_mem_file(sim_pools[0].get(array),
                         options.emit_dir / (test.name + "." + array +
                                             ".dat"));
    }
    util::write_file(options.emit_dir / (test.name + ".verdict"),
                     (outcome.passed ? "PASS" : "FAIL: " + outcome.message) +
                         "\n");
  }
  return outcome;
}

}  // namespace fti::harness
