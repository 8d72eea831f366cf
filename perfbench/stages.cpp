#include "stages.hpp"

#include "bench.hpp"
#include "fti/codegen/dot.hpp"
#include "fti/codegen/hds.hpp"
#include "fti/codegen/systemc.hpp"
#include "fti/codegen/verilog.hpp"
#include "fti/codegen/vhdl.hpp"
#include "fti/compiler/hls.hpp"
#include "fti/compiler/interp.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/elab/engines.hpp"
#include "fti/elab/levelized.hpp"
#include "fti/fuzz/shrink.hpp"
#include "fti/ir/serde.hpp"
#include "fti/lint/dataflow.hpp"
#include "fti/lint/lint.hpp"
#include "fti/sim/bits.hpp"
#include "fti/util/strings.hpp"
#include "fti/xml/parser.hpp"
#include "fti/xml/writer.hpp"

namespace perfbench {
namespace {

using fti::harness::TestCase;
using fti::mem::MemoryPool;

/// Lane 0 stimulus: every array parameter created, declared inputs
/// loaded (harness::run_test_case's prime_pool).
void prime_declared(const fti::compiler::SemaInfo& sema, const TestCase& test,
                    MemoryPool& pool) {
  for (const auto& [name, param] : sema.arrays) {
    pool.create(name, param.array_size, fti::compiler::width_of(param.type));
  }
  for (const auto& [name, values] : test.inputs) {
    fti::harness::load_inputs(pool, name, values);
  }
}

/// Lanes k >= 1: the same seeded words the harness draws for a
/// multi-lane verify (splitmix64 over (seed, lane), sign bit clear), so
/// the staged run does the work flow::run_verify does for that request.
void prime_random_lane(const fti::compiler::SemaInfo& sema,
                       std::uint64_t seed, std::uint32_t lane,
                       MemoryPool& pool) {
  std::uint64_t state = seed ^ (0xa0761d6478bd642full * (lane + 1));
  auto next = [&state] {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (const auto& [name, param] : sema.arrays) {
    std::uint32_t width = fti::compiler::width_of(param.type);
    std::uint64_t mask = width > 1 ? fti::sim::Bits::mask(width - 1)
                                   : fti::sim::Bits::mask(width);
    fti::mem::MemoryImage& image = pool.create(name, param.array_size, width);
    for (std::size_t i = 0; i < image.depth(); ++i) {
      image.write(i, next() & mask);
    }
  }
}

void prime_lane(const fti::compiler::SemaInfo& sema, const TestCase& test,
                std::uint64_t lane_seed, std::uint32_t lane,
                MemoryPool& pool) {
  if (lane == 0) {
    prime_declared(sema, test, pool);
  } else {
    prime_random_lane(sema, lane_seed, lane, pool);
  }
}

/// Golden runs, simulation over every lane, and the memory comparison:
/// the back half both staged paths share.
void simulate_and_compare(const fti::compiler::Program& program,
                          const fti::compiler::SemaInfo& sema,
                          const TestCase& test, const fti::ir::Design& design,
                          const std::string& engine_name, std::uint32_t lanes,
                          std::uint64_t lane_seed, StagedVerify& staged) {
  std::deque<MemoryPool> golden(lanes);
  {
    Span span("golden.interp_ms");
    fti::compiler::InterpOptions options;
    options.scalar_args = test.scalar_args;
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      prime_lane(sema, test, lane_seed, lane, golden[lane]);
      fti::compiler::run_program(program, golden[lane], options);
    }
  }
  std::deque<MemoryPool> simulated(lanes);
  std::vector<fti::sim::EngineResult> runs;
  {
    Span span("elab.sim_ms");
    std::vector<MemoryPool*> pointers;
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      prime_lane(sema, test, lane_seed, lane, simulated[lane]);
      pointers.push_back(&simulated[lane]);
    }
    fti::sim::EngineRunOptions options;
    options.max_cycles_per_partition = test.max_cycles;
    runs = fti::elab::make_engine(engine_name)
               ->run_batch(design, pointers, options);
  }
  Span span("harness.compare_ms");
  for (const fti::sim::EngineResult& run : runs) {
    staged.cycles += run.total_cycles();
    if (!run.completed) {
      staged.message = "simulation did not complete";
      return;
    }
  }
  std::vector<std::string> arrays = test.check_arrays;
  if (arrays.empty()) {
    for (const auto& [name, param] : sema.arrays) {
      arrays.push_back(name);
    }
  }
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    for (const std::string& array : arrays) {
      const auto& expected = golden[lane].get(array).words();
      const auto& actual = simulated[lane].get(array).words();
      for (std::size_t i = 0; i < expected.size(); ++i) {
        staged.mismatches += expected[i] != actual[i] ? 1 : 0;
      }
    }
  }
  staged.passed = staged.mismatches == 0;
  if (!staged.passed) {
    staged.message = std::to_string(staged.mismatches) + " mismatching words";
  }
}

fti::cache::Key source_key(const TestCase& test) {
  fti::cache::Hasher hasher;
  hasher.mix_string("perfbench");
  hasher.mix_string(test.source);
  for (const auto& [name, value] : test.scalar_args) {
    hasher.mix_string(name);
    hasher.mix_u64(static_cast<std::uint64_t>(value));
  }
  return hasher.key();
}

fti::compiler::CompileOptions compile_options(const TestCase& test) {
  fti::compiler::CompileOptions options;
  options.resources = test.resources;
  options.scalar_args = test.scalar_args;
  if (test.embed_inputs) {
    options.rom_contents = test.inputs;
  }
  return options;
}

std::size_t artifact_lines(const fti::ir::Design& design) {
  std::size_t lines = 0;
  for (const std::string& node : design.rtg.nodes) {
    const fti::ir::Configuration& config = design.configuration(node);
    lines += fti::util::count_lines(
        fti::xml::to_string(*fti::ir::to_xml(config.datapath)));
    lines += fti::util::count_lines(
        fti::xml::to_string(*fti::ir::to_xml(config.fsm)));
  }
  lines += fti::util::count_lines(
      fti::xml::to_string(*fti::ir::to_xml(design.rtg)));
  std::string dot;
  for (const std::string& node : design.rtg.nodes) {
    const fti::ir::Configuration& config = design.configuration(node);
    dot += fti::codegen::datapath_to_dot(config.datapath);
    dot += fti::codegen::fsm_to_dot(config.fsm);
  }
  dot += fti::codegen::rtg_to_dot(design.rtg);
  lines += fti::util::count_lines(fti::codegen::design_to_hds(design));
  lines += fti::util::count_lines(fti::codegen::design_to_vhdl(design));
  lines += fti::util::count_lines(fti::codegen::design_to_verilog(design));
  lines += fti::util::count_lines(fti::codegen::design_to_systemc(design));
  lines += fti::util::count_lines(dot);
  return lines;
}

/// Compile + lint + XML round trip, the cold front half; returns the
/// round-tripped design the simulator consumes.
fti::ir::Design staged_front(const fti::compiler::Program& program,
                             const TestCase& test, StagedVerify& staged) {
  fti::compiler::CompileResult compiled;
  {
    Span span("compiler.hls_ms");
    compiled = fti::compiler::compile_program(program, compile_options(test));
  }
  staged.ir_nodes = fti::fuzz::ir_node_count(compiled.design);
  fti::lint::Report report;
  {
    Span span("lint.structural_ms");
    fti::lint::Options options;
    options.semantic = false;
    report = fti::lint::lint_design(compiled.design, options);
  }
  {
    Span span("lint.dataflow_ms");
    fti::lint::dataflow::Summary summary =
        fti::lint::dataflow::analyze(compiled.design);
    for (fti::lint::Finding& finding : summary.findings) {
      report.findings.push_back(std::move(finding));
    }
  }
  staged.lint_findings = report.findings.size();
  Span span("xml.roundtrip_ms");
  std::string text = fti::xml::to_string(*fti::ir::to_xml(compiled.design));
  fti::ir::Design restored =
      fti::ir::design_from_xml(*fti::xml::parse(text));
  // The flow re-serializes to check the round trip is stable.
  if (fti::xml::to_string(*fti::ir::to_xml(restored)) != text) {
    staged.message = "XML round trip is not stable";
  }
  staged.xml_bytes = text.size();
  return restored;
}

}  // namespace

StagedVerify staged_cold_verify(const TestCase& test,
                                const std::string& engine) {
  StagedVerify staged;
  fti::ir::Design design;
  {
    Span job("job");
    fti::compiler::Program program;
    {
      Span span("compiler.parse_ms");
      program = fti::compiler::parse_program(test.source);
    }
    fti::compiler::SemaInfo sema;
    {
      Span span("compiler.sema_ms");
      sema = fti::compiler::check_program(program);
    }
    design = staged_front(program, test, staged);
    {
      Span span("codegen.artifacts_ms");
      staged.codegen_lines = artifact_lines(design);
    }
    if (!staged.message.empty()) {
      return staged;
    }
    simulate_and_compare(program, sema, test, design, engine, 1, 0, staged);
  }
  Span span("elab.schedule_ms");
  for (const std::string& node : design.rtg.nodes) {
    fti::elab::build_levelized_schedule(design.configuration(node).datapath);
  }
  return staged;
}

void staged_cache_fill(const TestCase& test, fti::cache::DesignCache& cache) {
  fti::compiler::CompileResult compiled = fti::compiler::compile_program(
      fti::compiler::parse_program(test.source), compile_options(test));
  fti::lint::Report report = fti::lint::lint_design(compiled.design);
  fti::ir::Design design = fti::ir::design_from_xml(*fti::xml::parse(
      fti::xml::to_string(*fti::ir::to_xml(compiled.design))));
  fti::cache::Key ir_key = fti::cache::hash_design(design);
  Span span("cache.insert_ms");
  cache.insert(ir_key, std::move(design), std::move(report));
  cache.alias_source(source_key(test), ir_key);
}

StagedVerify staged_warm_verify(const TestCase& test,
                                fti::cache::DesignCache& cache,
                                const std::string& engine,
                                std::uint32_t lanes,
                                std::uint64_t lane_seed) {
  StagedVerify staged;
  fti::cache::DesignCache::Entry entry;
  {
    Span job("job");
    fti::compiler::Program program;
    {
      Span span("compiler.parse_ms");
      program = fti::compiler::parse_program(test.source);
    }
    fti::compiler::SemaInfo sema;
    {
      Span span("compiler.sema_ms");
      sema = fti::compiler::check_program(program);
    }
    {
      Span span("cache.lookup_ms");
      entry = cache.find_source(source_key(test));
    }
    if (!entry) {
      staged.message = "benchmark-owned cache missed";
      return staged;
    }
    staged.lint_findings = entry->lint.findings.size();
    simulate_and_compare(program, sema, test, *entry->design, engine, lanes,
                         lane_seed, staged);
  }
  Span span("elab.schedule_ms");
  for (const std::string& node : entry->design->rtg.nodes) {
    cache.schedule_for(entry, node);
  }
  return staged;
}

}  // namespace perfbench
