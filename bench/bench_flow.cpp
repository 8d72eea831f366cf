// E6 -- Figure 1 flow coverage.
//
// Figure 1 is the architecture diagram of the infrastructure; it carries
// no measured series, so its reproduction is demonstrating that every box
// and arrow exists and runs: datapath/fsm/rtg XML emission, re-parsing,
// the dot / hds / Java-equivalent (behavioural executor) / HDL
// translations, memory & stimulus files, golden execution and the final
// comparison.  Each stage is timed and its artefact size reported.
//
// The serve section (E8) measures repeat-submission latency through the
// content-addressed design cache: the same verify request run cold
// (cache off) and warm (cache on, second submission onward), as the fti
// serve daemon would execute them.
//
//   bench_flow [--json PATH] [--serve-json PATH]
//   (conventionally PATH=BENCH_flow.json / BENCH_serve.json)
#include <iostream>

#include "fti/cache/design_cache.hpp"
#include "fti/util/cli.hpp"
#include "fti/util/json.hpp"
#include "fti/codegen/dot.hpp"
#include "fti/codegen/hds.hpp"
#include "fti/codegen/verilog.hpp"
#include "fti/codegen/systemc.hpp"
#include "fti/codegen/vhdl.hpp"
#include "fti/compiler/interp.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/elab/engines.hpp"
#include "fti/golden/fdct.hpp"
#include "fti/golden/hamming.hpp"
#include "fti/golden/rng.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/ir/serde.hpp"
#include "fti/util/error.hpp"
#include "fti/mem/memfile.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/strings.hpp"
#include "fti/util/table.hpp"
#include "fti/xml/parser.hpp"
#include "fti/xml/writer.hpp"

namespace {

void run_flow(const std::string& name, const std::string& source,
              std::map<std::string, std::int64_t> args,
              std::map<std::string, std::vector<std::uint64_t>> inputs,
              fti::util::JsonReport& json) {
  std::cout << "--- flow for '" << name << "' ---\n";
  fti::util::JsonReport::Workload& workload = json.workload(name);
  fti::util::TextTable table({"stage (Figure 1 element)", "time (ms)",
                              "artefact lines"});
  fti::util::Stopwatch watch;
  double total_seconds = 0;
  auto stage = [&](const std::string& label, std::size_t lines) {
    double ms = watch.milliseconds();
    table.add_row({label, fti::util::format_double(ms, 2),
                   lines == 0 ? "-" : fti::util::format_count(lines)});
    workload.set(label + ".milliseconds", ms);
    total_seconds += ms / 1000.0;
    watch.reset();
  };

  // compiler -> datapath/fsm/rtg
  fti::compiler::CompileOptions options;
  options.scalar_args = args;
  auto compiled = fti::compiler::compile_source(source, options);
  stage("compile (Galadriel&Nenya stand-in)", 0);

  // XML emission (datapath.xml / fsm.xml / rtg.xml)
  std::string design_xml =
      fti::xml::to_string(*fti::ir::to_xml(compiled.design));
  stage("emit XML dialects", fti::util::count_lines(design_xml));

  // XML parse back (XSLT input side)
  fti::ir::Design design =
      fti::ir::design_from_xml(*fti::xml::parse(design_xml));
  stage("parse XML dialects", 0);

  // to dotty
  std::string dot;
  for (const std::string& node : design.rtg.nodes) {
    dot += fti::codegen::datapath_to_dot(design.configuration(node).datapath);
    dot += fti::codegen::fsm_to_dot(design.configuration(node).fsm);
  }
  dot += fti::codegen::rtg_to_dot(design.rtg);
  stage("to dotty (GraphViz)", fti::util::count_lines(dot));

  // to hds
  std::string hds = fti::codegen::design_to_hds(design);
  stage("to hds (simulator netlist)", fti::util::count_lines(hds));

  // user-defined HDL rules
  std::string vhdl = fti::codegen::design_to_vhdl(design);
  stage("to VHDL", fti::util::count_lines(vhdl));
  std::string verilog = fti::codegen::design_to_verilog(design);
  stage("to Verilog", fti::util::count_lines(verilog));
  std::string systemc = fti::codegen::design_to_systemc(design);
  stage("to SystemC", fti::util::count_lines(systemc));

  // I/O data (RAMs and stimulus): write + reload the memory files
  fti::compiler::Program program = fti::compiler::parse_program(source);
  fti::mem::MemoryPool golden_pool;
  fti::mem::MemoryPool sim_pool;
  std::size_t mem_lines = 0;
  for (const auto& param : program.params) {
    if (!param.is_array) {
      continue;
    }
    auto& golden_image =
        golden_pool.create(param.name, param.array_size,
                           fti::compiler::width_of(param.type));
    auto& sim_image = sim_pool.create(param.name, param.array_size,
                                      fti::compiler::width_of(param.type));
    auto it = inputs.find(param.name);
    if (it != inputs.end()) {
      for (std::size_t i = 0; i < it->second.size(); ++i) {
        golden_image.write(i, it->second[i]);
      }
    }
    // Round-trip through the on-disk format into the simulation pool.
    std::string text = fti::mem::to_mem_text(golden_image);
    mem_lines += fti::util::count_lines(text);
    fti::mem::load_mem_text(sim_image, text);
  }
  stage("memory/stimulus files", mem_lines);

  // golden execution ("executing the Java input algorithm")
  fti::compiler::InterpOptions interp_options;
  interp_options.scalar_args = args;
  fti::compiler::run_program(program, golden_pool, interp_options);
  stage("golden execution", 0);

  // HADES-equivalent event simulation (fsm.class / rtg.class execution)
  auto run = fti::elab::EventEngine().run(design, sim_pool);
  stage("event-driven simulation", 0);

  // comparison of data content
  std::size_t mismatches = 0;
  for (const std::string& array : sim_pool.names()) {
    const auto& expected = golden_pool.get(array).words();
    const auto& actual = sim_pool.get(array).words();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      mismatches += expected[i] != actual[i] ? 1 : 0;
    }
  }
  stage("compare memory contents", 0);

  std::cout << table.to_string();
  std::cout << "verdict: "
            << (run.completed && mismatches == 0 ? "PASS" : "FAIL")
            << " (" << mismatches << " mismatching words)\n\n";
  workload.set("passed", run.completed && mismatches == 0);
  workload.set("mismatching_words", static_cast<std::uint64_t>(mismatches));
  workload.set("wall_seconds", total_seconds);
  workload.set("cycles", run.total_cycles());
  for (const auto& partition : run.partitions) {
    workload.stats(partition.node, partition.stats);
  }
}

/// E8 -- repeat-submission latency through the design cache.
///
/// Runs the same verify request the way fti serve does: once per
/// iteration with no cache (cold: compile + lint + XML round-trip +
/// simulate every time) and once per iteration against a warm cache
/// (parse + simulate only).  The cached design instance is shared, so
/// the warm series is exactly what a resubmitted daemon job pays.
void run_serve_bench(const std::filesystem::path& json_path) {
  std::cout << "=== serve repeat-submission latency (E8) ===\n\n";
  // A wide straight-line kernel: lots of datapath to compile, lint and
  // round-trip through XML, but only a handful of cycles to simulate.
  // This is the shape the cache targets -- compilation-bound designs
  // resubmitted with fresh stimulus.
  constexpr std::size_t kWidth = 160;
  fti::harness::TestCase test;
  test.name = "wide" + std::to_string(kWidth);
  test.source = "kernel wide(int a[" + std::to_string(kWidth) + "], int b[" +
                std::to_string(kWidth) + "]) {\n";
  for (std::size_t i = 0; i < kWidth; ++i) {
    std::string n = std::to_string(i);
    test.source += "  b[" + n + "] = a[" + n + "] * a[" + n + "] + " + n +
                   ";\n";
  }
  test.source += "}\n";
  std::vector<std::uint64_t> stimulus(kWidth);
  for (std::size_t i = 0; i < kWidth; ++i) {
    stimulus[i] = i + 1;
  }
  test.inputs = {{"a", stimulus}};
  test.check_arrays = {"b"};

  constexpr int kIterations = 10;
  auto time_runs = [&](fti::cache::DesignCache* cache) {
    double total_ms = 0;
    for (int i = 0; i < kIterations; ++i) {
      fti::harness::VerifyOptions options;
      options.design_cache = cache;
      fti::util::Stopwatch watch;
      fti::harness::VerifyOutcome outcome =
          fti::harness::run_test_case(test, options);
      total_ms += watch.milliseconds();
      FTI_ASSERT(outcome.passed, "serve bench kernel must pass");
    }
    return total_ms / kIterations;
  };

  double cold_ms = time_runs(nullptr);
  fti::cache::DesignCache cache(16);
  {
    // Populate: the first cached submission is a miss by construction.
    fti::harness::VerifyOptions options;
    options.design_cache = &cache;
    fti::harness::run_test_case(test, options);
  }
  double warm_ms = time_runs(&cache);
  double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0;

  fti::cache::DesignCache::Stats stats = cache.stats();
  fti::util::TextTable table({"series", "mean ms/run", "runs"});
  table.add_row({"cold (no cache)", fti::util::format_double(cold_ms, 2),
                 fti::util::format_count(kIterations)});
  table.add_row({"warm (cache hit)", fti::util::format_double(warm_ms, 2),
                 fti::util::format_count(kIterations)});
  std::cout << table.to_string();
  std::cout << "speedup: " << fti::util::format_double(speedup, 2)
            << "x  (cache: " << stats.hits << " hits / " << stats.misses
            << " misses)\n\n";

  fti::util::JsonReport json("serve", "bench", "series");
  json.set("kernel", test.name);
  json.set("iterations", static_cast<std::uint64_t>(kIterations));
  json.set("cold_ms", cold_ms);
  json.set("warm_ms", warm_ms);
  json.set("speedup", speedup);
  json.set("warm_fraction_of_cold", cold_ms > 0 ? warm_ms / cold_ms : 1.0);
  json.set("cache_hits", stats.hits);
  json.set("cache_misses", stats.misses);
  fti::util::JsonReport::Workload& cold_row = json.workload("cold");
  cold_row.set("mean_ms", cold_ms);
  fti::util::JsonReport::Workload& warm_row = json.workload("warm");
  warm_row.set("mean_ms", warm_ms);
  if (!json_path.empty()) {
    json.write(json_path);
    std::cout << "wrote " << json_path.string() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path json_path;
  std::filesystem::path serve_json_path;
  try {
    json_path = fti::util::extract_path_flag(argc, argv, "--json");
    serve_json_path = fti::util::extract_path_flag(argc, argv, "--serve-json");
  } catch (const fti::util::UsageError& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
  }
  fti::util::JsonReport json("flow");
  std::cout << "=== Figure 1 flow coverage (E6) ===\n\n";
  run_flow("fdct2 (8 blocks)", fti::golden::fdct_source(8, true),
           {{"nblocks", 8}},
           {{"in", fti::golden::make_test_image(512)}}, json);
  run_flow("hamming (512 words)", fti::golden::hamming_source(512),
           {{"n", 512}},
           {{"code", fti::golden::make_codewords(512, 3, 4)}}, json);
  if (!json_path.empty()) {
    json.write(json_path);
    std::cout << "wrote " << json_path.string() << "\n";
  }
  run_serve_bench(serve_json_path);
  return 0;
}
