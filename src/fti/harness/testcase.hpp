// One automated functional test of a compiler-generated design -- the
// complete flow of Figure 1:
//
//   kernel source --compile--> datapath/fsm/rtg IR
//                 --serialize--> XML --parse--> IR      (round-trip, always)
//                 --translate--> dot / hds / VHDL / Verilog artefacts
//                                (only when emitting to disk)
//   memory files  --> golden interpreter run  --> expected memory contents
//   memory files  --> elaborate + event-driven simulation --> actual
//   compare memory contents --> verdict
//
// The XML round-trip is not optional decoration: the simulator consumes
// the re-parsed design, so the serializers are under test on every run,
// exactly as the XSLT path is in the paper's infrastructure.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fti/cache/design_cache.hpp"
#include "fti/compiler/hls.hpp"
#include "fti/compiler/interp.hpp"
#include "fti/elab/engines.hpp"
#include "fti/lint/lint.hpp"
#include "fti/xsim/driver.hpp"
#include "fti/xsim/fourstate.hpp"

namespace fti::harness {

struct TestCase {
  std::string name;
  std::string source;
  std::map<std::string, std::int64_t> scalar_args;
  compiler::Resources resources;
  /// Initial contents per array parameter (shorter vectors fill a prefix).
  std::map<std::string, std::vector<std::uint64_t>> inputs;
  /// Arrays compared after the run; empty means every array parameter.
  std::vector<std::string> check_arrays;
  /// When true, the inputs are baked into the design's <memory init=...>
  /// declarations instead of being loaded into the simulation pool, so the
  /// emitted XML file set is fully self-contained.  The golden model still
  /// receives the same initial memories.
  bool embed_inputs = false;
  std::uint64_t max_cycles = 50'000'000;
};

/// (array, file) pairs of memory images written after a run.
using MemoryFiles = std::vector<std::pair<std::string, std::filesystem::path>>;

struct VerifyOptions {
  /// Directory for on-disk artefacts (XML file set, dot, hds, VHDL,
  /// Verilog, SystemC, memory files).  Empty keeps the round-trip in
  /// memory and generates none of the HDL/dot backends.
  std::filesystem::path emit_dir;
  /// Execution engine for the simulated run (registry name: "event",
  /// "naive", "levelized", ...).  Every engine must produce the same
  /// verdict; `fti verify --engine=` exposes this for cross-checking.
  std::string engine = "event";
  /// Static-analysis pre-check, run on the round-tripped design's
  /// checked handle before simulation (on the raw compiled design when
  /// the round trip or the check rejects it).  At the default kError
  /// threshold a design with lint errors is rejected without starting
  /// simulation (outcome.lint_blocked); kWarn also blocks on warnings;
  /// kOff skips the analysis entirely.
  lint::Gate lint_gate = lint::Gate::kError;
  /// Run the semantic lint tier (the abstract-interpretation dataflow
  /// engine behind FTI-L012..L017) as part of the pre-check.  Off keeps
  /// only the structural rules; the design cache always stores the full
  /// report and filters per request, so flipping this between warm
  /// resubmissions never re-runs the fixpoint.
  bool semantic = true;
  /// Stimulus lanes for the simulated run.  1 is the classic single run.
  /// N > 1 issues ONE engine->run_batch over N memory pools: lane 0
  /// carries the test's declared inputs, lanes k >= 1 carry
  /// lane_seed-derived random contents for every array parameter (sign
  /// bit kept clear so data-dependent loops written against non-negative
  /// inputs still terminate), and
  /// every lane is held to its own golden-interpreter run.  outcome.run
  /// and the verdict message describe the first failing lane (lane 0 when
  /// all pass); mismatches sum over lanes.
  std::uint32_t lanes = 1;
  /// Seed for the random stimuli of lanes k >= 1.
  std::uint64_t lane_seed = 1;
  /// Test seam: mutates the compiled design before the round trip and
  /// lint.
  /// The seeded-defect tests use this to plant known-bad edits.
  std::function<void(ir::Design&)> post_compile;
  /// Content-addressed memoization (cache/design_cache.hpp) for repeat
  /// submissions of the same kernel -- the warm path of `fti serve`.  On
  /// a source-key hit the flow skips HLS compilation, linting and the
  /// XML round-trip and simulates the cached (already round-tripped)
  /// design, whose levelized schedules the cache also memoizes; the
  /// verdict, lint gating and golden comparison are unchanged, and
  /// outcome.cache_hit records the hit.  Ignored (always cold) when
  /// post_compile is set (the seam mutates the design arbitrarily) or
  /// when emit_dir is non-empty (the on-disk XML file set is part of
  /// the cold path's contract).  nullptr runs everything cold.
  cache::DesignCache* design_cache = nullptr;
  /// Cooperative cancellation for long-running service jobs: checked at
  /// every stage boundary (and per golden lane); when it reads true,
  /// run_test_case throws util::CancelledError.  nullptr never cancels.
  const std::atomic<bool>* cancel = nullptr;
  /// Cosimulate the emitted Verilog with an external simulator and
  /// compare it bit for bit against the levelized engine (lane-0 stimulus
  /// only).  A disagreement fails the verify; a missing simulator records
  /// a skip in outcome.xsim_check without affecting the verdict.
  bool xsim = false;
  /// Re-execute every lane's stimulus under 4-state X semantics and
  /// collect dynamic uninitialized-read findings (outcome.four_state).
  /// Findings do not flip the verdict -- they are warnings, like their
  /// static FTI-L010 sibling; the flow layer maps them onto the warning
  /// exit code.
  bool four_state = false;
  /// Dumps of lane 0's simulated run (`fti verify --vcd`, `--save`): a
  /// VCD of its first partition (the engine must support tracing) and
  /// the post-run images of the named arrays.  Written whenever the
  /// simulation ran, a FAIL or an incomplete run included; nothing is
  /// written when the lint gate blocks or the run throws.  An array the
  /// design never referenced saves its initial contents.
  std::filesystem::path vcd_path;
  MemoryFiles saves;
};

/// Line counts of the kernel source and of every artefact written to
/// VerifyOptions::emit_dir.  Without an emit_dir nothing is written and
/// only lo_source is set; Table I's XML columns come from
/// compute_metrics() (metrics.hpp) instead.
struct FlowArtifacts {
  std::size_t lo_source = 0;
  std::size_t lo_xml_datapath = 0;  ///< summed over configurations
  std::size_t lo_xml_fsm = 0;
  std::size_t lo_xml_rtg = 0;
  std::size_t lo_hds = 0;
  std::size_t lo_vhdl = 0;
  std::size_t lo_verilog = 0;
  std::size_t lo_systemc = 0;
  std::size_t lo_dot = 0;
};

struct VerifyOutcome {
  bool passed = false;
  std::string message;  ///< empty when passed; first failure otherwise
  /// Static-analysis findings on the design (always collected unless
  /// the gate is kOff).
  lint::Report lint;
  /// True when the lint gate rejected the design; simulation and the
  /// golden run were skipped, and passed is false.
  bool lint_blocked = false;
  /// Compiler output.  Left default-constructed on a cache hit (the
  /// cached flow never re-runs the HLS compiler); per-config stats are
  /// only meaningful when cache_hit is false.
  compiler::CompileResult compiled;
  /// True when options.design_cache served this run warm.
  bool cache_hit = false;
  sim::EngineResult run;
  compiler::InterpStats golden_stats;
  FlowArtifacts artifacts;
  std::size_t mismatches = 0;
  double compile_seconds = 0;
  double golden_seconds = 0;
  double sim_seconds = 0;
  /// Cosimulation cross-check result (options.xsim).  ran == false with
  /// skip_reason set means no external simulator was available.
  xsim::XsimCheck xsim_check;
  /// 4-state execution reports, one per lane (options.four_state;
  /// empty when the mode was not requested).
  std::vector<xsim::FourStateReport> four_state;
};

/// Runs the full flow.  Infrastructure errors (bad source, malformed IR)
/// propagate as exceptions; *functional* failures (mismatched memory, a
/// partition that never finished) come back as passed == false.
VerifyOutcome run_test_case(const TestCase& test,
                            const VerifyOptions& options = {});

/// Loads `values` into the pool image `name` (prefix fill, bounds-checked).
void load_inputs(mem::MemoryPool& pool, const std::string& name,
                 const std::vector<std::uint64_t>& values);

}  // namespace fti::harness
