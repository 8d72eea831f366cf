// One automated functional test of a compiler-generated design -- the
// complete flow of Figure 1:
//
//   kernel source --compile--> datapath/fsm/rtg IR
//                 --serialize--> XML --parse--> IR      (round-trip, always)
//                 --translate--> dot / hds / VHDL / Verilog artefacts
//   memory files  --> golden interpreter run  --> expected memory contents
//   memory files  --> elaborate + event-driven simulation --> actual
//   compare memory contents --> verdict
//
// The XML round-trip is not optional decoration: the simulator consumes
// the re-parsed design, so the serializers are under test on every run,
// exactly as the XSLT path is in the paper's infrastructure.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
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

struct VerifyOptions {
  /// Directory for on-disk artefacts (XML file set, dot, hds, VHDL,
  /// Verilog, memory files).  Empty keeps the round-trip in memory.
  std::filesystem::path emit_dir;
  /// Skip generating HDL/dot artefact text (saves time in tight loops).
  bool generate_artifacts = true;
  /// Execution engine for the simulated run (registry name: "event",
  /// "naive", "levelized", ...).  Every engine must produce the same
  /// verdict; `fti verify --engine=` exposes this for cross-checking.
  std::string engine = "event";
  /// Static-analysis pre-check, run on the compiled design before the
  /// XML round-trip and simulation.  At the default kError threshold a
  /// design with lint errors is rejected without starting simulation
  /// (outcome.lint_blocked); kWarn also blocks on warnings; kOff skips
  /// the analysis entirely.
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
  /// Test seam: mutates the compiled design before lint and round-trip.
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
  /// Re-execute lane 0 under 4-state X/Z semantics and collect dynamic
  /// uninitialized-read findings (outcome.four_state).  Findings do not
  /// flip the verdict -- they are warnings, like their static FTI-L010
  /// sibling; the flow layer maps them onto the warning exit code.
  bool four_state = false;
};

/// Line counts of every artefact the flow produced (Table I's "lines of
/// description" columns).
using FlowArtifacts = cache::ArtifactLines;

struct VerifyOutcome {
  bool passed = false;
  std::string message;  ///< empty when passed; first failure otherwise
  /// Static-analysis findings on the compiled design (always collected
  /// unless the gate is kOff).
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
  elab::RtgRunResult run;
  compiler::InterpStats golden_stats;
  FlowArtifacts artifacts;
  std::size_t mismatches = 0;
  double compile_seconds = 0;
  double golden_seconds = 0;
  double sim_seconds = 0;
  /// Cosimulation cross-check result (options.xsim).  ran == false with
  /// skip_reason set means no external simulator was available.
  xsim::XsimCheck xsim_check;
  /// 4-state execution report (options.four_state); four_state_ran
  /// records whether the mode was requested and executed.
  bool four_state_ran = false;
  xsim::FourStateReport four_state;
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
