// The reusable command-flow layer: every fti / fti_fuzz command body as
// a library entry point.
//
// Until this layer existed each flow lived inline in its CLI's main(),
// so the only way to run "verify" was fork+exec of the binary and the
// only output was text on stdout.  The serve daemon (serve/) needs the
// same flows long-lived and in-process; this header gives each command
// a typed request struct, a run_* function and a typed result carrying
// the process exit code the CLI maps it to, with all human-readable
// output written to caller-supplied streams.  The CLI binaries are
// flag-parsing shims over these functions; the daemon builds requests
// from JSON instead.  Same flows, two transports.
//
// Conventions:
//  * run_*(request, context, out, err) -> *Result with `exit_code`
//    following the repo-wide contract: 0 pass/clean, 1 simulation
//    mismatch or incomplete run, 2 usage/input error, 3 lint errors,
//    4 lint warnings only.  Infrastructure errors (unreadable file,
//    malformed XML, bad source) still propagate as util::Error -- the
//    CLI catches at main() and maps to 2, the daemon maps them to an
//    "error" job status.
//  * `out` receives what the commands printed to stdout, `err` what
//    went to stderr.  The CLI passes std::cout/std::cerr; the daemon
//    captures both per job.
//  * FlowContext carries the cross-cutting services: the
//    content-addressed design cache (warm resubmissions skip
//    compile+lint+round-trip, see cache/design_cache.hpp) and the
//    per-job cancellation flag (flows throw util::CancelledError at
//    stage boundaries once it goes true).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "fti/fuzz/fuzzer.hpp"
#include "fti/fuzz/inject.hpp"
#include "fti/harness/suite.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/lint/lint.hpp"

namespace fti::cache {
class DesignCache;
}  // namespace fti::cache

namespace fti::flow {

/// Shared services a flow runs against; both optional.  One context is
/// typically process-wide (CLI) or daemon-wide (serve) while the cancel
/// flag is per job.
struct FlowContext {
  cache::DesignCache* design_cache = nullptr;
  const std::atomic<bool>* cancel = nullptr;
};

/// Exit code for a gate-blocked verify/suite or a lint run: errors beat
/// warnings (3 over 4).
int lint_exit_code(std::size_t errors);

// ---------------------------------------------------------------- verify

struct VerifyRequest {
  harness::TestCase test;
  std::string engine = "event";
  lint::Gate lint_gate = lint::Gate::kError;
  /// Semantic lint tier (FTI-L012..L017); `--semantic=off` disables.
  bool semantic = true;
  std::uint32_t lanes = 1;
  std::uint64_t lane_seed = 1;
  /// Artefact directory (--emit); empty keeps the round-trip in memory.
  std::filesystem::path emit_dir;
  /// VCD dump / final-memory saves need an instrumented re-run of the
  /// compiled design, so a request with either set always runs cold
  /// (the cache is bypassed).
  std::filesystem::path vcd_path;
  std::vector<std::pair<std::string, std::filesystem::path>> saves;
  /// Cosimulate the emitted Verilog with an external simulator (--xsim).
  /// A disagreement exits 1; a missing simulator prints a loud skip line
  /// and leaves the exit code untouched.
  bool xsim = false;
  /// Re-run lane 0 under 4-state X/Z semantics (--4state).  Findings are
  /// warnings: a run that passes everything else but has 4-state findings
  /// exits 4, like a lint-warning run.
  bool four_state = false;
};

struct VerifyResult {
  int exit_code = 2;
  harness::VerifyOutcome outcome;
};

VerifyResult run_verify(const VerifyRequest& request,
                        const FlowContext& context, std::ostream& out,
                        std::ostream& err);

// ----------------------------------------------------------------- suite

struct SuiteRequest {
  /// Directory of *.k cases; used when `tests` is empty.
  std::filesystem::path suite_dir;
  /// Explicit cases (the daemon path); take precedence over suite_dir.
  std::vector<harness::TestCase> tests;
  std::string engine = "event";
  lint::Gate lint_gate = lint::Gate::kError;
  /// Semantic lint tier (FTI-L012..L017); `--semantic=off` disables.
  bool semantic = true;
  std::uint32_t lanes = 1;
  std::uint64_t lane_seed = 1;
  std::uint32_t jobs = 1;
  std::filesystem::path emit_dir;
  /// Also write the report as a util::JsonReport document.
  std::filesystem::path json_path;
  /// Per-case progress lines ("PASS  name") as rows complete.
  bool print_rows = true;
  /// Name used in the report table/JSON (defaults to the directory
  /// name; the daemon sets the job name).
  std::string name;
  /// Cosimulate every case's emitted Verilog with the external simulator
  /// (--xsim); a disagreeing case FAILs its row.  Missing simulator:
  /// one loud notice, rows unaffected.
  bool xsim = false;
};

struct SuiteResult {
  int exit_code = 2;
  harness::SuiteReport report;
};

SuiteResult run_suite(const SuiteRequest& request, const FlowContext& context,
                      std::ostream& out, std::ostream& err);

/// The suite report as the same JSON document `fti suite --json` writes
/// (kind "suite", list "rows").  Exposed for the daemon's suite
/// responses.
std::string suite_report_to_json(const harness::SuiteReport& report,
                                 const std::string& name,
                                 const std::string& engine);

// -------------------------------------------------- run (saved XML set)

struct RunDesignRequest {
  /// Path to a saved rtg.xml (ir::load_design_files root).
  std::filesystem::path design_path;
  /// Initial contents per memory, overriding any <init> tables.
  std::map<std::string, std::vector<std::uint64_t>> inputs;
  std::string engine = "event";
  std::uint64_t max_cycles = 50'000'000;
  std::filesystem::path vcd_path;
  std::vector<std::pair<std::string, std::filesystem::path>> saves;
};

struct RunDesignResult {
  int exit_code = 2;
  bool completed = false;
};

RunDesignResult run_design(const RunDesignRequest& request,
                           const FlowContext& context, std::ostream& out,
                           std::ostream& err);

// ------------------------------------------------------------- translate

struct TranslateRequest {
  harness::TestCase test;
  /// Output directory; empty defaults to the test name.
  std::filesystem::path out_dir;
};

struct TranslateResult {
  int exit_code = 2;
};

TranslateResult run_translate(const TranslateRequest& request,
                              const FlowContext& context, std::ostream& out,
                              std::ostream& err);

// ------------------------------------------------------------------ lint

struct LintRequest {
  /// Kernel sources, saved rtg.xml file sets, bare <design> documents,
  /// corpus <repro> documents, or directories (expanded to every *.k /
  /// *.xml inside, sorted).
  std::vector<std::filesystem::path> inputs;
  std::filesystem::path json_path;
  std::filesystem::path sarif_path;
  /// Semantic lint tier (FTI-L012..L017); `--semantic=off` disables.
  bool semantic = true;
  /// SARIF baseline (--baseline): findings already present in this file
  /// -- matched by rule ID, fully-qualified location and message -- are
  /// suppressed from the output and the exit code, so CI fails only on
  /// NEW findings while the backlog is burned down.
  std::filesystem::path baseline_path;
};

struct LintResult {
  int exit_code = 2;
  std::vector<lint::Report> reports;
  /// Findings dropped by the --baseline suppression (0 without one).
  std::size_t suppressed = 0;
};

LintResult run_lint(const LintRequest& request, const FlowContext& context,
                    std::ostream& out, std::ostream& err);

// ---------------------------------------------------- engines / obs view

/// `fti engines`: one line per registered engine with its batch
/// capability ("<name>  max_lanes=<N>").
int run_engines(std::ostream& out);

/// `fti obs`: pretty-print a --metrics snapshot file.
int run_obs(const std::filesystem::path& path, std::ostream& out);

// ------------------------------------------------------------ fuzz flows

struct CampaignRequest {
  fuzz::FuzzOptions options;
  /// Suppress the per-case progress callback (--quiet).
  bool quiet = false;
};

struct CampaignResult {
  int exit_code = 2;
  fuzz::FuzzReport report;
};

CampaignResult run_campaign(const CampaignRequest& request,
                            const FlowContext& context, std::ostream& out,
                            std::ostream& err);

struct ReplayRequest {
  /// One corpus <repro> XML file ... or a whole corpus directory when
  /// `corpus_dir` is set instead.
  std::filesystem::path repro_path;
  std::filesystem::path corpus_dir;
};

struct ReplayResult {
  int exit_code = 2;
  std::size_t entries = 0;
};

ReplayResult run_replay(const ReplayRequest& request,
                        const FlowContext& context, std::ostream& out,
                        std::ostream& err);

struct InjectRequest {
  std::uint64_t seed = 1;
  std::uint64_t runs = 40;
  fuzz::GeneratorOptions generator;
  /// The recall experiment: static lint (default), `--semantic` (E11:
  /// behaviour-neutral classes the dataflow tier must prove) or
  /// `--4state` (E10: uninit-register defects the 4-state checker must
  /// report).  The last two also require 2-state differential simulation
  /// to launder every planted defect.
  fuzz::InjectMode mode = fuzz::InjectMode::kLint;
};

struct InjectResult {
  int exit_code = 2;
  fuzz::InjectionReport report;
};

InjectResult run_inject(const InjectRequest& request,
                        const FlowContext& context, std::ostream& out,
                        std::ostream& err);

}  // namespace fti::flow
