// External-simulator cosimulation driver.
//
// The interpreters and the compiled engine all execute the *IR*; none of
// them ever looks at the Verilog the codegen layer emits, so an emission
// bug is invisible to the differential net.  This driver closes that
// loop: it compiles the emitted HDL plus a generated self-checking bench
// with an external simulator (Icarus Verilog), runs it in a scratch
// sandbox under a wall-clock timeout, and parses the bench's result file
// and VCD back into the engines' observable shape (per-partition cycles,
// finals/traces of the clocked wires, final memory images) for
// bit-for-bit comparison.
//
// Simulator resolution follows the compiled engine's toolchain contract:
// FTI_XSIM_SIM, when set, names the Verilog compiler and is the whole
// story -- an unusable value disables the lane (with the reason recorded)
// instead of falling through, so tests pinning or masking the simulator
// get deterministic behaviour.  Otherwise `iverilog` and `vvp` are
// probed on $PATH.  When no simulator is available every entry point
// reports a skip with a human-readable reason rather than failing.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "fti/elab/checked.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/mem/storage.hpp"

namespace fti::xsim {

/// Result of probing for the external simulator toolchain.
struct XsimStatus {
  bool available = false;
  std::string compile;  ///< resolved Verilog compiler (iverilog)
  std::string run;      ///< resolved runtime (vvp)
  std::string reason;   ///< why the lane is unavailable
};

/// Probes the environment (FTI_XSIM_SIM pin first, then $PATH).  Not
/// cached: the probe is a handful of access(2) calls and tests flip the
/// environment between calls.
XsimStatus xsim_status();
bool xsim_available();

struct XsimOptions {
  std::uint64_t max_cycles_per_partition = 100'000;
  /// Wall-clock budget for each external process (compile and run
  /// separately); expired processes are killed and reported as errors.
  double timeout_seconds = 120.0;
  /// Leave the sandbox (sources, bench, VCD, logs) on disk and record
  /// its path in XsimRun::sandbox.
  bool keep_sandbox = false;
};

/// One external-simulator execution, flattened to the engines'
/// observable shape ("<node>/<wire>" keys, like fuzz observations).
struct XsimRun {
  /// The simulator ran and its output parsed; false with `skip_reason`
  /// set when no simulator is available, false with `error` set when the
  /// toolchain was invoked but failed (compile error, timeout, X in an
  /// observable, unparseable output).
  bool ran = false;
  std::string skip_reason;
  std::string error;

  bool completed = false;
  std::uint64_t total_cycles = 0;
  /// Per-partition cycle counts in RTG execution order.
  std::vector<std::uint64_t> cycles;
  std::map<std::string, std::uint64_t> finals;
  std::map<std::string, std::vector<std::uint64_t>> traces;
  std::map<std::string, std::vector<std::uint64_t>> memories;
  /// Per-memory mismatch counts from the bench's embedded self-check
  /// (present only when golden images were supplied).
  std::map<std::string, std::uint64_t> selfcheck;
  std::filesystem::path sandbox;  ///< set when keep_sandbox
};

/// Emits the design and its bench, runs them through the external
/// simulator and parses the results.  `golden_memories`, when non-empty,
/// is embedded into the bench as its self-check expectation.
XsimRun run_external(
    const ir::Design& design, const mem::MemoryPool& stimulus,
    const XsimOptions& options = {},
    const std::map<std::string, std::vector<std::uint64_t>>& golden_memories =
        {});

/// Outcome of one cosimulation cross-check.
struct XsimCheck {
  /// False when the lane was skipped; `skip_reason` says why.
  bool ran = false;
  std::string skip_reason;
  /// True when the external simulator agreed with the levelized engine
  /// on every observable.
  bool ok = false;
  /// Human-readable disagreement lines ("finals[p0/acc_q]:
  /// levelized=42 xsim=41"), or the infrastructure error.
  std::vector<std::string> mismatches;
  XsimRun run;
};

/// Runs `design` through the levelized engine (over a copy of
/// `stimulus`) and through the external simulator, and compares
/// completion, per-partition cycles, finals, traces and final memory
/// images bit for bit.  The levelized finals double as the bench's
/// embedded self-check expectation.
XsimCheck cross_check(const elab::CheckedDesign& design,
                      const mem::MemoryPool& stimulus,
                      const XsimOptions& options = {});

}  // namespace fti::xsim
