// Defect injection -- the recall half of the fuzz/lint loop.
//
// The differential fuzzer proves the simulators agree on *valid* designs;
// defect injection proves the checkers notice *invalid* ones.  Each
// DefectClass is one known-bad edit planted into an otherwise valid
// generated design; one loop (run_injection) asserts the class's rule
// fires after the edit and did not fire before it, measuring recall of
// static lint, the semantic tier and the 4-state checker instead of
// trusting it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fti/fuzz/generate.hpp"
#include "fti/fuzz/rand.hpp"
#include "fti/ir/rtg.hpp"

namespace fti::fuzz {

enum class DefectClass {
  kMultiDriver,            ///< second driver onto a driven wire (FTI-L001)
  kWidthMismatch,          ///< wire resized under a connected port (FTI-L004)
  kCombCycle,              ///< combinational unit fed its own output (FTI-L005)
  kDeadState,              ///< FSM state nothing transitions to (FTI-L006)
  kUnreachableTransition,  ///< shadowed by an unconditional one (FTI-L007)
  kReadBeforeWrite,        ///< memory read in an earlier partition than its
                           ///< first write (FTI-L009)
  kUninitRegister,         ///< reset-less register whose power-up value
                           ///< reaches a memory write port.  2-state
                           ///< simulation launders it (registers power up
                           ///< at their reset value); only the 4-state
                           ///< checker (xsim::run_four_state) catches it,
                           ///< reporting under FTI-L010.  Its mode is
                           ///< kFourState, not kLint: static lint cannot
                           ///< see it, so it would break the recall gate.
  // --- Semantic classes (experiment E11).  Each edit is behaviour-
  // neutral -- every 2-state engine still computes the same memory
  // contents, so functional testing passes -- but the dataflow tier
  // proves the bug pattern statically.  Their mode is kSemantic, not
  // kLint: structural lint alone cannot see them.
  kOobIndex,               ///< read port with a constant address one past
                           ///< the end of its memory; engines drive the
                           ///< out-of-range dout as 0 (FTI-L012)
  kConstFalseGuard,        ///< transition spliced in front of a state,
                           ///< guarded by ltu(x, 0) -- false for every x,
                           ///< so it never fires (FTI-L013)
  kLiveTruncation,         ///< or(x, 1<<(w-1)) pins the top bit known-1,
                           ///< then a width-narrowing pass provably drops
                           ///< that live bit (FTI-L014)
};

/// The three recall experiments.  Each plants its classes into
/// otherwise valid generated designs and asks its detector whether the
/// class's rule fires:
///   kLint      structural classes, lint_design (the static recall gate);
///   kSemantic  behaviour-neutral classes, lint_design's dataflow tier
///              (experiment E11);
///   kFourState kUninitRegister, the 4-state checker over fully defined
///              memories (experiment E10).
/// kSemantic and kFourState also check that 2-state differential
/// simulation launders every planted defect.
enum class InjectMode { kLint, kSemantic, kFourState };

std::string_view to_string(InjectMode mode);

/// One row of the defect-class table.
struct DefectInfo {
  DefectClass defect;
  std::string_view name;  ///< "multi-driver", ...
  std::string_view rule;  ///< lint rule ID the planted defect must trigger
  InjectMode mode;        ///< the experiment that measures the class
  /// Plants the defect at one random applicable site.  Returns false --
  /// leaving the design untouched -- when the design has no applicable
  /// site.  Deterministic for a fixed (design, rng state).
  bool (*inject)(ir::Design& design, Rng& rng);
};

const DefectInfo& defect_info(DefectClass defect);

/// The classes `mode` measures, in declaration order.
std::vector<DefectClass> defect_classes(InjectMode mode);

/// E10 baseline preparation: gives every reset-less register an rst
/// port tied to a constant 0.  2-state behaviour is untouched (the reset
/// never asserts and registers power up at reset_value regardless), but
/// the 4-state checker now treats them as initialized, so the only X
/// left in the design is whatever the experiment plants.  Pipeline
/// stages still power up X; designs where that X reaches an observable
/// are filtered out by the clean-baseline gate.
void tie_off_register_resets(ir::Design& design);

/// The detector `run_injection` asks before and after the edit: does
/// `info.rule` fire on `design` under `info.mode`?  kLint and kSemantic
/// lint the design; kFourState runs the 4-state checker with every
/// memory defined (zero-filled, as 2-state engines define fresh
/// memories), so only X the design itself creates -- a reset-less
/// register -- fires; a run that does not complete fires too.
bool rule_fires(const DefectInfo& info, const ir::Design& design);

struct InjectionOutcome {
  DefectClass defect{};
  std::uint64_t cases_tried = 0;  ///< generated designs examined
  std::uint64_t injected = 0;     ///< rule silent pre-edit + applicable site
  /// 2-state differential lanes still agree post-edit (kSemantic and
  /// kFourState only; stays 0 under kLint).
  std::uint64_t laundered = 0;
  std::uint64_t detected = 0;     ///< rule fired post-edit
  std::uint64_t missed = 0;       ///< rule stayed silent (a recall bug)
  /// Seeds of missed cases, for reproduction.
  std::vector<std::uint64_t> missed_seeds;
};

struct InjectionReport {
  InjectMode mode{};
  std::vector<InjectionOutcome> outcomes;

  /// Whether the mode checks 2-state laundering.
  bool checks_laundering() const;

  /// The experiment's claim holds: every class found at least one
  /// applicable site, no injected defect went undetected, and (when
  /// checked) 2-state simulation laundered every one.
  bool ok() const;
};

/// Runs one recall experiment: for every class of `mode`, generate up to
/// `runs` designs (case seeds derived from `seed`), keep those on which
/// the detector is silent, plant the defect where a site exists, then
/// (a) when the mode checks it, run the 2-state differential lanes on
///     the edited design -- they must still agree (`laundered`);
/// (b) ask the same detector again -- it must fire (`detected`); a
///     silent case is a recall bug (`missed`).
/// Because the detector and its stimulus are identical before and after
/// the edit, a detection is attributable to the planted defect alone.
InjectionReport run_injection(InjectMode mode, std::uint64_t seed,
                              std::uint64_t runs,
                              const GeneratorOptions& options = {});

}  // namespace fti::fuzz
