// Defect injection -- the lint-recall half of the fuzz/lint loop.
//
// The differential fuzzer proves the simulators agree on *valid* designs;
// defect injection proves the static analyzer notices *invalid* ones.
// Each DefectClass is one known-bad structural edit planted into an
// otherwise valid generated design; the cross-check asserts the matching
// lint rule fires after the edit (and did not fire before it), measuring
// rule recall instead of trusting it.
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
                           ///< reporting under FTI-L010.  Deliberately NOT
                           ///< in all_defect_classes(): static lint cannot
                           ///< see it, so it would break the recall gate.
  // --- Semantic classes (experiment E11).  Each edit is behaviour-
  // neutral -- every 2-state engine still computes the same memory
  // contents, so functional testing passes -- but the dataflow tier
  // proves the bug pattern statically.  They live in
  // semantic_defect_classes(), not all_defect_classes(): structural
  // lint alone cannot see them.
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

std::string_view to_string(DefectClass defect);

/// Lint rule ID the injected defect must trigger.  For kUninitRegister
/// the rule is dynamic: FTI-L010 findings come from the 4-state checker,
/// not from lint_design.
std::string_view expected_rule(DefectClass defect);

/// All statically detectable classes, in declaration order (excludes
/// kUninitRegister, whose detection needs 4-state execution).
const std::vector<DefectClass>& all_defect_classes();

/// The semantic classes (kOobIndex, kConstFalseGuard, kLiveTruncation):
/// detectable only by the abstract-interpretation lint tier, invisible
/// to 2-state simulation.
const std::vector<DefectClass>& semantic_defect_classes();

/// Plants the defect into the design (one random applicable site).
/// Returns false -- leaving the design untouched -- when the design has
/// no applicable site.  Deterministic for a fixed (design, rng state).
bool inject_defect(ir::Design& design, DefectClass defect, Rng& rng);

struct InjectionOutcome {
  DefectClass defect{};
  std::uint64_t cases_tried = 0;  ///< generated designs examined
  std::uint64_t injected = 0;     ///< designs that offered a site
  std::uint64_t detected = 0;     ///< expected rule fired post-edit
  std::uint64_t missed = 0;       ///< rule stayed silent (a recall bug)
  /// Seeds of missed cases, for reproduction.
  std::vector<std::uint64_t> missed_seeds;
};

struct InjectionReport {
  std::vector<InjectionOutcome> outcomes;

  /// Recall holds: every class found at least one applicable site and no
  /// injected defect went undetected.
  bool ok() const;
};

/// Runs the cross-check: for every defect class, generate up to `runs`
/// designs (case seeds derived from `seed`), plant the defect where a
/// site exists, and lint before/after.  A case counts as injected only
/// when the expected rule was silent pre-edit; it must fire post-edit.
InjectionReport run_injection(std::uint64_t seed, std::uint64_t runs,
                              const GeneratorOptions& options = {});

/// Recall of the *dynamic* checker (experiment E10): kUninitRegister's
/// laundering claim, measured.  For each case seed: generate a design
/// whose 4-state baseline is clean (registers reset, no X reaches an
/// observable), plant kUninitRegister where a site exists, then
/// (a) run the 2-state differential lanes on the edited design -- they
///     should still agree (`laundered`): every 2-state engine powers the
///     reset-less register up at its reset value, so the defect is
///     invisible;
/// (b) run the 4-state checker -- it must report an FTI-L010 finding
///     (`detected`); a silent case is a recall bug (`missed`).
struct FourStateInjectionOutcome {
  std::uint64_t cases_tried = 0;  ///< generated designs examined
  std::uint64_t injected = 0;     ///< clean baseline + applicable site
  std::uint64_t laundered = 0;    ///< 2-state lanes still agree post-edit
  std::uint64_t detected = 0;     ///< 4-state reported a finding post-edit
  std::uint64_t missed = 0;       ///< 4-state stayed silent (recall bug)
  std::vector<std::uint64_t> missed_seeds;
};

/// E10 baseline preparation: gives every reset-less register an rst
/// port tied to a constant 0.  2-state behaviour is untouched (the reset
/// never asserts and registers power up at reset_value regardless), but
/// the 4-state checker now treats them as initialized, so the only X
/// left in the design is whatever the experiment plants.  Pipeline
/// stages still power up X; designs where that X reaches an observable
/// are filtered out by the clean-baseline gate.
void tie_off_register_resets(ir::Design& design);

struct FourStateInjectionReport {
  FourStateInjectionOutcome outcome;

  /// The experiment's claim holds: at least one site was found, every
  /// injected defect was laundered by 2-state simulation, and every one
  /// was detected by the 4-state checker.
  bool ok() const;
};

FourStateInjectionReport run_four_state_injection(
    std::uint64_t seed, std::uint64_t runs,
    const GeneratorOptions& options = {});

/// Recall of the *semantic* lint tier (experiment E11), one outcome per
/// semantic defect class.  For each case seed: generate a design on
/// which the expected rule is silent, plant the defect where a site
/// exists, then
/// (a) run the 2-state differential lanes on the edited design -- they
///     must still agree (`laundered`): every edit is behaviour-neutral,
///     so functional testing cannot see the bug;
/// (b) lint with the semantic tier on -- the expected rule must fire
///     (`detected`); a silent case is a recall bug (`missed`).
struct SemanticInjectionOutcome {
  DefectClass defect{};
  std::uint64_t cases_tried = 0;  ///< generated designs examined
  std::uint64_t injected = 0;     ///< rule silent pre-edit + applicable site
  std::uint64_t laundered = 0;    ///< 2-state lanes still agree post-edit
  std::uint64_t detected = 0;     ///< expected rule fired post-edit
  std::uint64_t missed = 0;       ///< rule stayed silent (a recall bug)
  std::vector<std::uint64_t> missed_seeds;
};

struct SemanticInjectionReport {
  std::vector<SemanticInjectionOutcome> outcomes;

  /// The experiment's claim holds for every class: at least one site was
  /// found, every injected defect was laundered by 2-state simulation,
  /// and every one was proved statically.
  bool ok() const;
};

SemanticInjectionReport run_semantic_injection(
    std::uint64_t seed, std::uint64_t runs,
    const GeneratorOptions& options = {});

}  // namespace fti::fuzz
