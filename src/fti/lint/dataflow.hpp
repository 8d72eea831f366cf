// fti::lint::dataflow -- abstract interpretation over the IR.
//
// The structural rules (FTI-L001..L011) see shape; this tier sees values.
// Every wire carries a product abstract value -- an unsigned interval, a
// signed interval and a known-bits mask -- propagated through exact
// transfer functions that mirror ops::eval_binop / eval_unop corner for
// corner (division by zero yields all-ones, INT64_MIN / -1 wraps to the
// dividend, shifts >= 64 produce zero, ashr clamps at 63, results mask to
// the output width).  Per configuration the engine iterates the
// combinational sweep + clock edge to fixpoint across FSM state loops,
// widening intervals after a few iterations so termination is guaranteed,
// and walks the RTG chain in execution order.
//
// Soundness contract (property-tested against the batched engine, run
// under its one-lane "levelized" name): at
// every simulated cycle, every wire's concrete value lies inside its
// computed unsigned and signed intervals and agrees with its known bits.
// Memory contents are external inputs (pools are runtime-loadable), so a
// memory read is top; registers power up at their reset value in every
// partition, exactly as the 2-state engines do.
//
// On top of the fixpoint sit the semantic rules FTI-L012..L017 (see
// lint.hpp / docs/lint.md); findings carry the witness range that proves
// them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fti/ir/rtg.hpp"
#include "fti/lint/lint.hpp"
#include "fti/sim/bits.hpp"

namespace fti::lint::dataflow {

/// Product abstract value for one wire: every component over-approximates
/// the set of concrete values independently, and normalize() exchanges
/// information between them (a known high bit tightens the interval, a
/// tight interval pins the common bit prefix).
struct AbstractValue {
  std::uint32_t width = 1;
  /// No value observed yet (unreachable code).  All other fields are
  /// meaningless while set.
  bool bottom = true;
  std::uint64_t umin = 0;        ///< unsigned interval, within mask(width)
  std::uint64_t umax = 0;
  std::int64_t smin = 0;         ///< signed interval (sign bit = width-1)
  std::int64_t smax = 0;
  std::uint64_t known_mask = 0;  ///< bit set -> bit value is known
  std::uint64_t known_value = 0; ///< known bit values; 0 on unknown bits

  static AbstractValue bot(std::uint32_t width);
  static AbstractValue top(std::uint32_t width);
  static AbstractValue constant(std::uint32_t width, std::uint64_t value);

  bool is_constant() const { return !bottom && umin == umax; }
  bool is_top() const;
  /// True when any component carries information beyond the type range.
  bool informative() const { return !bottom && !is_top(); }

  bool can_be_zero() const { return bottom || (umin == 0 && known_value == 0); }
  bool must_be_zero() const { return !bottom && umax == 0; }
  bool can_be_nonzero() const { return bottom || umax != 0; }
  bool must_be_nonzero() const {
    return !bottom && (umin > 0 || known_value != 0);
  }

  /// Soundness predicate: the concrete value is inside every component.
  bool contains(const sim::Bits& value) const;

  /// Reconciles the three components; never loses soundness (a detected
  /// contradiction degrades to top, not bottom, so an implementation slip
  /// can only cost precision).
  void normalize();

  /// Lattice join (set union), in place.
  void join(const AbstractValue& other);

  /// Standard interval widening against the previous iterate: any bound
  /// that moved jumps to the type extreme, so chains stabilise fast.
  void widen(const AbstractValue& previous);

  bool operator==(const AbstractValue& other) const;
  bool operator!=(const AbstractValue& other) const {
    return !(*this == other);
  }

  /// Witness rendering for finding messages: "[3, 17]", plus the known
  /// bit pattern ("bits 0b??10") when it says more than the interval.
  std::string to_string() const;
};

/// Abstract mirror of ops::eval_binop: the result set contains
/// eval_binop(op, a, b, out_width) for every a/b drawn from the operand
/// abstractions.
AbstractValue transfer_binop(ops::BinOp op, const AbstractValue& a,
                             const AbstractValue& b, std::uint32_t out_width);

/// Abstract mirror of ops::eval_unop.
AbstractValue transfer_unop(ops::UnOp op, const AbstractValue& a,
                            std::uint32_t out_width);

/// Decides a comparison from the operand abstractions: +1 = provably
/// true for every operand pair, 0 = provably false, -1 = undecided.
int compare_verdict(ops::BinOp op, const AbstractValue& a,
                    const AbstractValue& b);

/// Why a transition cannot (or must) fire, per FSM state in document
/// order; feeds FTI-L013.
enum class TransitionVerdict {
  kMaybe,     ///< guard feasible, not provably constant
  kAlways,    ///< guard provably true every time the state is live
  kDead,      ///< guard provably false (some literal can never match)
  kShadowed,  ///< an earlier transition's guard is provably always true
};

/// Fixpoint result for one configuration.
struct ConfigSummary {
  /// False when the configuration could not be analyzed (structural
  /// errors or a combinational cycle); no semantic rule fires on it.
  bool analyzed = false;
  std::size_t iterations = 0;
  bool widened = false;
  /// Settled post-fixpoint abstraction per wire; sound for every cycle.
  std::map<std::string, AbstractValue> wires;
  /// Semantic reachability per FSM state index (guard-feasibility
  /// refinement of the syntactic BFS behind FTI-L006).
  std::vector<bool> state_reachable;
  /// Per state, per transition in document order.
  std::vector<std::vector<TransitionVerdict>> transitions;
};

/// Whole-design analysis: per-configuration summaries along the RTG
/// execution chain plus the semantic findings (FTI-L012..L017) they
/// prove.  Configurations with a combinational cycle are skipped (the
/// structural rules already report them).
struct Summary {
  std::map<std::string, ConfigSummary> configurations;
  std::vector<Finding> findings;
};

/// Analyzes a checked design in its handle's graph order.
Summary analyze(const elab::CheckedDesign& design);

/// Never throws.  Builds a handle and analyzes that when the design
/// passes ir::validate; otherwise analyzes each configuration that passes
/// the datapath and FSM checks on its own and skips the rest.
Summary analyze(const ir::Design& design);

}  // namespace fti::lint::dataflow
