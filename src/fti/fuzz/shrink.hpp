// Greedy test-case minimiser for failing fuzz designs.
//
// Given a design and a failure predicate (normally "diff_design reports a
// mismatch"), repeatedly applies structural simplifications -- drop an RTG
// node, drop or stub out a unit, drop FSM states / transitions / control
// assignments / guard literals, drop memories and their ports, clear
// power-up images, halve a bit-width class -- keeping a mutation only when
// the candidate still passes ir::validate AND still fails the predicate.
// Each candidate is checked once: the predicate receives its handle.
// Runs passes to a fixpoint, so the repro XML checked into the corpus is a
// local minimum: removing any single element makes the bug disappear.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "fti/elab/checked.hpp"
#include "fti/ir/rtg.hpp"

namespace fti::fuzz {

/// Returns true while the candidate design still exhibits the failure.
using FailurePredicate = std::function<bool(const elab::CheckedDesign&)>;

struct ShrinkOptions {
  /// Upper bound on predicate evaluations; shrinking stops (keeping the
  /// best design so far) when exhausted.
  std::size_t max_evaluations = 4000;
};

struct ShrinkResult {
  ir::Design design;
  /// Predicate evaluations actually spent.
  std::size_t evaluations = 0;
  /// Mutations that were kept, in order ("drop unit u7 in p0", ...).
  std::vector<std::string> steps;
};

/// Size metric reported in logs and used by tests: total units plus memory
/// declarations plus FSM states across all configurations.
std::size_t ir_node_count(const ir::Design& design);

/// Minimises `design` under `predicate`.  The input design must itself
/// fail the predicate (asserted); the result is guaranteed to fail it too.
ShrinkResult shrink(const ir::Design& design, const FailurePredicate& predicate,
                    const ShrinkOptions& options = {});

}  // namespace fti::fuzz
