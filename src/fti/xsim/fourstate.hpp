// Opt-in 4-state X semantics: registers and memories power up unknown
// (X) unless initialized, and unknowns propagate with exact masking
// semantics through the bitwise operators (AND with a known 0 kills X,
// OR with a known 1 kills X, a mux with a known select passes only the
// selected input).  The simulation itself is the batched engine's
// 4-state mode (elab/batched.hpp), N stimulus lanes per sweep; this
// header is its entry point and its bridge to lint.
//
// 2-state simulation powers every register up at its reset value, so a
// design whose results depend on power-up contents instead of explicit
// writes simulates "correctly" everywhere and the bug is laundered.
// This mode is the dynamic counterpart of lint rule FTI-L010
// (uninitialized-memory-read): any X observed at an observable point --
// a memory write port, an FSM guard, the done wire -- is reported as a
// dynamic uninitialized-read finding cross-referenced to FTI-L010.
//
// Initialization rules:
//  * a register with a `rst` port powers up at its reset value (the
//    design carries reset hardware for it); a register without one
//    powers up all-X,
//  * pipeline stages power up all-X,
//  * a memory image present in the caller's stimulus pool is fully
//    defined; a fresh memory is defined only where its <init> table
//    covers it and X beyond that.
#pragma once

#include <vector>

#include "fti/elab/batched.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/lint/lint.hpp"
#include "fti/mem/storage.hpp"

namespace fti::xsim {

using FourStateOptions = elab::FourStateOptions;
using FourStateFinding = elab::FourStateFinding;

/// One lane's 4-state run, with its lint view.
struct FourStateReport : elab::FourStateLane {
  bool clean() const { return findings.empty(); }

  /// The findings as lint findings under rule FTI-L010, so reports and
  /// gates treat the dynamic counterpart like its static sibling.
  std::vector<lint::Finding> to_lint() const;
};

/// Runs `design` under 4-state semantics, one report per lane.  Each
/// pool holds its lane's fully-defined initial memory images (the shape
/// the engines receive) and is left holding the lane's final contents,
/// as with Engine::run_batch.  Infrastructure errors (invalid IR,
/// combinational cycles, a write to a known address beyond a memory's
/// depth) propagate as exceptions, like the engines.
std::vector<FourStateReport> run_four_state(
    const elab::CheckedDesign& design,
    const std::vector<mem::MemoryPool*>& lanes,
    const FourStateOptions& options = {});

}  // namespace fti::xsim
