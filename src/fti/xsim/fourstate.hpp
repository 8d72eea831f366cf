// Opt-in 4-state X/Z net semantics: an interpreter of the levelized
// schedule (the one the batched engine sweeps) in which registers and memories power up unknown (X) unless initialized,
// and unknowns propagate with exact masking semantics through the
// bitwise operators (AND with a known 0 kills X, OR with a known 1
// kills X, a mux with a known select passes only the selected input).
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

#include <cstdint>
#include <string>
#include <vector>

#include "fti/ir/rtg.hpp"
#include "fti/lint/lint.hpp"
#include "fti/mem/storage.hpp"

namespace fti::xsim {

/// One 4-state value: `x` masks the unknown bits, whose `v` bits are
/// kept zero (canonical form).
struct XBits {
  std::uint32_t width = 1;
  std::uint64_t v = 0;
  std::uint64_t x = 0;

  bool has_x() const { return x != 0; }
};

struct FourStateOptions {
  std::uint64_t max_cycles_per_partition = 100'000;
  /// Findings are deduplicated per (node, object, message); this caps
  /// the report size on pathological designs.
  std::size_t max_findings = 64;
};

/// One dynamic uninitialized-read finding.
struct FourStateFinding {
  std::string node;    ///< RTG configuration node
  std::string object;  ///< wire or memory the X was observed on
  std::uint64_t cycle = 0;
  std::string message;
};

struct FourStateReport {
  /// Every partition reached its done wire (X on done counts as not
  /// done, so an X-poisoned FSM typically times out instead).
  bool completed = false;
  std::uint64_t total_cycles = 0;
  std::vector<FourStateFinding> findings;

  bool clean() const { return findings.empty(); }

  /// The findings as lint findings under rule FTI-L010, so reports and
  /// gates treat the dynamic counterpart like its static sibling.
  std::vector<lint::Finding> to_lint() const;
};

/// Runs `design` under 4-state semantics.  `stimulus` supplies the
/// fully-defined initial memory images (same shape the engines
/// receive); it is not modified.  Infrastructure errors (invalid IR,
/// combinational cycles) propagate as exceptions, like the engines.
FourStateReport run_four_state(const ir::Design& design,
                               const mem::MemoryPool& stimulus,
                               const FourStateOptions& options = {});

}  // namespace fti::xsim
