// codegen::cpp -- the compiled execution backend's code generator.
//
// Emits one self-contained, dependency-free C++ translation unit per
// design: each RTG node's levelized schedule becomes a straight-line
// run function (constants folded into initializers, muxes as chained
// ternaries, the FSM as a switch over a state local, registers as
// sample-then-commit double buffers) speaking the extern "C" ABI of
// elab/compiled_abi.hpp.  The host compiles it to a shared object,
// dlopen()s it and registers the result as the "compiled" engine.
//
// The emitted semantics mirror elab/levelized.cpp observable-for-
// observable: same evaluation order, same change-detected commit rule
// (events count value changes, traces append on change only), same
// operators -- each module carries the text of ops/semantics.hpp, the
// functions the ALU computes with, and calls them -- and the same
// out-of-bounds write SimError, so the parity suite and the fuzz differ
// can hold the compiled engine to bit-exact agreement.
#pragma once

#include <string>
#include <vector>

#include "fti/elab/levelized.hpp"
#include "fti/ir/rtg.hpp"

namespace fti::codegen {

/// What the emitter laid out for one RTG node, so the host can size the
/// ABI arrays and map slots back to names without re-deriving.  All
/// fields are also re-derivable from the design IR alone via the
/// cabi::* helpers (that is how warm dlopen loads work).
struct CppNodeLayout {
  std::string name;
  /// Finals/trace slot order (register q wires then control wires).
  std::vector<std::string> traced;
  /// ABI memory-pointer order (declaration order).
  std::vector<std::string> memories;
  /// mem_write callback index -> memory name written.
  std::vector<std::string> write_memories;
  std::size_t state_count = 0;
  std::size_t taken_count = 0;
  std::size_t comb_depth = 0;
};

struct CppModule {
  std::string source;
  std::vector<CppNodeLayout> nodes;
};

/// Emits the module for `design`.  `schedules` is parallel to
/// `design.rtg.nodes` and each entry must have been built from that
/// node's configuration (acquire_levelized_schedule provides them; a
/// combinational cycle therefore fails before emission starts).
/// `ir_hash` is the 32-hex canonical IR hash baked into the module and
/// re-checked at every load.
CppModule emit_cpp(const ir::Design& design, const std::string& ir_hash,
                   const std::vector<const elab::LevelizedSchedule*>& schedules);

}  // namespace fti::codegen
