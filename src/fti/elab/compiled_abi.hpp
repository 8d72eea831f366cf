// ABI contract between the host process and the native modules the
// compiled engine builds (codegen/cpp.hpp emits them, elab/compiled.cpp
// loads them with dlopen).
//
// A module is a single shared object exporting one symbol,
// `fti_compiled_design`, returning a FtiCompiledDesignV1: the ABI
// version, the 32-hex canonical IR hash the module was generated from
// (checked against the requesting design at load, so a stale or
// mislabeled cache object can only miss, never alias), and one run
// function per RTG node.  Run functions return 0 when the done net
// rose, 1 on cycle-budget exhaustion and 2 on a simulation error (the
// message is in `error`); the host maps these onto the interpreter's
// StopReason / SimError behaviour exactly.
//
// The generated source cannot #include this header (cached objects must
// load in processes that know nothing about the build tree), so the
// struct declarations exist twice: as real C declarations below and as
// the kCompiledAbiText string the emitter pastes into every module.
// Keep them textually identical.  Two guards make drift loud instead of
// subtle: the emitter writes `static_assert(sizeof(...) == N)` lines
// into each module using the HOST's sizeof values (a layout mismatch
// then fails the module's own compile), and abi_version is re-checked
// at every load (bump kCompiledAbiVersion on ANY change here, so every
// previously cached object misses).
//
// Layout rules shared by the emitter and the host loader (cabi::*
// helpers below): `memories` pointers follow datapath memory
// declaration order; trace/finals slots follow ir::traced_wires order
// (register q wires then control wires, declaration order);
// `mem_write` indices follow declaration order of the write-capable
// memory ports; `visits`/`taken` follow FSM state/transition
// declaration order, `taken` flattened state-major.  All of these are
// derivable from the design IR alone, which is what lets a warm load
// reconstruct the layout without the emitter's metadata.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fti/ir/rtg.hpp"

extern "C" {

typedef void (*FtiCompiledTraceFn)(void* host, unsigned long long slot,
                                   unsigned long long value);
typedef void (*FtiCompiledMemWriteFn)(void* host,
                                      unsigned long long write_index,
                                      unsigned long long addr,
                                      unsigned long long value);

typedef struct FtiCompiledRunV1 {
  const unsigned long long* const* memories;
  unsigned long long max_cycles;
  unsigned long long collect_traces;
  void* host;
  FtiCompiledTraceFn trace;
  FtiCompiledMemWriteFn mem_write;
  unsigned long long* finals;
  unsigned long long* visits;
  unsigned long long* taken;
  char* error;
  unsigned long long error_capacity;
  unsigned long long cycles;
  unsigned long long events;
  unsigned long long evaluations;
  unsigned long long delta_cycles;
} FtiCompiledRunV1;

typedef struct FtiCompiledNodeV1 {
  const char* name;
  int (*run)(FtiCompiledRunV1* io);
  unsigned long long traced_count;
  unsigned long long memory_count;
  unsigned long long state_count;
  unsigned long long taken_count;
  unsigned long long write_count;
  unsigned long long comb_depth;
} FtiCompiledNodeV1;

typedef struct FtiCompiledDesignV1 {
  unsigned long long abi_version;
  const char* ir_hash;
  unsigned long long node_count;
  const FtiCompiledNodeV1* nodes;
} FtiCompiledDesignV1;

}  // extern "C"

namespace fti::elab::cabi {

inline constexpr unsigned long long kCompiledAbiVersion = 1;
inline constexpr const char* kCompiledEntrySymbol = "fti_compiled_design";

/// Signature of the module entry point resolved via dlsym.
using CompiledEntryFn = const FtiCompiledDesignV1* (*)();

/// The C declarations above, verbatim, for the emitter to paste into
/// generated modules (see file comment for the drift guards).
inline constexpr const char* kCompiledAbiText = R"abi(
typedef void (*FtiCompiledTraceFn)(void* host, unsigned long long slot,
                                   unsigned long long value);
typedef void (*FtiCompiledMemWriteFn)(void* host,
                                      unsigned long long write_index,
                                      unsigned long long addr,
                                      unsigned long long value);

typedef struct FtiCompiledRunV1 {
  const unsigned long long* const* memories;
  unsigned long long max_cycles;
  unsigned long long collect_traces;
  void* host;
  FtiCompiledTraceFn trace;
  FtiCompiledMemWriteFn mem_write;
  unsigned long long* finals;
  unsigned long long* visits;
  unsigned long long* taken;
  char* error;
  unsigned long long error_capacity;
  unsigned long long cycles;
  unsigned long long events;
  unsigned long long evaluations;
  unsigned long long delta_cycles;
} FtiCompiledRunV1;

typedef struct FtiCompiledNodeV1 {
  const char* name;
  int (*run)(FtiCompiledRunV1* io);
  unsigned long long traced_count;
  unsigned long long memory_count;
  unsigned long long state_count;
  unsigned long long taken_count;
  unsigned long long write_count;
  unsigned long long comb_depth;
} FtiCompiledNodeV1;

typedef struct FtiCompiledDesignV1 {
  unsigned long long abi_version;
  const char* ir_hash;
  unsigned long long node_count;
  const FtiCompiledNodeV1* nodes;
} FtiCompiledDesignV1;
)abi";

/// ABI memory-pointer order: memory declaration order.
inline std::vector<std::string> memory_order(const ir::Datapath& datapath) {
  std::vector<std::string> names;
  for (const ir::MemoryDecl& memory : datapath.memories) {
    names.push_back(memory.name);
  }
  return names;
}

/// mem_write callback index order: write-capable memory ports in unit
/// declaration order.  Returns the units so the host can map each index
/// back to its memory image.
inline std::vector<const ir::Unit*> write_units(const ir::Datapath& datapath) {
  std::vector<const ir::Unit*> units;
  for (const ir::Unit& unit : datapath.units) {
    if (unit.kind == ir::UnitKind::kMemPort &&
        unit.mem_mode != ir::MemMode::kRead) {
      units.push_back(&unit);
    }
  }
  return units;
}

/// Flattened state-major offsets of each state's transition counters in
/// the `taken` array; `offsets.back()` is the total counter count.
inline std::vector<std::size_t> taken_offsets(const ir::Fsm& fsm) {
  std::vector<std::size_t> offsets;
  std::size_t total = 0;
  for (const ir::State& state : fsm.states) {
    offsets.push_back(total);
    total += state.transitions.size();
  }
  offsets.push_back(total);
  return offsets;
}

}  // namespace fti::elab::cabi
