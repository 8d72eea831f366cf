// Batch-parallel levelized evaluation: one compiled schedule sweep
// advances N independent stimulus lanes in lockstep.  It is the only
// interpreter of the levelized schedule (levelized.hpp): the registry
// name "levelized" builds this engine, which then runs one lane per
// single-run call.
//
// Net storage is structure-of-arrays.  A 1-bit net packs 64 lanes into
// each uint64_t, so AND/OR/XOR/NOT and 2-way muxes over 1-bit operands
// evaluate up to 64 test vectors per machine word op; multi-bit nets hold
// one word per lane and loop over lanes in SoA order through the shared
// ops::eval_* semantics.  Registers, pipelined units, memory ports and
// the FSM keep per-lane state, so every lane observes exactly what an
// independent single-lane run over the same starting pool would -- the
// engine-parity tests assert this bit for bit against the reference
// interpreter.
//
// Lane semantics (the contract the fuzz lane checker and the harness
// rely on):
//  * lanes never interact: lane k's results are a pure function of lane
//    k's memory pool contents;
//  * each lane counts its own cycles.  At each edge only the lanes in
//    one FSM state advance: of the states the active lanes occupy, the
//    first in a weak topological order of the FSM (slices.hpp), so lanes
//    that ran ahead of a loop or a branch arm wait, frozen (registers,
//    memories, pipelines, FSM), until the rest join them.  A lane that
//    raises done or runs out of budget freezes for good.  Per-lane
//    cycles, stop reasons, finals, traces, events, coverage, 4-state
//    findings and memories match independent runs; lanes that never
//    diverge all advance at every edge;
//  * a SimError raised by any lane (out-of-range memory write) aborts
//    the whole batch.  The error names the fault with the smallest
//    (lane cycle, write port, lane index) -- the lane a lockstep sweep
//    would have met first -- so lanes that waited are run on until none
//    can fault at an earlier cycle of its own.
//
// 4-state mode (run_four_state_lanes, behind xsim::run_four_state) is
// the same sweep, instantiated with an unknown-mask plane beside every
// value word and memory image; the 2-state instantiation has none.  Power-up rules are lane
// state: a register without a `rst` port and every in-flight pipeline
// stage start all-X, a memory the lane's pool does not hold yet is X
// beyond its <init> prefix, and an image the caller supplies is fully
// defined.  Combinational ops evaluate through ops::eval_binop_x /
// eval_unop_x; the clock edge looks for X only where one can enter
// control -- data-driven register enables and resets, memory write
// ports, FSM guards and done -- and reports each hit as a finding of
// the lane it happened in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fti/elab/engines.hpp"

namespace fti::elab {

struct FourStateOptions {
  std::uint64_t max_cycles_per_partition = 100'000;
  /// Findings are deduplicated per (node, object, message); this caps
  /// each lane's report on pathological designs.
  std::size_t max_findings = 64;
};

/// One X observed at a point where it steers the run.
struct FourStateFinding {
  std::string node;    ///< RTG configuration node
  std::string object;  ///< wire, memory or FSM state the X was seen on
  std::uint64_t cycle = 0;
  std::string message;
};

/// One lane's 4-state run.
struct FourStateLane {
  /// Every partition reached its done wire (X on done counts as not
  /// done, so an X-poisoned FSM typically times out instead).
  bool completed = false;
  std::uint64_t total_cycles = 0;
  std::vector<FourStateFinding> findings;
};

/// Runs every lane of `design` under 4-state semantics in one batched
/// sweep per partition.  Each pool is that lane's stimulus and, like
/// run_batch, ends up holding the lane's final memory contents (unknown
/// words read back as zero).  Infrastructure errors -- invalid IR (raised
/// building the handle), a combinational cycle, a write to a known
/// address beyond a memory's depth -- throw, as in 2-state runs.
std::vector<FourStateLane> run_four_state_lanes(
    const CheckedDesign& design, const std::vector<mem::MemoryPool*>& lanes,
    const FourStateOptions& options);

class BatchedEngine final : public PartitionedEngine {
 public:
  /// `name` is the registry name the engine reports (spans, errors).
  explicit BatchedEngine(std::string name = "batched")
      : name_(std::move(name)) {}
  const std::string& name() const override;
  bool reports_wire_data() const override { return true; }
  sim::EnginePartition run_partition(const CheckedDesign& design,
                                     const std::string& node,
                                     mem::MemoryPool& pool,
                                     const sim::EngineRunOptions& options,
                                     std::size_t partition_index) override;
  /// All lanes in one schedule sweep.  Lane wall_seconds report an even
  /// share of the batch, so summing over lanes gives the batch wall time.
  std::vector<sim::EngineResult> run_batch(
      const CheckedDesign& design, const std::vector<mem::MemoryPool*>& lanes,
      const sim::EngineRunOptions& options = {}) override;

 private:
  std::string name_;
};

}  // namespace fti::elab
