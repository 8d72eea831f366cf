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
//  * lanes run in lockstep against one shared cycle counter, but a lane
//    that raises done freezes (registers, memories, FSM) while the rest
//    continue, so per-lane cycle counts and stop reasons match
//    independent runs;
//  * a SimError raised by any lane (out-of-range memory write) aborts
//    the whole batch.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "fti/elab/engines.hpp"

namespace fti::elab {

class BatchedEngine final : public PartitionedEngine {
 public:
  /// `name` is the registry name the engine reports (spans, errors).
  explicit BatchedEngine(std::string name = "batched")
      : name_(std::move(name)) {}
  const std::string& name() const override;
  bool reports_wire_data() const override { return true; }
  sim::EnginePartition run_partition(const ir::Design& design,
                                     const std::string& node,
                                     mem::MemoryPool& pool,
                                     const sim::EngineRunOptions& options,
                                     std::size_t partition_index) override;
  /// All lanes in one schedule sweep.  Lane wall_seconds report an even
  /// share of the batch, so summing over lanes gives the batch wall time.
  std::vector<sim::EngineResult> run_batch(
      const ir::Design& design, const std::vector<mem::MemoryPool*>& lanes,
      const sim::EngineRunOptions& options = {}) override;

 private:
  std::string name_;
};

}  // namespace fti::elab
