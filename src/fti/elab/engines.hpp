// Built-in execution engines behind the sim::Engine interface.
//
// Every backend shares one RTG loop (PartitionedEngine):
//  * EventEngine    -- the event-driven kernel (elaborate to a netlist of
//                      components, calendar-queue scheduling).  The
//                      paper's engine; the only one with net tracing.
//  * SweepEngine    -- the full-sweep interpreter: every cycle, sweep
//                      EVERY combinational unit until the values settle.
//                      Registered as "naive" (E3's full-evaluation
//                      baseline) and built by fuzz::ReferenceEngine, the
//                      fuzzer's oracle ("reference").
//  * BatchedEngine  -- statically scheduled evaluation of the levelized
//                      schedule over N lanes (batched.hpp); registered
//                      as "batched" and, for one-lane runs, "levelized".
//  * CompiledEngine -- the levelized schedule lowered to native code
//                      (compiled.hpp).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fti/ir/rtg.hpp"
#include "fti/mem/storage.hpp"
#include "fti/ops/alu.hpp"
#include "fti/sim/engine.hpp"

namespace fti::elab {

/// Builds the coverage report the FsmExecutor produces, from the visit and
/// per-transition take counters the sweep engines maintain (`visits[i]` /
/// `taken[i][t]` follow FSM declaration order).
sim::FsmCoverage coverage_from_counts(
    const ir::Fsm& fsm, const std::vector<std::uint64_t>& visits,
    const std::vector<std::vector<std::uint64_t>>& taken);

/// Adds one finished partition to the engine.* observability counters
/// (a no-op while obs is disabled).  PartitionedEngine::run records each
/// partition it runs; an engine with its own run_batch records each
/// lane's partitions the same way.
void record_partition(const sim::EnginePartition& run);

/// Shared temporal-partition loop: validate the design, run each RTG node
/// through run_partition, stop early (completed == false) when one misses
/// its done signal.  Backends implement run_partition only.
class PartitionedEngine : public sim::Engine {
 public:
  sim::EngineResult run(const ir::Design& design, mem::MemoryPool& pool,
                        const sim::EngineRunOptions& options = {}) override;
};

/// The event kernel: each partition is elaborated into a fresh netlist
/// (elaborator.hpp), handed to EngineRunOptions::on_netlist, probed when
/// collect_wire_data is set, run to done with the tracer on partition 0
/// only, and harvested before the netlist is torn down.
class EventEngine final : public PartitionedEngine {
 public:
  const std::string& name() const override;
  bool supports_tracing() const override { return true; }
  bool reports_wire_data() const override { return true; }
  sim::EnginePartition run_partition(const ir::Design& design,
                                     const std::string& node,
                                     mem::MemoryPool& pool,
                                     const sim::EngineRunOptions& options,
                                     std::size_t partition_index) override;
};

/// The full-sweep interpreter: settle sweeps over the whole combinational
/// list, then a two-phase clock edge (sample every register, pipeline
/// stage, memory write and the FSM transition against pre-edge values,
/// then commit).  No event queue, no schedule, no generated code: beyond
/// the RTG loop and the coverage report it shares only ops/semantics.hpp
/// and ir::traced_wires with the other engines, which is what makes it
/// the fuzzer's oracle.  Counts every unit evaluation
/// (KernelStats::evaluations) and every settle sweep (delta_cycles); a
/// cycle that does not settle within 1000 sweeps is reported as a
/// combinational loop.
class SweepEngine : public PartitionedEngine {
 public:
  /// Binary-FU semantics override; null means ops::eval_binop.
  using BinopFn = std::function<sim::Bits(ops::BinOp, const sim::Bits&,
                                          const sim::Bits&, std::uint32_t)>;

  bool reports_wire_data() const override { return true; }
  sim::EnginePartition run_partition(const ir::Design& design,
                                     const std::string& node,
                                     mem::MemoryPool& pool,
                                     const sim::EngineRunOptions& options,
                                     std::size_t partition_index) override;

 protected:
  explicit SweepEngine(BinopFn eval_binop = nullptr)
      : eval_binop_(std::move(eval_binop)) {}

 private:
  BinopFn eval_binop_;
};

/// The sweep under the name E3 measures it by.
class NaiveEngine final : public SweepEngine {
 public:
  const std::string& name() const override;
};

/// Registers "event", "naive", "levelized", "batched" and "compiled"
/// with the sim registry.
/// Idempotent and thread-safe; make_engine/engine_names below call it, so
/// most callers never need to.
void register_builtin_engines();

/// register_builtin_engines(), then sim::make_engine(name) -- throws
/// SimError listing the registered names when `name` is unknown.
std::unique_ptr<sim::Engine> make_engine(const std::string& name);

/// register_builtin_engines(), then sim::engine_names().
std::vector<std::string> engine_names();

}  // namespace fti::elab
