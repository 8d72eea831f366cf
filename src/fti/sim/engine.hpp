// Pluggable execution engines.
//
// Every way this infrastructure can execute a design -- the event-driven
// kernel, the full-sweep interpreter (registered as "naive" and, as the
// fuzzer's oracle, "reference"), the batched sweep over the levelized
// schedule (also registered as "levelized", its one-lane form), the
// compiled engine -- implements one interface:
// configure the design's partitions over a memory pool, run each to its
// stop condition, and report the same observables (cycles, KernelStats,
// stop reason, FSM coverage, optional per-wire data).  Callers select an
// engine by name through a string-keyed factory registry, which is what
// the `--engine=` flags of `fti run`/`verify`/`fuzz` resolve against.
//
// The interface lives in sim so it can be implemented from any layer;
// it refers to the IR and memory pool only through forward declarations
// (fti_sim does not link fti_ir or fti_mem).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fti/sim/coverage.hpp"
#include "fti/sim/kernel.hpp"

namespace fti::ir {
struct Design;
}  // namespace fti::ir

namespace fti::mem {
class MemoryPool;
}  // namespace fti::mem

namespace fti::sim {

class Netlist;

struct EngineRunOptions {
  /// Per-partition cycle budget before giving up (0 = unlimited -- then a
  /// design that never raises done runs forever, so leave this set).
  std::uint64_t max_cycles_per_partition = 50'000'000;
  /// Record finals/traces of the clocked wires in each EnginePartition.
  /// Only engines with reports_wire_data() honour this.
  bool collect_wire_data = false;
  /// Tracer (e.g. a VcdWriter) installed on the first partition only: a
  /// tracer watches nets by identity and each partition owns a fresh
  /// netlist.  Only engines with supports_tracing() honour this.
  Tracer* tracer = nullptr;
  /// Netlist-building engines call this after each partition's netlist is
  /// elaborated and before it runs (probe/watch attachment).  The netlist
  /// is destroyed when the partition is torn down.
  std::function<void(const std::string& node, Netlist& netlist)> on_netlist;
};

/// What one partition's run observed -- a superset of what each backend
/// can actually measure (engines leave fields they cannot fill at their
/// defaults; e.g. only the event kernel meaningfully counts deltas).
struct EnginePartition {
  std::string node;
  std::uint64_t cycles = 0;  ///< clock cycles the partition executed
  KernelStats stats;
  double wall_seconds = 0.0;
  Kernel::StopReason reason = Kernel::StopReason::kIdle;
  /// Control-unit coverage of this partition's run.
  FsmCoverage coverage;
  /// Final value per clocked wire and the value-change stream per clocked
  /// wire, filled when EngineRunOptions::collect_wire_data is set and the
  /// engine reports wire data.  Keys are bare wire names.
  std::map<std::string, std::uint64_t> finals;
  std::map<std::string, std::vector<std::uint64_t>> traces;
};

struct EngineResult {
  std::vector<EnginePartition> partitions;
  /// True when every partition finished by raising done.
  bool completed = false;
  /// True when the engine filled finals/traces.
  bool has_wire_data = false;

  std::uint64_t total_cycles() const;
  std::uint64_t total_events() const;
  double total_wall_seconds() const;
};

/// One execution backend.  Engines are cheap to construct and carry no
/// per-run state: run() may be called repeatedly (each call starts from
/// the pool's current contents, like reprogramming the fabric).
class Engine {
 public:
  virtual ~Engine() = default;

  virtual const std::string& name() const = 0;
  /// Whether EngineRunOptions::tracer is honoured (net-level tracing only
  /// exists where there are nets).
  virtual bool supports_tracing() const { return false; }
  /// Whether collect_wire_data fills finals/traces.
  virtual bool reports_wire_data() const { return false; }

  /// Runs `design` to completion over `pool` (all temporal partitions,
  /// stopping early when one exhausts its cycle budget -- then
  /// completed == false).  Throws SimError for in-run failures
  /// (combinational loops, bad memory writes).
  virtual EngineResult run(const ir::Design& design, mem::MemoryPool& pool,
                           const EngineRunOptions& options = {}) = 0;

  /// Runs a single named configuration (the CPU-as-sequencer case in
  /// cosim).  Only `partition_index` 0 gets EngineRunOptions::tracer.
  virtual EnginePartition run_partition(const ir::Design& design,
                                        const std::string& node,
                                        mem::MemoryPool& pool,
                                        const EngineRunOptions& options,
                                        std::size_t partition_index) = 0;

  /// Most lanes one run_batch call accepts.  Engines with a native
  /// batched datapath may lower this to whatever their storage layout
  /// supports; the default covers the looping fallback.
  virtual std::size_t max_lanes() const { return kDefaultMaxLanes; }

  /// Throws the SimError run_batch raises for `lanes` lanes when the
  /// count is zero or above max_lanes(), so a caller can reject a batch
  /// before building its stimulus.
  void check_lane_count(std::size_t lanes) const;

  /// Runs `design` once per stimulus lane: lanes[k] is lane k's memory
  /// pool (its pre-run contents are that lane's stimulus, exactly as a
  /// pool passed to run()), and slot k of the returned vector is lane k's
  /// result.  Lane counts of zero or above max_lanes(), and null pool
  /// pointers, are rejected with SimError -- never silently clamped.  A
  /// SimError raised by any lane mid-run (bad memory write, combinational
  /// loop) aborts the whole batch.  The base implementation loops run()
  /// lane by lane, so every engine accepts batches; engines that override
  /// it (the `batched` engine) evaluate all lanes in one sweep.
  virtual std::vector<EngineResult> run_batch(
      const ir::Design& design, const std::vector<mem::MemoryPool*>& lanes,
      const EngineRunOptions& options = {});

 protected:
  static constexpr std::size_t kDefaultMaxLanes = 1024;

  /// Shared run_batch precondition check (lane count bounds, null pools);
  /// throws SimError naming the engine on violation.
  void check_batch_lanes(const std::vector<mem::MemoryPool*>& lanes) const;
};

using EngineFactory = std::function<std::unique_ptr<Engine>()>;

/// Registers (or replaces) a factory under `name`.  Thread-safe.
void register_engine(const std::string& name, EngineFactory factory);

/// True when `name` is registered.
bool has_engine(const std::string& name);

/// Registered names, sorted.
std::vector<std::string> engine_names();

/// Creates the engine registered under `name`; throws SimError listing
/// the registered names when it is unknown.  NOTE: the built-in engines
/// live in higher layers -- call elab::make_engine (which registers them
/// first) unless you know registration already happened.
std::unique_ptr<Engine> make_engine(const std::string& name);

}  // namespace fti::sim
