#include "fti/elab/engines.hpp"

#include <deque>
#include <mutex>
#include <utility>

#include "fti/elab/batched.hpp"
#include "fti/elab/compiled.hpp"
#include "fti/elab/elaborator.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/obs/trace.hpp"
#include "fti/ops/alu.hpp"
#include "fti/ops/clock.hpp"
#include "fti/sim/probe.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/logging.hpp"

namespace fti::elab {

mem::MemoryImage& acquire_memory(mem::MemoryPool& pool,
                                 const ir::MemoryDecl& memory, bool* fresh) {
  const bool created = !pool.contains(memory.name);
  mem::MemoryImage& image =
      pool.create(memory.name, memory.depth, memory.width);
  if (created) {
    for (std::size_t i = 0; i < memory.init.size(); ++i) {
      image.write(i, memory.init[i]);
    }
  }
  if (fresh != nullptr) {
    *fresh = created;
  }
  return image;
}

void record_partition(const sim::EnginePartition& run) {
  // Partition-granularity aggregation from the kernel's own stats --
  // the per-event loops stay untouched, so the instrumented engines
  // cost the same as the uninstrumented ones.
  if (!obs::enabled()) {
    return;
  }
  obs::counter("engine.partitions").inc();
  obs::counter("engine.events_popped").add(run.stats.events);
  obs::counter("engine.evaluations").add(run.stats.evaluations);
  obs::counter("engine.delta_cycles").add(run.stats.delta_cycles);
  obs::counter("engine.wheel_rotations").add(run.stats.timesteps);
  obs::counter("engine.cycles").add(run.cycles);
  if (run.wall_seconds > 0.0) {
    obs::gauge("engine.cycles_per_sec")
        .set(static_cast<double>(run.cycles) / run.wall_seconds);
  }
}

sim::EngineResult PartitionedEngine::run(const CheckedDesign& design,
                                         mem::MemoryPool& pool,
                                         const sim::EngineRunOptions& options) {
  sim::EngineResult result;
  result.completed = true;
  result.has_wire_data = options.collect_wire_data && reports_wire_data();
  std::string node = design.design().rtg.initial;
  std::size_t index = 0;
  while (!node.empty()) {
    sim::EnginePartition run;
    {
      obs::ScopedSpan span(name() + ":" + node, "engine");
      run = run_partition(design, node, pool, options, index);
    }
    record_partition(run);
    sim::Kernel::StopReason reason = run.reason;
    result.partitions.push_back(std::move(run));
    if (reason != sim::Kernel::StopReason::kDoneNet) {
      result.completed = false;
      return result;
    }
    node = design.design().rtg.successor(node);
    ++index;
  }
  return result;
}

// ---------------------------------------------------------------------------
// EventEngine

const std::string& EventEngine::name() const {
  static const std::string kName = "event";
  return kName;
}

sim::EnginePartition EventEngine::run_partition(
    const CheckedDesign& design, const std::string& node,
    mem::MemoryPool& pool, const sim::EngineRunOptions& options,
    std::size_t partition_index) {
  util::Stopwatch watch;
  // Reconfiguration: the previous partition's netlist is gone; only the
  // pool persists.  Elaboration cost is part of the configuration's wall
  // time, as bitstream loading would be on the FPGA.
  const ir::Configuration& config = design.design().configuration(node);
  std::unique_ptr<ElaboratedConfig> live;
  {
    obs::ScopedSpan span("elaborate:" + node, "elab");
    live = elaborate(design, node, pool);
    obs::counter("elab.configurations").inc();
  }
  if (options.on_netlist) {
    options.on_netlist(node, live->netlist);
  }
  std::vector<std::pair<std::string, sim::Probe*>> probes;
  if (options.collect_wire_data) {
    for (const std::string& wire : ir::traced_wires(config.datapath)) {
      probes.emplace_back(wire, &live->netlist.add_component<sim::Probe>(
                                    "engine_probe." + wire,
                                    live->netlist.net(wire)));
    }
  }

  sim::Kernel kernel(live->netlist);
  if (partition_index == 0 && options.tracer != nullptr) {
    kernel.set_tracer(options.tracer);
  }
  sim::Time max_time = options.max_cycles_per_partition == 0
                           ? sim::kNoTimeLimit
                           : options.max_cycles_per_partition *
                                 ops::ClockGen::kDefaultPeriod;
  sim::EnginePartition run;
  run.node = node;
  run.reason = kernel.run(max_time, live->done);
  run.cycles = live->clock_gen->cycles();
  run.stats = kernel.stats();
  run.coverage = live->fsm->coverage();
  run.wall_seconds = watch.seconds();
  // Harvest while the netlist is still alive.
  for (const auto& [wire, probe] : probes) {
    run.finals.emplace(wire, live->netlist.net(wire).u());
    std::vector<std::uint64_t>& trace = run.traces[wire];
    for (const sim::Probe::Sample& sample : probe->samples()) {
      trace.push_back(sample.value.u());
    }
  }
  FTI_LOG(kInfo, "rtg") << "partition '" << node << "': "
                        << sim::to_string(run.reason) << " after "
                        << run.cycles << " cycles, " << run.stats.events
                        << " events";
  return run;
}

// ---------------------------------------------------------------------------
// SweepEngine

sim::FsmCoverage coverage_from_counts(
    const ir::Fsm& fsm, const std::vector<std::uint64_t>& visits,
    const std::vector<std::vector<std::uint64_t>>& taken) {
  sim::FsmCoverage report;
  report.fsm = fsm.name.empty() ? "fsm" : fsm.name;
  for (std::size_t i = 0; i < fsm.states.size(); ++i) {
    report.states.push_back({fsm.states[i].name, visits[i]});
    for (std::size_t t = 0; t < fsm.states[i].transitions.size(); ++t) {
      const ir::Transition& transition = fsm.states[i].transitions[t];
      report.transitions.push_back({fsm.states[i].name, transition.target,
                                    ir::to_string(transition.guard),
                                    taken[i][t]});
    }
  }
  return report;
}

namespace {

using sim::Bits;

constexpr std::size_t kUntraced = static_cast<std::size_t>(-1);

/// Settle sweeps per cycle before the sweep reports a combinational loop.
constexpr std::uint32_t kMaxSweeps = 1000;

/// One partition of the full-sweep interpreter (see SweepEngine).  It
/// reads ports, memories, controls and FSM states from the handle's
/// resolved table, so a cycle looks no name up.
class SweepSim {
 public:
  SweepSim(const std::string& engine, const ir::Configuration& config,
           const ir::ConfigSlots& slots, mem::MemoryPool& pool,
           const sim::EngineRunOptions& options,
           const SweepEngine::BinopFn& eval_binop)
      : engine_(engine),
        config_(config),
        slots_(slots),
        options_(options),
        eval_binop_(eval_binop) {
    const ir::Datapath& datapath = config.datapath;
    for (const ir::Wire& wire : datapath.wires) {
      values_.emplace_back(wire.width, 0);
    }
    // The oracle keeps its own copy of the power-up rule (init applied
    // only by the configuration that creates the memory).
    for (const ir::MemoryDecl& memory : datapath.memories) {
      bool fresh = !pool.contains(memory.name);
      mem::MemoryImage& image =
          pool.create(memory.name, memory.depth, memory.width);
      if (fresh) {
        for (std::size_t i = 0; i < memory.init.size(); ++i) {
          image.write(i, memory.init[i]);
        }
      }
      images_.push_back(&image);
    }
    for (std::size_t u = 0; u < datapath.units.size(); ++u) {
      const ir::Unit& unit = datapath.units[u];
      switch (unit.kind) {
        case ir::UnitKind::kRegister:
          registers_.push_back(u);
          break;
        case ir::UnitKind::kBinOp:
          if (unit.latency > 0) {
            pipelined_.push_back(u);
            pipelines_.emplace_back(
                unit.latency - 1,
                Bits(values_[slots.units[u].out].width(), 0));
          } else {
            combinational_.push_back(u);
          }
          break;
        case ir::UnitKind::kMemPort:
          // Read paths are combinational; write-capable ports act at
          // edges.
          if (unit.mem_mode != ir::MemMode::kWrite) {
            combinational_.push_back(u);
          }
          if (unit.mem_mode != ir::MemMode::kRead) {
            write_ports_.push_back(u);
          }
          break;
        default:
          combinational_.push_back(u);
          break;
      }
    }
    state_ = slots.initial;
    visits_.assign(config.fsm.states.size(), 0);
    taken_.resize(config.fsm.states.size());
    for (std::size_t i = 0; i < config.fsm.states.size(); ++i) {
      taken_[i].assign(config.fsm.states[i].transitions.size(), 0);
    }
    if (options.collect_wire_data) {
      trace_slot_.assign(values_.size(), kUntraced);
      for (std::size_t wire : slots.traced) {
        trace_slot_[wire] = traced_.size();
        traced_.push_back({wire, datapath.wires[wire].name, {}});
      }
    }
  }

  sim::EnginePartition run(const std::string& node) {
    sim::EnginePartition result;
    result.node = node;
    // Time zero mirrors the kernel's initialization: registers power up
    // holding their reset value (bitstream-initialised flops), the
    // initial FSM state drives its control vector, then the
    // combinational sea settles.
    for (std::size_t reg : registers_) {
      const ir::Unit& unit = config_.datapath.units[reg];
      set_value(slots_.units[reg].q, Bits(unit.width, unit.reset_value));
    }
    visits_[state_] += 1;
    drive_controls(result.stats);
    settle(result.stats);
    result.reason = sim::Kernel::StopReason::kMaxTime;
    while (values_[slots_.done].is_zero()) {
      if (options_.max_cycles_per_partition != 0 &&
          result.cycles >= options_.max_cycles_per_partition) {
        finish(result);
        return result;
      }
      clock_edge(result.stats);
      drive_controls(result.stats);
      settle(result.stats);
      ++result.cycles;
    }
    result.reason = sim::Kernel::StopReason::kDoneNet;
    finish(result);
    return result;
  }

 private:
  void finish(sim::EnginePartition& result) {
    result.stats.timesteps = result.cycles + 1;
    result.stats.end_time = result.cycles * ops::ClockGen::kDefaultPeriod;
    result.coverage = coverage_from_counts(config_.fsm, visits_, taken_);
    // Every traced wire reports, even if idle.
    for (TracedWire& wire : traced_) {
      result.finals.emplace(wire.name, values_[wire.index].u());
      result.traces.emplace(wire.name, std::move(wire.changes));
    }
  }

  /// Writes a clocked wire; traced wires record their change stream, like
  /// a Probe on the net.  Returns whether the value changed.
  bool set_value(std::size_t index, const Bits& next) {
    if (values_[index] == next) {
      return false;
    }
    values_[index] = next;
    if (!trace_slot_.empty() && trace_slot_[index] != kUntraced) {
      traced_[trace_slot_[index]].changes.push_back(next.u());
    }
    return true;
  }

  Bits eval_fu(ops::BinOp op, const Bits& a, const Bits& b,
               std::uint32_t out_width) const {
    if (eval_binop_) {
      return eval_binop_(op, a, b, out_width);
    }
    return ops::eval_binop(op, a, b, out_width);
  }

  /// Moore outputs of the current FSM state; unassigned controls are zero.
  void drive_controls(sim::KernelStats& stats) {
    const ir::StateSlots& state = slots_.states[state_];
    for (std::size_t c = 0; c < slots_.controls.size(); ++c) {
      std::size_t index = slots_.controls[c];
      Bits next(values_[index].width(), 0);
      for (const ir::StateSlots::Assign& assign : state.controls) {
        if (assign.control == c) {
          next = Bits(values_[index].width(), assign.value);
          break;
        }
      }
      if (set_value(index, next)) {
        ++stats.events;
      }
    }
  }

  bool evaluate_unit(std::size_t u) {
    const ir::Unit& unit = config_.datapath.units[u];
    const ir::UnitSlots& port = slots_.units[u];
    FTI_ASSERT(unit.kind != ir::UnitKind::kRegister,
               "register in combinational list");
    const std::uint32_t width = values_[port.out].width();
    Bits result;
    switch (unit.kind) {
      case ir::UnitKind::kBinOp:
        result = eval_fu(unit.binop, values_[port.a], values_[port.b], width);
        break;
      case ir::UnitKind::kUnOp:
        result = ops::eval_unop(unit.unop, values_[port.a], width);
        break;
      case ir::UnitKind::kConst:
        result = Bits(width, unit.value);
        break;
      case ir::UnitKind::kMux: {
        std::uint64_t sel = values_[port.sel].u();
        result = sel < unit.mux_inputs ? values_[port.in[sel]] : Bits(width, 0);
        break;
      }
      case ir::UnitKind::kMemPort: {
        // Asynchronous read path; transient out-of-range addresses read
        // zero, matching the SRAM components.
        const mem::MemoryImage& image = *images_[port.memory];
        std::uint64_t address = values_[port.addr].u();
        result = address < image.depth()
                     ? Bits(width, image.words()[address])
                     : Bits(width, 0);
        break;
      }
      case ir::UnitKind::kRegister:
        break;
    }
    if (values_[port.out] == result) {
      return false;
    }
    values_[port.out] = result;
    return true;
  }

  /// Full-evaluation sweeps until the combinational logic settles.
  void settle(sim::KernelStats& stats) {
    for (std::uint32_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
      ++stats.delta_cycles;
      bool changed = false;
      for (std::size_t unit : combinational_) {
        ++stats.evaluations;
        bool unit_changed = evaluate_unit(unit);
        if (unit_changed) {
          ++stats.events;
        }
        changed = unit_changed || changed;
      }
      if (!changed) {
        return;
      }
    }
    throw util::SimError(engine_ + ": combinational loop in datapath '" +
                         config_.datapath.name + "'");
  }

  /// Two-phase edge: sample every sequential element against settled
  /// pre-edge values, then commit registers, pipeline stages, memory
  /// writes and the FSM transition together.
  void clock_edge(sim::KernelStats& stats) {
    updates_.clear();
    for (std::size_t reg : registers_) {
      const ir::UnitSlots& port = slots_.units[reg];
      ++stats.evaluations;
      if (port.rst != ir::kNone && !values_[port.rst].is_zero()) {
        const ir::Unit& unit = config_.datapath.units[reg];
        updates_.push_back({port.q, Bits(unit.width, unit.reset_value)});
        continue;
      }
      if (port.en != ir::kNone && values_[port.en].is_zero()) {
        continue;
      }
      updates_.push_back({port.q, values_[port.d]});
    }
    // Pipelined FUs sample pre-edge operands and retire the oldest stage.
    for (std::size_t p = 0; p < pipelined_.size(); ++p) {
      const ir::UnitSlots& port = slots_.units[pipelined_[p]];
      ++stats.evaluations;
      std::deque<Bits>& stages = pipelines_[p];
      stages.push_back(eval_fu(config_.datapath.units[pipelined_[p]].binop,
                               values_[port.a], values_[port.b],
                               values_[port.out].width()));
      updates_.push_back({port.out, stages.front()});
      stages.pop_front();
    }
    writes_.clear();
    for (std::size_t unit : write_ports_) {
      const ir::UnitSlots& port = slots_.units[unit];
      ++stats.evaluations;
      if (values_[port.we].is_zero()) {
        continue;
      }
      std::uint64_t address = values_[port.addr].u();
      mem::MemoryImage* image = images_[port.memory];
      if (address >= image->depth()) {
        throw util::SimError(engine_ + ": sram '" +
                             config_.datapath.units[unit].name +
                             "' write to address " + std::to_string(address) +
                             " beyond depth " +
                             std::to_string(image->depth()));
      }
      writes_.push_back({image, address, values_[port.din].u()});
    }
    // FSM transition on pre-edge status values: the first true guard.
    const ir::StateSlots& current = slots_.states[state_];
    for (std::size_t t = 0; t < current.transitions.size(); ++t) {
      bool taken = true;
      for (const ir::LiteralSlot& literal : current.transitions[t].literals) {
        bool level = !values_[literal.status].is_zero();
        if (level != literal.expected) {
          taken = false;
          break;
        }
      }
      if (taken) {
        ++taken_[state_][t];
        state_ = current.transitions[t].target;
        visits_[state_] += 1;
        break;
      }
    }
    for (const Update& update : updates_) {
      if (set_value(update.index, update.value)) {
        ++stats.events;
      }
    }
    for (const MemWrite& write : writes_) {
      write.image->write(write.address, write.data);
      ++stats.events;
    }
  }

  struct Update {
    std::size_t index;
    Bits value;
  };
  struct MemWrite {
    mem::MemoryImage* image;
    std::uint64_t address;
    std::uint64_t data;
  };
  struct TracedWire {
    std::size_t index;
    std::string name;
    /// Value-change stream, initial zero omitted.
    std::vector<std::uint64_t> changes;
  };

  const std::string& engine_;
  const ir::Configuration& config_;
  const ir::ConfigSlots& slots_;
  const sim::EngineRunOptions& options_;
  const SweepEngine::BinopFn& eval_binop_;
  std::vector<Bits> values_;
  std::vector<mem::MemoryImage*> images_;  ///< parallel to the memories
  /// Unit positions by role, in declaration order.
  std::vector<std::size_t> combinational_;
  std::vector<std::size_t> registers_;
  std::vector<std::size_t> pipelined_;
  std::vector<std::deque<Bits>> pipelines_;  ///< parallel to pipelined_
  std::vector<std::size_t> write_ports_;
  std::size_t state_ = 0;
  std::vector<std::uint64_t> visits_;
  std::vector<std::vector<std::uint64_t>> taken_;
  /// Filled only when wire data is collected; trace_slot_ maps each
  /// wire to its traced_ slot (kUntraced if none).
  std::vector<TracedWire> traced_;
  std::vector<std::size_t> trace_slot_;
  std::vector<Update> updates_;
  std::vector<MemWrite> writes_;
};

}  // namespace

sim::EnginePartition SweepEngine::run_partition(
    const CheckedDesign& design, const std::string& node,
    mem::MemoryPool& pool, const sim::EngineRunOptions& options,
    std::size_t partition_index) {
  (void)partition_index;
  util::Stopwatch watch;
  SweepSim simulator(name(), design.design().configuration(node),
                     design.slots(node), pool, options, eval_binop_);
  sim::EnginePartition run = simulator.run(node);
  run.wall_seconds = watch.seconds();
  return run;
}

const std::string& NaiveEngine::name() const {
  static const std::string kName = "naive";
  return kName;
}

// ---------------------------------------------------------------------------
// Registry

void register_builtin_engines() {
  static std::once_flag once;
  std::call_once(once, [] {
    sim::register_engine("event",
                         [] { return std::make_unique<EventEngine>(); });
    sim::register_engine("naive",
                         [] { return std::make_unique<NaiveEngine>(); });
    sim::register_engine("levelized", [] {
      return std::make_unique<BatchedEngine>("levelized");
    });
    sim::register_engine(
        "batched", [] { return std::make_unique<BatchedEngine>(); });
    sim::register_engine(
        "compiled", [] { return std::make_unique<CompiledEngine>(); });
  });
}

std::unique_ptr<sim::Engine> make_engine(const std::string& name) {
  register_builtin_engines();
  return sim::make_engine(name);
}

std::vector<std::string> engine_names() {
  register_builtin_engines();
  return sim::engine_names();
}

}  // namespace fti::elab
