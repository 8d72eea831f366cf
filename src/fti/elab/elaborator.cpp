#include "fti/elab/elaborator.hpp"

#include <map>
#include <optional>

#include "fti/elab/engines.hpp"
#include "fti/ops/alu.hpp"
#include "fti/ops/constant.hpp"
#include "fti/ops/mux.hpp"
#include "fti/ops/pipelined.hpp"
#include "fti/ops/register.hpp"

namespace fti::elab {

std::unique_ptr<ElaboratedConfig> elaborate(const CheckedDesign& design,
                                            const std::string& node,
                                            mem::MemoryPool& pool) {
  const ir::Configuration& config = design.design().configuration(node);
  const ir::Datapath& datapath = config.datapath;

  auto elaborated = std::make_unique<ElaboratedConfig>();
  sim::Netlist& netlist = elaborated->netlist;

  sim::Net& clock = netlist.create_net("clk", 1);
  elaborated->clock = &clock;
  elaborated->clock_gen =
      &netlist.add_component<ops::ClockGen>("clkgen", clock);

  for (const ir::Wire& wire : datapath.wires) {
    netlist.create_net(wire.name, wire.width);
  }
  for (const ir::MemoryDecl& memory : datapath.memories) {
    acquire_memory(pool, memory);
  }

  for (const ir::Unit& unit : datapath.units) {
    switch (unit.kind) {
      case ir::UnitKind::kBinOp:
        if (unit.latency > 0) {
          netlist.add_component<ops::PipelinedBinaryOp>(
              unit.name, unit.binop, clock, netlist.net(unit.port("a")),
              netlist.net(unit.port("b")), netlist.net(unit.port("out")),
              unit.latency);
        } else {
          netlist.add_component<ops::BinaryOp>(
              unit.name, unit.binop, netlist.net(unit.port("a")),
              netlist.net(unit.port("b")), netlist.net(unit.port("out")));
        }
        break;
      case ir::UnitKind::kUnOp:
        netlist.add_component<ops::UnaryOp>(
            unit.name, unit.unop, netlist.net(unit.port("a")),
            netlist.net(unit.port("out")));
        break;
      case ir::UnitKind::kConst:
        netlist.add_component<ops::Constant>(
            unit.name, netlist.net(unit.port("out")),
            sim::Bits(unit.width, unit.value));
        break;
      case ir::UnitKind::kRegister: {
        sim::Net* enable =
            unit.has_port("en") ? &netlist.net(unit.port("en")) : nullptr;
        sim::Net* reset =
            unit.has_port("rst") ? &netlist.net(unit.port("rst")) : nullptr;
        netlist.add_component<ops::Register>(
            unit.name, clock, netlist.net(unit.port("d")),
            netlist.net(unit.port("q")), enable, reset,
            sim::Bits(unit.width, unit.reset_value));
        break;
      }
      case ir::UnitKind::kMux: {
        std::vector<sim::Net*> inputs;
        inputs.reserve(unit.mux_inputs);
        for (std::uint32_t i = 0; i < unit.mux_inputs; ++i) {
          inputs.push_back(
              &netlist.net(unit.port("in" + std::to_string(i))));
        }
        netlist.add_component<ops::Mux>(unit.name, std::move(inputs),
                                        netlist.net(unit.port("sel")),
                                        netlist.net(unit.port("out")));
        break;
      }
      case ir::UnitKind::kMemPort:
        break;  // grouped per memory below

    }
  }

  // Memory ports: all declarations for one memory become ONE multi-port
  // component, so a write is immediately coherent on every read port.
  std::map<std::string, std::vector<const ir::Unit*>> ports_by_memory;
  for (const ir::Unit& unit : datapath.units) {
    if (unit.kind == ir::UnitKind::kMemPort) {
      ports_by_memory[unit.memory].push_back(&unit);
    }
  }
  for (const auto& [memory_name, units] : ports_by_memory) {
    mem::MemoryImage& image = pool.get(memory_name);
    std::optional<mem::MultiPortSram::WritePort> write;
    std::vector<mem::MultiPortSram::ReadPort> reads;
    for (const ir::Unit* unit : units) {
      switch (unit->mem_mode) {
        case ir::MemMode::kReadWrite:
          write = mem::MultiPortSram::WritePort{
              &netlist.net(unit->port("addr")),
              &netlist.net(unit->port("din")),
              &netlist.net(unit->port("we")),
              &netlist.net(unit->port("dout"))};
          break;
        case ir::MemMode::kRead:
          reads.push_back({&netlist.net(unit->port("addr")),
                           &netlist.net(unit->port("dout"))});
          break;
        case ir::MemMode::kWrite:
          write = mem::MultiPortSram::WritePort{
              &netlist.net(unit->port("addr")),
              &netlist.net(unit->port("din")),
              &netlist.net(unit->port("we")), nullptr};
          break;
      }
    }
    elaborated->srams.push_back(&netlist.add_component<mem::MultiPortSram>(
        "sram_" + memory_name, image, clock, std::move(write),
        std::move(reads)));
  }

  std::vector<sim::Net*> control_nets;
  control_nets.reserve(datapath.control_wires.size());
  for (const std::string& wire : datapath.control_wires) {
    control_nets.push_back(&netlist.net(wire));
  }
  std::vector<sim::Net*> status_nets;
  status_nets.reserve(datapath.status_wires.size());
  for (const std::string& wire : datapath.status_wires) {
    status_nets.push_back(&netlist.net(wire));
  }
  elaborated->fsm = &netlist.add_component<FsmExecutor>(
      config.fsm.name.empty() ? "fsm" : config.fsm.name, config.fsm,
      datapath, clock, std::move(control_nets), std::move(status_nets));
  elaborated->done = &netlist.net(config.fsm.done_wire);
  return elaborated;
}

}  // namespace fti::elab
