#include "fti/cosim/system.hpp"

#include "fti/obs/metrics.hpp"
#include "fti/obs/trace.hpp"
#include "fti/util/error.hpp"
#include "fti/util/logging.hpp"

namespace fti::cosim {

namespace {

constexpr std::uint32_t kWord = 32;

}  // namespace

CoSimResult CoSimSystem::run(const CpuProgram& program,
                             const CoSimOptions& options) {
  program.validate();
  const elab::CheckedDesign checked(design_);
  const std::vector<CpuInsn>& insns = program.instructions();
  CoSimResult result;
  auto reg = [&result](int index) {
    return sim::Bits(kWord, result.registers[static_cast<std::size_t>(
                                index)]);
  };
  auto set_reg = [&result](int index, const sim::Bits& value) {
    result.registers[static_cast<std::size_t>(index)] = value.u();
  };
  // Constructed lazily on the first RUN (programs without fabric work
  // never touch the engine registry).
  std::unique_ptr<sim::Engine> fabric;

  std::size_t pc = 0;
  while (pc < insns.size()) {
    if (result.instructions >= options.max_instructions) {
      return result;  // halted stays false
    }
    ++result.instructions;
    const CpuInsn& insn = insns[pc];
    std::size_t next = pc + 1;
    switch (insn.op) {
      case CpuOp::kLdi:
        set_reg(insn.rd,
                sim::Bits(kWord, static_cast<std::uint64_t>(insn.imm)));
        result.cpu_cycles += options.cycles_per_insn;
        break;
      case CpuOp::kMov:
        set_reg(insn.rd, reg(insn.ra));
        result.cpu_cycles += options.cycles_per_insn;
        break;
      case CpuOp::kAlu:
        set_reg(insn.rd,
                ops::eval_binop(insn.alu, reg(insn.ra), reg(insn.rb), kWord));
        result.cpu_cycles += options.cycles_per_insn;
        break;
      case CpuOp::kAluImm:
        set_reg(insn.rd,
                ops::eval_binop(
                    insn.alu, reg(insn.ra),
                    sim::Bits(kWord, static_cast<std::uint64_t>(insn.imm)),
                    kWord));
        result.cpu_cycles += options.cycles_per_insn;
        break;
      case CpuOp::kLoad: {
        mem::MemoryImage& image = pool_.get(insn.array);
        std::uint64_t address = reg(insn.ra).u();
        // Loads width-adapt like the fabric's extend stage: the pool does
        // not record signedness, so the CPU zero-extends and software is
        // expected to sign-extend explicitly when it needs to (as host
        // code reading a device buffer would).
        set_reg(insn.rd, sim::Bits(kWord, image.read(address)));
        ++result.loads;
        result.cpu_cycles += options.cycles_per_bus_access;
        break;
      }
      case CpuOp::kStore: {
        mem::MemoryImage& image = pool_.get(insn.array);
        image.write(reg(insn.ra).u(), reg(insn.rb).u());
        ++result.stores;
        result.cpu_cycles += options.cycles_per_bus_access;
        break;
      }
      case CpuOp::kBranch: {
        sim::Bits taken =
            ops::eval_binop(insn.alu, reg(insn.ra), reg(insn.rb), 1);
        if (!taken.is_zero()) {
          next = program.resolve(insn.label);
        }
        result.cpu_cycles += options.cycles_per_insn;
        break;
      }
      case CpuOp::kJump:
        next = program.resolve(insn.label);
        result.cpu_cycles += options.cycles_per_insn;
        break;
      case CpuOp::kRun: {
        ++result.reconfigurations;
        obs::counter("cosim.reconfigurations").inc();
        obs::ScopedSpan span("reconfigure:" + insn.node, "cosim");
        result.cpu_cycles += options.cycles_per_reconfiguration;
        if (fabric == nullptr) {
          fabric = elab::make_engine(options.engine);
        }
        if (insn.node.empty()) {
          // Run the design's whole RTG sequence.
          sim::EngineResult run =
              fabric->run(checked, pool_, options.fabric);
          if (!run.completed) {
            throw util::SimError(
                "cosim: fabric did not complete its RTG sequence");
          }
          result.fabric_cycles += run.total_cycles();
          result.reconfigurations += run.partitions.size() - 1;
        } else {
          // Run one configuration: the CPU is the sequencer.
          sim::EnginePartition run = fabric->run_partition(
              checked, insn.node, pool_, options.fabric, 0);
          if (run.reason != sim::Kernel::StopReason::kDoneNet) {
            throw util::SimError("cosim: configuration '" + insn.node +
                                 "' stopped with reason '" +
                                 sim::to_string(run.reason) + "'");
          }
          result.fabric_cycles += run.cycles;
        }
        FTI_LOG(kInfo, "cosim")
            << "RUN '" << insn.node << "' done, fabric total "
            << result.fabric_cycles << " cycles";
        break;
      }
      case CpuOp::kHalt:
        result.cpu_cycles += options.cycles_per_insn;
        result.halted = true;
        return result;
    }
    pc = next;
  }
  // Falling off the end counts as a halt (implicit).
  result.halted = true;
  return result;
}

}  // namespace fti::cosim
