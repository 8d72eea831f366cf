#include "fti/mem/sram.hpp"

#include "fti/util/error.hpp"

namespace fti::mem {

MultiPortSram::MultiPortSram(std::string name, MemoryImage& image,
                             sim::Net& clock,
                             std::optional<WritePort> write,
                             std::vector<ReadPort> reads)
    : Component(std::move(name)), image_(image), clock_(clock),
      write_(std::move(write)), reads_(std::move(reads)) {
  if (write_) {
    FTI_ASSERT(write_->addr != nullptr && write_->din != nullptr &&
                   write_->we != nullptr,
               "sram '" + this->name() + "' write port incomplete");
    FTI_ASSERT(write_->din->width() == image.width(),
               "sram '" + this->name() + "' din width mismatch");
    write_->addr->add_listener(this);
  }
  for (const ReadPort& port : reads_) {
    FTI_ASSERT(port.addr != nullptr && port.dout != nullptr,
               "sram '" + this->name() + "' read port incomplete");
    FTI_ASSERT(port.dout->width() == image.width(),
               "sram '" + this->name() + "' dout width mismatch");
    port.addr->add_listener(this);
  }
  clock_.add_listener(this, sim::Listen::kRising);
}

void MultiPortSram::drive(sim::Kernel& kernel, sim::Net& addr,
                          sim::Net& dout) {
  std::uint64_t address = addr.u();
  if (address >= image_.depth()) {
    ++oob_reads_;
    kernel.schedule(dout, sim::Bits(dout.width(), 0), 0);
    return;
  }
  kernel.schedule(dout, image_.read_bits(address), 0);
}

void MultiPortSram::drive_all(sim::Kernel& kernel) {
  // Unchanged values are suppressed at commit, so re-driving every dout on
  // any wake keeps the code simple without event inflation.
  if (write_ && write_->dout != nullptr) {
    drive(kernel, *write_->addr, *write_->dout);
  }
  for (const ReadPort& port : reads_) {
    drive(kernel, *port.addr, *port.dout);
  }
}

void MultiPortSram::initialize(sim::Kernel& kernel) { drive_all(kernel); }

void MultiPortSram::evaluate(sim::Kernel& kernel) {
  if (kernel.rising(clock_) && write_ && !write_->we->value().is_zero()) {
    std::uint64_t address = write_->addr->u();
    if (address >= image_.depth()) {
      throw util::SimError("sram '" + name() + "': write to address " +
                           std::to_string(address) + " beyond depth " +
                           std::to_string(image_.depth()) + " at t=" +
                           std::to_string(kernel.now()));
    }
    image_.write(address, write_->din->u());
  }
  drive_all(kernel);
}

}  // namespace fti::mem
