// The SRAM component elaboration builds for every memory.
//
// Read is asynchronous (dout follows addr after a delta), write is
// synchronous on the rising clock edge when `we` is high -- the classic
// "distributed RAM" timing that gives the compiler single-state loads.
// The component only *references* its MemoryImage: storage belongs to the
// MemoryPool and survives reconfiguration.
//
// Transiently out-of-range read addresses (select settling) drive zero and
// are counted; out-of-range *writes* throw, because writes sample settled
// signals at the clock edge and therefore indicate a real bug.
#pragma once

#include <optional>
#include <vector>

#include "fti/mem/storage.hpp"
#include "fti/sim/component.hpp"
#include "fti/sim/kernel.hpp"

namespace fti::mem {

/// Multi-port SRAM: one storage image, at most one write-capable port and
/// any number of read ports.  All ports live in ONE component so a write
/// on the clock edge is visible on every read port within the same
/// activation -- independent components sharing an image would serve
/// stale dout until their own addr changed.
class MultiPortSram : public sim::Component {
 public:
  struct ReadPort {
    sim::Net* addr = nullptr;
    sim::Net* dout = nullptr;
  };
  struct WritePort {
    sim::Net* addr = nullptr;
    sim::Net* din = nullptr;
    sim::Net* we = nullptr;
    sim::Net* dout = nullptr;  ///< non-null for a read-write port
  };

  /// `write` may be disengaged (ROM-style memory).
  MultiPortSram(std::string name, MemoryImage& image, sim::Net& clock,
                std::optional<WritePort> write,
                std::vector<ReadPort> reads);

  void initialize(sim::Kernel& kernel) override;
  void evaluate(sim::Kernel& kernel) override;

  const MemoryImage& image() const { return image_; }
  std::size_t read_port_count() const { return reads_.size(); }
  std::uint64_t out_of_range_reads() const { return oob_reads_; }

 private:
  void drive_all(sim::Kernel& kernel);
  void drive(sim::Kernel& kernel, sim::Net& addr, sim::Net& dout);

  MemoryImage& image_;
  sim::Net& clock_;
  std::optional<WritePort> write_;
  std::vector<ReadPort> reads_;
  std::uint64_t oob_reads_ = 0;
};

}  // namespace fti::mem
