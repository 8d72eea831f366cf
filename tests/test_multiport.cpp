// Multi-port memories: the MultiPortSram component, the compiler's
// 1-write/N-read port splitting, and end-to-end equivalence plus the
// expected cycle-count win when the memory-port bottleneck is widened.
#include <gtest/gtest.h>

#include "fti/elab/engines.hpp"
#include "fti/golden/fir.hpp"
#include "fti/golden/rng.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/ir/serde.hpp"
#include "fti/xml/writer.hpp"
#include "fti/mem/sram.hpp"
#include "fti/ops/clock.hpp"

namespace fti {
namespace {

TEST(MultiPortSram, TwoReadPortsServeDistinctAddresses) {
  sim::Netlist netlist;
  mem::MemoryPool pool;
  mem::MemoryImage& image = pool.create("m", 8, 16);
  image.write(2, 222);
  image.write(5, 555);
  sim::Net& clock = netlist.create_net("clk", 1);
  sim::Net& addr0 = netlist.create_net("a0", 8);
  sim::Net& addr1 = netlist.create_net("a1", 8);
  sim::Net& dout0 = netlist.create_net("d0", 16);
  sim::Net& dout1 = netlist.create_net("d1", 16);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 2);
  netlist.add_component<mem::MultiPortSram>(
      "sram", image, clock, std::nullopt,
      std::vector<mem::MultiPortSram::ReadPort>{{&addr0, &dout0},
                                                {&addr1, &dout1}});
  sim::Kernel kernel(netlist);
  kernel.preset(addr0, sim::Bits(8, 2));
  kernel.preset(addr1, sim::Bits(8, 5));
  kernel.run();
  EXPECT_EQ(dout0.u(), 222u);
  EXPECT_EQ(dout1.u(), 555u);
}

TEST(MultiPortSram, WriteVisibleOnAllReadPortsSameEdge) {
  sim::Netlist netlist;
  mem::MemoryPool pool;
  mem::MemoryImage& image = pool.create("m", 8, 16);
  sim::Net& clock = netlist.create_net("clk", 1);
  sim::Net& waddr = netlist.create_net("wa", 8);
  sim::Net& din = netlist.create_net("di", 16);
  sim::Net& we = netlist.create_net("we", 1);
  sim::Net& raddr = netlist.create_net("ra", 8);
  sim::Net& rdout = netlist.create_net("rd", 16);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 2);
  netlist.add_component<mem::MultiPortSram>(
      "sram", image, clock,
      mem::MultiPortSram::WritePort{&waddr, &din, &we, nullptr},
      std::vector<mem::MultiPortSram::ReadPort>{{&raddr, &rdout}});
  sim::Kernel kernel(netlist);
  kernel.preset(waddr, sim::Bits(8, 3));
  kernel.preset(din, sim::Bits(16, 777));
  kernel.preset(we, sim::Bits::bit(true));
  kernel.preset(raddr, sim::Bits(8, 3));
  kernel.run();
  // The read port reflects the write without its own addr changing.
  EXPECT_EQ(rdout.u(), 777u);
  EXPECT_EQ(image.read(3), 777u);
}

TEST(MultiPortSram, OutOfRangeWriteThrows) {
  sim::Netlist netlist;
  mem::MemoryPool pool;
  mem::MemoryImage& image = pool.create("m", 4, 16);
  sim::Net& clock = netlist.create_net("clk", 1);
  sim::Net& waddr = netlist.create_net("wa", 8);
  sim::Net& din = netlist.create_net("di", 16);
  sim::Net& we = netlist.create_net("we", 1);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 2);
  netlist.add_component<mem::MultiPortSram>(
      "sram", image, clock,
      mem::MultiPortSram::WritePort{&waddr, &din, &we, nullptr},
      std::vector<mem::MultiPortSram::ReadPort>{});
  sim::Kernel kernel(netlist);
  kernel.preset(waddr, sim::Bits(8, 200));
  kernel.preset(we, sim::Bits::bit(true));
  EXPECT_THROW(kernel.run(), util::SimError);
}

TEST(MultiPortIr, ValidationRules) {
  // Two write-capable ports on one memory are rejected.
  ir::Datapath dp;
  dp.name = "d";
  dp.wires = {{"a0", 32}, {"d0", 16}, {"q0", 16}, {"w0", 1},
              {"a1", 32}, {"d1", 16}, {"w1", 1}};
  dp.memories = {{"m", 8, 16, {}}};
  dp.control_wires = {"w0", "w1"};
  ir::Unit p0;
  p0.name = "p0";
  p0.kind = ir::UnitKind::kMemPort;
  p0.memory = "m";
  p0.ports = {{"addr", "a0"}, {"din", "d0"}, {"dout", "q0"}, {"we", "w0"}};
  ir::Unit p1;
  p1.name = "p1";
  p1.kind = ir::UnitKind::kMemPort;
  p1.mem_mode = ir::MemMode::kWrite;
  p1.memory = "m";
  p1.ports = {{"addr", "a1"}, {"din", "d1"}, {"we", "w1"}};
  dp.units = {p0, p1};
  EXPECT_THROW(ir::validate(dp), util::IrError);
  // Dropping the second writer makes it valid... after making it a reader.
  dp.units[1].mem_mode = ir::MemMode::kRead;
  dp.units[1].ports = {{"addr", "a1"}, {"dout", "d1"}};
  dp.wires[5] = {"d1", 16};
  dp.control_wires = {"w0"};
  EXPECT_NO_THROW(ir::validate(dp));
}

TEST(MultiPortIr, SerdeRoundTripsMode) {
  compiler::CompileOptions options;
  options.resources.default_memory_read_ports = 2;
  auto compiled = compiler::compile_source(
      "kernel mp(short a[8], short b[8]) {\n"
      "  int i;\n"
      "  for (i = 0; i < 8; i = i + 1) { b[i] = a[i] + a[7 - i]; }\n"
      "}\n",
      options);
  const ir::Datapath& datapath =
      compiled.design.configuration("mp").datapath;
  std::size_t read_ports = 0;
  std::size_t write_ports = 0;
  for (const auto& unit : datapath.units) {
    if (unit.kind == ir::UnitKind::kMemPort) {
      read_ports += unit.mem_mode == ir::MemMode::kRead ? 1 : 0;
      write_ports += unit.mem_mode == ir::MemMode::kWrite ? 1 : 0;
    }
  }
  EXPECT_EQ(read_ports, 4u);   // two arrays x two read ports
  EXPECT_EQ(write_ports, 2u);  // one write port each
  ir::Datapath reparsed =
      ir::datapath_from_xml(*ir::to_xml(datapath));
  EXPECT_EQ(xml::to_string(*ir::to_xml(reparsed)),
            xml::to_string(*ir::to_xml(datapath)));
  EXPECT_NO_THROW(ir::validate(reparsed));
}

harness::VerifyOutcome fir_with_ports(unsigned read_ports) {
  harness::TestCase test;
  test.name = "fir_ports" + std::to_string(read_ports);
  test.source = golden::fir_source(32, 8);
  test.scalar_args = {{"n", 32}, {"taps", 8}};
  golden::Rng rng(3);
  test.inputs = {{"x", rng.sequence(39, 1 << 12)},
                 {"h", rng.sequence(8, 256)}};
  test.check_arrays = {"y"};
  test.resources.default_memory_read_ports = read_ports;
  return harness::run_test_case(test);
}

TEST(MultiPortHls, ResultsIdenticalAcrossPortCounts) {
  auto one = fir_with_ports(1);
  auto two = fir_with_ports(2);
  auto four = fir_with_ports(4);
  ASSERT_TRUE(one.passed) << one.message;
  ASSERT_TRUE(two.passed) << two.message;
  ASSERT_TRUE(four.passed) << four.message;
  // Dual-ported x lets both operands of the MAC load together... the FIR
  // inner loop reads x once and h once per iteration, so widening the
  // ports of EACH array cannot hurt and typically shaves cycles via
  // cross-iteration overlap within the unrolled run; at minimum it must
  // never be slower.
  EXPECT_LE(two.run.total_cycles(), one.run.total_cycles());
  EXPECT_LE(four.run.total_cycles(), two.run.total_cycles());
}

TEST(MultiPortHls, ParallelLoadsShaveCycles) {
  // Two loads from the same array whose addresses are both ready at the
  // start of the body (two loop-carried registers): with one port they
  // serialize, with two they issue together.
  const std::string source =
      "kernel sum2(short a[16], int out[8], int n) {\n"
      "  int i;\n"
      "  int j = 8;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    out[i] = a[i] + a[j];\n"
      "    j = j + 1;\n"
      "  }\n"
      "}\n";
  harness::TestCase test;
  test.name = "sum2";
  test.source = source;
  test.scalar_args = {{"n", 8}};
  golden::Rng rng(4);
  test.inputs = {{"a", rng.sequence(16, 1000)}};
  auto narrow = harness::run_test_case(test);
  test.resources.memory_read_ports["a"] = 2;
  auto wide = harness::run_test_case(test);
  ASSERT_TRUE(narrow.passed) << narrow.message;
  ASSERT_TRUE(wide.passed) << wide.message;
  EXPECT_LT(wide.run.total_cycles(), narrow.run.total_cycles());
}

TEST(MultiPortBaseline, AgreesWithEventKernel) {
  compiler::CompileOptions options;
  options.scalar_args = {{"n", 8}};
  options.resources.default_memory_read_ports = 3;
  auto compiled = compiler::compile_source(
      "kernel tri(short a[16], int out[8], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    out[i] = a[i] + a[i + 4] + a[i + 8];\n"
      "  }\n"
      "}\n",
      options);
  golden::Rng rng(6);
  auto inputs = rng.sequence(16, 500);
  mem::MemoryPool event_pool;
  event_pool.create("a", 16, 16);
  event_pool.create("out", 8, 32);
  harness::load_inputs(event_pool, "a", inputs);
  auto event_run = elab::EventEngine().run(compiled.design, event_pool);
  ASSERT_TRUE(event_run.completed);

  mem::MemoryPool naive_pool;
  naive_pool.create("a", 16, 16);
  naive_pool.create("out", 8, 32);
  harness::load_inputs(naive_pool, "a", inputs);
  auto naive_run = elab::NaiveEngine().run(compiled.design, naive_pool);
  ASSERT_TRUE(naive_run.completed);
  EXPECT_EQ(event_pool.get("out").words(), naive_pool.get("out").words());
  EXPECT_EQ(event_run.total_cycles(), naive_run.total_cycles());
}

// Property sweep: port counts never change results.
class PortSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PortSweep, FirIsPortCountInvariant) {
  auto outcome = fir_with_ports(GetParam());
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

INSTANTIATE_TEST_SUITE_P(Ports, PortSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

}  // namespace
}  // namespace fti
