#include <gtest/gtest.h>

#include "fti/mem/memfile.hpp"
#include "fti/mem/pgm.hpp"
#include "fti/mem/sram.hpp"
#include "fti/ops/clock.hpp"
#include "fti/ops/constant.hpp"
#include "fti/sim/kernel.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"

namespace fti::mem {
namespace {

using sim::Bits;

TEST(MemoryImage, ReadWriteAndMasking) {
  MemoryImage image("m", 16, 8);
  image.write(3, 0x1FF);
  EXPECT_EQ(image.read(3), 0xFFu);  // masked to 8 bits
  EXPECT_EQ(image.read(0), 0u);
  EXPECT_EQ(image.read_count(), 2u);
  EXPECT_EQ(image.write_count(), 1u);
}

TEST(MemoryImage, OutOfRangeThrows) {
  MemoryImage image("m", 4, 16);
  EXPECT_THROW(image.read(4), util::SimError);
  EXPECT_THROW(image.write(100, 1), util::SimError);
}

TEST(MemoryImage, LoadRequiresExactSize) {
  MemoryImage image("m", 3, 8);
  image.load({1, 2, 3});
  EXPECT_EQ(image.read(2), 3u);
  EXPECT_THROW(image.load({1, 2}), util::IoError);
}

TEST(MemoryPool, IdempotentCreation) {
  MemoryPool pool;
  MemoryImage& a = pool.create("img", 64, 16);
  MemoryImage& b = pool.create("img", 64, 16);
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(pool.create("img", 32, 16), util::IrError);  // reshape
  EXPECT_THROW(pool.get("missing"), util::IrError);
  EXPECT_TRUE(pool.contains("img"));
  EXPECT_EQ(pool.names(), std::vector<std::string>{"img"});
}

TEST(MemFile, SequentialAndAddressedStores) {
  MemoryImage image("m", 8, 16);
  load_mem_text(image,
                "# comment\n"
                "1 2 3\n"
                "@6 10 11\n"
                "4: 0x2A\n");
  EXPECT_EQ(image.read(0), 1u);
  EXPECT_EQ(image.read(2), 3u);
  EXPECT_EQ(image.read(6), 10u);
  EXPECT_EQ(image.read(7), 11u);
  EXPECT_EQ(image.read(4), 42u);
}

TEST(MemFile, NegativeValuesWrap) {
  MemoryImage image("m", 2, 16);
  load_mem_text(image, "-1 -2");
  EXPECT_EQ(image.read(0), 0xFFFFu);
  EXPECT_EQ(image.read(1), 0xFFFEu);
}

TEST(MemFile, Errors) {
  MemoryImage image("m", 2, 16);
  EXPECT_THROW(load_mem_text(image, "zz"), util::IoError);
  EXPECT_THROW(load_mem_text(image, "@9 1"), util::IoError);
  EXPECT_THROW(load_mem_text(image, "1:"), util::IoError);
}

TEST(MemFile, RoundTripThroughText) {
  MemoryImage image("m", 20, 12);
  for (std::size_t i = 0; i < 20; ++i) {
    image.write(i, i * 37);
  }
  MemoryImage reloaded("m2", 20, 12);
  load_mem_text(reloaded, to_mem_text(image));
  EXPECT_TRUE(image == reloaded);
}

TEST(MemFile, RoundTripThroughDisk) {
  auto dir = util::scratch_dir("mem-test");
  MemoryImage image("m", 10, 8);
  image.write(9, 200);
  save_mem_file(image, dir / "img.dat");
  MemoryImage reloaded("m", 10, 8);
  load_mem_file(reloaded, dir / "img.dat");
  EXPECT_EQ(reloaded.read(9), 200u);
}

/// One read-write port of the SRAM component elaboration builds.
struct SramFixture {
  sim::Netlist netlist;
  MemoryPool pool;
  sim::Net* clock;
  sim::Net* addr;
  sim::Net* din;
  sim::Net* we;
  sim::Net* dout;
  MultiPortSram* sram;

  explicit SramFixture(std::uint64_t cycles = 4) {
    MemoryImage& image = pool.create("ram", 16, 8);
    clock = &netlist.create_net("clk", 1);
    addr = &netlist.create_net("addr", 8);
    din = &netlist.create_net("din", 8);
    we = &netlist.create_net("we", 1);
    dout = &netlist.create_net("dout", 8);
    netlist.add_component<ops::ClockGen>("cg", *clock, 10, cycles);
    sram = &netlist.add_component<MultiPortSram>(
        "ram0", image, *clock, MultiPortSram::WritePort{addr, din, we, dout},
        std::vector<MultiPortSram::ReadPort>{});
  }
};

TEST(Sram, AsynchronousRead) {
  SramFixture fixture;
  fixture.pool.get("ram").write(5, 0xAB);
  sim::Kernel kernel(fixture.netlist);
  kernel.preset(*fixture.addr, Bits(8, 5));
  kernel.run();
  EXPECT_EQ(fixture.dout->u(), 0xABu);
}

TEST(Sram, SynchronousWriteThenReadBack) {
  SramFixture fixture;
  sim::Kernel kernel(fixture.netlist);
  kernel.preset(*fixture.addr, Bits(8, 2));
  kernel.preset(*fixture.din, Bits(8, 0x5C));
  kernel.preset(*fixture.we, Bits::bit(true));
  kernel.run();
  EXPECT_EQ(fixture.pool.get("ram").read(2), 0x5Cu);
  EXPECT_EQ(fixture.dout->u(), 0x5Cu);  // dout follows after the write
}

TEST(Sram, NoWriteWhenDisabled) {
  SramFixture fixture;
  sim::Kernel kernel(fixture.netlist);
  kernel.preset(*fixture.addr, Bits(8, 2));
  kernel.preset(*fixture.din, Bits(8, 0x5C));
  kernel.run();
  EXPECT_EQ(fixture.pool.get("ram").words()[2], 0u);
}

TEST(Sram, OutOfRangeReadDrivesZero) {
  SramFixture fixture;
  sim::Kernel kernel(fixture.netlist);
  kernel.preset(*fixture.addr, Bits(8, 200));
  kernel.run();
  EXPECT_EQ(fixture.dout->u(), 0u);
  EXPECT_GE(fixture.sram->out_of_range_reads(), 1u);
}

TEST(Sram, OutOfRangeWriteThrows) {
  SramFixture fixture;
  sim::Kernel kernel(fixture.netlist);
  kernel.preset(*fixture.addr, Bits(8, 200));
  kernel.preset(*fixture.we, Bits::bit(true));
  EXPECT_THROW(kernel.run(), util::SimError);
}

TEST(Sram, StoragePersistsAcrossNetlists) {
  MemoryPool pool;
  {
    SramFixture unused;  // independent fixture exercising its own pool
  }
  pool.create("shared", 8, 16).write(1, 321);
  // A second "configuration" binds to the same image.
  sim::Netlist netlist;
  sim::Net& clock = netlist.create_net("clk", 1);
  sim::Net& addr = netlist.create_net("addr", 4);
  sim::Net& din = netlist.create_net("din", 16);
  sim::Net& we = netlist.create_net("we", 1);
  sim::Net& dout = netlist.create_net("dout", 16);
  netlist.add_component<ops::ClockGen>("cg", clock, 10, 2);
  netlist.add_component<MultiPortSram>(
      "ram1", pool.get("shared"), clock,
      MultiPortSram::WritePort{&addr, &din, &we, &dout},
      std::vector<MultiPortSram::ReadPort>{});
  sim::Kernel kernel(netlist);
  kernel.preset(addr, Bits(4, 1));
  kernel.run();
  EXPECT_EQ(dout.u(), 321u);
}

TEST(Pgm, ParseAsciiAndRoundTrip) {
  PgmImage image = parse_pgm("P2\n# c\n3 2\n255\n0 1 2 3 4 5\n");
  EXPECT_EQ(image.width, 3u);
  EXPECT_EQ(image.height, 2u);
  EXPECT_EQ(image.at(2, 1), 5u);
  PgmImage reparsed = parse_pgm(to_pgm_text(image));
  EXPECT_EQ(reparsed.pixels, image.pixels);
}

TEST(Pgm, ParseBinary) {
  std::string binary = "P5\n2 2\n255\n";
  binary += static_cast<char>(10);
  binary += static_cast<char>(20);
  binary += static_cast<char>(30);
  binary += static_cast<char>(250);
  PgmImage image = parse_pgm(binary);
  EXPECT_EQ(image.at(0, 0), 10u);
  EXPECT_EQ(image.at(1, 1), 250u);
}

TEST(Pgm, Errors) {
  EXPECT_THROW(parse_pgm("P3\n1 1\n255\n0\n"), util::IoError);
  EXPECT_THROW(parse_pgm("P2\n0 1\n255\n"), util::IoError);
  EXPECT_THROW(parse_pgm("P2\n1 1\n255\n999\n"), util::IoError);
  EXPECT_THROW(parse_pgm("P2\n2 2\n255\n1 2 3\n"), util::IoError);
  EXPECT_THROW(parse_pgm("P5\n2 2\n65535\nxx"), util::IoError);
}

TEST(Pgm, DiskRoundTrip) {
  auto dir = util::scratch_dir("pgm-test");
  PgmImage image;
  image.width = 4;
  image.height = 1;
  image.pixels = {9, 8, 7, 6};
  save_pgm(image, dir / "t.pgm");
  PgmImage loaded = load_pgm(dir / "t.pgm");
  EXPECT_EQ(loaded.pixels, image.pixels);
}

}  // namespace
}  // namespace fti::mem
