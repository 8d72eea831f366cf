#include <gtest/gtest.h>

#include "fti/golden/rng.hpp"
#include "fti/ops/alu.hpp"
#include "fti/ops/clock.hpp"
#include "fti/ops/constant.hpp"
#include "fti/ops/counter.hpp"
#include "fti/ops/mux.hpp"
#include "fti/ops/register.hpp"
#include "fti/sim/probe.hpp"

namespace fti::ops {
namespace {

using sim::Bits;

// ---------------------------------------------------------------------------
// eval_binop semantics, spot-checked against hand-computed values.
// ---------------------------------------------------------------------------

TEST(Alu, Arithmetic) {
  EXPECT_EQ(eval_binop(BinOp::kAdd, Bits(8, 200), Bits(8, 100), 8).u(), 44u);
  EXPECT_EQ(eval_binop(BinOp::kSub, Bits(8, 5), Bits(8, 10), 8).u(), 251u);
  EXPECT_EQ(eval_binop(BinOp::kMul, Bits(16, 300), Bits(16, 300), 16).u(),
            (300u * 300u) & 0xFFFF);
}

TEST(Alu, SignedDivision) {
  EXPECT_EQ(eval_binop(BinOp::kDiv, Bits(32, 0xFFFFFFF9) /* -7 */,
                       Bits(32, 2), 32)
                .s(),
            -3);
  EXPECT_EQ(eval_binop(BinOp::kRem, Bits(32, 0xFFFFFFF9), Bits(32, 2), 32)
                .s(),
            -1);
  EXPECT_EQ(eval_binop(BinOp::kDiv, Bits(8, 100), Bits(8, 7), 8).u(), 14u);
}

TEST(Alu, DivisionByZeroConventions) {
  EXPECT_EQ(eval_binop(BinOp::kDiv, Bits(8, 42), Bits(8, 0), 8).u(), 0xFFu);
  EXPECT_EQ(eval_binop(BinOp::kRem, Bits(8, 42), Bits(8, 0), 8).u(), 42u);
}

TEST(Alu, DivisionOverflowCase) {
  // INT64_MIN / -1 must not trap; masked result is the dividend.
  Bits min64(64, 0x8000000000000000ull);
  Bits minus1(64, ~0ull);
  EXPECT_EQ(eval_binop(BinOp::kDiv, min64, minus1, 64).u(),
            0x8000000000000000ull);
  EXPECT_EQ(eval_binop(BinOp::kRem, min64, minus1, 64).u(), 0u);
}

TEST(Alu, AbsOfInt64MinIsItself) {
  // -INT64_MIN overflows signed arithmetic (UBSan traps it in the asan
  // preset); abs negates unsigned, so the most negative value wraps onto
  // itself at every width.
  Bits min64(64, 0x8000000000000000ull);
  EXPECT_EQ(eval_unop(UnOp::kAbs, min64, 64).u(), 0x8000000000000000ull);
  EXPECT_EQ(eval_unop(UnOp::kAbs, Bits(8, 0x80), 8).u(), 0x80u);
  EXPECT_EQ(eval_unop(UnOp::kAbs, Bits(8, 0x80), 16).u(), 0x80u);
}

TEST(Alu, Shifts) {
  EXPECT_EQ(eval_binop(BinOp::kShl, Bits(8, 1), Bits(8, 3), 8).u(), 8u);
  EXPECT_EQ(eval_binop(BinOp::kShl, Bits(8, 1), Bits(8, 200), 8).u(), 0u);
  EXPECT_EQ(eval_binop(BinOp::kShr, Bits(8, 0x80), Bits(8, 7), 8).u(), 1u);
  EXPECT_EQ(eval_binop(BinOp::kAshr, Bits(8, 0x80), Bits(8, 7), 8).s(), -1);
  EXPECT_EQ(eval_binop(BinOp::kAshr, Bits(8, 0x80), Bits(8, 200), 8).s(),
            -1);  // saturated shift amount keeps the sign
}

TEST(Alu, ComparisonsSignedVsUnsigned) {
  Bits minus1(8, 0xFF);
  Bits one(8, 1);
  EXPECT_EQ(eval_binop(BinOp::kLt, minus1, one, 1).u(), 1u);   // -1 < 1
  EXPECT_EQ(eval_binop(BinOp::kLtu, minus1, one, 1).u(), 0u);  // 255 > 1
  EXPECT_EQ(eval_binop(BinOp::kGe, minus1, one, 1).u(), 0u);
  EXPECT_EQ(eval_binop(BinOp::kGeu, minus1, one, 1).u(), 1u);
  EXPECT_EQ(eval_binop(BinOp::kEq, Bits(8, 7), Bits(8, 7), 1).u(), 1u);
  EXPECT_EQ(eval_binop(BinOp::kNe, Bits(8, 7), Bits(8, 7), 1).u(), 0u);
}

TEST(Alu, ComparisonRespectsOutputWidth) {
  EXPECT_EQ(eval_binop(BinOp::kEq, Bits(8, 1), Bits(8, 1), 32),
            Bits(32, 1));
}

TEST(Alu, MinMaxAreSigned) {
  Bits minus5(16, 0xFFFB);
  Bits three(16, 3);
  EXPECT_EQ(eval_binop(BinOp::kMin, minus5, three, 16).s(), -5);
  EXPECT_EQ(eval_binop(BinOp::kMax, minus5, three, 16).s(), 3);
}

TEST(Alu, UnaryOps) {
  EXPECT_EQ(eval_unop(UnOp::kNot, Bits(8, 0x0F), 8).u(), 0xF0u);
  EXPECT_EQ(eval_unop(UnOp::kNeg, Bits(8, 1), 8).u(), 0xFFu);
  EXPECT_EQ(eval_unop(UnOp::kAbs, Bits(8, 0xFB), 8).u(), 5u);
  EXPECT_EQ(eval_unop(UnOp::kAbs, Bits(8, 5), 8).u(), 5u);
  EXPECT_EQ(eval_unop(UnOp::kPass, Bits(8, 0xFF), 16).u(), 0xFFu);
  EXPECT_EQ(eval_unop(UnOp::kSext, Bits(8, 0xFF), 16).u(), 0xFFFFu);
}

TEST(Alu, NameRoundTrip) {
  for (BinOp op : all_binops()) {
    EXPECT_EQ(binop_from_string(to_string(op)), op);
  }
  for (UnOp op : all_unops()) {
    EXPECT_EQ(unop_from_string(to_string(op)), op);
  }
  EXPECT_THROW(binop_from_string("bogus"), util::XmlError);
  EXPECT_THROW(unop_from_string("bogus"), util::XmlError);
}

TEST(Alu, ComparisonClassification) {
  EXPECT_TRUE(is_comparison(BinOp::kEq));
  EXPECT_TRUE(is_comparison(BinOp::kGeu));
  EXPECT_FALSE(is_comparison(BinOp::kAdd));
  EXPECT_FALSE(is_comparison(BinOp::kMin));
}

// ---------------------------------------------------------------------------
// Property sweep: masked-64-bit model vs eval_binop on random operands.
// ---------------------------------------------------------------------------

class BinOpSweep : public ::testing::TestWithParam<BinOp> {};

TEST_P(BinOpSweep, ResultAlwaysMaskedAndDeterministic) {
  BinOp op = GetParam();
  golden::Rng rng(static_cast<std::uint64_t>(op) + 1);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t width = 1 + static_cast<std::uint32_t>(rng.below(64));
    Bits a(width, rng.next());
    Bits b(width, rng.next());
    Bits result = eval_binop(op, a, b, width);
    EXPECT_EQ(result.width(), width);
    EXPECT_EQ(result.u() & Bits::mask(width), result.u());
    // Determinism.
    EXPECT_EQ(eval_binop(op, a, b, width), result);
    if (is_comparison(op)) {
      EXPECT_LE(result.u(), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBinOps, BinOpSweep,
                         ::testing::ValuesIn(all_binops()),
                         [](const ::testing::TestParamInfo<BinOp>& info) {
                           return std::string(to_string(info.param));
                         });

class UnOpSweep : public ::testing::TestWithParam<UnOp> {};

TEST_P(UnOpSweep, ResultAlwaysMasked) {
  UnOp op = GetParam();
  golden::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t in_width = 1 + static_cast<std::uint32_t>(rng.below(64));
    std::uint32_t out_width = 1 + static_cast<std::uint32_t>(rng.below(64));
    Bits a(in_width, rng.next());
    Bits result = eval_unop(op, a, out_width);
    EXPECT_EQ(result.width(), out_width);
    EXPECT_EQ(result.u() & Bits::mask(out_width), result.u());
  }
}

INSTANTIATE_TEST_SUITE_P(AllUnOps, UnOpSweep,
                         ::testing::ValuesIn(all_unops()),
                         [](const ::testing::TestParamInfo<UnOp>& info) {
                           return std::string(to_string(info.param));
                         });

// ---------------------------------------------------------------------------
// In-kernel component behaviour.
// ---------------------------------------------------------------------------

struct AdderFixture {
  sim::Netlist netlist;
  sim::Net* a;
  sim::Net* b;
  sim::Net* out;

  AdderFixture() {
    a = &netlist.create_net("a", 8);
    b = &netlist.create_net("b", 8);
    out = &netlist.create_net("out", 8);
    netlist.add_component<BinaryOp>("add0", BinOp::kAdd, *a, *b, *out);
  }
};

TEST(BinaryOpComponent, TracksInputs) {
  AdderFixture fixture;
  sim::Kernel kernel(fixture.netlist);
  kernel.preset(*fixture.a, Bits(8, 5));
  kernel.preset(*fixture.b, Bits(8, 7));
  kernel.run();
  EXPECT_EQ(fixture.out->u(), 12u);
}

TEST(Constant, DrivesAtInitialization) {
  sim::Netlist netlist;
  sim::Net& out = netlist.create_net("k", 16);
  netlist.add_component<Constant>("k42", out, Bits(16, 42));
  sim::Kernel kernel(netlist);
  kernel.run();
  EXPECT_EQ(out.u(), 42u);
}

TEST(MuxComponent, SelectsAndCountsOutOfRange) {
  sim::Netlist netlist;
  sim::Net& in0 = netlist.create_net("in0", 8);
  sim::Net& in1 = netlist.create_net("in1", 8);
  sim::Net& in2 = netlist.create_net("in2", 8);
  sim::Net& sel = netlist.create_net("sel", 2);
  sim::Net& out = netlist.create_net("out", 8);
  Mux& mux = netlist.add_component<Mux>(
      "m", std::vector<sim::Net*>{&in0, &in1, &in2}, sel, out);
  sim::Kernel kernel(netlist);
  kernel.preset(in0, Bits(8, 10));
  kernel.preset(in1, Bits(8, 20));
  kernel.preset(in2, Bits(8, 30));
  kernel.preset(sel, Bits(2, 1));
  kernel.run();
  EXPECT_EQ(out.u(), 20u);
  kernel.schedule(sel, Bits(2, 3), 1);  // out of range -> 0
  kernel.run();
  EXPECT_EQ(out.u(), 0u);
  EXPECT_GE(mux.out_of_range_count(), 1u);
}

struct ClockedFixture {
  sim::Netlist netlist;
  sim::Net* clock;

  explicit ClockedFixture(std::uint64_t cycles) {
    clock = &netlist.create_net("clk", 1);
    netlist.add_component<ClockGen>("cg", *clock, 10, cycles);
  }
};

TEST(RegisterComponent, SamplesOnRisingEdgeOnly) {
  ClockedFixture fixture(3);
  sim::Net& d = fixture.netlist.create_net("d", 8);
  sim::Net& q = fixture.netlist.create_net("q", 8);
  fixture.netlist.add_component<Register>("r", *fixture.clock, d, q);
  sim::Kernel kernel(fixture.netlist);
  kernel.preset(d, Bits(8, 0x5A));
  kernel.run();
  EXPECT_EQ(q.u(), 0x5Au);
}

TEST(RegisterComponent, EnableGatesLoads) {
  ClockedFixture fixture(4);
  sim::Net& d = fixture.netlist.create_net("d", 8);
  sim::Net& q = fixture.netlist.create_net("q", 8);
  sim::Net& en = fixture.netlist.create_net("en", 1);
  Register& reg = fixture.netlist.add_component<Register>(
      "r", *fixture.clock, d, q, &en);
  sim::Kernel kernel(fixture.netlist);
  kernel.preset(d, Bits(8, 9));
  kernel.preset(en, Bits::bit(false));
  kernel.run();
  EXPECT_EQ(q.u(), 0u);
  EXPECT_EQ(reg.load_count(), 0u);
}

TEST(RegisterComponent, ResetWinsOverEnable) {
  ClockedFixture fixture(2);
  sim::Net& d = fixture.netlist.create_net("d", 8);
  sim::Net& q = fixture.netlist.create_net("q", 8);
  sim::Net& en = fixture.netlist.create_net("en", 1);
  sim::Net& rst = fixture.netlist.create_net("rst", 1);
  fixture.netlist.add_component<Register>("r", *fixture.clock, d, q, &en,
                                          &rst, Bits(8, 0xEE));
  sim::Kernel kernel(fixture.netlist);
  kernel.preset(d, Bits(8, 1));
  kernel.preset(en, Bits::bit(true));
  kernel.preset(rst, Bits::bit(true));
  kernel.run();
  EXPECT_EQ(q.u(), 0xEEu);
}

TEST(RegisterComponent, PowerUpValueIsReset) {
  ClockedFixture fixture(1);
  sim::Net& d = fixture.netlist.create_net("d", 8);
  sim::Net& q = fixture.netlist.create_net("q", 8);
  sim::Net& en = fixture.netlist.create_net("en", 1);
  fixture.netlist.add_component<Register>("r", *fixture.clock, d, q, &en,
                                          nullptr, Bits(8, 0x77));
  sim::Kernel kernel(fixture.netlist);
  kernel.preset(en, Bits::bit(false));
  kernel.run(2);  // before any edge
  EXPECT_EQ(q.u(), 0x77u);
}

TEST(CounterComponent, CountsEnabledEdges) {
  ClockedFixture fixture(6);
  sim::Net& q = fixture.netlist.create_net("q", 8);
  fixture.netlist.add_component<Counter>("c", *fixture.clock, q);
  sim::Kernel kernel(fixture.netlist);
  kernel.run();
  EXPECT_EQ(q.u(), 6u);
}

TEST(CounterComponent, ClearReturnsToZero) {
  ClockedFixture fixture(5);
  sim::Net& q = fixture.netlist.create_net("q", 8);
  sim::Net& clear = fixture.netlist.create_net("clr", 1);
  fixture.netlist.add_component<Counter>("c", *fixture.clock, q, nullptr,
                                         &clear, 2);
  sim::Kernel kernel(fixture.netlist);
  // Clear asserted from t=22 (between edges 2 and 3) to the end.
  kernel.schedule(clear, Bits::bit(true), 22);
  kernel.run();
  EXPECT_EQ(q.u(), 0u);
}

// Cascaded adders settle through delta cycles within one timestep.
TEST(BinaryOpComponent, ChainsSettleInDeltas) {
  sim::Netlist netlist;
  sim::Net& x = netlist.create_net("x", 16);
  sim::Net& one = netlist.create_net("one", 16);
  sim::Net& s1 = netlist.create_net("s1", 16);
  sim::Net& s2 = netlist.create_net("s2", 16);
  sim::Net& s3 = netlist.create_net("s3", 16);
  netlist.add_component<Constant>("k1", one, Bits(16, 1));
  netlist.add_component<BinaryOp>("a1", BinOp::kAdd, x, one, s1);
  netlist.add_component<BinaryOp>("a2", BinOp::kAdd, s1, one, s2);
  netlist.add_component<BinaryOp>("a3", BinOp::kAdd, s2, one, s3);
  sim::Kernel kernel(netlist);
  kernel.preset(x, Bits(16, 10));
  kernel.run();
  EXPECT_EQ(s3.u(), 13u);
  EXPECT_EQ(kernel.stats().end_time, 0u);  // all within t=0 deltas
}

}  // namespace
}  // namespace fti::ops

namespace fti::ops {
namespace {

TEST(Bits, OnesPattern) {
  EXPECT_EQ(sim::Bits::ones(4).u(), 0xFu);
  EXPECT_EQ(sim::Bits::ones(64).u(), ~0ull);
  EXPECT_EQ(sim::Bits::ones(1).u(), 1u);
}

TEST(BinaryOpComponent, PropagationDelayIsHonoured) {
  // A BinaryOp built with a transport delay schedules its result that many
  // time units after the input change.
  sim::Netlist netlist;
  sim::Net& a = netlist.create_net("a", 8);
  sim::Net& b = netlist.create_net("b", 8);
  sim::Net& out = netlist.create_net("out", 8);
  netlist.add_component<BinaryOp>("slow_add", BinOp::kAdd, a, b, out,
                                  /*delay=*/7);
  sim::Probe& probe = netlist.add_component<sim::Probe>("p", out);
  sim::Kernel kernel(netlist);
  kernel.preset(a, sim::Bits(8, 2));
  kernel.preset(b, sim::Bits(8, 3));
  kernel.run();
  ASSERT_EQ(probe.samples().size(), 1u);
  EXPECT_EQ(probe.samples()[0].time, 7u);
  EXPECT_EQ(probe.samples()[0].value.u(), 5u);
}

TEST(ClockGen, RejectsOddPeriods) {
  sim::Netlist netlist;
  sim::Net& clock = netlist.create_net("clk", 1);
  EXPECT_DEATH(netlist.add_component<ClockGen>("cg", clock, 7),
               "period must be even");
}

TEST(MuxComponent, WidthMismatchIsFatal) {
  sim::Netlist netlist;
  sim::Net& in0 = netlist.create_net("in0", 8);
  sim::Net& in1 = netlist.create_net("in1", 16);  // mismatched
  sim::Net& sel = netlist.create_net("sel", 1);
  sim::Net& out = netlist.create_net("out", 8);
  EXPECT_DEATH(netlist.add_component<Mux>(
                   "m", std::vector<sim::Net*>{&in0, &in1}, sel, out),
               "width mismatch");
}

}  // namespace
}  // namespace fti::ops
