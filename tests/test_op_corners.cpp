// Operator corner cases across every executor.
//
// ops/semantics.hpp is the single definition of what each operator
// computes; this suite checks that every registered engine really
// computes it.  One design holds one unit per BinOp/UnOp per operand
// width, each writing its result into a one-word memory of its own (the
// one observable every engine reports).  64 corner rows (zero, one,
// all-ones, the most negative value, the /0 and MIN/-1 pairs, shift
// amounts 63/64/65, ...) run as 64 stimulus lanes, so the batched
// engine takes its wide all-lane loops and the compiled engine runs the
// module's pasted copy of the header.  Every result must equal
// ops::eval_binop / eval_unop.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "fti/elab/compiled.hpp"
#include "fti/elab/engines.hpp"
#include "fti/fuzz/reference.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/mem/storage.hpp"
#include "fti/ops/alu.hpp"
#include "fti/ops/semantics.hpp"
#include "fti/sim/bits.hpp"

namespace fti {
namespace {

using ops::BinOp;
using ops::UnOp;
using sim::Bits;

// The header is constexpr: its corner values are proven at compile time.
constexpr ops::Word kMin64 = 0x8000000000000000ull;
constexpr ops::Word kOnes = ~0ull;
static_assert(ops::sign_bit(1) == 1 && ops::sign_bit(7) == 0x40 &&
              ops::sign_bit(64) == 0);
static_assert(ops::as_signed(0x40, 0x40) == -64 &&
              ops::as_signed(1, 1) == -1);
static_assert(ops::op_div(42, 0, 0, 0) == kOnes);
static_assert(ops::op_rem(42, 0, 0, 0) == 42);
static_assert(ops::op_rem(0x7f, 0, 0x40, 0x40) == kOnes);  // -1 sign-extended
static_assert(ops::op_div(kMin64, kOnes, 0, 0) == kMin64);
static_assert(ops::op_rem(kMin64, kOnes, 0, 0) == 0);
static_assert((ops::op_div(0x40, 0x7f, 0x40, 0x40) & 0x7f) == 0x40);
static_assert(ops::op_div(0xfffffff9, 2, 0x80000000, 0x80000000) ==
              static_cast<ops::Word>(-3));
static_assert(ops::op_shl(1, 63, 0, 0) == kMin64);
static_assert(ops::op_shl(1, 64, 0, 0) == 0 && ops::op_shl(1, 65, 0, 0) == 0);
static_assert(ops::op_shr(kOnes, 63, 0, 0) == 1);
static_assert(ops::op_shr(kOnes, 64, 0, 0) == 0);
static_assert(ops::op_ashr(kMin64, 65, 0, 0) == kOnes);
static_assert(ops::op_ashr(0x40, 64, 0x40, 0x40) == kOnes);
static_assert(ops::op_lt(kMin64, 0, 0, 0) == 1 &&
              ops::op_ltu(kMin64, 0, 0, 0) == 0);
static_assert(ops::op_min(1, 0, 1, 1) == kOnes);  // 1-bit 1 reads as -1
static_assert(ops::op_max(kMin64, 1, 0, 0) == 1);
static_assert(ops::op_abs(kMin64, 0) == kMin64);
static_assert((ops::op_abs(0x40, 0x40) & 0x7f) == 0x40);
static_assert(ops::op_neg(1, 0) == kOnes && ops::op_neg(kMin64, 0) == kMin64);
static_assert(ops::op_sext(0x40, 0x40) == 0xffffffffffffffc0ull);
static_assert(ops::op_pass(0x40, 0x40) == 0x40);
static_assert(ops::visit_binop(BinOp::kRem, [](auto fn) {
                return fn(7, 3, 0, 0);
              }) == 1);
static_assert(ops::visit_unop(UnOp::kNot, [](auto fn) {
                return fn(0, 0);
              }) == kOnes);

constexpr std::uint32_t kWidths[] = {1, 7, 32, 64};
constexpr std::size_t kRows = 64;

/// Row `row` of the corner table at `width`: every ordered pair of
/// {0, 1, all-ones, most negative, 63, 64, 65} (49 rows, covering /0,
/// MIN/-1 and the shift saturation edges), then 15 mixed-bit rows.
std::pair<std::uint64_t, std::uint64_t> corner_row(std::uint32_t width,
                                                   std::size_t row) {
  const std::uint64_t mask = Bits::mask(width);
  const std::uint64_t most_negative = (mask >> 1) + 1;
  const std::uint64_t values[] = {0, 1, mask, most_negative, 63, 64, 65};
  constexpr std::size_t kValues = sizeof(values) / sizeof(values[0]);
  if (row < kValues * kValues) {
    return {values[row / kValues] & mask, values[row % kValues] & mask};
  }
  std::uint64_t a = 0x9e3779b97f4a7c15ull * (row + 1);
  return {(a >> 7) & mask, (a >> 29) & mask};
}

std::string suffix(std::uint32_t width) { return std::to_string(width); }

/// Unit names: <op><width> for binops, <op><width>_<out width> for unops.
std::string unit_name(BinOp op, std::uint32_t width) {
  return std::string(ops::to_string(op)) + suffix(width);
}
std::string unit_name(UnOp op, std::uint32_t width, std::uint32_t out_width) {
  return std::string(ops::to_string(op)) + suffix(width) + "_" +
         suffix(out_width);
}

std::uint32_t out_width_of(BinOp op, std::uint32_t width) {
  return ops::is_comparison(op) ? 1 : width;
}

/// Stores `wire` (width `width`) into the one-word memory m_<name> on
/// every clock edge.
void capture(ir::Datapath& dp, const std::string& name,
             const std::string& wire, std::uint32_t width) {
  dp.memories.push_back({"m_" + name, 1, width, {}});
  ir::Unit write;
  write.name = "wr_" + name;
  write.kind = ir::UnitKind::kMemPort;
  write.mem_mode = ir::MemMode::kWrite;
  write.memory = "m_" + name;
  write.width = width;
  write.ports = {{"addr", "zero"}, {"din", wire}, {"we", "one"}};
  dp.units.push_back(write);
}

/// Expected word of every result memory for one stimulus row.
struct Expectation {
  std::string memory;
  std::uint64_t value;
};

/// The corner design: per width, memory in<w> holds operands a (word 0)
/// and b (word 1); every BinOp at that width, and every UnOp from that
/// width to each output width, feeds a result memory.  One clock edge
/// stores the results, then done rises.
ir::Design corner_design() {
  ir::Datapath dp;
  dp.name = "corners";
  dp.wires = {{"zero", 1}, {"one", 1}, {"done", 1}};
  dp.control_wires = {"done"};
  for (const char* bit : {"zero", "one"}) {
    ir::Unit k;
    k.name = std::string("k_") + bit;
    k.kind = ir::UnitKind::kConst;
    k.width = 1;
    k.value = bit[0] == 'o' ? 1 : 0;
    k.ports = {{"out", bit}};
    dp.units.push_back(k);
  }
  for (std::uint32_t w : kWidths) {
    const std::string memory = "in" + suffix(w);
    dp.memories.push_back({memory, 2, w, {}});
    for (const char* operand : {"a", "b"}) {
      const std::string wire = operand + suffix(w);
      dp.wires.push_back({wire, w});
      ir::Unit read;
      read.name = "rd_" + wire;
      read.kind = ir::UnitKind::kMemPort;
      read.mem_mode = ir::MemMode::kRead;
      read.memory = memory;
      read.width = w;
      read.ports = {{"addr", operand[0] == 'a' ? "zero" : "one"},
                    {"dout", wire}};
      dp.units.push_back(read);
    }
    for (BinOp op : ops::all_binops()) {
      const std::string name = unit_name(op, w);
      const std::uint32_t out_width = out_width_of(op, w);
      dp.wires.push_back({"o_" + name, out_width});
      ir::Unit unit;
      unit.name = name;
      unit.kind = ir::UnitKind::kBinOp;
      unit.binop = op;
      unit.width = w;
      unit.ports = {{"a", "a" + suffix(w)},
                    {"b", "b" + suffix(w)},
                    {"out", "o_" + name}};
      dp.units.push_back(unit);
      capture(dp, name, "o_" + name, out_width);
    }
    for (UnOp op : ops::all_unops()) {
      for (std::uint32_t out_width : kWidths) {
        const std::string name = unit_name(op, w, out_width);
        dp.wires.push_back({"o_" + name, out_width});
        ir::Unit unit;
        unit.name = name;
        unit.kind = ir::UnitKind::kUnOp;
        unit.unop = op;
        unit.width = out_width;
        unit.ports = {{"a", "a" + suffix(w)}, {"out", "o_" + name}};
        dp.units.push_back(unit);
        capture(dp, name, "o_" + name, out_width);
      }
    }
  }

  ir::Fsm fsm;
  fsm.name = "corners_fsm";
  fsm.initial = "eval";
  ir::State eval;
  eval.name = "eval";
  eval.transitions = {{ir::Guard{}, "stop"}};
  ir::State stop;
  stop.name = "stop";
  stop.controls = {{"done", 1}};
  fsm.states = {eval, stop};
  return ir::make_single_design("corners", {std::move(dp), std::move(fsm)});
}

std::vector<Expectation> expected_row(std::size_t row) {
  std::vector<Expectation> out;
  for (std::uint32_t w : kWidths) {
    auto [a, b] = corner_row(w, row);
    for (BinOp op : ops::all_binops()) {
      out.push_back({"m_" + unit_name(op, w),
                     ops::eval_binop(op, Bits(w, a), Bits(w, b),
                                     out_width_of(op, w))
                         .u()});
    }
    for (UnOp op : ops::all_unops()) {
      for (std::uint32_t out_width : kWidths) {
        out.push_back({"m_" + unit_name(op, w, out_width),
                       ops::eval_unop(op, Bits(w, a), out_width).u()});
      }
    }
  }
  return out;
}

std::vector<std::string> all_engine_names() {
  fuzz::register_reference_engine();
  return elab::engine_names();
}

class OperatorCorners : public ::testing::TestWithParam<std::string> {};

TEST_P(OperatorCorners, EveryResultMatchesTheAlu) {
  const std::string& engine_name = GetParam();
  if (engine_name == "compiled" && !elab::compiled_backend_available()) {
    GTEST_SKIP() << "no host C++ toolchain in this environment";
  }
  const ir::Design design = corner_design();
  std::deque<mem::MemoryPool> pools(kRows);
  std::vector<mem::MemoryPool*> lanes;
  for (std::size_t row = 0; row < kRows; ++row) {
    for (std::uint32_t w : kWidths) {
      auto [a, b] = corner_row(w, row);
      mem::MemoryImage& image = pools[row].create("in" + suffix(w), 2, w);
      image.write(0, a);
      image.write(1, b);
    }
    lanes.push_back(&pools[row]);
  }
  std::vector<sim::EngineResult> runs =
      elab::make_engine(engine_name)->run_batch(design, lanes);
  ASSERT_EQ(runs.size(), kRows);
  for (std::size_t row = 0; row < kRows; ++row) {
    ASSERT_TRUE(runs[row].completed) << "row " << row;
    for (const Expectation& expect : expected_row(row)) {
      EXPECT_EQ(pools[row].get(expect.memory).words().at(0), expect.value)
          << engine_name << " row " << row << " " << expect.memory;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, OperatorCorners,
                         ::testing::ValuesIn(all_engine_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace fti
