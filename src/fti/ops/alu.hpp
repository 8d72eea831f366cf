// The Bits-level ALU and the combinational operator components.
//
// What each operator computes is defined once, in ops/semantics.hpp;
// eval_binop / eval_unop below are thin Bits wrappers over it, shared by
// the event-driven operator components (this file), the naive engine
// and the batched engine's per-lane fallback.  eval_binop_x /
// eval_unop_x add the 4-state rules on top (the batched engine's X
// mode); they stay out of semantics.hpp, whose text every compiled
// module pastes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fti/ops/semantics.hpp"
#include "fti/sim/bits.hpp"
#include "fti/sim/component.hpp"
#include "fti/sim/kernel.hpp"

namespace fti::ops {

/// Pure evaluation of a binary op.  Inputs are interpreted at their own
/// widths (signed ops sign-extend each operand first); the result is
/// masked to `out_width`.  Comparisons return 0/1 regardless of out_width.
sim::Bits eval_binop(BinOp op, const sim::Bits& a, const sim::Bits& b,
                     std::uint32_t out_width);

sim::Bits eval_unop(UnOp op, const sim::Bits& a, std::uint32_t out_width);

/// One 4-state value: `x` masks the unknown bits, whose `v` bits are
/// kept zero (canonical form).
struct XBits {
  std::uint32_t width = 1;
  std::uint64_t v = 0;
  std::uint64_t x = 0;

  bool has_x() const { return x != 0; }
};

/// eval_binop over 4-state operands.  X propagates exactly through the
/// bitwise operators (AND with a known 0 and OR with a known 1 kill it);
/// an unknown shift amount makes the whole result unknown, a known one
/// shifts the unknown bits along; arithmetic and comparisons are
/// pessimistic -- any unknown input bit makes the whole result unknown.
/// Fully-known operands give exactly eval_binop's value.
XBits eval_binop_x(BinOp op, const XBits& a, const XBits& b,
                   std::uint32_t out_width);

/// eval_unop over a 4-state operand: NOT keeps the unknown bits in
/// place, every other operator is pessimistic.
XBits eval_unop_x(UnOp op, const XBits& a, std::uint32_t out_width);

/// True for ops whose natural result is one bit (comparisons).
bool is_comparison(BinOp op);

/// Name used in the XML dialect ("add", "shr", "ltu", ...).
std::string_view to_string(BinOp op);
std::string_view to_string(UnOp op);

/// Inverse mappings; throw XmlError on unknown names.
BinOp binop_from_string(std::string_view name);
UnOp unop_from_string(std::string_view name);

/// All binary op names, for parameterized tests and documentation tables.
const std::vector<BinOp>& all_binops();
const std::vector<UnOp>& all_unops();

/// Combinational two-input functional unit.
class BinaryOp : public sim::Component {
 public:
  /// Result is scheduled `delay` units after an input change (0 = delta).
  BinaryOp(std::string name, BinOp op, sim::Net& a, sim::Net& b,
           sim::Net& out, sim::Time delay = 0);

  void initialize(sim::Kernel& kernel) override;
  void evaluate(sim::Kernel& kernel) override;

  BinOp op() const { return op_; }

 private:
  BinOp op_;
  sim::Net& a_;
  sim::Net& b_;
  sim::Net& out_;
  sim::Time delay_;
};

/// Combinational one-input functional unit.
class UnaryOp : public sim::Component {
 public:
  UnaryOp(std::string name, UnOp op, sim::Net& a, sim::Net& out,
          sim::Time delay = 0);

  void initialize(sim::Kernel& kernel) override;
  void evaluate(sim::Kernel& kernel) override;

  UnOp op() const { return op_; }

 private:
  UnOp op_;
  sim::Net& a_;
  sim::Net& out_;
  sim::Time delay_;
};

}  // namespace fti::ops
