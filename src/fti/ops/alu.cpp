#include "fti/ops/alu.hpp"

#include "fti/util/error.hpp"

namespace fti::ops {

using sim::Bits;

sim::Bits eval_binop(BinOp op, const Bits& a, const Bits& b,
                     std::uint32_t out_width) {
  return Bits(out_width, visit_binop(op, [&](auto fn) {
                return fn(a.u(), b.u(), sign_bit(a.width()),
                          sign_bit(b.width()));
              }));
}

sim::Bits eval_unop(UnOp op, const Bits& a, std::uint32_t out_width) {
  return Bits(out_width, visit_unop(op, [&](auto fn) {
                return fn(a.u(), sign_bit(a.width()));
              }));
}

namespace {

XBits make_x(std::uint32_t width) { return {width, 0, Bits::mask(width)}; }

XBits canon(std::uint32_t width, std::uint64_t v, std::uint64_t x) {
  std::uint64_t m = Bits::mask(width);
  x &= m;
  return {width, v & m & ~x, x};
}

/// `a` sign-extended to 64 bits: an unknown sign bit makes the extended
/// bits unknown.
XBits sign_extend(const XBits& a) {
  XBits w{64, a.v, a.x};
  if (a.width >= 64) {
    return w;
  }
  std::uint64_t high = ~Bits::mask(a.width);
  std::uint64_t sign = std::uint64_t{1} << (a.width - 1);
  if (a.x & sign) {
    w.x |= high;
  } else if (a.v & sign) {
    w.v |= high;
  }
  return w;
}

}  // namespace

XBits eval_binop_x(BinOp op, const XBits& a, const XBits& b,
                   std::uint32_t out_width) {
  if (!a.has_x() && !b.has_x()) {
    return {out_width,
            eval_binop(op, Bits(a.width, a.v), Bits(b.width, b.v), out_width)
                .u(),
            0};
  }
  // Only ashr reads its operand sign-extended: every other signed
  // operator is pessimistic below.
  XBits wa = op == BinOp::kAshr ? sign_extend(a) : a;
  switch (op) {
    case BinOp::kAnd: {
      std::uint64_t known_zero = (~a.v & ~a.x) | (~b.v & ~b.x);
      return canon(out_width, a.v & b.v, (a.x | b.x) & ~known_zero);
    }
    case BinOp::kOr: {
      std::uint64_t known_one = (a.v & ~a.x) | (b.v & ~b.x);
      return canon(out_width, a.v | b.v, (a.x | b.x) & ~known_one);
    }
    case BinOp::kXor:
      return canon(out_width, a.v ^ b.v, a.x | b.x);
    case BinOp::kShl:
    case BinOp::kShr:
    case BinOp::kAshr: {
      if (b.has_x()) {
        return make_x(out_width);
      }
      std::uint64_t s = b.v;
      if (op == BinOp::kShl) {
        return s >= 64 ? XBits{out_width, 0, 0}
                       : canon(out_width, wa.v << s, wa.x << s);
      }
      if (op == BinOp::kShr) {
        return s >= 64 ? XBits{out_width, 0, 0}
                       : canon(out_width, wa.v >> s, wa.x >> s);
      }
      s = s < 63 ? s : 63;
      return canon(out_width,
                   static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(wa.v) >> s),
                   static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(wa.x) >> s));
    }
    default:
      return make_x(out_width);
  }
}

XBits eval_unop_x(UnOp op, const XBits& a, std::uint32_t out_width) {
  if (!a.has_x()) {
    return {out_width, eval_unop(op, Bits(a.width, a.v), out_width).u(), 0};
  }
  return op == UnOp::kNot ? canon(out_width, ~a.v, a.x) : make_x(out_width);
}

bool is_comparison(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
    case BinOp::kLtu:
    case BinOp::kLeu:
    case BinOp::kGtu:
    case BinOp::kGeu:
      return true;
    default:
      return false;
  }
}

namespace {

struct BinOpName {
  BinOp op;
  std::string_view name;
};

constexpr BinOpName kBinOpNames[] = {
    {BinOp::kAdd, "add"},   {BinOp::kSub, "sub"},   {BinOp::kMul, "mul"},
    {BinOp::kDiv, "div"},   {BinOp::kRem, "rem"},   {BinOp::kAnd, "and"},
    {BinOp::kOr, "or"},     {BinOp::kXor, "xor"},   {BinOp::kShl, "shl"},
    {BinOp::kShr, "shr"},   {BinOp::kAshr, "ashr"}, {BinOp::kEq, "eq"},
    {BinOp::kNe, "ne"},     {BinOp::kLt, "lt"},     {BinOp::kLe, "le"},
    {BinOp::kGt, "gt"},     {BinOp::kGe, "ge"},     {BinOp::kLtu, "ltu"},
    {BinOp::kLeu, "leu"},   {BinOp::kGtu, "gtu"},   {BinOp::kGeu, "geu"},
    {BinOp::kMin, "min"},   {BinOp::kMax, "max"},
};

struct UnOpName {
  UnOp op;
  std::string_view name;
};

constexpr UnOpName kUnOpNames[] = {
    {UnOp::kNot, "not"},   {UnOp::kNeg, "neg"},   {UnOp::kAbs, "abs"},
    {UnOp::kPass, "pass"}, {UnOp::kSext, "sext"},
};

}  // namespace

std::string_view to_string(BinOp op) {
  for (const auto& entry : kBinOpNames) {
    if (entry.op == op) {
      return entry.name;
    }
  }
  FTI_ASSERT(false, "unnamed BinOp");
}

std::string_view to_string(UnOp op) {
  for (const auto& entry : kUnOpNames) {
    if (entry.op == op) {
      return entry.name;
    }
  }
  FTI_ASSERT(false, "unnamed UnOp");
}

BinOp binop_from_string(std::string_view name) {
  for (const auto& entry : kBinOpNames) {
    if (entry.name == name) {
      return entry.op;
    }
  }
  throw util::XmlError("unknown binary operator '" + std::string(name) + "'");
}

UnOp unop_from_string(std::string_view name) {
  for (const auto& entry : kUnOpNames) {
    if (entry.name == name) {
      return entry.op;
    }
  }
  throw util::XmlError("unknown unary operator '" + std::string(name) + "'");
}

const std::vector<BinOp>& all_binops() {
  static const std::vector<BinOp> ops = [] {
    std::vector<BinOp> out;
    for (const auto& entry : kBinOpNames) {
      out.push_back(entry.op);
    }
    return out;
  }();
  return ops;
}

const std::vector<UnOp>& all_unops() {
  static const std::vector<UnOp> ops = [] {
    std::vector<UnOp> out;
    for (const auto& entry : kUnOpNames) {
      out.push_back(entry.op);
    }
    return out;
  }();
  return ops;
}

BinaryOp::BinaryOp(std::string name, BinOp op, sim::Net& a, sim::Net& b,
                   sim::Net& out, sim::Time delay)
    : Component(std::move(name)), op_(op), a_(a), b_(b), out_(out),
      delay_(delay) {
  a_.add_listener(this);
  b_.add_listener(this);
}

void BinaryOp::initialize(sim::Kernel& kernel) {
  kernel.schedule(out_, eval_binop(op_, a_.value(), b_.value(), out_.width()),
                  delay_);
}

void BinaryOp::evaluate(sim::Kernel& kernel) {
  kernel.schedule(out_, eval_binop(op_, a_.value(), b_.value(), out_.width()),
                  delay_);
}

UnaryOp::UnaryOp(std::string name, UnOp op, sim::Net& a, sim::Net& out,
                 sim::Time delay)
    : Component(std::move(name)), op_(op), a_(a), out_(out), delay_(delay) {
  a_.add_listener(this);
}

void UnaryOp::initialize(sim::Kernel& kernel) {
  kernel.schedule(out_, eval_unop(op_, a_.value(), out_.width()), delay_);
}

void UnaryOp::evaluate(sim::Kernel& kernel) {
  kernel.schedule(out_, eval_unop(op_, a_.value(), out_.width()), delay_);
}

}  // namespace fti::ops
