// Operator semantics of the functional-unit library: the single
// definition of what every BinOp/UnOp computes, corner cases included.
//
// Three executors compute with these functions, so their functional
// comparison holds by construction rather than only by fuzzing:
//  * ops::eval_binop / eval_unop (alu.cpp), the Bits-level ALU behind
//    the event, naive and levelized engines;
//  * the batched engine's all-lane loops (elab/batched.cpp), which pick
//    the operator once per unit through visit_binop / visit_unop;
//  * the compiled engine's native modules: codegen/cpp.cpp pastes this
//    file's text into every generated translation unit, inside an
//    unnamed namespace, and emits op_<name>(...) calls.
// Hence the file is C++17, constexpr and free of #include and library
// names: modules are compiled against no headers and linked -nostdlib.
//
// Every operator takes its operands raw (each masked to its own width)
// together with each operand's sign-bit constant from sign_bit(), which
// lets the signed operators sign-extend without a branch.  Results come
// back unmasked; the caller masks them to the output width.
// Comparisons return 0 or 1.
//
// Corner cases:
//  * div by zero is all-ones, rem by zero is the dividend;
//  * the most negative value div -1 is the dividend (the masked,
//    mathematically correct quotient), rem -1 is zero;
//  * shift amounts are unsigned: shl/shr by 64 or more give zero, and
//    ashr saturates the amount at 63;
//  * neg and abs negate in unsigned arithmetic, so abs of the most
//    negative value is that value.
#ifndef FTI_OPS_SEMANTICS_HPP
#define FTI_OPS_SEMANTICS_HPP

namespace fti::ops {

/// Binary functional-unit operations available to the compiler's binder.
enum class BinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,   // signed
  kRem,   // signed
  kAnd,
  kOr,
  kXor,
  kShl,   // shift amount taken unsigned from the rhs
  kShr,   // logical right shift
  kAshr,  // arithmetic right shift (lhs interpreted signed)
  kEq,
  kNe,
  kLt,    // signed comparisons...
  kLe,
  kGt,
  kGe,
  kLtu,   // ...and unsigned ones
  kLeu,
  kGtu,
  kGeu,
  kMin,   // signed min/max
  kMax,
};

enum class UnOp {
  kNot,   // bitwise complement
  kNeg,   // two's complement negate
  kAbs,   // absolute value (signed)
  kPass,  // width adaptation, zero-extend / truncate
  kSext,  // width adaptation, sign-extend / truncate
};

using Word = unsigned long long;

/// Sign-bit constant of a `width`-bit operand; 0 for 64 bits, where
/// as_signed() is the identity.
constexpr Word sign_bit(unsigned width) {
  return width >= 64 ? 0 : Word{1} << (width - 1);
}

/// Two's-complement reading of `v` given its sign-bit constant.
constexpr long long as_signed(Word v, Word sign) {
  return static_cast<long long>((v ^ sign) - sign);
}

constexpr Word op_add(Word a, Word b, Word, Word) { return a + b; }
constexpr Word op_sub(Word a, Word b, Word, Word) { return a - b; }
constexpr Word op_mul(Word a, Word b, Word, Word) { return a * b; }

constexpr Word op_div(Word a, Word b, Word sa, Word sb) {
  const long long x = as_signed(a, sa);
  const long long y = as_signed(b, sb);
  if (y == 0) {
    return ~Word{0};
  }
  if (y == -1) {
    return Word{0} - static_cast<Word>(x);  // wraps instead of overflowing
  }
  return static_cast<Word>(x / y);
}

constexpr Word op_rem(Word a, Word b, Word sa, Word sb) {
  const long long x = as_signed(a, sa);
  const long long y = as_signed(b, sb);
  if (y == 0) {
    return static_cast<Word>(x);
  }
  if (y == -1) {
    return 0;  // x % -1 overflows for the most negative x
  }
  return static_cast<Word>(x % y);
}

constexpr Word op_and(Word a, Word b, Word, Word) { return a & b; }
constexpr Word op_or(Word a, Word b, Word, Word) { return a | b; }
constexpr Word op_xor(Word a, Word b, Word, Word) { return a ^ b; }

constexpr Word op_shl(Word a, Word b, Word, Word) {
  return b >= 64 ? 0 : a << b;
}
constexpr Word op_shr(Word a, Word b, Word, Word) {
  return b >= 64 ? 0 : a >> b;
}
constexpr Word op_ashr(Word a, Word b, Word sa, Word) {
  return static_cast<Word>(as_signed(a, sa) >> (b > 63 ? 63 : b));
}

constexpr Word op_eq(Word a, Word b, Word, Word) { return a == b; }
constexpr Word op_ne(Word a, Word b, Word, Word) { return a != b; }
constexpr Word op_lt(Word a, Word b, Word sa, Word sb) {
  return as_signed(a, sa) < as_signed(b, sb);
}
constexpr Word op_le(Word a, Word b, Word sa, Word sb) {
  return as_signed(a, sa) <= as_signed(b, sb);
}
constexpr Word op_gt(Word a, Word b, Word sa, Word sb) {
  return as_signed(a, sa) > as_signed(b, sb);
}
constexpr Word op_ge(Word a, Word b, Word sa, Word sb) {
  return as_signed(a, sa) >= as_signed(b, sb);
}
constexpr Word op_ltu(Word a, Word b, Word, Word) { return a < b; }
constexpr Word op_leu(Word a, Word b, Word, Word) { return a <= b; }
constexpr Word op_gtu(Word a, Word b, Word, Word) { return a > b; }
constexpr Word op_geu(Word a, Word b, Word, Word) { return a >= b; }

constexpr Word op_min(Word a, Word b, Word sa, Word sb) {
  const long long x = as_signed(a, sa);
  const long long y = as_signed(b, sb);
  return static_cast<Word>(x < y ? x : y);
}
constexpr Word op_max(Word a, Word b, Word sa, Word sb) {
  const long long x = as_signed(a, sa);
  const long long y = as_signed(b, sb);
  return static_cast<Word>(x > y ? x : y);
}

constexpr Word op_not(Word a, Word) { return ~a; }
constexpr Word op_neg(Word a, Word) { return Word{0} - a; }
constexpr Word op_abs(Word a, Word sa) {
  const long long x = as_signed(a, sa);
  return x < 0 ? Word{0} - static_cast<Word>(x) : static_cast<Word>(x);
}
constexpr Word op_pass(Word a, Word) { return a; }
constexpr Word op_sext(Word a, Word sa) {
  return static_cast<Word>(as_signed(a, sa));
}

/// An operator function as a type: a generic callback instantiated per
/// operator then sees a compile-time callee it can inline into a loop.
template <Word (*F)(Word, Word, Word, Word)>
struct BinFn {
  constexpr Word operator()(Word a, Word b, Word sa, Word sb) const {
    return F(a, b, sa, sb);
  }
};

template <Word (*F)(Word, Word)>
struct UnFn {
  constexpr Word operator()(Word a, Word sa) const { return F(a, sa); }
};

/// Calls `fn(BinFn<op_<name>>{})` for `op`: the one operator switch, which
/// callers hoist out of per-value loops by looping inside `fn`.
template <typename Fn>
constexpr decltype(auto) visit_binop(BinOp op, Fn&& fn) {
  switch (op) {
    case BinOp::kAdd: return fn(BinFn<op_add>{});
    case BinOp::kSub: return fn(BinFn<op_sub>{});
    case BinOp::kMul: return fn(BinFn<op_mul>{});
    case BinOp::kDiv: return fn(BinFn<op_div>{});
    case BinOp::kRem: return fn(BinFn<op_rem>{});
    case BinOp::kAnd: return fn(BinFn<op_and>{});
    case BinOp::kOr: return fn(BinFn<op_or>{});
    case BinOp::kXor: return fn(BinFn<op_xor>{});
    case BinOp::kShl: return fn(BinFn<op_shl>{});
    case BinOp::kShr: return fn(BinFn<op_shr>{});
    case BinOp::kAshr: return fn(BinFn<op_ashr>{});
    case BinOp::kEq: return fn(BinFn<op_eq>{});
    case BinOp::kNe: return fn(BinFn<op_ne>{});
    case BinOp::kLt: return fn(BinFn<op_lt>{});
    case BinOp::kLe: return fn(BinFn<op_le>{});
    case BinOp::kGt: return fn(BinFn<op_gt>{});
    case BinOp::kGe: return fn(BinFn<op_ge>{});
    case BinOp::kLtu: return fn(BinFn<op_ltu>{});
    case BinOp::kLeu: return fn(BinFn<op_leu>{});
    case BinOp::kGtu: return fn(BinFn<op_gtu>{});
    case BinOp::kGeu: return fn(BinFn<op_geu>{});
    case BinOp::kMin: return fn(BinFn<op_min>{});
    case BinOp::kMax: return fn(BinFn<op_max>{});
  }
  __builtin_unreachable();
}

/// Calls `fn(UnFn<op_<name>>{})` for `op`.
template <typename Fn>
constexpr decltype(auto) visit_unop(UnOp op, Fn&& fn) {
  switch (op) {
    case UnOp::kNot: return fn(UnFn<op_not>{});
    case UnOp::kNeg: return fn(UnFn<op_neg>{});
    case UnOp::kAbs: return fn(UnFn<op_abs>{});
    case UnOp::kPass: return fn(UnFn<op_pass>{});
    case UnOp::kSext: return fn(UnFn<op_sext>{});
  }
  __builtin_unreachable();
}

}  // namespace fti::ops

#endif  // FTI_OPS_SEMANTICS_HPP
