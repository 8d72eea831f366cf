#include "fti/lint/dataflow.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

#include "fti/elab/checked.hpp"
#include "fti/ir/comb_graph.hpp"
#include "fti/ir/slots.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/obs/trace.hpp"
#include "fti/ops/alu.hpp"

namespace fti::lint::dataflow {
namespace {

using sim::Bits;

std::uint64_t mask_of(std::uint32_t width) { return Bits::mask(width); }

std::int64_t smin_of(std::uint32_t width) {
  if (width >= 64) {
    return std::numeric_limits<std::int64_t>::min();
  }
  return -static_cast<std::int64_t>(std::uint64_t{1} << (width - 1));
}

std::int64_t smax_of(std::uint32_t width) {
  return static_cast<std::int64_t>(mask_of(width) >> 1);
}

std::int64_t sign_extend(std::uint64_t value, std::uint32_t width) {
  return Bits(width, value).s();
}

/// Ones in bit positions [0, n), safe for n in [0, 64].
std::uint64_t low_ones(std::uint32_t n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Position count of the highest set bit (0 for value 0).
std::uint32_t bit_length(std::uint64_t value) {
  std::uint32_t length = 0;
  while (value != 0) {
    ++length;
    value >>= 1u;
  }
  return length;
}

std::uint64_t magnitude(std::int64_t value) {
  return value < 0 ? std::uint64_t{0} - static_cast<std::uint64_t>(value)
                   : static_cast<std::uint64_t>(value);
}

}  // namespace

AbstractValue AbstractValue::bot(std::uint32_t width) {
  AbstractValue value;
  value.width = width;
  value.bottom = true;
  return value;
}

AbstractValue AbstractValue::top(std::uint32_t width) {
  AbstractValue value;
  value.width = width;
  value.bottom = false;
  value.umin = 0;
  value.umax = mask_of(width);
  value.smin = smin_of(width);
  value.smax = smax_of(width);
  value.known_mask = 0;
  value.known_value = 0;
  return value;
}

AbstractValue AbstractValue::constant(std::uint32_t width,
                                      std::uint64_t raw_value) {
  const std::uint64_t masked = raw_value & mask_of(width);
  AbstractValue value;
  value.width = width;
  value.bottom = false;
  value.umin = masked;
  value.umax = masked;
  value.smin = sign_extend(masked, width);
  value.smax = value.smin;
  value.known_mask = mask_of(width);
  value.known_value = masked;
  return value;
}

bool AbstractValue::is_top() const {
  return !bottom && umin == 0 && umax == mask_of(width) &&
         smin == smin_of(width) && smax == smax_of(width) && known_mask == 0;
}

bool AbstractValue::contains(const Bits& value) const {
  if (bottom || value.width() != width) {
    return false;
  }
  const std::uint64_t u = value.u();
  const std::int64_t s = value.s();
  return u >= umin && u <= umax && s >= smin && s <= smax &&
         (u & known_mask) == known_value;
}

void AbstractValue::normalize() {
  if (bottom) {
    return;
  }
  const std::uint64_t m = mask_of(width);
  const std::uint32_t w = width;
  auto degrade = [this, w] { *this = top(w); };

  umax = std::min(umax, m);
  known_mask &= m;
  known_value &= known_mask;
  smin = std::max(smin, smin_of(w));
  smax = std::min(smax, smax_of(w));
  if (umin > umax || smin > smax) {
    degrade();
    return;
  }

  // Known bits bound the interval: the least consistent value has every
  // unknown bit clear, the greatest has every unknown bit set.
  umin = std::max(umin, known_value);
  umax = std::min(umax, known_value | (m & ~known_mask));
  if (umin > umax) {
    degrade();
    return;
  }

  // The interval pins the common prefix of its endpoints.
  const std::uint64_t diff = umin ^ umax;
  const std::uint32_t varying = bit_length(diff);
  const std::uint64_t prefix = m & ~low_ones(varying);
  if (((known_value ^ (umin & prefix)) & known_mask & prefix) != 0) {
    degrade();
    return;
  }
  known_mask |= prefix;
  known_value |= umin & prefix;

  // Exchange between the unsigned and signed interval through the hull
  // of one in the other's interpretation.
  const std::uint64_t sign_bit =
      std::uint64_t{1} << (w - 1);  // w >= 1 post-validate
  std::int64_t hull_lo = smin_of(w);
  std::int64_t hull_hi = smax_of(w);
  if (umax < sign_bit) {
    hull_lo = static_cast<std::int64_t>(umin);
    hull_hi = static_cast<std::int64_t>(umax);
  } else if (umin >= sign_bit) {
    hull_lo = sign_extend(umin, w);
    hull_hi = sign_extend(umax, w);
  }
  smin = std::max(smin, hull_lo);
  smax = std::min(smax, hull_hi);
  if (smin > smax) {
    degrade();
    return;
  }
  std::uint64_t uhull_lo = 0;
  std::uint64_t uhull_hi = m;
  if (smin >= 0) {
    uhull_lo = static_cast<std::uint64_t>(smin);
    uhull_hi = static_cast<std::uint64_t>(smax);
  } else if (smax < 0) {
    uhull_lo = static_cast<std::uint64_t>(smin) & m;
    uhull_hi = static_cast<std::uint64_t>(smax) & m;
  }
  umin = std::max(umin, uhull_lo);
  umax = std::min(umax, uhull_hi);
  if (umin > umax) {
    degrade();
  }
}

void AbstractValue::join(const AbstractValue& other) {
  if (other.bottom) {
    return;
  }
  if (bottom) {
    *this = other;
    return;
  }
  umin = std::min(umin, other.umin);
  umax = std::max(umax, other.umax);
  smin = std::min(smin, other.smin);
  smax = std::max(smax, other.smax);
  const std::uint64_t agree =
      known_mask & other.known_mask & ~(known_value ^ other.known_value);
  known_mask = agree;
  known_value &= agree;
  normalize();
}

void AbstractValue::widen(const AbstractValue& previous) {
  if (bottom || previous.bottom) {
    return;
  }
  if (umin < previous.umin) {
    umin = 0;
  }
  if (umax > previous.umax) {
    umax = mask_of(width);
  }
  if (smin < previous.smin) {
    smin = smin_of(width);
  }
  if (smax > previous.smax) {
    smax = smax_of(width);
  }
  normalize();
}

bool AbstractValue::operator==(const AbstractValue& other) const {
  if (bottom != other.bottom || width != other.width) {
    return false;
  }
  if (bottom) {
    return true;
  }
  return umin == other.umin && umax == other.umax && smin == other.smin &&
         smax == other.smax && known_mask == other.known_mask &&
         known_value == other.known_value;
}

std::string AbstractValue::to_string() const {
  if (bottom) {
    return "unreachable";
  }
  std::string text =
      "[" + std::to_string(umin) + ", " + std::to_string(umax) + "]";
  if (smin < 0) {
    text += " (signed [" + std::to_string(smin) + ", " +
            std::to_string(smax) + "])";
  }
  if (known_mask != 0 && umin != umax && width <= 16) {
    text += " bits 0b";
    for (std::uint32_t i = width; i > 0; --i) {
      const std::uint64_t bit = std::uint64_t{1} << (i - 1);
      if ((known_mask & bit) == 0) {
        text += '?';
      } else {
        text += (known_value & bit) != 0 ? '1' : '0';
      }
    }
  }
  return text;
}

namespace {

/// Unsigned interval with top signed / known components, normalized.
AbstractValue from_u_interval(std::uint32_t width, std::uint64_t lo,
                              std::uint64_t hi) {
  AbstractValue value = AbstractValue::top(width);
  value.umin = lo;
  value.umax = hi;
  value.normalize();
  return value;
}

/// 128-bit unsigned range; top when it does not fit the output mask
/// (the concrete op wraps, the interval cannot express it).
AbstractValue from_u_range(std::uint32_t width, unsigned __int128 lo,
                           unsigned __int128 hi) {
  if (hi > static_cast<unsigned __int128>(mask_of(width))) {
    return AbstractValue::top(width);
  }
  return from_u_interval(width, static_cast<std::uint64_t>(lo),
                         static_cast<std::uint64_t>(hi));
}

/// Signed range; top when it does not fit the output's signed range.
AbstractValue from_s_range(std::uint32_t width, __int128 lo, __int128 hi) {
  if (lo < static_cast<__int128>(smin_of(width)) ||
      hi > static_cast<__int128>(smax_of(width))) {
    return AbstractValue::top(width);
  }
  AbstractValue value = AbstractValue::top(width);
  value.smin = static_cast<std::int64_t>(lo);
  value.smax = static_cast<std::int64_t>(hi);
  value.normalize();
  return value;
}

AbstractValue known_bits_value(std::uint32_t width, std::uint64_t mask,
                               std::uint64_t bits) {
  AbstractValue value = AbstractValue::top(width);
  value.known_mask = mask;
  value.known_value = bits & mask;
  value.normalize();
  return value;
}

}  // namespace

int compare_verdict(ops::BinOp op, const AbstractValue& a,
                    const AbstractValue& b) {
  if (a.bottom || b.bottom) {
    return -1;
  }
  switch (op) {
    case ops::BinOp::kEq: {
      if (a.is_constant() && b.is_constant()) {
        return a.umin == b.umin ? 1 : 0;
      }
      if (a.umax < b.umin || b.umax < a.umin ||
          ((a.known_value ^ b.known_value) & a.known_mask & b.known_mask) !=
              0) {
        return 0;
      }
      return -1;
    }
    case ops::BinOp::kNe: {
      const int eq = compare_verdict(ops::BinOp::kEq, a, b);
      return eq < 0 ? -1 : 1 - eq;
    }
    case ops::BinOp::kLtu:
      if (a.umax < b.umin) {
        return 1;
      }
      return a.umin >= b.umax ? 0 : -1;
    case ops::BinOp::kLeu:
      if (a.umax <= b.umin) {
        return 1;
      }
      return a.umin > b.umax ? 0 : -1;
    case ops::BinOp::kGtu:
      return compare_verdict(ops::BinOp::kLtu, b, a);
    case ops::BinOp::kGeu:
      return compare_verdict(ops::BinOp::kLeu, b, a);
    case ops::BinOp::kLt:
      if (a.smax < b.smin) {
        return 1;
      }
      return a.smin >= b.smax ? 0 : -1;
    case ops::BinOp::kLe:
      if (a.smax <= b.smin) {
        return 1;
      }
      return a.smin > b.smax ? 0 : -1;
    case ops::BinOp::kGt:
      return compare_verdict(ops::BinOp::kLt, b, a);
    case ops::BinOp::kGe:
      return compare_verdict(ops::BinOp::kLe, b, a);
    default:
      return -1;
  }
}

AbstractValue transfer_binop(ops::BinOp op, const AbstractValue& a,
                             const AbstractValue& b,
                             std::uint32_t out_width) {
  if (a.bottom || b.bottom) {
    return AbstractValue::bot(out_width);
  }
  const std::uint64_t out_mask = mask_of(out_width);
  switch (op) {
    case ops::BinOp::kAdd:
      return from_u_range(out_width,
                          static_cast<unsigned __int128>(a.umin) + b.umin,
                          static_cast<unsigned __int128>(a.umax) + b.umax);
    case ops::BinOp::kSub: {
      const __int128 lo = static_cast<__int128>(a.umin) - b.umax;
      const __int128 hi = static_cast<__int128>(a.umax) - b.umin;
      if (lo < 0) {
        return AbstractValue::top(out_width);
      }
      return from_u_range(out_width, static_cast<unsigned __int128>(lo),
                          static_cast<unsigned __int128>(hi));
    }
    case ops::BinOp::kMul:
      return from_u_range(out_width,
                          static_cast<unsigned __int128>(a.umin) * b.umin,
                          static_cast<unsigned __int128>(a.umax) * b.umax);
    case ops::BinOp::kDiv: {
      if (b.smin <= 0 && b.smax >= 0) {
        // Division by zero yields all-ones; top covers it.
        return AbstractValue::top(out_width);
      }
      if (a.smin == std::numeric_limits<std::int64_t>::min() &&
          b.smin <= -1 && b.smax >= -1) {
        return AbstractValue::top(out_width);
      }
      std::int64_t lo = std::numeric_limits<std::int64_t>::max();
      std::int64_t hi = std::numeric_limits<std::int64_t>::min();
      for (const std::int64_t dividend : {a.smin, a.smax}) {
        for (const std::int64_t divisor : {b.smin, b.smax}) {
          const std::int64_t q = dividend / divisor;
          lo = std::min(lo, q);
          hi = std::max(hi, q);
        }
      }
      return from_s_range(out_width, lo, hi);
    }
    case ops::BinOp::kRem: {
      if (b.smin <= 0 && b.smax >= 0) {
        // Remainder by zero passes the dividend through; top covers it.
        return AbstractValue::top(out_width);
      }
      const std::uint64_t limit =
          std::max(magnitude(b.smin), magnitude(b.smax)) - 1;
      const auto bound = static_cast<std::int64_t>(
          std::min<std::uint64_t>(limit, static_cast<std::uint64_t>(
                                             std::numeric_limits<
                                                 std::int64_t>::max())));
      const std::int64_t lo =
          a.smin < 0 ? std::max(a.smin, -bound) : std::int64_t{0};
      const std::int64_t hi =
          a.smax > 0 ? std::min(a.smax, bound) : std::int64_t{0};
      return from_s_range(out_width, lo, hi);
    }
    case ops::BinOp::kAnd: {
      AbstractValue value = AbstractValue::top(out_width);
      value.umax = std::min({out_mask, a.umax, b.umax});
      const std::uint64_t ones =
          (a.known_mask & a.known_value) & (b.known_mask & b.known_value);
      const std::uint64_t zeros = (a.known_mask & ~a.known_value) |
                                  (b.known_mask & ~b.known_value);
      value.known_mask = ones | zeros;
      value.known_value = ones;
      value.normalize();
      return value;
    }
    case ops::BinOp::kOr: {
      AbstractValue value = AbstractValue::top(out_width);
      if (out_width >= a.width && out_width >= b.width) {
        value.umin = std::max(a.umin, b.umin);
      }
      value.umax = std::min(out_mask, low_ones(bit_length(a.umax | b.umax)));
      const std::uint64_t ones =
          (a.known_mask & a.known_value) | (b.known_mask & b.known_value);
      const std::uint64_t zeros = (a.known_mask & ~a.known_value) &
                                  (b.known_mask & ~b.known_value);
      value.known_mask = ones | zeros;
      value.known_value = ones;
      value.normalize();
      return value;
    }
    case ops::BinOp::kXor: {
      AbstractValue value = AbstractValue::top(out_width);
      value.umax = std::min(out_mask, low_ones(bit_length(a.umax | b.umax)));
      value.known_mask = a.known_mask & b.known_mask;
      value.known_value =
          (a.known_value ^ b.known_value) & value.known_mask;
      value.normalize();
      return value;
    }
    case ops::BinOp::kShl: {
      if (b.umin >= 64) {
        return AbstractValue::constant(out_width, 0);
      }
      if (b.is_constant()) {
        const auto shift = static_cast<std::uint32_t>(b.umin);
        AbstractValue value = AbstractValue::top(out_width);
        const unsigned __int128 hi = static_cast<unsigned __int128>(a.umax)
                                     << shift;
        if (hi <= static_cast<unsigned __int128>(out_mask)) {
          value.umin = a.umin << shift;
          value.umax = a.umax << shift;
        }
        value.known_mask = (a.known_mask << shift) | low_ones(shift);
        value.known_value = a.known_value << shift;
        value.normalize();
        return value;
      }
      const std::uint64_t max_shift = std::min<std::uint64_t>(b.umax, 63);
      const unsigned __int128 hi = static_cast<unsigned __int128>(a.umax)
                                   << static_cast<std::uint32_t>(max_shift);
      AbstractValue value = known_bits_value(
          out_width, low_ones(static_cast<std::uint32_t>(b.umin)), 0);
      if (hi <= static_cast<unsigned __int128>(out_mask)) {
        value.umin = a.umin << static_cast<std::uint32_t>(b.umin);
        value.umax = static_cast<std::uint64_t>(hi);
        value.normalize();
      }
      return value;
    }
    case ops::BinOp::kShr: {
      if (b.umin >= 64) {
        return AbstractValue::constant(out_width, 0);
      }
      const std::uint64_t lo =
          b.umax >= 64 ? 0 : a.umin >> static_cast<std::uint32_t>(b.umax);
      const std::uint64_t hi = a.umax >> static_cast<std::uint32_t>(b.umin);
      AbstractValue value = AbstractValue::top(out_width);
      value.umin = std::min(lo, out_mask);
      value.umax = std::min(hi, out_mask);
      if (b.is_constant()) {
        const auto shift = static_cast<std::uint32_t>(b.umin);
        value.known_mask |= a.known_mask >> shift;
        value.known_value |= a.known_value >> shift;
      }
      value.normalize();
      return value;
    }
    case ops::BinOp::kAshr: {
      const std::uint64_t shift_lo = std::min<std::uint64_t>(b.umin, 63);
      const std::uint64_t shift_hi = std::min<std::uint64_t>(b.umax, 63);
      std::int64_t lo = std::numeric_limits<std::int64_t>::max();
      std::int64_t hi = std::numeric_limits<std::int64_t>::min();
      for (const std::int64_t operand : {a.smin, a.smax}) {
        for (const std::uint64_t shift : {shift_lo, shift_hi}) {
          const std::int64_t r =
              operand >> static_cast<std::uint32_t>(shift);
          lo = std::min(lo, r);
          hi = std::max(hi, r);
        }
      }
      return from_s_range(out_width, lo, hi);
    }
    case ops::BinOp::kEq:
    case ops::BinOp::kNe:
    case ops::BinOp::kLt:
    case ops::BinOp::kLe:
    case ops::BinOp::kGt:
    case ops::BinOp::kGe:
    case ops::BinOp::kLtu:
    case ops::BinOp::kLeu:
    case ops::BinOp::kGtu:
    case ops::BinOp::kGeu: {
      const int verdict = compare_verdict(op, a, b);
      if (verdict >= 0) {
        return AbstractValue::constant(out_width,
                                       static_cast<std::uint64_t>(verdict));
      }
      return from_u_interval(out_width, 0, 1);
    }
    case ops::BinOp::kMin:
      return from_s_range(out_width, std::min(a.smin, b.smin),
                          std::min(a.smax, b.smax));
    case ops::BinOp::kMax:
      return from_s_range(out_width, std::max(a.smin, b.smin),
                          std::max(a.smax, b.smax));
  }
  return AbstractValue::top(out_width);
}

AbstractValue transfer_unop(ops::UnOp op, const AbstractValue& a,
                            std::uint32_t out_width) {
  if (a.bottom) {
    return AbstractValue::bot(out_width);
  }
  const std::uint64_t out_mask = mask_of(out_width);
  switch (op) {
    case ops::UnOp::kNot: {
      // ~a over the 64-bit container: bits at and above a's width flip
      // from 0 to 1, bits below flip their (known) value.
      const std::uint32_t keep = std::min(a.width, out_width);
      const std::uint64_t high = out_mask & ~low_ones(keep);
      AbstractValue value = AbstractValue::top(out_width);
      value.known_mask = (a.known_mask & low_ones(keep)) | high;
      value.known_value =
          ((~a.known_value & a.known_mask) & low_ones(keep)) | high;
      value.normalize();
      return value;
    }
    case ops::UnOp::kNeg: {
      if (a.is_constant()) {
        return AbstractValue::constant(out_width, ~a.umin + 1);
      }
      if (out_width == a.width && a.umin > 0) {
        return from_u_interval(out_width, (0 - a.umax) & out_mask,
                               (0 - a.umin) & out_mask);
      }
      return AbstractValue::top(out_width);
    }
    case ops::UnOp::kAbs: {
      if (a.smin == std::numeric_limits<std::int64_t>::min()) {
        return AbstractValue::top(out_width);
      }
      const std::uint64_t mag_lo = magnitude(a.smin);
      const std::uint64_t mag_hi = magnitude(a.smax);
      const std::uint64_t hi = std::max(mag_lo, mag_hi);
      const std::uint64_t lo =
          a.smin <= 0 && a.smax >= 0 ? 0 : std::min(mag_lo, mag_hi);
      return from_u_range(out_width, lo, hi);
    }
    case ops::UnOp::kPass: {
      AbstractValue value = AbstractValue::top(out_width);
      if (a.umax <= out_mask) {
        value.umin = a.umin;
        value.umax = a.umax;
        value.known_mask = a.known_mask & out_mask;
        value.known_value = a.known_value & out_mask;
        if (out_width > a.width) {
          value.known_mask |= out_mask & ~low_ones(a.width);
        }
      } else {
        value.known_mask = a.known_mask & out_mask;
        value.known_value = a.known_value & out_mask;
      }
      value.normalize();
      return value;
    }
    case ops::UnOp::kSext: {
      AbstractValue value = AbstractValue::top(out_width);
      const bool fits =
          a.smin >= smin_of(out_width) && a.smax <= smax_of(out_width);
      if (fits) {
        value.smin = a.smin;
        value.smax = a.smax;
      }
      const std::uint32_t keep = std::min(a.width, out_width);
      value.known_mask = a.known_mask & low_ones(keep);
      value.known_value = a.known_value & low_ones(keep);
      if (out_width > a.width) {
        const std::uint64_t sign_bit = std::uint64_t{1} << (a.width - 1);
        if ((a.known_mask & sign_bit) != 0) {
          const std::uint64_t ext = out_mask & ~low_ones(a.width);
          value.known_mask |= ext | sign_bit;
          if ((a.known_value & sign_bit) != 0) {
            value.known_value |= ext | sign_bit;
          }
        }
      }
      value.normalize();
      return value;
    }
  }
  return AbstractValue::top(out_width);
}

namespace {

/// Iterations of the sequential loop before intervals widen; keeps short
/// counter chains exact while bounding long ones.
constexpr std::size_t kWidenAfter = 4;
/// Hard stop: everything sequential degrades to top past this, so the
/// fixpoint terminates no matter what (known bits regained from the
/// final sweep stay sound).
constexpr std::size_t kMaxIterations = 128;

using ir::kNone;

struct ObsCounters {
  obs::Counter& analyses = obs::counter("dataflow.analyses");
  obs::Counter& configurations = obs::counter("dataflow.configurations");
  obs::Counter& iterations = obs::counter("dataflow.iterations");
  obs::Counter& widenings = obs::counter("dataflow.widenings");
  obs::Counter& findings = obs::counter("dataflow.findings");
};

ObsCounters& counters() {
  static ObsCounters instance;
  return instance;
}

/// Abstract interpreter for one configuration: the exact structure of
/// the batched interpreter at one lane (levelized comb sweep, two-phase
/// clock edge, Moore FSM) lifted to AbstractValue.
class ConfigAnalyzer {
 public:
  explicit ConfigAnalyzer(const ir::Configuration& config) : config_(config) {}

  /// `config` has passed the datapath and FSM checks and `order` is its
  /// datapath's levelized graph order.
  void prepare(const std::vector<ir::CombGraph::Ranked>& order) {
    const ir::Datapath& datapath = config_.datapath;
    // Resolved here, not taken from a CheckedDesign: the handle resolves
    // its table only for an engine that asks, so an event-engine job,
    // linted first, resolves none.
    slots_ = ir::resolve_slots(config_, ir::DatapathIndex(datapath));
    for (const ir::Wire& wire : datapath.wires) {
      // Undriven wires read as constant 0, exactly as in the engines.
      values_.push_back(AbstractValue::constant(wire.width, 0));
    }
    for (const ir::Unit& unit : datapath.units) {
      const ir::UnitSlots& port = slots_.of(unit);
      if (unit.kind == ir::UnitKind::kRegister) {
        const AbstractValue reset =
            AbstractValue::constant(unit.width, unit.reset_value);
        registers_.push_back({&port, reset, reset});
      } else if (unit.kind == ir::UnitKind::kBinOp && unit.latency > 0) {
        // Fresh pipeline stages present zero until the first sample
        // drains through.
        const std::uint32_t width = values_[port.out].width;
        pipes_.push_back(
            {&port, unit.binop, AbstractValue::constant(width, 0)});
      }
    }
    // The engines' levelized order (elab::build_levelized_schedule ranks
    // the same graph).
    for (const ir::CombGraph::Ranked& step : order) {
      steps_.push_back({step.unit, &slots_.of(*step.unit)});
    }
    for (const ir::StateSlots& state : slots_.states) {
      // Unassigned controls read 0.
      std::vector<AbstractValue>& row = state_controls_.emplace_back();
      for (std::size_t control : slots_.controls) {
        row.push_back(AbstractValue::constant(values_[control].width, 0));
      }
      for (const auto& [control, value] : state.controls) {
        row[control] = AbstractValue::constant(
            values_[slots_.controls[control]].width, value);
      }
    }
    reachable_.assign(config_.fsm.states.size(), false);
    reachable_[slots_.initial] = true;
  }

  void run(ConfigSummary& out) {
    std::size_t iterations = 0;
    bool widened = false;
    bool changed = true;
    while (changed) {
      ++iterations;
      settle();
      changed = expand_reachable();
      const bool widen_now = iterations >= kWidenAfter;
      for (Register& reg : registers_) {
        const ir::UnitSlots& port = *reg.port;
        AbstractValue next = reg.state;
        const bool reset_forced =
            port.rst != kNone && values_[port.rst].must_be_nonzero();
        if (port.rst != kNone && values_[port.rst].can_be_nonzero()) {
          next.join(reg.reset);
        }
        const bool load_possible =
            port.en == kNone || values_[port.en].can_be_nonzero();
        if (!reset_forced && load_possible) {
          next.join(values_[port.d]);
        }
        if (widen_now) {
          next.widen(reg.state);
        }
        if (next != reg.state) {
          reg.state = next;
          changed = true;
          widened = widened || widen_now;
        }
      }
      for (Pipe& pipe : pipes_) {
        AbstractValue next = pipe.state;
        next.join(transfer_binop(pipe.binop, values_[pipe.port->a],
                                 values_[pipe.port->b], pipe.state.width));
        if (widen_now) {
          next.widen(pipe.state);
        }
        if (next != pipe.state) {
          pipe.state = next;
          changed = true;
          widened = widened || widen_now;
        }
      }
      if (changed && iterations >= kMaxIterations) {
        // Backstop: degrade every sequential element to top.  Joins
        // onto top are no-ops, so only the (monotone, bounded)
        // reachable set can still change and the loop must terminate.
        for (Register& reg : registers_) {
          reg.state = AbstractValue::top(reg.state.width);
        }
        for (Pipe& pipe : pipes_) {
          pipe.state = AbstractValue::top(pipe.state.width);
        }
        widened = true;
      }
    }
    // Settle once more so the recorded wire values and transition
    // verdicts reflect the final sequential state.
    settle();
    record_verdicts(out);
    out.analyzed = true;
    out.iterations = iterations;
    out.widened = widened;
    for (std::size_t slot = 0; slot < values_.size(); ++slot) {
      out.wires.emplace(config_.datapath.wires[slot].name, values_[slot]);
    }
    out.state_reachable = reachable_;
    if (obs::enabled()) {
      counters().configurations.inc();
      counters().iterations.add(iterations);
      if (widened) {
        counters().widenings.inc();
      }
    }
  }

  /// The value of the wire in `slot`.
  const AbstractValue& value(std::size_t slot) const { return values_[slot]; }

  const ir::ConfigSlots& slots() const { return slots_; }

 private:
  struct Register {
    const ir::UnitSlots* port;
    AbstractValue reset;
    AbstractValue state;
  };
  struct Pipe {
    const ir::UnitSlots* port;
    ops::BinOp binop;
    AbstractValue state;
  };
  /// One combinational unit of the schedule, in schedule order.
  struct Step {
    const ir::Unit* unit;
    const ir::UnitSlots* port;
  };

  /// Drives controls (joined over reachable states) and sequential
  /// outputs, then evaluates the combinational sweep in schedule order.
  void settle() {
    // The joined controls are a pure function of the reachable set, which
    // changes on few iterations: re-join (in state order -- join
    // normalizes, so order matters) only when it differs from the last.
    const std::vector<std::size_t>& controls = slots_.controls;
    if (reachable_ != joined_over_) {
      joined_over_ = reachable_;
      joined_controls_.clear();
      for (std::size_t c = 0; c < controls.size(); ++c) {
        AbstractValue joined = AbstractValue::bot(values_[controls[c]].width);
        for (std::size_t s = 0; s < state_controls_.size(); ++s) {
          if (reachable_[s]) {
            joined.join(state_controls_[s][c]);
          }
        }
        joined_controls_.push_back(joined);
      }
    }
    for (std::size_t c = 0; c < controls.size(); ++c) {
      values_[controls[c]] = joined_controls_[c];
    }
    for (const Register& reg : registers_) {
      values_[reg.port->q] = reg.state;
    }
    for (const Pipe& pipe : pipes_) {
      values_[pipe.port->out] = pipe.state;
    }
    for (const Step& step : steps_) {
      const ir::Unit& unit = *step.unit;
      const ir::UnitSlots& port = *step.port;
      AbstractValue& out = values_[port.out];
      switch (unit.kind) {
        case ir::UnitKind::kBinOp:
          out = transfer_binop(unit.binop, values_[port.a], values_[port.b],
                               out.width);
          break;
        case ir::UnitKind::kUnOp:
          out = transfer_unop(unit.unop, values_[port.a], out.width);
          break;
        case ir::UnitKind::kConst:
          out = AbstractValue::constant(out.width, unit.value);
          break;
        case ir::UnitKind::kMux: {
          if (unit.mux_inputs == 0) {
            out = AbstractValue::top(out.width);
            break;
          }
          const AbstractValue& sel = values_[port.sel];
          AbstractValue joined = AbstractValue::bot(out.width);
          const std::uint64_t lo = sel.umin;
          const std::uint64_t hi =
              std::min<std::uint64_t>(sel.umax, unit.mux_inputs - 1);
          for (std::uint64_t i = lo; i <= hi; ++i) {
            joined.join(values_[port.in[i]]);
          }
          if (sel.umax >= unit.mux_inputs) {
            // Out-of-range selects drive zero.
            joined.join(AbstractValue::constant(out.width, 0));
          }
          out = joined;
          break;
        }
        case ir::UnitKind::kMemPort:
          // Memory contents are runtime-loadable external inputs, and
          // out-of-bounds reads drive zero: top is the only sound value.
          out = AbstractValue::top(out.width);
          break;
        case ir::UnitKind::kRegister:
          break;
      }
    }
  }

  /// Marks targets of feasible transitions out of reachable states.
  /// Feasibility is monotone in the value lattice, so the reachable set
  /// only grows across iterations.
  bool expand_reachable() {
    bool changed = false;
    for (std::size_t s = 0; s < slots_.states.size(); ++s) {
      if (!reachable_[s]) {
        continue;
      }
      bool shadowed = false;
      for (const ir::TransitionSlots& transition :
           slots_.states[s].transitions) {
        if (shadowed) {
          break;
        }
        bool feasible = true;
        bool definite = true;
        for (const auto& [status, expected] : transition.literals) {
          const AbstractValue& value = values_[status];
          feasible = feasible && (expected ? value.can_be_nonzero()
                                           : value.can_be_zero());
          definite = definite && (expected ? value.must_be_nonzero()
                                           : value.must_be_zero());
        }
        if (!feasible) {
          continue;
        }
        if (!reachable_[transition.target]) {
          reachable_[transition.target] = true;
          changed = true;
        }
        shadowed = definite;
      }
    }
    return changed;
  }

  /// Per-state transition verdicts from the settled fixpoint values.
  void record_verdicts(ConfigSummary& out) const {
    out.transitions.resize(slots_.states.size());
    for (std::size_t s = 0; s < slots_.states.size(); ++s) {
      const std::vector<ir::TransitionSlots>& transitions =
          slots_.states[s].transitions;
      out.transitions[s].assign(transitions.size(), TransitionVerdict::kMaybe);
      if (!reachable_[s]) {
        continue;
      }
      bool shadowed = false;
      for (std::size_t t = 0; t < transitions.size(); ++t) {
        if (shadowed) {
          out.transitions[s][t] = TransitionVerdict::kShadowed;
          continue;
        }
        const ir::TransitionSlots& transition = transitions[t];
        bool feasible = true;
        bool definite = true;
        for (const auto& [status, expected] : transition.literals) {
          const AbstractValue& value = values_[status];
          feasible = feasible && (expected ? value.can_be_nonzero()
                                           : value.can_be_zero());
          definite = definite && (expected ? value.must_be_nonzero()
                                           : value.must_be_zero());
        }
        if (!feasible) {
          out.transitions[s][t] = TransitionVerdict::kDead;
        } else if (definite) {
          out.transitions[s][t] = TransitionVerdict::kAlways;
          shadowed = true;
        }
      }
    }
  }

  const ir::Configuration& config_;
  ir::ConfigSlots slots_;
  std::vector<AbstractValue> values_;
  std::vector<Register> registers_;
  std::vector<Pipe> pipes_;
  std::vector<Step> steps_;
  /// Per state, the value it drives on each control.
  std::vector<std::vector<AbstractValue>> state_controls_;
  std::vector<bool> reachable_;
  /// The reachable set joined_controls_ was last computed over.
  std::vector<bool> joined_over_;
  std::vector<AbstractValue> joined_controls_;
};

/// Emits the semantic rules for one analyzed configuration, in IR
/// declaration order (units, then registers, then FSM states) with the
/// witness range in every message.
class RuleEmitter {
 public:
  RuleEmitter(const std::string& node, const ir::Configuration& config,
              const ConfigAnalyzer& analyzer, const ConfigSummary& summary,
              std::vector<Finding>& findings)
      : node_(node), config_(config), analyzer_(analyzer),
        summary_(summary), findings_(findings) {}

  void emit() {
    for (const ir::Unit& unit : config_.datapath.units) {
      emit_unit(unit, analyzer_.slots().of(unit));
    }
    emit_fsm();
  }

 private:
  void add(std::string_view rule, Severity severity,
           const std::string& object, std::string message) {
    findings_.push_back(
        {std::string(rule), severity, node_, object, std::move(message)});
  }

  void emit_unit(const ir::Unit& unit, const ir::UnitSlots& port) {
    const std::vector<ir::Wire>& wires = config_.datapath.wires;
    switch (unit.kind) {
      case ir::UnitKind::kMemPort: {
        const AbstractValue& addr = analyzer_.value(port.addr);
        const auto depth = static_cast<std::uint64_t>(
            config_.datapath.memories[port.memory].depth);
        if (addr.umin >= depth) {
          add("FTI-L012", Severity::kError, unit.name,
              "memport '" + unit.name + "' address range " +
                  addr.to_string() + " is provably outside memory '" +
                  unit.memory + "' depth " + std::to_string(depth));
        } else if (addr.umax >= depth && addr.informative()) {
          add("FTI-L012", Severity::kWarning, unit.name,
              "memport '" + unit.name + "' address range " +
                  addr.to_string() + " may exceed memory '" + unit.memory +
                  "' depth " + std::to_string(depth));
        }
        break;
      }
      case ir::UnitKind::kBinOp: {
        if (unit.binop == ops::BinOp::kDiv ||
            unit.binop == ops::BinOp::kRem) {
          const AbstractValue& divisor = analyzer_.value(port.b);
          const bool division = unit.binop == ops::BinOp::kDiv;
          // Warning, not error, even when provable: the ALU defines
          // division by zero deterministically (quotient all-ones,
          // remainder passes the dividend), so the design still
          // simulates — and compiled kernels legitimately divide by a
          // never-enabled register stuck at reset 0 in dead code.
          if (divisor.must_be_zero()) {
            add("FTI-L015", Severity::kWarning, unit.name,
                std::string(division ? "division" : "remainder") + " '" +
                    unit.name + "' divisor is provably zero (range " +
                    divisor.to_string() + "); " +
                    (division ? "the quotient reads all-ones"
                              : "the dividend passes through"));
          } else if (divisor.can_be_zero() && divisor.informative()) {
            add("FTI-L015", Severity::kWarning, unit.name,
                std::string(division ? "division" : "remainder") + " '" +
                    unit.name + "' divisor range " + divisor.to_string() +
                    " includes zero");
          }
        }
        if (ops::is_comparison(unit.binop)) {
          const AbstractValue& a = analyzer_.value(port.a);
          const AbstractValue& b = analyzer_.value(port.b);
          const int verdict = compare_verdict(unit.binop, a, b);
          if (verdict >= 0) {
            add("FTI-L017", Severity::kWarning, unit.name,
                "comparison '" + unit.name + "' (" +
                    std::string(ops::to_string(unit.binop)) +
                    ") is always " + (verdict != 0 ? "true" : "false") +
                    ": operand ranges " + a.to_string() + " vs " +
                    b.to_string());
          }
        }
        break;
      }
      case ir::UnitKind::kUnOp: {
        const ir::Wire& in = wires[port.a];
        const std::uint32_t out_width = wires[port.out].width;
        if (in.width <= out_width) {
          break;
        }
        const AbstractValue& value = analyzer_.value(port.a);
        if (unit.unop == ops::UnOp::kPass) {
          const bool live_known =
              out_width < 64 && (value.known_value >> out_width) != 0;
          if (value.umin > mask_of(out_width) || live_known) {
            add("FTI-L014", Severity::kWarning, unit.name,
                "pass '" + unit.name + "' truncates " +
                    std::to_string(in.width) + "-bit input to " +
                    std::to_string(out_width) +
                    " bits, dropping proven-live bits (input range " +
                    value.to_string() + ")");
          }
        } else if (unit.unop == ops::UnOp::kSext) {
          if (value.smin > smax_of(out_width) ||
              value.smax < smin_of(out_width)) {
            add("FTI-L014", Severity::kWarning, unit.name,
                "sext '" + unit.name + "' truncates " +
                    std::to_string(in.width) + "-bit input to " +
                    std::to_string(out_width) +
                    " bits, dropping proven-live bits (input range " +
                    value.to_string() + ")");
          }
        }
        break;
      }
      case ir::UnitKind::kRegister: {
        if (port.en == kNone) {
          break;
        }
        const std::string& en = wires[port.en].name;
        const AbstractValue& enable = analyzer_.value(port.en);
        if (enable.must_be_zero()) {
          add("FTI-L016", Severity::kWarning, unit.name,
              "register '" + unit.name + "' can never load: enable '" +
                  en + "' is provably 0 (range " + enable.to_string() +
                  "); it is stuck at reset value " +
                  std::to_string(unit.reset_value));
        }
        break;
      }
      default:
        break;
    }
  }

  void emit_fsm() {
    const ir::Fsm& fsm = config_.fsm;
    const ir::ConfigSlots& slots = analyzer_.slots();
    // Syntactic BFS reachability (what FTI-L006 sees); FTI-L016 reports
    // only the states the dataflow tier newly proves dead.
    std::vector<bool> syntactic(fsm.states.size(), false);
    std::vector<std::size_t> frontier;
    syntactic[slots.initial] = true;
    frontier.push_back(slots.initial);
    while (!frontier.empty()) {
      const std::size_t current = frontier.back();
      frontier.pop_back();
      for (const ir::TransitionSlots& transition :
           slots.states[current].transitions) {
        const std::size_t target = transition.target;
        if (!syntactic[target]) {
          syntactic[target] = true;
          frontier.push_back(target);
        }
      }
    }

    for (std::size_t s = 0; s < fsm.states.size(); ++s) {
      const ir::State& state = fsm.states[s];
      if (syntactic[s] && !summary_.state_reachable[s]) {
        add("FTI-L016", Severity::kWarning, state.name,
            "state '" + state.name + "' is semantically unreachable: "
            "every transition into it has a provably false guard");
        continue;
      }
      if (!summary_.state_reachable[s]) {
        continue;  // FTI-L006 already reports syntactic unreachability
      }
      std::size_t always_at = 0;
      for (std::size_t t = 0; t < state.transitions.size(); ++t) {
        const ir::Transition& transition = state.transitions[t];
        const TransitionVerdict verdict = summary_.transitions[s][t];
        if (verdict == TransitionVerdict::kAlways) {
          always_at = t;
        }
        if (verdict == TransitionVerdict::kDead &&
            !transition.guard.always() &&
            !syntactically_contradictory(transition.guard)) {
          add("FTI-L013", Severity::kWarning, state.name,
              "state '" + state.name + "' transition " + std::to_string(t) +
                  " to '" + transition.target +
                  "' can never fire: guard '" +
                  ir::to_string(transition.guard) +
                  "' is provably false (" +
                  dead_witness(slots.states[s].transitions[t]) + ")");
        } else if (verdict == TransitionVerdict::kShadowed &&
                   !state.transitions[always_at].guard.always()) {
          add("FTI-L013", Severity::kWarning, state.name,
              "state '" + state.name + "' transition " + std::to_string(t) +
                  " to '" + transition.target +
                  "' can never fire: transition " +
                  std::to_string(always_at) + "'s guard '" +
                  ir::to_string(state.transitions[always_at].guard) +
                  "' is provably always true");
        }
      }
    }
  }

  /// FTI-L007 already reports guards that contradict themselves; the
  /// semantic rule only reports what value analysis newly proves.
  static bool syntactically_contradictory(const ir::Guard& guard) {
    std::set<std::string> high;
    std::set<std::string> low;
    for (const ir::GuardLiteral& literal : guard.literals) {
      (literal.expected ? high : low).insert(literal.status);
      if (high.count(literal.status) != 0 &&
          low.count(literal.status) != 0) {
        return true;
      }
    }
    return false;
  }

  /// The first literal that can never match, as the witness.
  std::string dead_witness(const ir::TransitionSlots& transition) const {
    for (const auto& [status, expected] : transition.literals) {
      const AbstractValue& value = analyzer_.value(status);
      const bool impossible =
          expected ? !value.can_be_nonzero() : !value.can_be_zero();
      if (impossible) {
        return "status '" + config_.datapath.wires[status].name + "' range " +
               value.to_string();
      }
    }
    return "guard range analysis";
  }

  const std::string& node_;
  const ir::Configuration& config_;
  const ConfigAnalyzer& analyzer_;
  const ConfigSummary& summary_;
  std::vector<Finding>& findings_;
};

/// Configurations in RTG declaration order, strays after -- the same
/// deterministic order the structural linter uses.
std::vector<std::string> analysis_order(const ir::Design& design) {
  std::vector<std::string> order;
  std::set<std::string> seen;
  for (const std::string& node : design.rtg.nodes) {
    if (design.configurations.count(node) != 0 && seen.insert(node).second) {
      order.push_back(node);
    }
  }
  for (const auto& [node, configuration] : design.configurations) {
    if (seen.insert(node).second) {
      order.push_back(node);
    }
  }
  return order;
}

/// The levelized graph order of `config`'s datapath, or std::nullopt
/// when the tier must skip it: it has a combinational cycle, or -- with
/// no handle, on a design ir::validate rejects -- it fails the datapath
/// or FSM check on its own.
std::optional<std::vector<ir::CombGraph::Ranked>> rank_order(
    const elab::CheckedDesign* checked, const std::string& node,
    const ir::Configuration& config) {
  if (checked != nullptr) {
    return checked->graph(node).levelize();
  }
  try {
    ir::validate(config.datapath);
    ir::validate(config.fsm, config.datapath);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return ir::CombGraph(config.datapath).levelize();
}

/// `checked`, when given, is a handle on `design`.
Summary analyze_design(const ir::Design& design,
                       const elab::CheckedDesign* checked) {
  obs::ScopedSpan span("lint.dataflow", "lint");
  Summary summary;
  for (const std::string& node : analysis_order(design)) {
    const ir::Configuration& config = design.configurations.at(node);
    ConfigSummary& config_summary = summary.configurations[node];
    const auto order = rank_order(checked, node, config);
    if (!order) {
      continue;
    }
    ConfigAnalyzer analyzer(config);
    analyzer.prepare(*order);
    analyzer.run(config_summary);
    RuleEmitter(node, config, analyzer, config_summary, summary.findings)
        .emit();
  }
  if (obs::enabled()) {
    counters().analyses.inc();
    counters().findings.add(summary.findings.size());
  }
  return summary;
}

}  // namespace

Summary analyze(const elab::CheckedDesign& design) {
  return analyze_design(design.design(), &design);
}

Summary analyze(const ir::Design& design) {
  std::optional<elab::CheckedDesign> checked;
  try {
    checked.emplace(design);
  } catch (const std::exception&) {
    return analyze_design(design, nullptr);
  }
  return analyze(*checked);
}

}  // namespace fti::lint::dataflow
