#include "fti/elab/batched.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "fti/elab/levelized.hpp"
#include "fti/ir/comb_graph.hpp"
#include "fti/mem/storage.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/obs/trace.hpp"
#include "fti/ops/alu.hpp"
#include "fti/ops/clock.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"

namespace fti::elab {
namespace {

using sim::Bits;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

const std::string& comb_output(const ir::Unit& unit) {
  return unit.kind == ir::UnitKind::kMemPort ? unit.port("dout")
                                             : unit.port("out");
}

/// What a 4-state lane carries from one configuration to the next: the
/// unknown mask of every memory image it has touched, its report, and
/// the findings already reported (deduplicated per node/object/message).
struct XLane {
  std::map<std::string, std::vector<std::uint64_t>> memory_x;
  std::set<std::string> seen;
  FourStateLane report;
  std::size_t max_findings = 0;
};

/// The levelized straight-line sweep over N lockstep stimulus lanes; the
/// only interpreter of the schedule, so N == 1 is the single-run engine.
/// Wire storage is SoA: a 1-bit wire owns ceil(N/64) packed words (lane
/// k lives in bit k%64 of word k/64), a wider wire owns N words (lane k
/// at offset+k).  Each combinational op is classified at compile time:
/// 1-bit AND/OR/XOR/NOT/copy and 2-way 1-bit muxes run word-parallel
/// over the packed lane words; multi-bit ops whose operands all live in
/// unpacked storage run as tight all-lane loops over the contiguous lane
/// words with the operator dispatch hoisted outside the loop (kWide*);
/// only mixed packed/unpacked operand sets fall back to the per-lane Bits
/// path through ops::eval_*.  Both paths compute with the operator
/// functions of ops/semantics.hpp, the single definition of the corner
/// cases, so every lane's arithmetic matches the reference interpreter.
///
/// The clock edge does work in proportion to what changes, not to the
/// design's size: registers gated by FSM controls are looked up by
/// state, the FSM steps a packed word of lanes at a time, and a lane
/// drives only the controls its old or new state asserts.
///
/// BatchedSim<true> is the 4-state mode (batched.hpp): bit_x_/wide_x_
/// hold each wire's unknown mask at the same offsets as its values,
/// every combinational op runs as kXLane, and every register samples
/// per lane.  The mode is a template argument, so BatchedSim<false>
/// compiles none of that: 2-state runs pay for no mode test.
///
/// Invariant: in the last packed word, the padding bits above lane N-1
/// stay zero -- word ops that could set them (NOT) mask with
/// `word_mask`, lane masks never include them, and the AND/OR/XOR/MUX
/// forms preserve zero padding algebraically.
template <bool kFourState>
class BatchedSim {
 public:
  /// `schedule` must have been built from this exact `config` object
  /// (see acquire_levelized_schedule); it is consumed during
  /// construction only.
  BatchedSim(const ir::Configuration& config,
             const std::vector<mem::MemoryPool*>& pools,
             const sim::EngineRunOptions& options,
             const LevelizedSchedule& schedule,
             std::vector<XLane*> x_lanes = {})
      : config_(config),
        options_(options),
        lanes_(pools.size()),
        words_((pools.size() + 63) / 64),
        x_lanes_(std::move(x_lanes)) {
    tail_mask_ = lanes_ % 64 == 0 ? ~0ull : (1ull << (lanes_ % 64)) - 1;
    ir::validate(config.datapath);
    ir::validate(config.fsm, config.datapath);
    const ir::Datapath& datapath = config.datapath;

    std::size_t bit_words = 0;
    std::size_t wide_words = 0;
    for (const ir::Wire& wire : datapath.wires) {
      wire_index_.emplace(wire.name, slots_.size());
      Slot slot;
      slot.width = wire.width;
      slot.packed = wire.width == 1;
      slot.offset = slot.packed ? bit_words : wide_words;
      (slot.packed ? bit_words : wide_words) += slot.packed ? words_ : lanes_;
      slots_.push_back(slot);
    }
    bit_vals_.assign(bit_words, 0);
    wide_vals_.assign(wide_words, 0);
    if constexpr (kFourState) {
      bit_x_.assign(bit_words, 0);
      wide_x_.assign(wide_words, 0);
    }

    // One image per (memory, lane); creation and init-if-fresh follow the
    // single-lane engines so a pre-primed pool is that lane's stimulus.
    for (const ir::MemoryDecl& memory : datapath.memories) {
      std::vector<mem::MemoryImage*> images(lanes_);
      std::vector<std::vector<std::uint64_t>*> unknown(kFourState ? lanes_ : 0);
      for (std::size_t lane = 0; lane < lanes_; ++lane) {
        mem::MemoryPool& pool = *pools[lane];
        bool fresh = !pool.contains(memory.name);
        mem::MemoryImage& image =
            pool.create(memory.name, memory.depth, memory.width);
        if (fresh) {
          for (std::size_t i = 0; i < memory.init.size(); ++i) {
            image.write(i, memory.init[i]);
          }
        }
        images[lane] = &image;
        if constexpr (kFourState) {
          // A lane's mask is made with its image, so an image the pool
          // held before the lane's first configuration is stimulus,
          // fully defined; a fresh one is X beyond its init prefix.
          auto [it, made] = x_lanes_[lane]->memory_x.try_emplace(memory.name);
          std::vector<std::uint64_t>& mask = it->second;
          if (made && fresh) {
            mask.assign(image.depth(), Bits::mask(memory.width));
            std::fill_n(mask.begin(),
                        std::min(memory.init.size(), mask.size()), 0);
          } else if (made) {
            mask.assign(image.depth(), 0);
          }
          unknown[lane] = &mask;
        }
      }
      image_index_.emplace(memory.name, mem_images_.size());
      mem_images_.push_back(std::move(images));
      mem_x_.push_back(std::move(unknown));
    }

    // Constants are stored once here -- nothing else drives their wires
    // -- so the sweep never revisits them.
    depth_ = schedule.depth;
    comb_units_ = schedule.steps.size();
    for (const LevelizedSchedule::Step& step : schedule.steps) {
      const ir::Unit& unit = *step.unit;
      if (unit.kind == ir::UnitKind::kConst) {
        std::size_t out = index_of(comb_output(unit));
        for (std::size_t lane = 0; lane < lanes_; ++lane) {
          put_raw(out, lane, unit.value);
        }
        continue;
      }
      CombOp op;
      op.kind = unit.kind;
      op.out = index_of(comb_output(unit));
      op.width = slots_[op.out].width;
      op.binop = unit.binop;
      op.unop = unit.unop;
      op.mux_inputs = unit.mux_inputs;
      for (const std::string& wire : ir::comb_input_wires(unit)) {
        op.ins.push_back(index_of(wire));
      }
      if (unit.kind == ir::UnitKind::kMemPort) {
        op.mem = image_index_.at(unit.memory);
      }
      op.exec = kFourState ? Exec::kXLane : classify(op);
      comb_.push_back(std::move(op));
    }

    for (const ir::Unit& unit : datapath.units) {
      if (unit.kind == ir::UnitKind::kRegister) {
        RegOp reg;
        reg.q = index_of(unit.port("q"));
        reg.d = index_of(unit.port("d"));
        reg.en = unit.has_port("en") ? index_of(unit.port("en")) : kNone;
        reg.rst = unit.has_port("rst") ? index_of(unit.port("rst")) : kNone;
        reg.reset = unit.reset_value & Bits::mask(slots_[reg.q].width);
        // en and rst are always 1-bit; 4-state registers sample per lane.
        reg.word = slots_[reg.q].packed && !kFourState;
        registers_.push_back(std::move(reg));
      } else if (unit.kind == ir::UnitKind::kBinOp && unit.latency > 0) {
        PipeOp pipe;
        pipe.out = index_of(unit.port("out"));
        pipe.a = index_of(unit.port("a"));
        pipe.b = index_of(unit.port("b"));
        pipe.binop = unit.binop;
        pipe.width = slots_[pipe.out].width;
        pipe.latency = unit.latency;
        pipe.ring.assign(std::size_t{unit.latency} * lanes_, 0);
        if constexpr (kFourState) {
          pipe.ring_x.assign(pipe.ring.size(), Bits::mask(pipe.width));
        }
        pipelined_.push_back(std::move(pipe));
      } else if (unit.kind == ir::UnitKind::kMemPort &&
                 unit.mem_mode != ir::MemMode::kRead) {
        WriteOp write;
        write.addr = index_of(unit.port("addr"));
        write.din = index_of(unit.port("din"));
        write.we = index_of(unit.port("we"));
        write.mem = image_index_.at(unit.memory);
        write.name = unit.name;
        write.memory = unit.memory;
        writes_.push_back(std::move(write));
      }
    }

    // Scratch for the two-phase edge: every register's sampled next value
    // (one packed word run for word registers, one slot per lane
    // otherwise) and its mask of loading lanes, laid out once so
    // clock_edge never allocates for them.
    std::size_t scratch = 0;
    for (RegOp& reg : registers_) {
      reg.next = scratch;
      scratch += reg.word ? words_ : lanes_;
    }
    reg_next_.assign(scratch, 0);
    reg_next_x_.assign(kFourState ? scratch : 0, 0);
    reg_load_.assign(registers_.size() * words_, 0);
    pending_.assign(registers_.size(), 0);

    std::vector<std::size_t> control_of(slots_.size(), kNone);
    for (const std::string& control : datapath.control_wires) {
      control_of[index_of(control)] = control_index_.size();
      control_index_.push_back(index_of(control));
    }
    // A register whose enable and reset are both FSM controls loads
    // exactly in the states that assert one of them, so the edge looks
    // it up by state; the rest are scanned every edge.
    auto gated = [&](const RegOp& reg) {
      return reg.en != kNone && control_of[reg.en] != kNone &&
             (reg.rst == kNone || control_of[reg.rst] != kNone);
    };
    for (std::size_t r = 0; r < registers_.size(); ++r) {
      if (!gated(registers_[r])) {
        scanned_.push_back(r);
      }
    }
    for (const ir::State& state : config.fsm.states) {
      CompiledState compiled;
      for (const std::string& control : datapath.control_wires) {
        std::uint64_t value = 0;
        for (const ir::ControlAssign& assign : state.controls) {
          if (assign.wire == control) {
            value = assign.value;
            break;
          }
        }
        value &= Bits::mask(slots_[index_of(control)].width);
        if (value != 0) {
          compiled.asserted.push_back(compiled.controls.size());
        }
        compiled.controls.push_back(value);
      }
      auto asserts = [&](std::size_t wire) {
        return wire != kNone && compiled.controls[control_of[wire]] != 0;
      };
      for (std::size_t r = 0; r < registers_.size(); ++r) {
        const RegOp& reg = registers_[r];
        if (gated(reg) && (asserts(reg.en) || asserts(reg.rst))) {
          compiled.loads.push_back(r);
        }
      }
      for (const ir::Transition& transition : state.transitions) {
        CompiledTransition ct;
        for (const ir::GuardLiteral& literal : transition.guard.literals) {
          ct.literals.emplace_back(index_of(literal.status),
                                   literal.expected);
        }
        ct.target = config.fsm.state_index(transition.target);
        compiled.transitions.push_back(std::move(ct));
      }
      states_.push_back(std::move(compiled));
    }
    done_index_ = index_of(config.fsm.done_wire);
    state_.assign(lanes_, config.fsm.state_index(config.fsm.initial));
    driven_.assign(lanes_, kNone);
    state_lanes_.assign(states_.size() * words_, 0);
    occupied_flag_.assign(states_.size(), 0);
    visits_.assign(lanes_,
                   std::vector<std::uint64_t>(config.fsm.states.size(), 0));
    taken_.resize(lanes_);
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      taken_[lane].resize(config.fsm.states.size());
      for (std::size_t i = 0; i < config.fsm.states.size(); ++i) {
        taken_[lane][i].assign(config.fsm.states[i].transitions.size(), 0);
      }
    }

    if (options.collect_wire_data) {
      trace_slot_.assign(slots_.size(), kNone);
      for (const std::string& wire : ir::traced_wires(datapath)) {
        trace_slot_[index_of(wire)] = trace_names_.size();
        trace_names_.push_back(wire);
        trace_index_.push_back(index_of(wire));
      }
    }
    lane_traces_.assign(
        lanes_, std::vector<std::vector<std::uint64_t>>(trace_names_.size()));
    events_.assign(lanes_, 0);
    word_events_.assign(words_, 0);
    x_sites_ = 1 + states_.size() + 3 * writes_.size();
    x_hits_.assign(kFourState ? lanes_ * x_sites_ : 0, 0);
    active_.assign(words_, ~0ull);
    active_.back() &= tail_mask_;
    active_count_ = lanes_;
  }

  /// Schedule levels visited so far: every sweep walks all of them --
  /// the unit the obs `engine.levels_swept` counter aggregates.
  std::uint64_t levels_swept() const { return sweeps_ * depth_; }
  /// Sum over sweeps of the number of lanes still active in each -- the
  /// unit the obs `engine.lane_sweeps` counter aggregates.
  std::uint64_t lane_sweeps() const { return lane_sweeps_; }

  std::vector<sim::EnginePartition> run(const std::string& node) {
    node_ = node;
    std::vector<sim::EnginePartition> results(lanes_);
    for (sim::EnginePartition& result : results) {
      result.node = node;
    }
    // Power-up: every lane's registers load their reset value, except
    // that a 4-state register without reset hardware starts all-X.
    for (const RegOp& reg : registers_) {
      bool unknown = kFourState && reg.rst == kNone;
      for (std::size_t lane = 0; lane < lanes_; ++lane) {
        if (unknown) {
          put_x(reg.q, lane, ~0ull);
        } else {
          commit(reg.q, lane, reg.reset);
        }
      }
    }
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      ++visits_[lane][state_[lane]];
    }
    drive_controls();
    sweep();
    for (;;) {
      // Done is checked before the budget, so a lane whose done rises in
      // the same cycle the budget runs out still completes (the
      // single-lane engines break the tie the same way).  An X on done
      // reads as not done.
      if constexpr (kFourState) {
        for_each_lane(
            [&](std::size_t w) { return unknown_where(done_index_, w); },
            [&](std::size_t lane) {
              if (first_hit(lane, 0)) {
                finding(lane, config_.fsm.done_wire,
                        "done wire reads X (uninitialized state reached the "
                        "completion logic)");
              }
            });
      }
      for_each_lane(
          [&](std::size_t w) { return active_where(done_index_, w); },
          [&](std::size_t lane) {
            finish(results[lane], lane, sim::Kernel::StopReason::kDoneNet);
          });
      if (active_count_ == 0) {
        break;
      }
      if (options_.max_cycles_per_partition != 0 &&
          cycle_ >= options_.max_cycles_per_partition) {
        for_each_active([&](std::size_t lane) {
          finish(results[lane], lane, sim::Kernel::StopReason::kMaxTime);
        });
        break;
      }
      clock_edge();
      drive_controls();
      sweep();
      ++cycle_;
    }
    return results;
  }

 private:
  enum class Exec {
    kWordBin,    ///< 1-bit AND/OR/XOR over packed lane words
    kWordNot,    ///< 1-bit NOT, tail-masked
    kWordCopy,   ///< 1-bit pass/sext/neg/abs (all identity on one bit)
    kWordMux,    ///< 2-way mux, 1-bit select and data
    kWideBin,    ///< multi-bit binop, unpacked in/out, dispatch hoisted
    kWideCmp,    ///< comparison of unpacked operands into a packed out
    kWideUn,     ///< multi-bit unop, unpacked in/out
    kWideMux,    ///< mux with unpacked data inputs and output
    kWideMem,    ///< memory read port with an unpacked output
    kLaneLoop,   ///< per-lane Bits evaluation via ops::eval_*
    kXLane,      ///< 4-state mode: per-lane evaluation via ops::eval_*_x
  };
  struct Slot {
    std::uint32_t width;
    bool packed;
    std::size_t offset;
  };
  struct CombOp {
    Exec exec;
    ir::UnitKind kind;
    std::size_t out;
    std::uint32_t width;
    ops::BinOp binop;
    ops::UnOp unop;
    std::uint32_t mux_inputs;
    std::vector<std::size_t> ins;
    std::size_t mem = kNone;
  };
  struct RegOp {
    std::size_t q;
    std::size_t d;
    std::size_t en;
    std::size_t rst;
    std::uint64_t reset;
    bool word;
    std::size_t next;  ///< offset of the sampled next value in reg_next_
  };
  /// A latency-L unit keeps L lane vectors in a ring: the L-1 values in
  /// flight from `head` on, oldest first, plus the slot the next sample
  /// lands in (the same slot as `head` when L == 1).
  struct PipeOp {
    std::size_t out;
    std::size_t a;
    std::size_t b;
    ops::BinOp binop;
    std::uint32_t width;
    std::uint32_t latency;
    std::size_t head = 0;
    std::vector<std::uint64_t> ring;
    std::vector<std::uint64_t> ring_x;  ///< 4-state: the ring's masks
  };
  struct WriteOp {
    std::size_t addr;
    std::size_t din;
    std::size_t we;
    std::size_t mem;
    std::string name;    ///< the write unit
    std::string memory;  ///< the memory it writes
  };
  struct MemWrite {
    mem::MemoryImage* image;
    std::size_t lane;
    std::uint64_t address;
    std::uint64_t data;
  };
  struct MaskWrite {
    std::uint64_t* word;
    std::uint64_t unknown;
  };
  struct CompiledTransition {
    std::vector<std::pair<std::size_t, bool>> literals;
    std::size_t target;
  };
  struct CompiledState {
    std::vector<std::uint64_t> controls;
    std::vector<std::size_t> asserted;  ///< controls[c] != 0
    std::vector<std::size_t> loads;     ///< control-gated registers loading
    std::vector<CompiledTransition> transitions;
  };

  std::size_t index_of(const std::string& wire) const {
    return wire_index_.at(wire);
  }

  Exec classify(const CombOp& op) const {
    auto packed = [&](std::size_t wire) { return slots_[wire].packed; };
    switch (op.kind) {
      case ir::UnitKind::kBinOp:
        if (op.width == 1 && packed(op.ins[0]) && packed(op.ins[1]) &&
            (op.binop == ops::BinOp::kAnd || op.binop == ops::BinOp::kOr ||
             op.binop == ops::BinOp::kXor)) {
          return Exec::kWordBin;
        }
        if (!packed(op.ins[0]) && !packed(op.ins[1])) {
          // A comparison of wide operands lands in a packed 1-bit out;
          // everything else needs the out unpacked too.
          if (packed(op.out)) {
            return ops::is_comparison(op.binop) ? Exec::kWideCmp
                                                : Exec::kLaneLoop;
          }
          return Exec::kWideBin;
        }
        return Exec::kLaneLoop;
      case ir::UnitKind::kUnOp:
        if (op.width == 1 && packed(op.ins[0])) {
          return op.unop == ops::UnOp::kNot ? Exec::kWordNot
                                            : Exec::kWordCopy;
        }
        if (!packed(op.ins[0]) && !packed(op.out)) {
          return Exec::kWideUn;
        }
        return Exec::kLaneLoop;
      case ir::UnitKind::kMux: {
        if (op.width == 1 && op.mux_inputs == 2 && packed(op.ins[0]) &&
            packed(op.ins[1]) && packed(op.ins[2])) {
          return Exec::kWordMux;
        }
        // The select may be packed or unpacked; the data inputs and the
        // out must all be unpacked so lanes read contiguous words.
        bool wide_data = !packed(op.out);
        for (std::uint32_t i = 0; wide_data && i < op.mux_inputs; ++i) {
          wide_data = !packed(op.ins[1 + i]);
        }
        return wide_data ? Exec::kWideMux : Exec::kLaneLoop;
      }
      case ir::UnitKind::kMemPort:
        return packed(op.out) ? Exec::kLaneLoop : Exec::kWideMem;
      default:
        return Exec::kLaneLoop;
    }
  }

  std::uint64_t get(std::size_t wire, std::size_t lane) const {
    const Slot& slot = slots_[wire];
    if (slot.packed) {
      return (bit_vals_[slot.offset + lane / 64] >> (lane % 64)) & 1u;
    }
    return wide_vals_[slot.offset + lane];
  }

  void put_raw(std::size_t wire, std::size_t lane, std::uint64_t value) {
    const Slot& slot = slots_[wire];
    if (slot.packed) {
      std::uint64_t bit = 1ull << (lane % 64);
      std::uint64_t& word = bit_vals_[slot.offset + lane / 64];
      word = (value & 1u) != 0 ? (word | bit) : (word & ~bit);
    } else {
      wide_vals_[slot.offset + lane] = value & Bits::mask(slot.width);
    }
  }

  // -- 4-state plane: get/put_raw over bit_x_/wide_x_ -----------------

  std::uint64_t get_x(std::size_t wire, std::size_t lane) const {
    const Slot& slot = slots_[wire];
    if (slot.packed) {
      return (bit_x_[slot.offset + lane / 64] >> (lane % 64)) & 1u;
    }
    return wide_x_[slot.offset + lane];
  }

  void put_x(std::size_t wire, std::size_t lane, std::uint64_t unknown) {
    const Slot& slot = slots_[wire];
    if (slot.packed) {
      std::uint64_t bit = 1ull << (lane % 64);
      std::uint64_t& word = bit_x_[slot.offset + lane / 64];
      word = (unknown & 1u) != 0 ? (word | bit) : (word & ~bit);
    } else {
      wide_x_[slot.offset + lane] = unknown & Bits::mask(slot.width);
    }
  }

  ops::XBits get_xbits(std::size_t wire, std::size_t lane) const {
    return {slots_[wire].width, get(wire, lane), get_x(wire, lane)};
  }

  /// put_x of unknown[lane] for every lane set in `mask`.
  void put_x_lanes(std::size_t wire, const std::uint64_t* mask,
                   const std::uint64_t* unknown) {
    for_each_lane([&](std::size_t w) { return mask[w]; },
                  [&](std::size_t lane) { put_x(wire, lane, unknown[lane]); });
  }

  /// The active lanes of word `w` in which the 1-bit `wire` is X (none
  /// for an absent port).
  std::uint64_t unknown_where(std::size_t wire, std::size_t w) const {
    return wire == kNone ? 0 : active_[w] & bit_x_[slots_[wire].offset + w];
  }

  /// True the first time `lane` sees X at `site` in this configuration
  /// (0 is done, 1 + s a guard of state s, then three per write port)
  /// while its report has room.  An X that persists hits the same site
  /// every cycle; the check skips the repeats before any text is built.
  bool first_hit(std::size_t lane, std::size_t site) {
    std::uint8_t& hit = x_hits_[lane * x_sites_ + site];
    XLane& x = *x_lanes_[lane];
    bool first = hit == 0 && x.report.findings.size() < x.max_findings;
    hit = 1;
    return first;
  }

  /// Records a 4-state finding for `lane`, once per node/object/message.
  void finding(std::size_t lane, const std::string& object,
               std::string message) {
    XLane& x = *x_lanes_[lane];
    if (x.seen.insert(node_ + "/" + object + "/" + message).second) {
      x.report.findings.push_back({node_, object, cycle_, std::move(message)});
    }
  }

  /// Change-detecting write used for clocked wires only (controls,
  /// register q, pipe outs) -- the exact levelized set_traced semantics,
  /// per lane: count an event and append to the lane's trace on change.
  void commit(std::size_t wire, std::size_t lane, std::uint64_t value) {
    std::uint64_t masked = value & Bits::mask(slots_[wire].width);
    if (get(wire, lane) == masked) {
      return;
    }
    put_raw(wire, lane, masked);
    ++events_[lane];
    if (!trace_slot_.empty() && trace_slot_[wire] != kNone) {
      lane_traces_[lane][trace_slot_[wire]].push_back(masked);
    }
  }

  /// commit() of values[lane] for every lane set in `mask`, with the
  /// slot lookup hoisted for an unpacked wire.  `values` must already be
  /// masked to the wire's width.
  void commit_lanes(std::size_t wire, const std::uint64_t* mask,
                    const std::uint64_t* values) {
    auto lanes = [&](std::size_t w) { return mask[w]; };
    if (slots_[wire].packed) {
      for_each_lane(lanes, [&](std::size_t lane) {
        commit(wire, lane, values[lane]);
      });
      return;
    }
    std::uint64_t* stored = wide_ptr(wire);
    std::size_t trace = trace_slot_.empty() ? kNone : trace_slot_[wire];
    for_each_lane(lanes, [&](std::size_t lane) {
      if (stored[lane] == values[lane]) {
        return;
      }
      stored[lane] = values[lane];
      ++events_[lane];
      if (trace != kNone) {
        lane_traces_[lane][trace].push_back(values[lane]);
      }
    });
  }

  /// Word-parallel commit of a packed wire: store the next lane words,
  /// then walk the changed bits for per-lane event/trace bookkeeping.
  /// `next` must already be frozen on inactive lanes and zero in the
  /// padding bits.
  void commit_packed(std::size_t wire, const std::uint64_t* next) {
    const Slot& slot = slots_[wire];
    std::size_t trace = trace_slot_.empty() ? kNone : trace_slot_[wire];
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t changed = bit_vals_[slot.offset + w] ^ next[w];
      if (changed == 0) {
        continue;
      }
      bit_vals_[slot.offset + w] = next[w];
      if (trace == kNone && changed == active_[w]) {
        ++word_events_[w];  // one event in every active lane of the word
        continue;
      }
      for_each_bit(changed, w * 64, [&](std::size_t lane) {
        ++events_[lane];
        if (trace != kNone) {
          lane_traces_[lane][trace].push_back((next[w] >> (lane % 64)) & 1u);
        }
      });
    }
  }

  /// Calls fn(base + i) for every bit i set in `word`.
  template <typename Fn>
  static void for_each_bit(std::uint64_t word, std::size_t base, Fn&& fn) {
    for (; word != 0; word &= word - 1) {
      fn(base + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }

  /// Calls fn(lane) for every lane set in the packed masks mask(w).
  template <typename MaskFn, typename Fn>
  void for_each_lane(MaskFn&& mask, Fn&& fn) {
    for (std::size_t w = 0; w < words_; ++w) {
      for_each_bit(mask(w), w * 64, fn);
    }
  }

  template <typename Fn>
  void for_each_active(Fn&& fn) {
    for_each_lane([&](std::size_t w) { return active_[w]; }, fn);
  }

  /// The active lanes of word `w` in which the 1-bit `wire` is high.
  /// Enables, resets, write enables, statuses and done are all validated
  /// to be one bit wide, hence packed.
  std::uint64_t active_where(std::size_t wire, std::size_t w) const {
    return active_[w] & word_ptr(wire)[w];
  }

  std::uint64_t word_mask(std::size_t w) const {
    return w + 1 == words_ ? tail_mask_ : ~0ull;
  }

  const std::uint64_t* word_ptr(std::size_t wire) const {
    return bit_vals_.data() + slots_[wire].offset;
  }
  std::uint64_t* word_ptr(std::size_t wire) {
    return bit_vals_.data() + slots_[wire].offset;
  }

  const std::uint64_t* wide_ptr(std::size_t wire) const {
    return wide_vals_.data() + slots_[wire].offset;
  }
  std::uint64_t* wide_ptr(std::size_t wire) {
    return wide_vals_.data() + slots_[wire].offset;
  }

  /// All-lane loop for a binop over unpacked operands into an unpacked
  /// out.  Evaluating finished lanes too is safe -- their inputs are
  /// frozen, so the recompute reproduces the value already stored -- and
  /// keeps the loop branch-free over contiguous words.  The operator
  /// switch runs once, outside the loop.
  void wide_bin(const CombOp& op) {
    const std::uint64_t* a = wide_ptr(op.ins[0]);
    const std::uint64_t* b = wide_ptr(op.ins[1]);
    std::uint64_t* out = wide_ptr(op.out);
    const std::uint64_t mask = Bits::mask(op.width);
    const std::uint64_t sa = ops::sign_bit(slots_[op.ins[0]].width);
    const std::uint64_t sb = ops::sign_bit(slots_[op.ins[1]].width);
    ops::visit_binop(op.binop, [&](auto fn) {
      for (std::size_t lane = 0; lane < lanes_; ++lane) {
        out[lane] = fn(a[lane], b[lane], sa, sb) & mask;
      }
    });
  }

  /// Comparison of unpacked operands assembled bit-by-bit into the
  /// packed 1-bit out words.  Padding bits above lane N-1 stay zero by
  /// construction.
  void wide_cmp(const CombOp& op) {
    FTI_ASSERT(ops::is_comparison(op.binop), "wide_cmp on non-comparison op");
    const std::uint64_t* a = wide_ptr(op.ins[0]);
    const std::uint64_t* b = wide_ptr(op.ins[1]);
    std::uint64_t* out = word_ptr(op.out);
    const std::uint64_t sa = ops::sign_bit(slots_[op.ins[0]].width);
    const std::uint64_t sb = ops::sign_bit(slots_[op.ins[1]].width);
    ops::visit_binop(op.binop, [&](auto fn) {
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t word = 0;
        const std::size_t base = w * 64;
        const std::size_t count = base + 64 <= lanes_ ? 64 : lanes_ - base;
        for (std::size_t bit = 0; bit < count; ++bit) {
          word |= fn(a[base + bit], b[base + bit], sa, sb) << bit;
        }
        out[w] = word;
      }
    });
  }

  void wide_un(const CombOp& op) {
    const std::uint64_t* a = wide_ptr(op.ins[0]);
    std::uint64_t* out = wide_ptr(op.out);
    const std::uint64_t mask = Bits::mask(op.width);
    const std::uint64_t sa = ops::sign_bit(slots_[op.ins[0]].width);
    ops::visit_unop(op.unop, [&](auto fn) {
      for (std::size_t lane = 0; lane < lanes_; ++lane) {
        out[lane] = fn(a[lane], sa) & mask;
      }
    });
  }

  /// N-way mux with unpacked data and out; the select may be packed or
  /// unpacked (the branch on its storage class is loop-invariant and
  /// predicted away).
  void wide_mux(const CombOp& op) {
    std::uint64_t* out = wide_ptr(op.out);
    const Slot& sel_slot = slots_[op.ins[0]];
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      std::uint64_t sel =
          sel_slot.packed
              ? (bit_vals_[sel_slot.offset + lane / 64] >> (lane % 64)) & 1u
              : wide_vals_[sel_slot.offset + lane];
      out[lane] = sel < op.mux_inputs
                      ? wide_vals_[slots_[op.ins[1 + sel]].offset + lane]
                      : 0;
    }
  }

  /// Memory read port into an unpacked out.  Finished lanes' memories
  /// are frozen, so the all-lane read reproduces stored values.
  void wide_mem(const CombOp& op) {
    std::uint64_t* out = wide_ptr(op.out);
    const Slot& addr_slot = slots_[op.ins[0]];
    const std::uint64_t mask = Bits::mask(op.width);
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      std::uint64_t address =
          addr_slot.packed
              ? (bit_vals_[addr_slot.offset + lane / 64] >> (lane % 64)) & 1u
              : wide_vals_[addr_slot.offset + lane];
      const mem::MemoryImage& image = *mem_images_[op.mem][lane];
      out[lane] =
          address < image.depth() ? image.words()[address] & mask : 0;
    }
  }

  /// Groups the active lanes by FSM state: `occupied_` lists the states
  /// some active lane is in, `state_lanes_` holds each one's lane mask.
  void group_lanes() {
    for (std::size_t s : occupied_) {
      std::fill_n(state_lanes_.data() + s * words_, words_, 0);
      occupied_flag_[s] = 0;
    }
    occupied_.clear();
    for_each_active([&](std::size_t lane) {
      std::size_t s = state_[lane];
      if (occupied_flag_[s] == 0) {
        occupied_flag_[s] = 1;
        occupied_.push_back(s);
      }
      state_lanes_[s * words_ + lane / 64] |= 1ull << (lane % 64);
    });
  }

  /// Moore outputs of each lane's current state; lanes differ once their
  /// FSMs diverge, so controls drive per lane.  Nothing else drives a
  /// control wire, so only the controls asserted by the state a lane
  /// last drove or by its current one can change (all start at zero).
  void drive_controls() {
    for_each_active([&](std::size_t lane) {
      std::size_t last = driven_[lane];
      if (last == state_[lane]) {
        return;
      }
      driven_[lane] = state_[lane];
      const CompiledState& state = states_[state_[lane]];
      auto drive = [&](std::size_t c) {
        commit(control_index_[c], lane, state.controls[c]);
      };
      if (last != kNone) {
        std::for_each(states_[last].asserted.begin(),
                      states_[last].asserted.end(), drive);
      }
      std::for_each(state.asserted.begin(), state.asserted.end(), drive);
    });
  }

  void eval_lane(const CombOp& op, std::size_t lane) {
    switch (op.kind) {
      case ir::UnitKind::kBinOp: {
        Bits a(slots_[op.ins[0]].width, get(op.ins[0], lane));
        Bits b(slots_[op.ins[1]].width, get(op.ins[1], lane));
        put_raw(op.out, lane, ops::eval_binop(op.binop, a, b, op.width).u());
        break;
      }
      case ir::UnitKind::kUnOp: {
        Bits a(slots_[op.ins[0]].width, get(op.ins[0], lane));
        put_raw(op.out, lane, ops::eval_unop(op.unop, a, op.width).u());
        break;
      }
      case ir::UnitKind::kMux: {
        std::uint64_t sel = get(op.ins[0], lane);
        put_raw(op.out, lane,
                sel < op.mux_inputs ? get(op.ins[1 + sel], lane) : 0);
        break;
      }
      case ir::UnitKind::kMemPort: {
        const mem::MemoryImage& image = *mem_images_[op.mem][lane];
        std::uint64_t address = get(op.ins[0], lane);
        put_raw(op.out, lane,
                address < image.depth() ? image.words()[address] : 0);
        break;
      }
      case ir::UnitKind::kConst:
      case ir::UnitKind::kRegister:
        break;
    }
  }

  /// eval_lane in 4-state mode: an X select or address makes the whole
  /// output X, a known select passes one input.
  void eval_lane_x(const CombOp& op, std::size_t lane) {
    ops::XBits out{op.width, 0, 0};
    const ops::XBits all_x{op.width, 0, Bits::mask(op.width)};
    switch (op.kind) {
      case ir::UnitKind::kBinOp:
        out = ops::eval_binop_x(op.binop, get_xbits(op.ins[0], lane),
                                get_xbits(op.ins[1], lane), op.width);
        break;
      case ir::UnitKind::kUnOp:
        out = ops::eval_unop_x(op.unop, get_xbits(op.ins[0], lane), op.width);
        break;
      case ir::UnitKind::kMux: {
        ops::XBits sel = get_xbits(op.ins[0], lane);
        if (sel.has_x()) {
          out = all_x;
        } else if (sel.v < op.mux_inputs) {
          out = get_xbits(op.ins[1 + sel.v], lane);
        }
        break;
      }
      case ir::UnitKind::kMemPort: {
        ops::XBits address = get_xbits(op.ins[0], lane);
        const mem::MemoryImage& image = *mem_images_[op.mem][lane];
        if (address.has_x()) {
          out = all_x;
        } else if (address.v < image.depth()) {
          out.x = (*mem_x_[op.mem][lane])[address.v];
          out.v = image.words()[address.v] & ~out.x;
        }
        break;
      }
      case ir::UnitKind::kConst:
      case ir::UnitKind::kRegister:
        break;
    }
    put_raw(op.out, lane, out.v);
    put_x(op.out, lane, out.x);
  }

  /// One rank-ordered pass over all lanes.  Word- and wide-classified
  /// ops evaluate every lane (finished lanes recompute the same frozen
  /// values, which is harmless and branch-free); lane loops skip
  /// finished lanes.
  void sweep() {
    ++sweeps_;
    lane_sweeps_ += active_count_;
    for (const CombOp& op : comb_) {
      switch (op.exec) {
        case Exec::kWordBin: {
          const std::uint64_t* a = word_ptr(op.ins[0]);
          const std::uint64_t* b = word_ptr(op.ins[1]);
          std::uint64_t* out = word_ptr(op.out);
          if (op.binop == ops::BinOp::kAnd) {
            for (std::size_t w = 0; w < words_; ++w) {
              out[w] = a[w] & b[w];
            }
          } else if (op.binop == ops::BinOp::kOr) {
            for (std::size_t w = 0; w < words_; ++w) {
              out[w] = a[w] | b[w];
            }
          } else {
            for (std::size_t w = 0; w < words_; ++w) {
              out[w] = a[w] ^ b[w];
            }
          }
          break;
        }
        case Exec::kWordNot: {
          const std::uint64_t* a = word_ptr(op.ins[0]);
          std::uint64_t* out = word_ptr(op.out);
          for (std::size_t w = 0; w < words_; ++w) {
            out[w] = ~a[w] & word_mask(w);
          }
          break;
        }
        case Exec::kWordCopy: {
          const std::uint64_t* a = word_ptr(op.ins[0]);
          std::uint64_t* out = word_ptr(op.out);
          for (std::size_t w = 0; w < words_; ++w) {
            out[w] = a[w];
          }
          break;
        }
        case Exec::kWordMux: {
          const std::uint64_t* sel = word_ptr(op.ins[0]);
          const std::uint64_t* in0 = word_ptr(op.ins[1]);
          const std::uint64_t* in1 = word_ptr(op.ins[2]);
          std::uint64_t* out = word_ptr(op.out);
          for (std::size_t w = 0; w < words_; ++w) {
            out[w] = (sel[w] & in1[w]) | (~sel[w] & in0[w]);
          }
          break;
        }
        case Exec::kWideBin:
          wide_bin(op);
          break;
        case Exec::kWideCmp:
          wide_cmp(op);
          break;
        case Exec::kWideUn:
          wide_un(op);
          break;
        case Exec::kWideMux:
          wide_mux(op);
          break;
        case Exec::kWideMem:
          wide_mem(op);
          break;
        case Exec::kLaneLoop:
          for_each_active([&](std::size_t lane) { eval_lane(op, lane); });
          break;
        case Exec::kXLane:
          if constexpr (kFourState) {
            for_each_active([&](std::size_t lane) { eval_lane_x(op, lane); });
          }
          break;
      }
    }
  }

  /// Two-phase edge: sample registers, pipeline stages and memory
  /// writes against settled pre-edge values (out-of-range writes throw
  /// here, before any commit), step each lane's FSM on pre-edge statuses,
  /// then commit.  Only active lanes commit -- a finished lane's
  /// registers, memories and FSM freeze.  A register loads in the active
  /// lanes where its enable or reset is high; one that loads in no lane
  /// is neither sampled nor committed.  In 4-state mode an X on a
  /// scanned register's enable or reset also loads (all-X), and X on a
  /// write port or a guard is a finding.
  void clock_edge() {
    group_lanes();
    for (std::size_t s : occupied_) {
      const std::uint64_t* lanes = state_lanes_.data() + s * words_;
      for (std::size_t r : states_[s].loads) {
        if (pending_[r] == 0) {
          pending_[r] = 1;
          loaded_.push_back(r);
        }
        std::uint64_t* load = reg_load_.data() + r * words_;
        for (std::size_t w = 0; w < words_; ++w) {
          load[w] |= lanes[w];
        }
      }
    }
    for (std::size_t r : scanned_) {
      const RegOp& reg = registers_[r];
      std::uint64_t* load = reg_load_.data() + r * words_;
      std::uint64_t any = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        load[w] = (reg.en == kNone ? active_[w] : active_where(reg.en, w)) |
                  (reg.rst == kNone ? 0 : active_where(reg.rst, w)) |
                  (kFourState
                       ? unknown_where(reg.en, w) | unknown_where(reg.rst, w)
                       : 0);
        any |= load[w];
      }
      if (any != 0) {
        loaded_.push_back(r);
      }
    }
    for (std::size_t r : loaded_) {
      const RegOp& reg = registers_[r];
      const std::uint64_t* load = reg_load_.data() + r * words_;
      std::uint64_t* next = reg_next_.data() + reg.next;
      if (reg.word) {
        const std::uint64_t* q = word_ptr(reg.q);
        const std::uint64_t* d = word_ptr(reg.d);
        std::uint64_t reset_fill = (reg.reset & 1u) != 0 ? ~0ull : 0;
        for (std::size_t w = 0; w < words_; ++w) {
          std::uint64_t rst = reg.rst == kNone ? 0 : word_ptr(reg.rst)[w];
          std::uint64_t value = (rst & reset_fill) | (~rst & d[w]);
          next[w] = (load[w] & value) | (~load[w] & q[w]);
        }
      } else if constexpr (kFourState) {
        std::uint64_t* next_x = reg_next_x_.data() + reg.next;
        for_each_lane([&](std::size_t w) { return load[w]; },
                      [&](std::size_t lane) {
                        ops::XBits value = sample_x(reg, lane);
                        next[lane] = value.v;
                        next_x[lane] = value.x;
                      });
      } else {
        for_each_lane([&](std::size_t w) { return load[w]; },
                      [&](std::size_t lane) {
                        next[lane] =
                            reg.rst != kNone && get(reg.rst, lane) != 0
                                ? reg.reset
                                : get(reg.d, lane);
                      });
      }
    }
    for (PipeOp& pipe : pipelined_) {
      std::size_t slot = (pipe.head + pipe.latency - 1) % pipe.latency;
      std::uint64_t* sample = pipe.ring.data() + slot * lanes_;
      const std::uint64_t mask = Bits::mask(pipe.width);
      const std::uint64_t sa = ops::sign_bit(slots_[pipe.a].width);
      const std::uint64_t sb = ops::sign_bit(slots_[pipe.b].width);
      if constexpr (kFourState) {
        std::uint64_t* sample_unknown = pipe.ring_x.data() + slot * lanes_;
        for_each_active([&](std::size_t lane) {
          ops::XBits value =
              ops::eval_binop_x(pipe.binop, get_xbits(pipe.a, lane),
                                get_xbits(pipe.b, lane), pipe.width);
          sample[lane] = value.v;
          sample_unknown[lane] = value.x;
        });
        continue;
      }
      ops::visit_binop(pipe.binop, [&](auto fn) {
        for_each_active([&](std::size_t lane) {
          sample[lane] = fn(get(pipe.a, lane), get(pipe.b, lane), sa, sb) &
                         mask;
        });
      });
    }
    mem_writes_.clear();
    mask_writes_.clear();
    for (const WriteOp& write : writes_) {
      if constexpr (kFourState) {
        sample_write_x(write,
                       1 + states_.size() + 3 * (&write - writes_.data()));
        continue;
      }
      for_each_lane(
          [&](std::size_t w) { return active_where(write.we, w); },
          [&](std::size_t lane) {
            std::uint64_t address = get(write.addr, lane);
            mem::MemoryImage* image = mem_images_[write.mem][lane];
            if (address >= image->depth()) {
              beyond_depth(write, lane, address);
            }
            mem_writes_.push_back({image, lane, address,
                                   get(write.din, lane)});
          });
    }
    // Each state's lanes take its first transition whose guard holds,
    // evaluated a packed word of lanes at a time.
    for (std::size_t s : occupied_) {
      const CompiledState& current = states_[s];
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t rest = state_lanes_[s * words_ + w];
        for (std::size_t t = 0; t < current.transitions.size() && rest != 0;
             ++t) {
          const CompiledTransition& transition = current.transitions[t];
          std::uint64_t taken = rest;
          for (const auto& [status, expected] : transition.literals) {
            if constexpr (kFourState) {
              // An X literal fails the transition for its lane.
              std::uint64_t unknown = taken & unknown_where(status, w);
              for_each_bit(unknown, w * 64, [&](std::size_t lane) {
                if (first_hit(lane, 1 + s)) {
                  finding(lane, config_.fsm.states[s].name,
                          "FSM guard reads X status (uninitialized value "
                          "steers the state machine)");
                }
              });
              taken &= ~unknown;
            }
            std::uint64_t high = active_where(status, w);
            taken &= expected ? high : ~high;
          }
          rest &= ~taken;
          for_each_bit(taken, w * 64, [&](std::size_t lane) {
            ++taken_[lane][s][t];
            state_[lane] = transition.target;
            ++visits_[lane][transition.target];
          });
        }
      }
    }
    for (std::size_t r : loaded_) {
      const RegOp& reg = registers_[r];
      const std::uint64_t* next = reg_next_.data() + reg.next;
      std::uint64_t* load = reg_load_.data() + r * words_;
      if (reg.word) {
        commit_packed(reg.q, next);
      } else {
        if constexpr (kFourState) {
          put_x_lanes(reg.q, load, reg_next_x_.data() + reg.next);
        }
        commit_lanes(reg.q, load, next);
      }
      std::fill(load, load + words_, 0);
      pending_[r] = 0;
    }
    loaded_.clear();
    for (PipeOp& pipe : pipelined_) {
      if constexpr (kFourState) {
        put_x_lanes(pipe.out, active_.data(),
                    pipe.ring_x.data() + pipe.head * lanes_);
      }
      commit_lanes(pipe.out, active_.data(),
                   pipe.ring.data() + pipe.head * lanes_);
      pipe.head = (pipe.head + 1) % pipe.latency;
    }
    for (const MemWrite& write : mem_writes_) {
      write.image->write(write.address, write.data);
      ++events_[write.lane];
    }
    for (const MaskWrite& write : mask_writes_) {
      *write.word = write.unknown;
    }
  }

  /// A write beyond a memory's depth is a SimError in every mode.
  [[noreturn]] void beyond_depth(const WriteOp& write, std::size_t lane,
                                 std::uint64_t address) const {
    throw util::SimError("batched: sram '" + write.name + "' lane " +
                         std::to_string(lane) + " write to address " +
                         std::to_string(address) + " beyond depth " +
                         std::to_string(mem_images_[write.mem][lane]->depth()));
  }

  /// A 4-state register's next value in a loading lane: an X reset, or
  /// an X enable while not resetting, loads all-X.
  ops::XBits sample_x(const RegOp& reg, std::size_t lane) const {
    const std::uint32_t width = slots_[reg.q].width;
    const ops::XBits all_x{width, 0, Bits::mask(width)};
    if (reg.rst != kNone) {
      if (get_x(reg.rst, lane) != 0) {
        return all_x;
      }
      if (get(reg.rst, lane) != 0) {
        return {width, reg.reset, 0};
      }
    }
    if (reg.en != kNone && get_x(reg.en, lane) != 0) {
      return all_x;
    }
    return get_xbits(reg.d, lane);
  }

  /// Samples one write port in 4-state mode.  An X enable or address
  /// drops the write with a finding; X data is written, with a finding.
  void sample_write_x(const WriteOp& write, std::size_t site) {
    for_each_lane(
        [&](std::size_t w) {
          return active_where(write.we, w) | unknown_where(write.we, w);
        },
        [&](std::size_t lane) {
          if (get_x(write.we, lane) != 0) {
            if (first_hit(lane, site)) {
              finding(lane, write.memory,
                      "memory write enable reads X (uninitialized value "
                      "controls whether '" + write.memory + "' is written)");
            }
            return;
          }
          ops::XBits address = get_xbits(write.addr, lane);
          if (address.has_x()) {
            if (first_hit(lane, site + 1)) {
              finding(lane, write.memory,
                      "memory write address reads X (uninitialized value "
                      "selects the word written in '" + write.memory + "')");
            }
            return;
          }
          mem::MemoryImage* image = mem_images_[write.mem][lane];
          if (address.v >= image->depth()) {
            beyond_depth(write, lane, address.v);
          }
          ops::XBits data = get_xbits(write.din, lane);
          if (data.has_x() && first_hit(lane, site + 2)) {
            finding(lane, write.memory,
                    "uninitialized (X) data written to memory '" +
                        write.memory + "'");
          }
          mem_writes_.push_back({image, lane, address.v, data.v});
          mask_writes_.push_back(
              {&(*mem_x_[write.mem][lane])[address.v], data.x});
        });
  }

  /// Snapshots one finished lane.  All lanes share the cycle counter and
  /// advanced in lockstep from cycle zero, so `cycle_` at finish time IS
  /// this lane's cycle count, and the levelized per-lane stats are exact
  /// closed forms of it.
  void finish(sim::EnginePartition& result, std::size_t lane,
              sim::Kernel::StopReason reason) {
    result.reason = reason;
    result.cycles = cycle_;
    result.stats.events = events_[lane] + word_events_[lane / 64];
    result.stats.delta_cycles = cycle_ + 1;
    result.stats.evaluations =
        (cycle_ + 1) * comb_units_ +
        cycle_ * (registers_.size() + pipelined_.size() + writes_.size());
    result.stats.timesteps = cycle_ + 1;
    result.stats.end_time = cycle_ * ops::ClockGen::kDefaultPeriod;
    for (std::size_t t = 0; t < trace_names_.size(); ++t) {
      result.finals.emplace(trace_names_[t], get(trace_index_[t], lane));
      result.traces[trace_names_[t]] = std::move(lane_traces_[lane][t]);
    }
    result.coverage =
        coverage_from_counts(config_.fsm, visits_[lane], taken_[lane]);
    active_[lane / 64] &= ~(1ull << (lane % 64));
    --active_count_;
  }

  const ir::Configuration& config_;
  const sim::EngineRunOptions& options_;
  std::size_t lanes_;
  std::size_t words_;
  std::vector<XLane*> x_lanes_;
  std::size_t x_sites_ = 0;
  std::vector<std::uint8_t> x_hits_;  ///< per lane and site: seen X
  std::string node_;
  std::uint64_t tail_mask_;
  std::map<std::string, std::size_t> wire_index_;
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> bit_vals_;
  std::vector<std::uint64_t> wide_vals_;
  std::vector<std::uint64_t> bit_x_;   ///< 4-state: unknown masks
  std::vector<std::uint64_t> wide_x_;  ///< of bit_vals_/wide_vals_
  std::map<std::string, std::size_t> image_index_;
  std::vector<std::vector<mem::MemoryImage*>> mem_images_;
  /// 4-state: per memory and lane, the image's unknown mask.
  std::vector<std::vector<std::vector<std::uint64_t>*>> mem_x_;
  std::vector<CombOp> comb_;
  std::size_t comb_units_ = 0;  ///< comb_ plus the constants
  std::vector<RegOp> registers_;
  std::vector<PipeOp> pipelined_;
  std::vector<WriteOp> writes_;
  std::vector<std::uint64_t> reg_next_;
  std::vector<std::uint64_t> reg_next_x_;  ///< 4-state: reg_next_'s masks
  std::vector<std::uint64_t> reg_load_;
  std::vector<std::size_t> scanned_;  ///< registers not gated by controls
  std::vector<std::size_t> loaded_;   ///< registers loading this edge
  std::vector<std::uint8_t> pending_;  ///< r is in loaded_
  std::vector<MemWrite> mem_writes_;
  std::vector<MaskWrite> mask_writes_;  ///< 4-state: mem_writes_'s masks
  std::vector<std::size_t> control_index_;
  std::vector<CompiledState> states_;
  std::size_t depth_ = 0;
  std::size_t done_index_;
  std::vector<std::size_t> state_;
  std::vector<std::size_t> driven_;  ///< state whose controls each lane drove
  std::vector<std::uint64_t> state_lanes_;  ///< per state, its active lanes
  std::vector<std::size_t> occupied_;       ///< states with active lanes
  std::vector<std::uint8_t> occupied_flag_;
  std::vector<std::vector<std::uint64_t>> visits_;
  std::vector<std::vector<std::vector<std::uint64_t>>> taken_;
  std::vector<std::size_t> trace_slot_;
  std::vector<std::string> trace_names_;
  std::vector<std::size_t> trace_index_;
  std::vector<std::vector<std::vector<std::uint64_t>>> lane_traces_;
  std::vector<std::uint64_t> events_;
  /// Events shared by every lane active in a packed word when they
  /// happened; a lane's count is events_ plus its word's entry.
  std::vector<std::uint64_t> word_events_;
  std::vector<std::uint64_t> active_;
  std::size_t active_count_ = 0;
  std::uint64_t cycle_ = 0;
  std::uint64_t sweeps_ = 0;
  std::uint64_t lane_sweeps_ = 0;
};

/// The RTG walk of a batch: each partition runs, in one BatchedSim, the
/// lanes that reached done in every earlier one; a lane that misses
/// done stops there (completed == false), exactly like
/// PartitionedEngine::run, and the rest carry their pools on through
/// the later partitions together.  A 4-state walk (`x` holds one XLane
/// per lane; empty for 2-state) is a check, not an engine run, so it
/// feeds no engine.* metrics.
template <bool kFourState>
std::vector<sim::EngineResult> run_lanes(
    const std::string& name, const ir::Design& design,
    const std::vector<mem::MemoryPool*>& lanes,
    const sim::EngineRunOptions& options, const std::vector<XLane*>& x) {
  ir::validate(design);
  const bool metrics = obs::enabled() && !kFourState;
  util::Stopwatch watch;
  std::vector<sim::EngineResult> results(lanes.size());
  for (sim::EngineResult& result : results) {
    result.completed = true;
    result.has_wire_data = options.collect_wire_data;
  }
  std::vector<std::size_t> live(lanes.size());
  std::iota(live.begin(), live.end(), std::size_t{0});
  std::uint64_t lane_sweeps = 0;
  std::uint64_t levels_swept = 0;
  std::uint64_t lane_cycles = 0;
  std::string node = design.rtg.initial;
  while (!node.empty() && !live.empty()) {
    std::vector<mem::MemoryPool*> pools;
    std::vector<XLane*> x_live;
    pools.reserve(live.size());
    for (std::size_t lane : live) {
      pools.push_back(lanes[lane]);
      if constexpr (kFourState) {
        x_live.push_back(x[lane]);
      }
    }
    std::vector<sim::EnginePartition> runs;
    {
      obs::ScopedSpan span(name + ":" + node, "engine");
      util::Stopwatch partition_watch;
      SharedSchedule schedule = acquire_levelized_schedule(design, node);
      BatchedSim<kFourState> simulator(design.configuration(node), pools,
                                       options, *schedule, std::move(x_live));
      runs = simulator.run(node);
      double share =
          partition_watch.seconds() / static_cast<double>(runs.size());
      for (sim::EnginePartition& run : runs) {
        run.wall_seconds = share;
      }
      lane_sweeps += simulator.lane_sweeps();
      levels_swept += simulator.levels_swept();
    }
    if (metrics) {
      obs::counter("engine.lanes").add(runs.size());
    }
    std::vector<std::size_t> next_live;
    next_live.reserve(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      std::size_t lane = live[i];
      lane_cycles += runs[i].cycles;
      if (metrics) {
        record_partition(runs[i]);
      }
      bool done = runs[i].reason == sim::Kernel::StopReason::kDoneNet;
      results[lane].partitions.push_back(std::move(runs[i]));
      if (done) {
        next_live.push_back(lane);
      } else {
        results[lane].completed = false;
      }
    }
    live = std::move(next_live);
    node = design.rtg.successor(node);
  }
  if (metrics) {
    obs::counter("engine.lane_sweeps").add(lane_sweeps);
    obs::counter("engine.levels_swept").add(levels_swept);
    double wall = watch.seconds();
    if (wall > 0.0) {
      // Lane-cycles per second: the batch's aggregate simulated cycle
      // throughput across all lanes.
      obs::gauge("engine.lanes_per_sec")
          .set(static_cast<double>(lane_cycles) / wall);
    }
  }
  return results;
}

}  // namespace

const std::string& BatchedEngine::name() const { return name_; }

sim::EnginePartition BatchedEngine::run_partition(
    const ir::Design& design, const std::string& node, mem::MemoryPool& pool,
    const sim::EngineRunOptions& options, std::size_t partition_index) {
  (void)partition_index;
  util::Stopwatch watch;
  std::vector<mem::MemoryPool*> pools{&pool};
  SharedSchedule schedule = acquire_levelized_schedule(design, node);
  BatchedSim<false> simulator(design.configuration(node), pools, options,
                              *schedule);
  std::vector<sim::EnginePartition> runs = simulator.run(node);
  sim::EnginePartition run = std::move(runs.front());
  run.wall_seconds = watch.seconds();
  if (obs::enabled()) {
    obs::counter("engine.lanes").inc();
    obs::counter("engine.lane_sweeps").add(simulator.lane_sweeps());
    obs::counter("engine.levels_swept").add(simulator.levels_swept());
  }
  return run;
}

std::vector<sim::EngineResult> BatchedEngine::run_batch(
    const ir::Design& design, const std::vector<mem::MemoryPool*>& lanes,
    const sim::EngineRunOptions& options) {
  check_batch_lanes(lanes);
  return run_lanes<false>(name(), design, lanes, options, {});
}

std::vector<FourStateLane> run_four_state_lanes(
    const ir::Design& design, const std::vector<mem::MemoryPool*>& lanes,
    const FourStateOptions& options) {
  std::vector<XLane> x(lanes.size());
  std::vector<XLane*> x_lanes;
  for (XLane& lane : x) {
    lane.max_findings = options.max_findings;
    x_lanes.push_back(&lane);
  }
  sim::EngineRunOptions run_options;
  run_options.max_cycles_per_partition = options.max_cycles_per_partition;
  std::vector<sim::EngineResult> runs =
      run_lanes<true>("four-state", design, lanes, run_options, x_lanes);
  std::vector<FourStateLane> reports;
  reports.reserve(lanes.size());
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    x[lane].report.completed = runs[lane].completed;
    x[lane].report.total_cycles = runs[lane].total_cycles();
    reports.push_back(std::move(x[lane].report));
  }
  return reports;
}

}  // namespace fti::elab
