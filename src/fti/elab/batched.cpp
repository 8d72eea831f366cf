#include "fti/elab/batched.hpp"

#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <numeric>
#include <utility>

#include "fti/elab/levelized.hpp"
#include "fti/ir/comb_graph.hpp"
#include "fti/mem/storage.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/obs/trace.hpp"
#include "fti/ops/alu.hpp"
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

/// The levelized straight-line sweep widened to N lockstep stimulus
/// lanes.  Wire storage is SoA: a 1-bit wire owns ceil(N/64) packed
/// words (lane k lives in bit k%64 of word k/64), a wider wire owns N
/// words (lane k at offset+k).  Each combinational op is classified at
/// compile time: 1-bit AND/OR/XOR/NOT/copy/const and 2-way 1-bit muxes
/// run word-parallel over the packed lane words; multi-bit ops whose
/// operands all live in unpacked storage run as tight all-lane loops
/// over the contiguous lane words with the operator dispatch hoisted
/// outside the loop (kWide*); only mixed packed/unpacked operand sets
/// fall back to the per-lane Bits path through ops::eval_*.  Both paths
/// compute with the operator functions of ops/semantics.hpp, the single
/// definition of the corner cases, so every lane's arithmetic stays
/// bit-identical to a single-lane levelized run.
///
/// Invariant: in the last packed word, the padding bits above lane N-1
/// stay zero -- word ops that could set them (NOT, const-1 broadcast,
/// register reset fills) mask with `word_mask`, and the AND/OR/XOR/MUX
/// forms preserve zero padding algebraically.
class BatchedSim {
 public:
  /// `schedule` must have been built from this exact `config` object
  /// (see acquire_levelized_schedule); it is consumed during
  /// construction only.
  BatchedSim(const ir::Configuration& config,
             const std::vector<mem::MemoryPool*>& pools,
             const sim::EngineRunOptions& options,
             const LevelizedSchedule& schedule)
      : config_(config),
        options_(options),
        lanes_(pools.size()),
        words_((pools.size() + 63) / 64) {
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

    // One image per (memory, lane); creation and init-if-fresh follow the
    // single-lane engines so a pre-primed pool is that lane's stimulus.
    for (const ir::MemoryDecl& memory : datapath.memories) {
      std::vector<mem::MemoryImage*> images(lanes_);
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
      }
      image_index_.emplace(memory.name, mem_images_.size());
      mem_images_.push_back(std::move(images));
    }

    depth_ = schedule.depth;
    for (const LevelizedSchedule::Step& step : schedule.steps) {
      const ir::Unit& unit = *step.unit;
      CombOp op;
      op.kind = unit.kind;
      op.out = index_of(comb_output(unit));
      op.width = slots_[op.out].width;
      op.binop = unit.binop;
      op.unop = unit.unop;
      op.value = unit.value;
      op.mux_inputs = unit.mux_inputs;
      for (const std::string& wire : ir::comb_input_wires(unit)) {
        op.ins.push_back(index_of(wire));
      }
      if (unit.kind == ir::UnitKind::kMemPort) {
        op.mem = image_index_.at(unit.memory);
      }
      op.exec = classify(op);
      comb_.push_back(std::move(op));
    }

    for (const ir::Unit& unit : datapath.units) {
      if (unit.kind == ir::UnitKind::kRegister) {
        RegOp reg;
        reg.q = index_of(unit.port("q"));
        reg.d = index_of(unit.port("d"));
        reg.en = unit.has_port("en") ? index_of(unit.port("en")) : kNone;
        reg.rst = unit.has_port("rst") ? index_of(unit.port("rst")) : kNone;
        reg.width = slots_[reg.q].width;
        reg.reset = unit.reset_value & Bits::mask(reg.width);
        reg.word = slots_[reg.q].packed && slots_[reg.d].packed &&
                   (reg.en == kNone || slots_[reg.en].packed) &&
                   (reg.rst == kNone || slots_[reg.rst].packed);
        registers_.push_back(std::move(reg));
      } else if (unit.kind == ir::UnitKind::kBinOp && unit.latency > 0) {
        PipeOp pipe;
        pipe.out = index_of(unit.port("out"));
        pipe.a = index_of(unit.port("a"));
        pipe.b = index_of(unit.port("b"));
        pipe.binop = unit.binop;
        pipe.width = slots_[pipe.out].width;
        pipe.stages.assign(unit.latency - 1,
                           std::vector<std::uint64_t>(lanes_, 0));
        pipelined_.push_back(std::move(pipe));
      } else if (unit.kind == ir::UnitKind::kMemPort &&
                 unit.mem_mode != ir::MemMode::kRead) {
        WriteOp write;
        write.addr = index_of(unit.port("addr"));
        write.din = index_of(unit.port("din"));
        write.we = index_of(unit.port("we"));
        write.mem = image_index_.at(unit.memory);
        write.name = unit.name;
        writes_.push_back(std::move(write));
      }
    }

    // Scratch for the two-phase edge: every register's sampled next value
    // (one packed word run for word registers, one slot per lane
    // otherwise), laid out once so clock_edge never allocates for them.
    std::size_t scratch = 0;
    for (const RegOp& reg : registers_) {
      reg_scratch_offset_.push_back(scratch);
      scratch += reg.word ? words_ : lanes_;
    }
    reg_scratch_.assign(scratch, 0);

    for (const std::string& control : datapath.control_wires) {
      control_index_.push_back(index_of(control));
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
        compiled.controls.push_back(
            value & Bits::mask(slots_[index_of(control)].width));
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
      for (const std::string& wire : traced_wires(datapath)) {
        trace_slot_[index_of(wire)] = trace_names_.size();
        trace_names_.push_back(wire);
        trace_index_.push_back(index_of(wire));
      }
    }
    lane_traces_.assign(
        lanes_, std::vector<std::vector<std::uint64_t>>(trace_names_.size()));
    events_.assign(lanes_, 0);
    active_.assign(words_, ~0ull);
    active_.back() &= tail_mask_;
    active_count_ = lanes_;
  }

  std::size_t depth() const { return depth_; }
  /// Sum over sweeps of the number of lanes still active in each -- the
  /// unit the obs `engine.lane_sweeps` counter aggregates.
  std::uint64_t lane_sweeps() const { return lane_sweeps_; }

  std::vector<sim::EnginePartition> run(const std::string& node) {
    std::vector<sim::EnginePartition> results(lanes_);
    for (sim::EnginePartition& result : results) {
      result.node = node;
    }
    // Power-up: every lane's registers load their reset value.
    for (const RegOp& reg : registers_) {
      for (std::size_t lane = 0; lane < lanes_; ++lane) {
        commit(reg.q, lane, reg.reset);
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
      // single-lane engines break the tie the same way).
      for_each_active([&](std::size_t lane) {
        if (get(done_index_, lane) != 0) {
          finish(results[lane], lane, sim::Kernel::StopReason::kDoneNet);
        }
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
    kWordConst,  ///< 1-bit constant broadcast
    kWordMux,    ///< 2-way mux, 1-bit select and data
    kWideBin,    ///< multi-bit binop, unpacked in/out, dispatch hoisted
    kWideCmp,    ///< comparison of unpacked operands into a packed out
    kWideUn,     ///< multi-bit unop, unpacked in/out
    kWideConst,  ///< multi-bit constant broadcast
    kWideMux,    ///< mux with unpacked data inputs and output
    kWideMem,    ///< memory read port with an unpacked output
    kLaneLoop,   ///< per-lane Bits evaluation via ops::eval_*
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
    std::uint64_t value;
    std::uint32_t mux_inputs;
    std::vector<std::size_t> ins;
    std::size_t mem = kNone;
  };
  struct RegOp {
    std::size_t q;
    std::size_t d;
    std::size_t en;
    std::size_t rst;
    std::uint32_t width;
    std::uint64_t reset;
    bool word;
  };
  struct PipeOp {
    std::size_t out;
    std::size_t a;
    std::size_t b;
    ops::BinOp binop;
    std::uint32_t width;
    std::deque<std::vector<std::uint64_t>> stages;
  };
  struct WriteOp {
    std::size_t addr;
    std::size_t din;
    std::size_t we;
    std::size_t mem;
    std::string name;
  };
  struct CompiledTransition {
    std::vector<std::pair<std::size_t, bool>> literals;
    std::size_t target;
  };
  struct CompiledState {
    std::vector<std::uint64_t> controls;
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
      case ir::UnitKind::kConst:
        return op.width == 1 ? Exec::kWordConst : Exec::kWideConst;
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
      while (changed != 0) {
        std::size_t bit = static_cast<std::size_t>(std::countr_zero(changed));
        changed &= changed - 1;
        std::size_t lane = w * 64 + bit;
        ++events_[lane];
        if (trace != kNone) {
          lane_traces_[lane][trace].push_back((next[w] >> bit) & 1u);
        }
      }
    }
  }

  template <typename Fn>
  void for_each_active(Fn&& fn) {
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t word = active_[w];
      while (word != 0) {
        std::size_t bit = static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        fn(w * 64 + bit);
      }
    }
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

  /// Moore outputs of each lane's current state; lanes differ once their
  /// FSMs diverge, so controls drive per lane.
  void drive_controls() {
    for_each_active([&](std::size_t lane) {
      const CompiledState& state = states_[state_[lane]];
      for (std::size_t c = 0; c < control_index_.size(); ++c) {
        commit(control_index_[c], lane, state.controls[c]);
      }
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
      case ir::UnitKind::kConst:
        put_raw(op.out, lane, op.value);
        break;
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
      case ir::UnitKind::kRegister:
        break;
    }
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
        case Exec::kWordConst: {
          std::uint64_t* out = word_ptr(op.out);
          for (std::size_t w = 0; w < words_; ++w) {
            out[w] = (op.value & 1u) != 0 ? word_mask(w) : 0;
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
        case Exec::kWideConst: {
          std::uint64_t* out = wide_ptr(op.out);
          const std::uint64_t value = op.value & Bits::mask(op.width);
          for (std::size_t lane = 0; lane < lanes_; ++lane) {
            out[lane] = value;
          }
          break;
        }
        case Exec::kWideMux:
          wide_mux(op);
          break;
        case Exec::kWideMem:
          wide_mem(op);
          break;
        case Exec::kLaneLoop:
          for_each_active([&](std::size_t lane) { eval_lane(op, lane); });
          break;
      }
    }
  }

  /// Two-phase edge mirroring the single-lane engines: sample registers,
  /// pipeline stages and memory writes against settled pre-edge values
  /// (out-of-range writes throw here, before any commit), step each
  /// lane's FSM on pre-edge statuses, then commit.  Only active lanes
  /// commit -- a finished lane's registers, memories and FSM freeze.
  void clock_edge(std::vector<std::vector<std::uint64_t>>& pipe_commits) {
    for (std::size_t r = 0; r < registers_.size(); ++r) {
      const RegOp& reg = registers_[r];
      std::uint64_t* next = reg_scratch_.data() + reg_scratch_offset_[r];
      if (reg.word) {
        const std::uint64_t* q = word_ptr(reg.q);
        const std::uint64_t* d = word_ptr(reg.d);
        std::uint64_t reset_fill = (reg.reset & 1u) != 0 ? ~0ull : 0;
        for (std::size_t w = 0; w < words_; ++w) {
          std::uint64_t en =
              reg.en == kNone ? ~0ull : word_ptr(reg.en)[w];
          std::uint64_t rst = reg.rst == kNone ? 0 : word_ptr(reg.rst)[w];
          std::uint64_t loaded = (en & d[w]) | (~en & q[w]);
          std::uint64_t value =
              (rst & reset_fill & word_mask(w)) | (~rst & loaded);
          next[w] = (active_[w] & value) | (~active_[w] & q[w]);
        }
      } else {
        for_each_active([&](std::size_t lane) {
          std::uint64_t value;
          if (reg.rst != kNone && get(reg.rst, lane) != 0) {
            value = reg.reset;
          } else if (reg.en != kNone && get(reg.en, lane) == 0) {
            value = get(reg.q, lane);
          } else {
            value = get(reg.d, lane);
          }
          next[lane] = value;
        });
      }
    }
    pipe_commits.clear();
    for (PipeOp& pipe : pipelined_) {
      std::vector<std::uint64_t> entry(lanes_, 0);
      for_each_active([&](std::size_t lane) {
        Bits a(slots_[pipe.a].width, get(pipe.a, lane));
        Bits b(slots_[pipe.b].width, get(pipe.b, lane));
        entry[lane] = ops::eval_binop(pipe.binop, a, b, pipe.width).u();
      });
      pipe.stages.push_back(std::move(entry));
      pipe_commits.push_back(std::move(pipe.stages.front()));
      pipe.stages.pop_front();
    }
    struct MemWrite {
      std::size_t mem;
      std::size_t lane;
      std::uint64_t address;
      std::uint64_t data;
    };
    std::vector<MemWrite> mem_writes;
    for (const WriteOp& write : writes_) {
      for_each_active([&](std::size_t lane) {
        if (get(write.we, lane) == 0) {
          return;
        }
        std::uint64_t address = get(write.addr, lane);
        mem::MemoryImage* image = mem_images_[write.mem][lane];
        if (address >= image->depth()) {
          throw util::SimError(
              "batched: sram '" + write.name + "' lane " +
              std::to_string(lane) + " write to address " +
              std::to_string(address) + " beyond depth " +
              std::to_string(image->depth()));
        }
        mem_writes.push_back({write.mem, lane, address,
                              get(write.din, lane)});
      });
    }
    for_each_active([&](std::size_t lane) {
      const CompiledState& current = states_[state_[lane]];
      for (std::size_t t = 0; t < current.transitions.size(); ++t) {
        const CompiledTransition& transition = current.transitions[t];
        bool taken = true;
        for (const auto& [status, expected] : transition.literals) {
          if ((get(status, lane) == 0) == expected) {
            taken = false;
            break;
          }
        }
        if (taken) {
          ++taken_[lane][state_[lane]][t];
          state_[lane] = transition.target;
          ++visits_[lane][state_[lane]];
          break;
        }
      }
    });
    for (std::size_t r = 0; r < registers_.size(); ++r) {
      const RegOp& reg = registers_[r];
      const std::uint64_t* next = reg_scratch_.data() + reg_scratch_offset_[r];
      if (reg.word) {
        commit_packed(reg.q, next);
      } else {
        for_each_active(
            [&](std::size_t lane) { commit(reg.q, lane, next[lane]); });
      }
    }
    for (std::size_t p = 0; p < pipelined_.size(); ++p) {
      const std::vector<std::uint64_t>& front = pipe_commits[p];
      for_each_active([&](std::size_t lane) {
        commit(pipelined_[p].out, lane, front[lane]);
      });
    }
    for (const MemWrite& write : mem_writes) {
      mem_images_[write.mem][write.lane]->write(write.address, write.data);
      ++events_[write.lane];
    }
  }

  void clock_edge() {
    std::vector<std::vector<std::uint64_t>> pipe_commits;
    clock_edge(pipe_commits);
  }

  /// Snapshots one finished lane.  All lanes share the cycle counter and
  /// advanced in lockstep from cycle zero, so `cycle_` at finish time IS
  /// this lane's cycle count, and the levelized per-lane stats are exact
  /// closed forms of it.
  void finish(sim::EnginePartition& result, std::size_t lane,
              sim::Kernel::StopReason reason) {
    result.reason = reason;
    result.cycles = cycle_;
    result.stats.events = events_[lane];
    result.stats.delta_cycles = cycle_ + 1;
    result.stats.evaluations =
        (cycle_ + 1) * comb_.size() +
        cycle_ * (registers_.size() + pipelined_.size() + writes_.size());
    result.stats.timesteps = cycle_ + 1;
    result.stats.end_time = cycle_ * options_.clock_period;
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
  std::uint64_t tail_mask_;
  std::map<std::string, std::size_t> wire_index_;
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> bit_vals_;
  std::vector<std::uint64_t> wide_vals_;
  std::map<std::string, std::size_t> image_index_;
  std::vector<std::vector<mem::MemoryImage*>> mem_images_;
  std::vector<CombOp> comb_;
  std::vector<RegOp> registers_;
  std::vector<PipeOp> pipelined_;
  std::vector<WriteOp> writes_;
  std::vector<std::uint64_t> reg_scratch_;
  std::vector<std::size_t> reg_scratch_offset_;
  std::vector<std::size_t> control_index_;
  std::vector<CompiledState> states_;
  std::size_t depth_ = 0;
  std::size_t done_index_;
  std::vector<std::size_t> state_;
  std::vector<std::vector<std::uint64_t>> visits_;
  std::vector<std::vector<std::vector<std::uint64_t>>> taken_;
  std::vector<std::size_t> trace_slot_;
  std::vector<std::string> trace_names_;
  std::vector<std::size_t> trace_index_;
  std::vector<std::vector<std::vector<std::uint64_t>>> lane_traces_;
  std::vector<std::uint64_t> events_;
  std::vector<std::uint64_t> active_;
  std::size_t active_count_ = 0;
  std::uint64_t cycle_ = 0;
  std::uint64_t sweeps_ = 0;
  std::uint64_t lane_sweeps_ = 0;
};

}  // namespace

const std::string& BatchedEngine::name() const {
  static const std::string kName = "batched";
  return kName;
}

sim::EnginePartition BatchedEngine::run_partition(
    const ir::Design& design, const std::string& node, mem::MemoryPool& pool,
    const sim::EngineRunOptions& options, std::size_t partition_index) {
  (void)partition_index;
  util::Stopwatch watch;
  std::vector<mem::MemoryPool*> pools{&pool};
  SharedSchedule schedule = acquire_levelized_schedule(design, node);
  BatchedSim simulator(design.configuration(node), pools, options, *schedule);
  std::vector<sim::EnginePartition> runs = simulator.run(node);
  sim::EnginePartition run = std::move(runs.front());
  run.wall_seconds = watch.seconds();
  if (obs::enabled()) {
    obs::counter("engine.lanes").inc();
    obs::counter("engine.lane_sweeps").add(simulator.lane_sweeps());
  }
  return run;
}

std::vector<sim::EngineResult> BatchedEngine::run_batch(
    const ir::Design& design, const std::vector<mem::MemoryPool*>& lanes,
    const sim::EngineRunOptions& options) {
  check_batch_lanes(lanes);
  ir::validate(design);
  util::Stopwatch watch;
  std::vector<sim::EngineResult> results(lanes.size());
  for (sim::EngineResult& result : results) {
    result.completed = true;
    result.has_wire_data = options.collect_wire_data;
  }
  // Lanes that miss a partition's done signal stop there (completed ==
  // false), exactly like PartitionedEngine::run; the rest carry their
  // pools on through the later partitions together.
  std::vector<std::size_t> live(lanes.size());
  std::iota(live.begin(), live.end(), std::size_t{0});
  std::uint64_t lane_sweeps = 0;
  std::uint64_t lane_cycles = 0;
  std::string node = design.rtg.initial;
  while (!node.empty() && !live.empty()) {
    std::vector<mem::MemoryPool*> pools;
    pools.reserve(live.size());
    for (std::size_t lane : live) {
      pools.push_back(lanes[lane]);
    }
    std::vector<sim::EnginePartition> runs;
    {
      obs::ScopedSpan span(name() + ":" + node, "engine");
      util::Stopwatch partition_watch;
      SharedSchedule schedule = acquire_levelized_schedule(design, node);
      BatchedSim simulator(design.configuration(node), pools, options,
                           *schedule);
      runs = simulator.run(node);
      double share =
          partition_watch.seconds() / static_cast<double>(runs.size());
      for (sim::EnginePartition& run : runs) {
        run.wall_seconds = share;
      }
      lane_sweeps += simulator.lane_sweeps();
    }
    if (obs::enabled()) {
      obs::counter("engine.lanes").add(runs.size());
    }
    std::vector<std::size_t> next_live;
    next_live.reserve(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      std::size_t lane = live[i];
      lane_cycles += runs[i].cycles;
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
  if (obs::enabled()) {
    obs::counter("engine.lane_sweeps").add(lane_sweeps);
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

}  // namespace fti::elab
