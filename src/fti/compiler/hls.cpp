#include "fti/compiler/hls.hpp"

#include "fti/compiler/builder.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/compiler/sema.hpp"
#include "fti/util/error.hpp"

namespace fti::compiler {
namespace {

constexpr std::uint32_t kW = DatapathBuilder::kWordWidth;

std::uint64_t mask32(std::int64_t value) {
  return static_cast<std::uint64_t>(value) & sim::Bits::mask(kW);
}

class PartitionCompiler {
 public:
  PartitionCompiler(std::string node_name, const Program& program,
                    const SemaInfo& sema, const CompileOptions& options)
      : program_(program), sema_(sema), options_(options),
        dp_(node_name), fsm_(node_name + "_fsm") {}

  ir::Configuration compile(
      const std::vector<const Stmt*>& statements, ConfigStats& stats) {
    cursor_ = fsm_.add_state();
    for (const Stmt* stmt : statements) {
      compile_stmt(*stmt);
    }
    flush_run();
    std::size_t done_state = fsm_.add_state();
    seal(done_state);
    cursor_ = done_state;

    ir::Configuration config;
    config.datapath = dp_.finalize(plan_, "done");
    config.fsm = fsm_.finalize(plan_, "done", done_state);
    stats.fsm_states = config.fsm.states.size();
    stats.units = config.datapath.units.size();
    stats.operators = config.datapath.operator_count();
    stats.registers = config.datapath.count_kind(ir::UnitKind::kRegister);
    stats.muxes = config.datapath.count_kind(ir::UnitKind::kMux);
    stats.micro_ops = micro_ops_;
    return config;
  }

 private:
  // -- run bookkeeping -----------------------------------------------------

  struct RunCtx {
    std::vector<MicroOp> ops;
    std::map<std::string, std::size_t> last_write;
    std::map<std::string, std::vector<std::size_t>> readers;
    std::map<std::string, std::size_t> last_store;
    std::map<std::string, std::vector<std::size_t>> loads_since_store;
  };

  void note_operand(MicroOp& op, const ValRef& operand, std::size_t idx) {
    (void)op;
    if (operand.kind == ValRef::Kind::kReg) {
      auto write = run_.last_write.find(operand.reg);
      if (write != run_.last_write.end()) {
        run_.ops[idx].preds_delay1.push_back(write->second);
      }
      run_.readers[operand.reg].push_back(idx);
    }
  }

  std::size_t emit(MicroOp op) {
    std::size_t idx = run_.ops.size();
    run_.ops.push_back(std::move(op));
    MicroOp& placed = run_.ops[idx];
    switch (placed.kind) {
      case MicroOp::Kind::kBin:
        note_operand(placed, placed.a, idx);
        note_operand(placed, placed.b, idx);
        break;
      case MicroOp::Kind::kUn:
      case MicroOp::Kind::kCopy:
        note_operand(placed, placed.a, idx);
        break;
      case MicroOp::Kind::kLoad: {
        note_operand(placed, placed.a, idx);
        auto store = run_.last_store.find(placed.array);
        if (store != run_.last_store.end()) {
          placed.preds_delay1.push_back(store->second);
        }
        run_.loads_since_store[placed.array].push_back(idx);
        break;
      }
      case MicroOp::Kind::kStore: {
        note_operand(placed, placed.a, idx);
        note_operand(placed, placed.b, idx);
        for (std::size_t load : run_.loads_since_store[placed.array]) {
          placed.preds_delay0.push_back(load);
        }
        run_.loads_since_store[placed.array].clear();
        auto store = run_.last_store.find(placed.array);
        if (store != run_.last_store.end()) {
          placed.preds_delay1.push_back(store->second);
        }
        run_.last_store[placed.array] = idx;
        break;
      }
    }
    if (!placed.dst.empty()) {
      for (std::size_t reader : run_.readers[placed.dst]) {
        if (reader != idx) {
          placed.preds_delay0.push_back(reader);
        }
      }
      auto write = run_.last_write.find(placed.dst);
      if (write != run_.last_write.end()) {
        placed.preds_delay1.push_back(write->second);
      }
      run_.last_write[placed.dst] = idx;
      run_.readers[placed.dst].clear();
    }
    ++micro_ops_;
    return idx;
  }

  // -- expression lowering --------------------------------------------------

  ValRef emit_bin(ops::BinOp op, const ValRef& a, const ValRef& b) {
    if (a.kind == ValRef::Kind::kConst && b.kind == ValRef::Kind::kConst) {
      sim::Bits folded = ops::eval_binop(op, sim::Bits(kW, a.cval),
                                         sim::Bits(kW, b.cval), kW);
      return ValRef::of_const(folded.resized(kW).u());
    }
    MicroOp op_rec;
    op_rec.kind = MicroOp::Kind::kBin;
    op_rec.bin = op;
    op_rec.a = a;
    op_rec.b = b;
    op_rec.dst = dp_.new_temp();
    std::string dst = op_rec.dst;
    emit(std::move(op_rec));
    return ValRef::of_reg(dst);
  }

  ValRef emit_un(ops::UnOp op, const ValRef& a) {
    if (a.kind == ValRef::Kind::kConst) {
      return ValRef::of_const(
          ops::eval_unop(op, sim::Bits(kW, a.cval), kW).u());
    }
    MicroOp op_rec;
    op_rec.kind = MicroOp::Kind::kUn;
    op_rec.un = op;
    op_rec.a = a;
    op_rec.dst = dp_.new_temp();
    std::string dst = op_rec.dst;
    emit(std::move(op_rec));
    return ValRef::of_reg(dst);
  }

  ValRef lower_expr(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kIntLit:
        return ValRef::of_const(mask32(expr.value));
      case ExprKind::kVarRef: {
        if (sema_.scalar_params.count(expr.name) != 0) {
          return ValRef::of_const(mask32(scalar_arg(expr.name)));
        }
        return ValRef::of_reg(dp_.ensure_var_reg(expr.name));
      }
      case ExprKind::kArrayRef: {
        ValRef addr = lower_expr(*expr.a);
        const Param& param = sema_.arrays.at(expr.name);
        ensure_memport(param);
        MicroOp op;
        op.kind = MicroOp::Kind::kLoad;
        op.a = addr;
        op.array = expr.name;
        op.dst = dp_.new_temp();
        std::string dst = op.dst;
        emit(std::move(op));
        return ValRef::of_reg(dst);
      }
      case ExprKind::kUnary: {
        ValRef a = lower_expr(*expr.a);
        if (expr.is_lnot) {
          return emit_bin(ops::BinOp::kEq, a, ValRef::of_const(0));
        }
        return emit_un(expr.un, a);
      }
      case ExprKind::kBinary: {
        ValRef a = lower_expr(*expr.a);
        ValRef b = lower_expr(*expr.b);
        if (expr.is_land || expr.is_lor) {
          ValRef na = emit_bin(ops::BinOp::kNe, a, ValRef::of_const(0));
          ValRef nb = emit_bin(ops::BinOp::kNe, b, ValRef::of_const(0));
          return emit_bin(expr.is_land ? ops::BinOp::kAnd : ops::BinOp::kOr,
                          na, nb);
        }
        return emit_bin(expr.bin, a, b);
      }
      case ExprKind::kCall: {
        ValRef a = lower_expr(*expr.a);
        if (expr.name == "abs") {
          return emit_un(ops::UnOp::kAbs, a);
        }
        ValRef b = lower_expr(*expr.b);
        return emit_bin(
            expr.name == "min" ? ops::BinOp::kMin : ops::BinOp::kMax, a, b);
      }
    }
    FTI_ASSERT(false, "unhandled ExprKind");
  }

  void ensure_memport(const Param& param) {
    auto rom = options_.rom_contents.find(param.name);
    dp_.ensure_memport(param,
                       rom != options_.rom_contents.end()
                           ? rom->second
                           : std::vector<std::uint64_t>{},
                       options_.resources.read_ports_for(param.name));
  }

  std::int64_t scalar_arg(const std::string& name) const {
    auto it = options_.scalar_args.find(name);
    if (it == options_.scalar_args.end()) {
      throw util::CompileError("scalar parameter '" + name +
                               "' has no bound value");
    }
    return it->second;
  }

  /// Lowers `expr` so the result lands directly in register `dst_reg`,
  /// avoiding the copy for op-rooted right-hand sides.
  void lower_into(const Expr& expr, const std::string& dst_reg) {
    ValRef value = lower_expr(expr);
    if (value.kind == ValRef::Kind::kReg && !run_.ops.empty()) {
      MicroOp& last = run_.ops.back();
      // Retarget the op that produced this fresh temp (it is necessarily
      // the most recent op and the temp has no other reader yet).
      if (!last.dst.empty() && last.dst == value.reg &&
          last.dst.rfind("t", 0) == 0) {
        std::size_t idx = run_.ops.size() - 1;
        // Move dependence bookkeeping from the temp to the variable.
        for (std::size_t reader : run_.readers[dst_reg]) {
          if (reader != idx) {
            last.preds_delay0.push_back(reader);
          }
        }
        auto write = run_.last_write.find(dst_reg);
        if (write != run_.last_write.end() && write->second != idx) {
          last.preds_delay1.push_back(write->second);
        }
        run_.last_write.erase(last.dst);
        run_.readers.erase(last.dst);
        last.dst = dst_reg;
        run_.last_write[dst_reg] = idx;
        run_.readers[dst_reg].clear();
        return;
      }
    }
    MicroOp copy;
    copy.kind = MicroOp::Kind::kCopy;
    copy.a = value;
    copy.dst = dst_reg;
    emit(std::move(copy));
  }

  // -- state machine assembly ----------------------------------------------

  void seal(std::size_t target) {
    fsm_.add_transition(cursor_, ir::Guard{}, target);
  }

  Source source_of(const ValRef& value) {
    return value.kind == ValRef::Kind::kConst
               ? Source::of_const(value.cval)
               : Source::of_wire(dp_.reg_q_wire(value.reg));
  }

  void flush_run() {
    if (run_.ops.empty()) {
      return;
    }
    ScheduleResult sched = schedule(run_.ops, options_.resources);
    // States cover every start step plus the drain of in-flight
    // multi-cycle results (writeback_count >= step_count).
    std::vector<std::size_t> step_state(sched.writeback_count);
    for (std::size_t i = 0; i < sched.writeback_count; ++i) {
      std::size_t state = fsm_.add_state();
      seal(state);
      cursor_ = state;
      step_state[i] = state;
    }
    for (std::size_t i = 0; i < run_.ops.size(); ++i) {
      const MicroOp& op = run_.ops[i];
      std::size_t state = step_state[sched.ops[i].step];
      switch (op.kind) {
        case MicroOp::Kind::kBin: {
          std::uint32_t latency =
              options_.resources.latency_for(fu_class_of(op));
          FuHandle fu = dp_.ensure_binop_fu(op.bin, sched.ops[i].fu_index,
                                            latency);
          // Operand muxes steer during the start step (the pipeline
          // samples at its closing edge); the result registers `latency`
          // steps later.
          dp_.add_fu_input(fu, "a", state, source_of(op.a));
          dp_.add_fu_input(fu, "b", state, source_of(op.b));
          dp_.add_reg_write(op.dst,
                            step_state[sched.ops[i].step + latency],
                            Source::of_wire(fu.out_wire));
          break;
        }
        case MicroOp::Kind::kUn: {
          FuHandle fu = dp_.ensure_unop_fu(op.un, sched.ops[i].fu_index);
          dp_.add_fu_input(fu, "a", state, source_of(op.a));
          dp_.add_reg_write(op.dst, state, Source::of_wire(fu.out_wire));
          break;
        }
        case MicroOp::Kind::kLoad: {
          std::size_t port = sched.ops[i].fu_index;
          dp_.add_mem_read(op.array, state, source_of(op.a), port);
          dp_.add_reg_write(
              op.dst, state,
              Source::of_wire(dp_.mem_value_wire(op.array, port)));
          break;
        }
        case MicroOp::Kind::kStore:
          dp_.add_mem_write(op.array, state, source_of(op.a),
                            source_of(op.b));
          break;
        case MicroOp::Kind::kCopy:
          dp_.add_reg_write(op.dst, state, source_of(op.a));
          break;
      }
    }
    run_ = RunCtx{};
  }

  bool is_simple(const Expr& expr) const {
    return expr.kind == ExprKind::kIntLit ||
           (expr.kind == ExprKind::kVarRef);
  }

  Source simple_source(const Expr& expr) {
    if (expr.kind == ExprKind::kIntLit) {
      return Source::of_const(mask32(expr.value));
    }
    FTI_ASSERT(expr.kind == ExprKind::kVarRef, "not a simple expression");
    if (sema_.scalar_params.count(expr.name) != 0) {
      return Source::of_const(mask32(scalar_arg(expr.name)));
    }
    return Source::of_wire(dp_.reg_q_wire(dp_.ensure_var_reg(expr.name)));
  }

  /// Produces the guard for `cond`.  May append micro-ops to the pending
  /// run (the caller flushes before using the guard in a branch state).
  ir::Guard make_guard(const Expr& cond) {
    // Fast path: comparison of simple operands -> dedicated comparator.
    if (cond.kind == ExprKind::kBinary && !cond.is_land && !cond.is_lor &&
        ops::is_comparison(cond.bin) && is_simple(*cond.a) &&
        is_simple(*cond.b)) {
      std::string status = dp_.add_status_compare(
          cond.bin, simple_source(*cond.a), simple_source(*cond.b));
      ir::Guard guard;
      guard.literals.push_back({status, true});
      return guard;
    }
    // Negation of the fast path.
    if (cond.kind == ExprKind::kUnary && cond.is_lnot) {
      ir::Guard inner = make_guard(*cond.a);
      if (inner.literals.size() == 1) {
        inner.literals[0].expected = !inner.literals[0].expected;
        return inner;
      }
      // Fall through is impossible: make_guard always returns 1 literal.
    }
    if (is_simple(cond)) {
      std::string status = dp_.add_status_compare(
          ops::BinOp::kNe, simple_source(cond), Source::of_const(0));
      ir::Guard guard;
      guard.literals.push_back({status, true});
      return guard;
    }
    // General path: evaluate the condition as data into a temp register,
    // then test it against zero.
    ValRef value = lower_expr(cond);
    std::string status = dp_.add_status_compare(
        ops::BinOp::kNe, source_of(value), Source::of_const(0));
    ir::Guard guard;
    guard.literals.push_back({status, true});
    return guard;
  }

  void compile_stmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kDecl:
        dp_.ensure_var_reg(stmt.name);
        if (stmt.value != nullptr) {
          lower_into(*stmt.value, dp_.ensure_var_reg(stmt.name));
        }
        break;
      case StmtKind::kAssign:
        if (stmt.target_is_array) {
          ValRef addr = lower_expr(*stmt.index);
          ValRef value = lower_expr(*stmt.value);
          const Param& param = sema_.arrays.at(stmt.name);
          ensure_memport(param);
          MicroOp op;
          op.kind = MicroOp::Kind::kStore;
          op.a = addr;
          op.b = value;
          op.array = stmt.name;
          emit(std::move(op));
        } else {
          lower_into(*stmt.value, dp_.ensure_var_reg(stmt.name));
        }
        break;
      case StmtKind::kIf: {
        ir::Guard guard = make_guard(*stmt.cond);
        flush_run();
        std::size_t branch = fsm_.add_state();
        seal(branch);
        std::size_t then_entry = fsm_.add_state();
        std::size_t join = fsm_.add_state();
        bool has_else = !stmt.else_body.empty();
        std::size_t else_entry = has_else ? fsm_.add_state() : join;
        fsm_.add_transition(branch, guard, then_entry);
        fsm_.add_transition(branch, ir::Guard{}, else_entry);
        cursor_ = then_entry;
        for (const auto& child : stmt.body) {
          compile_stmt(*child);
        }
        flush_run();
        seal(join);
        if (has_else) {
          cursor_ = else_entry;
          for (const auto& child : stmt.else_body) {
            compile_stmt(*child);
          }
          flush_run();
          seal(join);
        }
        cursor_ = join;
        break;
      }
      case StmtKind::kFor: {
        if (stmt.init != nullptr) {
          compile_stmt(*stmt.init);
        }
        flush_run();
        std::size_t head = fsm_.add_state();
        seal(head);
        cursor_ = head;
        ir::Guard guard = make_guard(*stmt.cond);
        flush_run();
        std::size_t branch = fsm_.add_state();
        seal(branch);
        std::size_t body_entry = fsm_.add_state();
        std::size_t exit = fsm_.add_state();
        fsm_.add_transition(branch, guard, body_entry);
        fsm_.add_transition(branch, ir::Guard{}, exit);
        cursor_ = body_entry;
        for (const auto& child : stmt.body) {
          compile_stmt(*child);
        }
        if (stmt.step != nullptr) {
          compile_stmt(*stmt.step);
        }
        flush_run();
        seal(head);
        cursor_ = exit;
        break;
      }
      case StmtKind::kWhile: {
        flush_run();
        std::size_t head = fsm_.add_state();
        seal(head);
        cursor_ = head;
        ir::Guard guard = make_guard(*stmt.cond);
        flush_run();
        std::size_t branch = fsm_.add_state();
        seal(branch);
        std::size_t body_entry = fsm_.add_state();
        std::size_t exit = fsm_.add_state();
        fsm_.add_transition(branch, guard, body_entry);
        fsm_.add_transition(branch, ir::Guard{}, exit);
        cursor_ = body_entry;
        for (const auto& child : stmt.body) {
          compile_stmt(*child);
        }
        flush_run();
        seal(head);
        cursor_ = exit;
        break;
      }
      case StmtKind::kBlock:
        for (const auto& child : stmt.body) {
          compile_stmt(*child);
        }
        break;
      case StmtKind::kStage:
        FTI_ASSERT(false, "stage statement inside a partition");
    }
  }

  const Program& program_;
  const SemaInfo& sema_;
  const CompileOptions& options_;
  DatapathBuilder dp_;
  FsmBuilder fsm_;
  ControlPlan plan_;
  RunCtx run_;
  std::size_t cursor_ = 0;
  std::size_t micro_ops_ = 0;
};

}  // namespace

CompileResult compile_program(const Program& program,
                              const CompileOptions& options) {
  SemaInfo sema = check_program(program);
  for (const std::string& scalar : sema.scalar_params) {
    if (options.scalar_args.find(scalar) == options.scalar_args.end()) {
      throw util::CompileError("scalar parameter '" + scalar +
                               "' has no bound value");
    }
  }
  for (const auto& [array, values] : options.rom_contents) {
    auto it = sema.arrays.find(array);
    if (it == sema.arrays.end()) {
      throw util::CompileError("rom contents given for '" + array +
                               "' which is not an array parameter");
    }
    if (values.size() > it->second.array_size) {
      throw util::CompileError("rom contents for '" + array + "' have " +
                               std::to_string(values.size()) +
                               " words but the array holds " +
                               std::to_string(it->second.array_size));
    }
  }

  // Split at stage boundaries.
  std::vector<std::vector<const Stmt*>> partitions(1);
  for (const auto& stmt : program.body) {
    if (stmt->kind == StmtKind::kStage) {
      partitions.emplace_back();
    } else {
      partitions.back().push_back(stmt.get());
    }
  }

  CompileResult result;
  result.design.name =
      options.design_name.empty() ? program.name : options.design_name;
  result.design.rtg.name = result.design.name + "_rtg";
  bool multi = partitions.size() > 1;
  std::string previous;
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    std::string node =
        multi ? result.design.name + "_p" + std::to_string(i)
              : result.design.name;
    ConfigStats stats;
    stats.node = node;
    PartitionCompiler compiler(node, program, sema, options);
    ir::Configuration config = compiler.compile(partitions[i], stats);
    result.design.rtg.nodes.push_back(node);
    result.design.configurations.emplace(node, std::move(config));
    result.stats.push_back(stats);
    if (!previous.empty()) {
      result.design.rtg.edges.push_back({previous, node});
    }
    previous = node;
  }
  result.design.rtg.initial = result.design.rtg.nodes.front();
  return result;
}

CompileResult compile_source(std::string_view source,
                             const CompileOptions& options) {
  Program program = parse_program(source);
  return compile_program(program, options);
}

}  // namespace fti::compiler
