#include "fti/compiler/interp.hpp"

#include <unordered_map>

#include "fti/util/error.hpp"

namespace fti::compiler {
namespace {

constexpr std::uint32_t kWordWidth = 32;

std::uint64_t word(std::int64_t value) {
  return sim::Bits(kWordWidth, static_cast<std::uint64_t>(value)).u();
}

}  // namespace

/// Builds the nodes of one GoldenProgram from the AST.
class GoldenProgram::Lowering {
 public:
  Lowering(GoldenProgram& out, const SemaInfo& sema,
           const InterpOptions& options)
      : out_(out) {
    for (const auto& [name, param] : sema.arrays) {
      array_of_.emplace(name, static_cast<std::uint32_t>(out_.arrays_.size()));
      out_.arrays_.push_back(Array{name, param.array_size,
                                   width_of(param.type),
                                   is_signed(param.type)});
    }
    for (const std::string& name : sema.scalar_params) {
      auto it = options.scalar_args.find(name);
      if (it == options.scalar_args.end()) {
        throw util::CompileError("scalar parameter '" + name +
                                 "' has no bound value");
      }
      add_slot(name, word(it->second));
    }
    // Sema forbids redeclaring a local, so one slot per name keeps the
    // kernel language's flat scoping.
    for (const std::string& name : sema.locals) {
      add_slot(name, 0);
    }
  }

  std::uint32_t expr(const Expr& expr) {
    ExprNode node;
    node.line = expr.line;
    switch (expr.kind) {
      case ExprKind::kIntLit:
        node.value = word(expr.value);
        break;
      case ExprKind::kVarRef:
        node.op = ExprOp::kVar;
        node.value = slot_of_.at(expr.name);
        break;
      case ExprKind::kArrayRef:
        node.op = ExprOp::kLoad;
        node.value = array_of_.at(expr.name);
        node.a = this->expr(*expr.a);
        break;
      case ExprKind::kUnary:
        node.op = expr.is_lnot ? ExprOp::kLogicalNot : ExprOp::kUnary;
        node.un = expr.un;
        node.a = this->expr(*expr.a);
        break;
      case ExprKind::kBinary:
        node.op = expr.is_land  ? ExprOp::kLogicalAnd
                  : expr.is_lor ? ExprOp::kLogicalOr
                                : ExprOp::kBinary;
        node.bin = expr.bin;
        node.a = this->expr(*expr.a);
        node.b = this->expr(*expr.b);
        break;
      case ExprKind::kCall:
        node.a = this->expr(*expr.a);
        if (expr.name == "abs") {
          node.op = ExprOp::kUnary;
          node.un = ops::UnOp::kAbs;
        } else {
          node.op = ExprOp::kBinary;
          node.bin = expr.name == "min" ? ops::BinOp::kMin : ops::BinOp::kMax;
          node.b = this->expr(*expr.b);
        }
        break;
    }
    out_.exprs_.push_back(node);
    return static_cast<std::uint32_t>(out_.exprs_.size() - 1);
  }

  /// Reserves a contiguous run of statement nodes for `body`, so a range
  /// of stmts_ names a whole statement list.
  Range body(const std::vector<std::unique_ptr<Stmt>>& body) {
    Range range;
    range.begin = static_cast<std::uint32_t>(out_.stmts_.size());
    range.end = range.begin + static_cast<std::uint32_t>(body.size());
    out_.stmts_.resize(range.end);
    for (std::size_t i = 0; i < body.size(); ++i) {
      StmtNode node = stmt(*body[i]);  // may grow stmts_
      out_.stmts_[range.begin + i] = node;
    }
    return range;
  }

 private:
  void add_slot(const std::string& name, std::uint64_t value) {
    slot_of_.emplace(name, static_cast<std::uint32_t>(out_.initial_.size()));
    out_.initial_.push_back(value);
  }

  Range optional(const Stmt* stmt) {
    Range range;
    range.begin = range.end = static_cast<std::uint32_t>(out_.stmts_.size());
    if (stmt != nullptr) {
      out_.stmts_.emplace_back();
      StmtNode node = this->stmt(*stmt);
      out_.stmts_[range.begin] = node;
      range.end = range.begin + 1;
    }
    return range;
  }

  StmtNode stmt(const Stmt& stmt) {
    StmtNode node;
    node.line = stmt.line;
    switch (stmt.kind) {
      case StmtKind::kDecl:
        node.op = StmtOp::kSet;
        node.target = slot_of_.at(stmt.name);
        node.value = stmt.value != nullptr ? expr(*stmt.value)
                                           : expr(*make_int(0, stmt.line));
        break;
      case StmtKind::kAssign:
        node.value = expr(*stmt.value);
        if (stmt.target_is_array) {
          node.op = StmtOp::kStore;
          node.target = array_of_.at(stmt.name);
          node.index = expr(*stmt.index);
        } else {
          node.op = StmtOp::kSet;
          node.target = slot_of_.at(stmt.name);
        }
        break;
      case StmtKind::kIf:
        node.op = StmtOp::kIf;
        node.index = expr(*stmt.cond);
        node.body = body(stmt.body);
        node.other = body(stmt.else_body);
        break;
      case StmtKind::kFor:
      case StmtKind::kWhile:
        node.op = StmtOp::kLoop;
        node.other = optional(stmt.init.get());
        node.index = expr(*stmt.cond);
        node.body = body(stmt.body);
        node.step = optional(stmt.step.get());
        break;
      case StmtKind::kBlock:
        node.op = StmtOp::kBlock;
        node.body = body(stmt.body);
        break;
      case StmtKind::kStage:
        break;  // partition boundary: a no-op for sequential execution
    }
    return node;
  }

  GoldenProgram& out_;
  std::unordered_map<std::string, std::uint32_t> slot_of_;
  std::unordered_map<std::string, std::uint32_t> array_of_;
};

/// One execution: the slot values, the bound images and the counters.
class GoldenProgram::Run {
 public:
  Run(const GoldenProgram& program, mem::MemoryPool& pool)
      : program_(program),
        exprs_(program.exprs_.data()),
        stmts_(program.stmts_.data()),
        vars_(program.initial_) {
    images_.reserve(program.arrays_.size());
    for (const Array& array : program.arrays_) {
      images_.push_back(&pool.create(array.name, array.size, array.width));
    }
  }

  InterpStats run() {
    exec(program_.body_);
    return stats_;
  }

 private:
  void tick(int line) {
    if (++stats_.statements > program_.max_statements_) {
      throw util::SimError("golden model exceeded " +
                           std::to_string(program_.max_statements_) +
                           " statements near line " + std::to_string(line) +
                           " -- non-terminating input?");
    }
  }

  const Array& checked(std::uint32_t array, std::uint64_t index,
                       int line) const {
    const Array& info = program_.arrays_[array];
    if (index >= info.size) {
      throw util::SimError("golden model: '" + info.name + "[" +
                           std::to_string(index) + "]' out of bounds (size " +
                           std::to_string(info.size) + ") at line " +
                           std::to_string(line));
    }
    return info;
  }

  /// The value of expression `id`.  Leaves, the most common operands,
  /// are read in place; every other node goes through eval().
  std::uint64_t value(std::uint32_t id) {
    const ExprNode& node = exprs_[id];
    if (node.op == ExprOp::kVar) {
      return vars_[node.value];
    }
    if (node.op == ExprOp::kLiteral) {
      return node.value;
    }
    return eval(node);
  }

  std::uint64_t eval(const ExprNode& node) {
    switch (node.op) {
      case ExprOp::kLiteral:
      case ExprOp::kVar:
        break;  // read by value()
      case ExprOp::kLoad: {
        std::uint64_t index = value(node.a);
        const auto array = static_cast<std::uint32_t>(node.value);
        const Array& info = checked(array, index, node.line);
        ++stats_.loads;
        sim::Bits raw(info.width, images_[array]->read(index));
        // Width adaptation mirrors the datapath's extend unit on the
        // memory port: short is sign-extended, byte zero-extended.
        return info.is_signed ? raw.sign_extended(kWordWidth).u()
                              : raw.resized(kWordWidth).u();
      }
      case ExprOp::kLogicalNot: {
        std::uint64_t a = value(node.a);
        ++stats_.operations;
        return a == 0 ? 1 : 0;
      }
      case ExprOp::kLogicalAnd:
      case ExprOp::kLogicalOr: {
        // No short circuit: both operands are always evaluated.
        bool a = value(node.a) != 0;
        bool b = value(node.b) != 0;
        ++stats_.operations;
        return (node.op == ExprOp::kLogicalAnd ? a && b : a || b) ? 1 : 0;
      }
      case ExprOp::kUnary: {
        sim::Bits a(kWordWidth, value(node.a));
        ++stats_.operations;
        return ops::eval_unop(node.un, a, kWordWidth).u();
      }
      case ExprOp::kBinary: {
        sim::Bits a(kWordWidth, value(node.a));
        sim::Bits b(kWordWidth, value(node.b));
        ++stats_.operations;
        // Comparisons come back as 0/1 at the word width.
        return ops::eval_binop(node.bin, a, b, kWordWidth).u();
      }
    }
    FTI_ASSERT(false, "unhandled golden expression");
  }

  void exec(Range range) {
    for (std::uint32_t id = range.begin; id != range.end; ++id) {
      exec(stmts_[id]);
    }
  }

  void exec(const StmtNode& node) {
    tick(node.line);
    switch (node.op) {
      case StmtOp::kSet:
        vars_[node.target] = value(node.value);
        break;
      case StmtOp::kStore: {
        std::uint64_t stored = value(node.value);
        std::uint64_t index = value(node.index);
        checked(node.target, index, node.line);
        ++stats_.stores;
        images_[node.target]->write(index, stored);
        break;
      }
      case StmtOp::kIf:
        exec(value(node.index) != 0 ? node.body : node.other);
        break;
      case StmtOp::kLoop:
        exec(node.other);
        while (value(node.index) != 0) {
          tick(node.line);
          exec(node.body);
          exec(node.step);
        }
        break;
      case StmtOp::kBlock:
        exec(node.body);
        break;
      case StmtOp::kNop:
        break;
    }
  }

  const GoldenProgram& program_;
  const ExprNode* exprs_;
  const StmtNode* stmts_;
  std::vector<std::uint64_t> vars_;
  std::vector<mem::MemoryImage*> images_;
  InterpStats stats_;
};

GoldenProgram::GoldenProgram(const Program& program, const SemaInfo& sema,
                             const InterpOptions& options)
    : max_statements_(options.max_statements) {
  body_ = Lowering(*this, sema, options).body(program.body);
}

InterpStats GoldenProgram::run(mem::MemoryPool& pool) const {
  return Run(*this, pool).run();
}

InterpStats run_program(const Program& program, mem::MemoryPool& pool,
                        const InterpOptions& options) {
  return GoldenProgram(program, check_program(program), options).run(pool);
}

}  // namespace fti::compiler
