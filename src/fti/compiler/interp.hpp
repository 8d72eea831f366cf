// Reference interpreter -- the golden model.
//
// In the paper the memory/stimulus files "are used when executing the Java
// input algorithm" and the simulated outputs are compared against it.
// Here the same AST that the hardware generator consumes is interpreted
// over the same MemoryPool type, using the *same* operator semantics
// (ops::eval_binop / eval_unop at 32 bits), so any divergence between
// interpretation and simulation is a compiler or simulator bug, never a
// semantics gap.
//
// A kernel is lowered once per verify into a GoldenProgram: scalar
// parameters and locals become slots of a flat value vector, array
// references become array indices, builtins become operator codes, and
// statements and expressions become index-linked nodes.  The program is
// then run once per stimulus lane; a run shares nothing with another but
// the immutable program, so lanes may run on any thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fti/compiler/ast.hpp"
#include "fti/compiler/sema.hpp"
#include "fti/mem/storage.hpp"

namespace fti::compiler {

struct InterpOptions {
  /// Values bound to scalar parameters; every scalar param must appear.
  std::map<std::string, std::int64_t> scalar_args;
  /// Abort with SimError after this many executed statements (guards
  /// against non-terminating inputs -- the golden model's watchdog).
  std::uint64_t max_statements = 500'000'000;
};

struct InterpStats {
  std::uint64_t statements = 0;
  std::uint64_t operations = 0;  ///< arithmetic/logic ops evaluated
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
};

class GoldenProgram {
 public:
  /// Lowers `program`, whose symbol table `sema` is (check_program's
  /// result), binding the scalar arguments of `options`.  Throws
  /// CompileError when a scalar parameter has no bound value.  The
  /// program keeps no reference to `program` or `sema`.
  GoldenProgram(const Program& program, const SemaInfo& sema,
                const InterpOptions& options);

  /// Executes the program over `pool`.  Array parameters bind to pool
  /// images of the declared shape (created when absent).  Locals start at
  /// zero, the same power-on value the datapath registers use.  Throws
  /// SimError on an out-of-bounds access or when the statement watchdog
  /// fires.
  InterpStats run(mem::MemoryPool& pool) const;

 private:
  class Lowering;
  class Run;

  enum class ExprOp : std::uint8_t {
    kLiteral,  // value
    kVar,      // slot
    kLoad,     // array[a]
    kLogicalNot,
    kLogicalAnd,
    kLogicalOr,
    kUnary,   // un(a), abs included
    kBinary,  // bin(a, b), min/max included
  };
  struct ExprNode {
    ExprOp op = ExprOp::kLiteral;
    ops::BinOp bin{};
    ops::UnOp un{};
    int line = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    /// kLiteral: the 32-bit value; kVar: slot; kLoad: array index.
    std::uint64_t value = 0;
  };

  /// Statements [begin, end) of stmts_.
  struct Range {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  enum class StmtOp : std::uint8_t {
    kSet,    // slot = value (declarations and scalar assignments)
    kStore,  // array[index] = value
    kIf,
    kLoop,   // init; while (cond) { body; step; } -- for and while
    kBlock,
    kNop,    // stage boundary
  };
  struct StmtNode {
    StmtOp op = StmtOp::kNop;
    int line = 0;
    std::uint32_t target = 0;  ///< kSet: slot; kStore: array index
    std::uint32_t value = 0;   ///< expression: kSet / kStore value
    std::uint32_t index = 0;   ///< expression: kStore index, kIf/kLoop cond
    Range body;                ///< kIf then, kLoop and kBlock body
    Range other;               ///< kIf else, kLoop init
    Range step;                ///< kLoop step
  };

  struct Array {
    std::string name;
    std::size_t size = 0;
    std::uint32_t width = 0;
    bool is_signed = false;
  };

  std::vector<Array> arrays_;
  /// Slot values a run starts from: bound scalars, locals at zero.
  std::vector<std::uint64_t> initial_;
  std::vector<ExprNode> exprs_;
  std::vector<StmtNode> stmts_;
  Range body_;
  std::uint64_t max_statements_;
};

/// Checks, lowers and runs `program` once over `pool` (see GoldenProgram).
InterpStats run_program(const Program& program, mem::MemoryPool& pool,
                        const InterpOptions& options = {});

}  // namespace fti::compiler
