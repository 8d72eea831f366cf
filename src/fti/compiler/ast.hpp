// Abstract syntax tree of the Nenya-mini kernel language.
//
// A program is a single `kernel` with scalar and array parameters.  Array
// parameters map to SRAMs of the shared memory pool; scalar parameters are
// bound to literal values at compile time (they parameterise a workload
// instance, mirroring how the paper compiles one fixed algorithm instance
// per test).  Local variables are 32-bit ints.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fti/ops/alu.hpp"

namespace fti::compiler {

/// Array element types.  Loads sign-extend `short`, zero-extend `byte`;
/// scalars and `int` elements are 32-bit.
enum class ElemType { kInt, kShort, kByte };

std::uint32_t width_of(ElemType type);
bool is_signed(ElemType type);
const char* to_string(ElemType type);

struct Param {
  std::string name;
  bool is_array = false;
  ElemType type = ElemType::kInt;
  std::size_t array_size = 0;  // valid when is_array
  int line = 0;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kIntLit,
  kVarRef,
  kArrayRef,
  kUnary,
  kBinary,
  kCall,  // builtin min/max/abs
};

struct Expr {
  ExprKind kind;
  int line = 0;

  std::int64_t value = 0;    // kIntLit
  std::string name;          // kVarRef, kArrayRef, kCall (builtin name)
  ops::UnOp un{};            // kUnary (kNeg, kNot); logical '!' uses is_lnot
  bool is_lnot = false;      // kUnary: logical not
  ops::BinOp bin{};          // kBinary (incl. comparisons)
  bool is_land = false;      // kBinary: '&&' (bin unused)
  bool is_lor = false;       // kBinary: '||'
  std::unique_ptr<Expr> a;   // operand / index / first arg
  std::unique_ptr<Expr> b;   // second operand / second arg
  /// Nodes on the longest path from here to a leaf (1 for a leaf); set
  /// by the parser, which bounds it (parser.hpp).
  int depth = 1;

  bool is_logical() const { return is_land || is_lor || is_lnot; }
};

std::unique_ptr<Expr> make_int(std::int64_t value, int line);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  kDecl,    // int x; / int x = expr;
  kAssign,  // x = e; / a[i] = e;
  kIf,
  kFor,
  kWhile,
  kBlock,
  kStage,  // temporal-partition boundary (top level only)
};

struct Stmt {
  StmtKind kind;
  int line = 0;

  std::string name;            // kDecl: variable; kAssign: target base name
  bool target_is_array = false;  // kAssign
  std::unique_ptr<Expr> index;   // kAssign to array: index expression
  std::unique_ptr<Expr> value;   // kDecl init (optional), kAssign rhs
  std::unique_ptr<Expr> cond;    // kIf / kFor / kWhile
  std::vector<std::unique_ptr<Stmt>> body;        // kBlock, kFor, kWhile, kIf-then
  std::vector<std::unique_ptr<Stmt>> else_body;   // kIf
  std::unique_ptr<Stmt> init;    // kFor (optional assign)
  std::unique_ptr<Stmt> step;    // kFor (optional assign)
};

struct Program {
  std::string name;
  std::vector<Param> params;
  std::vector<std::unique_ptr<Stmt>> body;
  /// Source line count -- the Table I "loJava" column analogue.
  std::size_t source_lines = 0;

  const Param* find_param(std::string_view param_name) const;
};

/// Number of `stage;` boundaries + 1 (the configuration count the program
/// requests).
std::size_t partition_count(const Program& program);

}  // namespace fti::compiler
