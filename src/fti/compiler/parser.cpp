#include "fti/compiler/parser.hpp"

#include <algorithm>

#include "fti/compiler/lexer.hpp"
#include "fti/util/error.hpp"
#include "fti/util/strings.hpp"

namespace fti::compiler {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Program parse_program() {
    Program program;
    expect(TokKind::kKernel);
    program.name = expect(TokKind::kIdent).text;
    expect(TokKind::kLParen);
    if (!at(TokKind::kRParen)) {
      program.params.push_back(parse_param());
      while (accept(TokKind::kComma)) {
        program.params.push_back(parse_param());
      }
    }
    expect(TokKind::kRParen);
    expect(TokKind::kLBrace);
    while (!accept(TokKind::kRBrace)) {
      program.body.push_back(parse_stmt(/*top_level=*/true));
    }
    expect(TokKind::kEnd);
    return program;
  }

  std::unique_ptr<Expr> parse_full_expression() {
    auto expr = parse_expr();
    expect(TokKind::kEnd);
    return expr;
  }

 private:
  [[noreturn]] void fail(const std::string& message) {
    throw util::CompileError("line " + std::to_string(peek().line) + ": " +
                             message + " (found " +
                             to_string(peek().kind) + ")");
  }

  const Token& peek(std::size_t ahead = 0) const {
    std::size_t index = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[index];
  }

  bool at(TokKind kind) const { return peek().kind == kind; }

  [[noreturn]] void too_deep() {
    throw util::CompileError(
        "line " + std::to_string(peek().line) +
        ": kernel nests deeper than " + std::to_string(kMaxAstDepth) +
        " levels (statements, parentheses and operator chains are "
        "bounded)");
  }

  /// One level of parser recursion for the scope of the guard.  A throw
  /// abandons the parser, so the count need not unwind.
  struct Nest {
    explicit Nest(Parser& p) : parser(p) {
      if (++parser.nesting_ > kMaxAstDepth) {
        parser.too_deep();
      }
    }
    ~Nest() { --parser.nesting_; }
    Parser& parser;
  };

  /// Sets `expr`'s depth from its operands and enforces the bound.
  std::unique_ptr<Expr> sized(std::unique_ptr<Expr> expr) {
    int below = std::max(expr->a ? expr->a->depth : 0,
                         expr->b ? expr->b->depth : 0);
    if (below >= kMaxAstDepth) {
      too_deep();
    }
    expr->depth = below + 1;
    return expr;
  }

  bool accept(TokKind kind) {
    if (at(kind)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Token expect(TokKind kind) {
    if (!at(kind)) {
      fail(std::string("expected ") + to_string(kind));
    }
    return tokens_[pos_++];
  }

  bool at_type() const {
    return at(TokKind::kIntType) || at(TokKind::kShortType) ||
           at(TokKind::kByteType);
  }

  ElemType parse_type() {
    if (accept(TokKind::kIntType)) {
      return ElemType::kInt;
    }
    if (accept(TokKind::kShortType)) {
      return ElemType::kShort;
    }
    if (accept(TokKind::kByteType)) {
      return ElemType::kByte;
    }
    fail("expected a type");
  }

  Param parse_param() {
    Param param;
    param.line = peek().line;
    param.type = parse_type();
    param.name = expect(TokKind::kIdent).text;
    if (accept(TokKind::kLBracket)) {
      Token size = expect(TokKind::kInt);
      if (size.value <= 0) {
        fail("array size must be positive");
      }
      param.is_array = true;
      param.array_size = static_cast<std::size_t>(size.value);
      expect(TokKind::kRBracket);
    } else if (param.type != ElemType::kInt) {
      fail("scalar parameters must be 'int'");
    }
    return param;
  }

  std::unique_ptr<Stmt> parse_assign() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kAssign;
    stmt->line = peek().line;
    stmt->name = expect(TokKind::kIdent).text;
    if (accept(TokKind::kLBracket)) {
      stmt->target_is_array = true;
      stmt->index = parse_expr();
      expect(TokKind::kRBracket);
    }
    expect(TokKind::kAssign);
    stmt->value = parse_expr();
    return stmt;
  }

  std::unique_ptr<Stmt> parse_stmt(bool top_level) {
    Nest nest(*this);
    int line = peek().line;
    if (at(TokKind::kIntType)) {
      // Local declaration.  short/byte locals are rejected by design: the
      // datapath registers variables at 32 bits.
      expect(TokKind::kIntType);
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kDecl;
      stmt->line = line;
      stmt->name = expect(TokKind::kIdent).text;
      if (accept(TokKind::kAssign)) {
        stmt->value = parse_expr();
      }
      expect(TokKind::kSemicolon);
      return stmt;
    }
    if (at(TokKind::kShortType) || at(TokKind::kByteType)) {
      fail("local variables must be 'int'");
    }
    if (accept(TokKind::kStage)) {
      expect(TokKind::kSemicolon);
      if (!top_level) {
        throw util::CompileError(
            "line " + std::to_string(line) +
            ": 'stage;' is only allowed at the top level of the kernel");
      }
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kStage;
      stmt->line = line;
      return stmt;
    }
    if (accept(TokKind::kIf)) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kIf;
      stmt->line = line;
      expect(TokKind::kLParen);
      stmt->cond = parse_expr();
      expect(TokKind::kRParen);
      stmt->body.push_back(parse_stmt(false));
      if (accept(TokKind::kElse)) {
        stmt->else_body.push_back(parse_stmt(false));
      }
      return stmt;
    }
    if (accept(TokKind::kFor)) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kFor;
      stmt->line = line;
      expect(TokKind::kLParen);
      if (!at(TokKind::kSemicolon)) {
        stmt->init = parse_assign();
      }
      expect(TokKind::kSemicolon);
      stmt->cond = parse_expr();
      expect(TokKind::kSemicolon);
      if (!at(TokKind::kRParen)) {
        stmt->step = parse_assign();
      }
      expect(TokKind::kRParen);
      stmt->body.push_back(parse_stmt(false));
      return stmt;
    }
    if (accept(TokKind::kWhile)) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kWhile;
      stmt->line = line;
      expect(TokKind::kLParen);
      stmt->cond = parse_expr();
      expect(TokKind::kRParen);
      stmt->body.push_back(parse_stmt(false));
      return stmt;
    }
    if (at(TokKind::kLBrace)) {
      expect(TokKind::kLBrace);
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kBlock;
      stmt->line = line;
      while (!accept(TokKind::kRBrace)) {
        stmt->body.push_back(parse_stmt(false));
      }
      return stmt;
    }
    if (at(TokKind::kIdent)) {
      auto stmt = parse_assign();
      expect(TokKind::kSemicolon);
      return stmt;
    }
    fail("expected a statement");
  }

  // -- expressions --------------------------------------------------------

  std::unique_ptr<Expr> make_binary(ops::BinOp op, std::unique_ptr<Expr> a,
                                    std::unique_ptr<Expr> b, int line) {
    auto expr = std::make_unique<Expr>();
    expr->kind = ExprKind::kBinary;
    expr->bin = op;
    expr->a = std::move(a);
    expr->b = std::move(b);
    expr->line = line;
    return sized(std::move(expr));
  }

  std::unique_ptr<Expr> parse_expr() {
    Nest nest(*this);
    return parse_lor();
  }

  std::unique_ptr<Expr> parse_lor() {
    auto lhs = parse_land();
    while (at(TokKind::kOrOr)) {
      int line = expect(TokKind::kOrOr).line;
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kBinary;
      expr->is_lor = true;
      expr->a = std::move(lhs);
      expr->b = parse_land();
      expr->line = line;
      lhs = sized(std::move(expr));
    }
    return lhs;
  }

  std::unique_ptr<Expr> parse_land() {
    auto lhs = parse_bitor();
    while (at(TokKind::kAndAnd)) {
      int line = expect(TokKind::kAndAnd).line;
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kBinary;
      expr->is_land = true;
      expr->a = std::move(lhs);
      expr->b = parse_bitor();
      expr->line = line;
      lhs = sized(std::move(expr));
    }
    return lhs;
  }

  std::unique_ptr<Expr> parse_bitor() {
    auto lhs = parse_bitxor();
    while (at(TokKind::kPipe)) {
      int line = expect(TokKind::kPipe).line;
      lhs = make_binary(ops::BinOp::kOr, std::move(lhs), parse_bitxor(),
                        line);
    }
    return lhs;
  }

  std::unique_ptr<Expr> parse_bitxor() {
    auto lhs = parse_bitand();
    while (at(TokKind::kCaret)) {
      int line = expect(TokKind::kCaret).line;
      lhs = make_binary(ops::BinOp::kXor, std::move(lhs), parse_bitand(),
                        line);
    }
    return lhs;
  }

  std::unique_ptr<Expr> parse_bitand() {
    auto lhs = parse_equality();
    while (at(TokKind::kAmp)) {
      int line = expect(TokKind::kAmp).line;
      lhs = make_binary(ops::BinOp::kAnd, std::move(lhs), parse_equality(),
                        line);
    }
    return lhs;
  }

  std::unique_ptr<Expr> parse_equality() {
    auto lhs = parse_relational();
    for (;;) {
      if (at(TokKind::kEq)) {
        int line = expect(TokKind::kEq).line;
        lhs = make_binary(ops::BinOp::kEq, std::move(lhs),
                          parse_relational(), line);
      } else if (at(TokKind::kNe)) {
        int line = expect(TokKind::kNe).line;
        lhs = make_binary(ops::BinOp::kNe, std::move(lhs),
                          parse_relational(), line);
      } else {
        return lhs;
      }
    }
  }

  std::unique_ptr<Expr> parse_relational() {
    auto lhs = parse_shift();
    for (;;) {
      ops::BinOp op;
      if (at(TokKind::kLt)) {
        op = ops::BinOp::kLt;
      } else if (at(TokKind::kLe)) {
        op = ops::BinOp::kLe;
      } else if (at(TokKind::kGt)) {
        op = ops::BinOp::kGt;
      } else if (at(TokKind::kGe)) {
        op = ops::BinOp::kGe;
      } else {
        return lhs;
      }
      int line = peek().line;
      ++pos_;
      lhs = make_binary(op, std::move(lhs), parse_shift(), line);
    }
  }

  std::unique_ptr<Expr> parse_shift() {
    auto lhs = parse_additive();
    for (;;) {
      if (at(TokKind::kShl)) {
        int line = expect(TokKind::kShl).line;
        lhs = make_binary(ops::BinOp::kShl, std::move(lhs), parse_additive(),
                          line);
      } else if (at(TokKind::kShr)) {
        // '>>' on int is arithmetic, as in Java.
        int line = expect(TokKind::kShr).line;
        lhs = make_binary(ops::BinOp::kAshr, std::move(lhs),
                          parse_additive(), line);
      } else {
        return lhs;
      }
    }
  }

  std::unique_ptr<Expr> parse_additive() {
    auto lhs = parse_multiplicative();
    for (;;) {
      if (at(TokKind::kPlus)) {
        int line = expect(TokKind::kPlus).line;
        lhs = make_binary(ops::BinOp::kAdd, std::move(lhs),
                          parse_multiplicative(), line);
      } else if (at(TokKind::kMinus)) {
        int line = expect(TokKind::kMinus).line;
        lhs = make_binary(ops::BinOp::kSub, std::move(lhs),
                          parse_multiplicative(), line);
      } else {
        return lhs;
      }
    }
  }

  std::unique_ptr<Expr> parse_multiplicative() {
    auto lhs = parse_unary();
    for (;;) {
      ops::BinOp op;
      if (at(TokKind::kStar)) {
        op = ops::BinOp::kMul;
      } else if (at(TokKind::kSlash)) {
        op = ops::BinOp::kDiv;
      } else if (at(TokKind::kPercent)) {
        op = ops::BinOp::kRem;
      } else {
        return lhs;
      }
      int line = peek().line;
      ++pos_;
      lhs = make_binary(op, std::move(lhs), parse_unary(), line);
    }
  }

  std::unique_ptr<Expr> parse_unary() {
    if (!at(TokKind::kMinus) && !at(TokKind::kTilde) && !at(TokKind::kBang)) {
      return parse_primary();
    }
    Nest nest(*this);
    auto expr = std::make_unique<Expr>();
    expr->kind = ExprKind::kUnary;
    expr->line = peek().line;
    if (accept(TokKind::kMinus)) {
      expr->un = ops::UnOp::kNeg;
    } else if (accept(TokKind::kTilde)) {
      expr->un = ops::UnOp::kNot;
    } else {
      expect(TokKind::kBang);
      expr->is_lnot = true;
    }
    expr->a = parse_unary();
    return sized(std::move(expr));
  }

  std::unique_ptr<Expr> parse_primary() {
    int line = peek().line;
    if (at(TokKind::kInt)) {
      return make_int(expect(TokKind::kInt).value, line);
    }
    if (accept(TokKind::kLParen)) {
      auto expr = parse_expr();
      expect(TokKind::kRParen);
      return expr;
    }
    if (at(TokKind::kIdent)) {
      std::string name = expect(TokKind::kIdent).text;
      if ((name == "min" || name == "max" || name == "abs") &&
          at(TokKind::kLParen)) {
        expect(TokKind::kLParen);
        auto expr = std::make_unique<Expr>();
        expr->kind = ExprKind::kCall;
        expr->name = name;
        expr->line = line;
        expr->a = parse_expr();
        if (name != "abs") {
          expect(TokKind::kComma);
          expr->b = parse_expr();
        }
        expect(TokKind::kRParen);
        return sized(std::move(expr));
      }
      if (accept(TokKind::kLBracket)) {
        auto expr = std::make_unique<Expr>();
        expr->kind = ExprKind::kArrayRef;
        expr->name = std::move(name);
        expr->a = parse_expr();
        expr->line = line;
        expect(TokKind::kRBracket);
        return sized(std::move(expr));
      }
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kVarRef;
      expr->name = std::move(name);
      expr->line = line;
      return expr;
    }
    fail("expected an expression");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int nesting_ = 0;  ///< live parse_stmt/parse_expr/parse_unary frames
};

}  // namespace

Program parse_program(std::string_view source) {
  Parser parser(tokenize(source));
  Program program = parser.parse_program();
  program.source_lines = util::count_lines(source);
  return program;
}

std::unique_ptr<Expr> parse_expression(std::string_view source) {
  Parser parser(tokenize(source));
  return parser.parse_full_expression();
}

}  // namespace fti::compiler
