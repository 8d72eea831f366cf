#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fti/compiler/lexer.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/compiler/sema.hpp"
#include "fti/util/error.hpp"

namespace fti::compiler {
namespace {

TEST(Lexer, TokenKindsAndValues) {
  auto tokens = tokenize("kernel k(int a) { a = 0x1F + 2; }");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokKind::kKernel);
  EXPECT_EQ(tokens[1].kind, TokKind::kIdent);
  EXPECT_EQ(tokens[1].text, "k");
  EXPECT_EQ(tokens.back().kind, TokKind::kEnd);
  bool saw_hex = false;
  for (const Token& token : tokens) {
    if (token.kind == TokKind::kInt && token.value == 31) {
      saw_hex = true;
    }
  }
  EXPECT_TRUE(saw_hex);
}

TEST(Lexer, TwoCharOperators) {
  auto tokens = tokenize("<< >> == != <= >= && ||");
  std::vector<TokKind> expected = {
      TokKind::kShl, TokKind::kShr, TokKind::kEq,     TokKind::kNe,
      TokKind::kLe,  TokKind::kGe,  TokKind::kAndAnd, TokKind::kOrOr,
      TokKind::kEnd};
  ASSERT_EQ(tokens.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(tokens[i].kind, expected[i]) << "token " << i;
  }
}

TEST(Lexer, CommentsAndLineTracking) {
  auto tokens = tokenize("// line comment\n/* block\ncomment */ x");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "x");
  EXPECT_EQ(tokens[0].line, 3);
}

TEST(Lexer, Errors) {
  EXPECT_THROW(tokenize("$"), util::CompileError);
  EXPECT_THROW(tokenize("/* unterminated"), util::CompileError);
}

TEST(Parser, ProgramShape) {
  Program program = parse_program(
      "kernel fdct(byte in[64], short out[64], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) { out[i] = in[i]; }\n"
      "}\n");
  EXPECT_EQ(program.name, "fdct");
  ASSERT_EQ(program.params.size(), 3u);
  EXPECT_TRUE(program.params[0].is_array);
  EXPECT_EQ(program.params[0].type, ElemType::kByte);
  EXPECT_EQ(program.params[0].array_size, 64u);
  EXPECT_EQ(program.params[1].type, ElemType::kShort);
  EXPECT_FALSE(program.params[2].is_array);
  ASSERT_EQ(program.body.size(), 2u);
  EXPECT_EQ(program.body[0]->kind, StmtKind::kDecl);
  EXPECT_EQ(program.body[1]->kind, StmtKind::kFor);
  EXPECT_GT(program.source_lines, 3u);
}

TEST(Parser, PrecedenceMatchesC) {
  auto expr = parse_expression("1 + 2 * 3");
  ASSERT_EQ(expr->kind, ExprKind::kBinary);
  EXPECT_EQ(expr->bin, ops::BinOp::kAdd);
  EXPECT_EQ(expr->b->bin, ops::BinOp::kMul);

  expr = parse_expression("1 << 2 + 3");  // shift binds looser than +
  EXPECT_EQ(expr->bin, ops::BinOp::kShl);

  expr = parse_expression("a & b == c");  // & looser than ==
  EXPECT_EQ(expr->bin, ops::BinOp::kAnd);

  expr = parse_expression("a || b && c");
  EXPECT_TRUE(expr->is_lor);
  EXPECT_TRUE(expr->b->is_land);
}

TEST(Parser, ShrIsArithmetic) {
  auto expr = parse_expression("x >> 2");
  EXPECT_EQ(expr->bin, ops::BinOp::kAshr);
}

TEST(Parser, UnaryOperators) {
  auto expr = parse_expression("-x");
  EXPECT_EQ(expr->kind, ExprKind::kUnary);
  EXPECT_EQ(expr->un, ops::UnOp::kNeg);
  expr = parse_expression("~x");
  EXPECT_EQ(expr->un, ops::UnOp::kNot);
  expr = parse_expression("!x");
  EXPECT_TRUE(expr->is_lnot);
}

TEST(Parser, Builtins) {
  auto expr = parse_expression("min(a, 3)");
  EXPECT_EQ(expr->kind, ExprKind::kCall);
  EXPECT_EQ(expr->name, "min");
  expr = parse_expression("abs(a)");
  EXPECT_EQ(expr->name, "abs");
  EXPECT_EQ(expr->b, nullptr);
  // min used without parens is a plain identifier.
  expr = parse_expression("min + 1");
  EXPECT_EQ(expr->a->kind, ExprKind::kVarRef);
}

TEST(Parser, ForWithoutInitOrStep) {
  Program program = parse_program(
      "kernel k(int o[1]) { int i = 0; for (; i < 3;) { i = i + 1; } }");
  EXPECT_EQ(program.body[1]->init, nullptr);
  EXPECT_EQ(program.body[1]->step, nullptr);
}

TEST(Parser, StageCounting) {
  Program program = parse_program(
      "kernel k(int a[2]) { a[0] = 1; stage; a[1] = 2; stage; a[0] = 3; }");
  EXPECT_EQ(partition_count(program), 3u);
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse_program("kernel k() {"), util::CompileError);
  EXPECT_THROW(parse_program("kernel k(int a[0]) {}"), util::CompileError);
  EXPECT_THROW(parse_program("kernel k(short s) {}"), util::CompileError);
  EXPECT_THROW(parse_program("kernel k(int a) { short x; }"),
               util::CompileError);
  EXPECT_THROW(parse_program("kernel k(int a) { if (a) { stage; } }"),
               util::CompileError);
  EXPECT_THROW(parse_program("kernel k(int a) { a + 1; }"),
               util::CompileError);
  EXPECT_THROW(parse_expression("1 +"), util::CompileError);
  EXPECT_THROW(parse_expression("(1"), util::CompileError);
}

// Inputs that once overflowed the stack of the parser or of a later
// recursive walk: deep nesting, long prefix chains, and a flat sum the
// parser builds in a loop as a left-nested tree.
std::string kernel_with(const std::string& body) {
  return "kernel k(int y[1]) {\n" + body + "\n}\n";
}

std::string flat_sum(std::size_t terms) {
  std::string sum = "y[0] = 1";
  for (std::size_t i = 1; i < terms; ++i) {
    sum += "+1";
  }
  return sum + ";";
}

TEST(Parser, AstDepthIsBounded) {
  const std::vector<std::string> sources = {
      kernel_with("y[0] = " + std::string(10'000, '(') + "1" +
                  std::string(10'000, ')') + ";"),
      kernel_with(std::string(200'000, '{') + std::string(200'000, '}')),
      kernel_with("y[0] = " + std::string(200'000, '-') + "1;"),
      kernel_with(flat_sum(50'000)),
  };
  for (const std::string& source : sources) {
    try {
      parse_program(source);
      ADD_FAILURE() << "accepted a kernel nested past the bound";
    } catch (const util::CompileError& error) {
      EXPECT_NE(std::string(error.what()).find("deeper than 256"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(Parser, NestingUnderTheBoundParses) {
  Program parens = parse_program(kernel_with(
      "y[0] = " + std::string(200, '(') + "1" + std::string(200, ')') + ";"));
  EXPECT_EQ(parens.body.at(0)->value->depth, 1);
  EXPECT_NO_THROW(parse_program(
      kernel_with(std::string(200, '{') + std::string(200, '}'))));
  Program negs =
      parse_program(kernel_with("y[0] = " + std::string(200, '-') + "1;"));
  EXPECT_EQ(negs.body.at(0)->value->depth, 201);
  Program sum = parse_program(kernel_with(flat_sum(200)));
  EXPECT_EQ(sum.body.at(0)->value->depth, 200);
  EXPECT_THROW(parse_program(kernel_with(flat_sum(kMaxAstDepth + 1))),
               util::CompileError);
}

TEST(Sema, SymbolClassification) {
  SemaInfo info = check_program(parse_program(
      "kernel k(int a[4], int n) { int x; x = n; a[0] = x; }"));
  EXPECT_EQ(info.arrays.size(), 1u);
  EXPECT_EQ(info.scalar_params.count("n"), 1u);
  EXPECT_EQ(info.locals.count("x"), 1u);
}

TEST(Sema, RejectsUndeclared) {
  EXPECT_THROW(check_program(parse_program("kernel k(int o[1]) { o[0] = y; }")),
               util::CompileError);
  EXPECT_THROW(
      check_program(parse_program("kernel k(int o[1]) { y = 1; }")),
      util::CompileError);
}

TEST(Sema, RejectsArrayScalarConfusion) {
  EXPECT_THROW(
      check_program(parse_program("kernel k(int a[4]) { int x; x = a; }")),
      util::CompileError);
  EXPECT_THROW(
      check_program(parse_program("kernel k(int n, int o[1]) { o[0] = n[0]; }")),
      util::CompileError);
  EXPECT_THROW(
      check_program(parse_program("kernel k(int a[4]) { a = 1; }")),
      util::CompileError);
}

TEST(Sema, ScalarParamsAreReadOnly) {
  EXPECT_THROW(check_program(parse_program("kernel k(int n) { n = 1; }")),
               util::CompileError);
}

TEST(Sema, RejectsShadowingAndRedeclaration) {
  EXPECT_THROW(
      check_program(parse_program("kernel k(int n) { int n; }")),
      util::CompileError);
  EXPECT_THROW(
      check_program(parse_program("kernel k(int o[1]) { int x; int x; }")),
      util::CompileError);
  EXPECT_THROW(
      check_program(parse_program("kernel k(int n, int n) {}")),
      util::CompileError);
}

TEST(Sema, PartitionLocalityRule) {
  // x flows across the stage boundary through a register -- rejected.
  EXPECT_THROW(check_program(parse_program(
                   "kernel k(int a[2]) {\n"
                   "  int x = 5;\n"
                   "  a[0] = x;\n"
                   "  stage;\n"
                   "  a[1] = x;\n"
                   "}")),
               util::CompileError);
  // Re-assigned in the second partition -- accepted.
  EXPECT_NO_THROW(check_program(parse_program(
      "kernel k(int a[2]) {\n"
      "  int x = 5;\n"
      "  a[0] = x;\n"
      "  stage;\n"
      "  x = 7;\n"
      "  a[1] = x;\n"
      "}")));
}

TEST(Sema, LiteralRangeCheck) {
  EXPECT_THROW(check_program(parse_program(
                   "kernel k(int o[1]) { o[0] = 99999999999; }")),
               util::CompileError);
}

TEST(Parser, BuiltinArityEnforced) {
  EXPECT_THROW(parse_program("kernel k(int o[1]) { o[0] = min(1); }"),
               util::CompileError);
  EXPECT_THROW(parse_program("kernel k(int o[1]) { o[0] = abs(1, 2); }"),
               util::CompileError);
}

TEST(Sema, BuiltinArityAccepted) {
  EXPECT_NO_THROW(check_program(parse_program(
      "kernel k(int o[1]) { o[0] = min(1, 2) + abs(0 - 3); }")));
}

}  // namespace
}  // namespace fti::compiler
