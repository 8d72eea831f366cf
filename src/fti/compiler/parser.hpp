// Recursive-descent parser for the Nenya-mini kernel language.
//
// Grammar (C precedence, lowest first):
//   program  := 'kernel' IDENT '(' param (',' param)* ')' block
//   param    := type IDENT ('[' INT ']')?
//   type     := 'int' | 'short' | 'byte'
//   block    := '{' stmt* '}'
//   stmt     := 'int' IDENT ('=' expr)? ';'
//             | assign ';'
//             | 'if' '(' expr ')' stmt ('else' stmt)?
//             | 'for' '(' assign? ';' expr ';' assign? ')' stmt
//             | 'while' '(' expr ')' stmt
//             | 'stage' ';'
//             | block
//   assign   := lvalue '=' expr
//   lvalue   := IDENT ('[' expr ']')?
//   expr     := '||' < '&&' < '|' < '^' < '&' < '=='/'!='
//             < '<'/'<='/'>'/'>=' < '<<'/'>>' < '+'/'-' < '*'/'/'/'%'
//             < unary ('-' '~' '!') < primary
//   primary  := INT | IDENT | IDENT '[' expr ']' | '(' expr ')'
//             | ('min'|'max') '(' expr ',' expr ')' | 'abs' '(' expr ')'
//
// Depth is bounded so no later recursive walk -- sema, HLS, the golden
// interpreter, the AST destructors -- can run out of stack: an
// expression deeper than kMaxAstDepth nodes (a node is one deeper than
// its deepest operand, so a long left-nested `a+b+...` chain counts),
// and source nesting deeper than kMaxAstDepth statements, parentheses
// or unary operators, are CompileErrors.
#pragma once

#include <string_view>

#include "fti/compiler/ast.hpp"

namespace fti::compiler {

/// The nesting bound above; the same as JSON and XML nesting.
inline constexpr int kMaxAstDepth = 256;

/// Parses a complete kernel; throws CompileError with line numbers.
Program parse_program(std::string_view source);

/// Parses a standalone expression (used by tests and the REPL-ish tools).
std::unique_ptr<Expr> parse_expression(std::string_view source);

}  // namespace fti::compiler
