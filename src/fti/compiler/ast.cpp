#include "fti/compiler/ast.hpp"

namespace fti::compiler {

std::uint32_t width_of(ElemType type) {
  switch (type) {
    case ElemType::kInt:
      return 32;
    case ElemType::kShort:
      return 16;
    case ElemType::kByte:
      return 8;
  }
  return 32;
}

bool is_signed(ElemType type) { return type != ElemType::kByte; }

std::unique_ptr<Expr> make_int(std::int64_t value, int line) {
  auto expr = std::make_unique<Expr>();
  expr->kind = ExprKind::kIntLit;
  expr->value = value;
  expr->line = line;
  return expr;
}

std::size_t partition_count(const Program& program) {
  std::size_t stages = 0;
  for (const auto& stmt : program.body) {
    if (stmt->kind == StmtKind::kStage) {
      ++stages;
    }
  }
  return stages + 1;
}

}  // namespace fti::compiler
