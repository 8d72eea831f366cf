#include <gtest/gtest.h>

#include <filesystem>

#include "fti/compiler/interp.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/harness/suite_io.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/util/error.hpp"

namespace fti::compiler {
namespace {

/// Runs `source` and returns the contents of array `out` afterwards.
std::vector<std::uint64_t> run(const std::string& source,
                               std::map<std::string, std::int64_t> args = {},
                               std::map<std::string,
                                        std::vector<std::uint64_t>>
                                   inputs = {}) {
  Program program = parse_program(source);
  mem::MemoryPool pool;
  for (const Param& param : program.params) {
    if (param.is_array) {
      auto& image =
          pool.create(param.name, param.array_size, width_of(param.type));
      auto it = inputs.find(param.name);
      if (it != inputs.end()) {
        for (std::size_t i = 0; i < it->second.size(); ++i) {
          image.write(i, it->second[i]);
        }
      }
    }
  }
  InterpOptions options;
  options.scalar_args = std::move(args);
  run_program(program, pool, options);
  return pool.get("out").words();
}

TEST(Interp, WrappingArithmetic) {
  auto out = run(
      "kernel k(int out[3]) {\n"
      "  out[0] = 2147483647 + 1;\n"       // wraps to INT32_MIN
      "  out[1] = 0 - 1;\n"                // 0xFFFFFFFF
      "  out[2] = 65536 * 65536 + 5;\n"    // wraps to 5
      "}\n");
  EXPECT_EQ(out[0], 0x80000000u);
  EXPECT_EQ(out[1], 0xFFFFFFFFu);
  EXPECT_EQ(out[2], 5u);
}

TEST(Interp, SignedDivRemShr) {
  auto out = run(
      "kernel k(int out[4]) {\n"
      "  out[0] = (0 - 7) / 2;\n"
      "  out[1] = (0 - 7) % 2;\n"
      "  out[2] = (0 - 8) >> 1;\n"
      "  out[3] = 7 / 0;\n"  // division-by-zero convention: all ones
      "}\n");
  EXPECT_EQ(static_cast<std::int32_t>(out[0]), -3);
  EXPECT_EQ(static_cast<std::int32_t>(out[1]), -1);
  EXPECT_EQ(static_cast<std::int32_t>(out[2]), -4);
  EXPECT_EQ(out[3], 0xFFFFFFFFu);
}

TEST(Interp, ComparisonsYieldZeroOne) {
  auto out = run(
      "kernel k(int out[4]) {\n"
      "  out[0] = 3 < 5;\n"
      "  out[1] = (0 - 1) < 1;\n"  // signed comparison
      "  out[2] = 5 == 5;\n"
      "  out[3] = !(5 == 5);\n"
      "}\n");
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 1u);
  EXPECT_EQ(out[2], 1u);
  EXPECT_EQ(out[3], 0u);
}

TEST(Interp, LogicalOperators) {
  auto out = run(
      "kernel k(int out[4]) {\n"
      "  out[0] = 2 && 3;\n"
      "  out[1] = 0 && 3;\n"
      "  out[2] = 0 || 7;\n"
      "  out[3] = 0 || 0;\n"
      "}\n");
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 0u);
  EXPECT_EQ(out[2], 1u);
  EXPECT_EQ(out[3], 0u);
}

TEST(Interp, ControlFlow) {
  auto out = run(
      "kernel k(int out[1], int n) {\n"
      "  int sum = 0;\n"
      "  int i;\n"
      "  for (i = 1; i <= n; i = i + 1) {\n"
      "    if (i % 2 == 0) { sum = sum + i; }\n"
      "  }\n"
      "  out[0] = sum;\n"
      "}\n",
      {{"n", 10}});
  EXPECT_EQ(out[0], 30u);  // 2+4+6+8+10
}

TEST(Interp, WhileAndNestedBlocks) {
  auto out = run(
      "kernel k(int out[1]) {\n"
      "  int x = 1;\n"
      "  int n = 0;\n"
      "  while (x < 100) { { x = x * 2; n = n + 1; } }\n"
      "  out[0] = n;\n"
      "}\n");
  EXPECT_EQ(out[0], 7u);  // 1->128 in 7 doublings
}

TEST(Interp, ShortSignExtension) {
  auto out = run(
      "kernel k(short buf[2], int out[2]) {\n"
      "  buf[0] = 0 - 5;\n"
      "  out[0] = buf[0];\n"
      "  buf[1] = 32768;\n"  // 0x8000 -> negative short
      "  out[1] = buf[1];\n"
      "}\n");
  EXPECT_EQ(static_cast<std::int32_t>(out[0]), -5);
  EXPECT_EQ(static_cast<std::int32_t>(out[1]), -32768);
}

TEST(Interp, ByteZeroExtension) {
  auto out = run(
      "kernel k(byte buf[1], int out[1]) {\n"
      "  buf[0] = 0 - 1;\n"  // stores 0xFF
      "  out[0] = buf[0];\n"
      "}\n");
  EXPECT_EQ(out[0], 0xFFu);
}

TEST(Interp, LocalsStartAtZero) {
  auto out = run("kernel k(int out[1]) { int x; out[0] = x + 1; }");
  EXPECT_EQ(out[0], 1u);
}

TEST(Interp, Builtins) {
  auto out = run(
      "kernel k(int out[3]) {\n"
      "  out[0] = min(0 - 4, 2);\n"
      "  out[1] = max(0 - 4, 2);\n"
      "  out[2] = abs(0 - 9);\n"
      "}\n");
  EXPECT_EQ(static_cast<std::int32_t>(out[0]), -4);
  EXPECT_EQ(out[1], 2u);
  EXPECT_EQ(out[2], 9u);
}

/// The what() text of the ErrorType that `body` throws; fails the test
/// when it throws nothing.
template <typename ErrorType, typename Body>
std::string error_text(Body body) {
  try {
    body();
  } catch (const ErrorType& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected an exception";
  return "";
}

TEST(Interp, OutOfBoundsThrows) {
  EXPECT_EQ(error_text<util::SimError>(
                [] { run("kernel k(int out[2]) { out[5] = 1; }"); }),
            "sim: golden model: 'out[5]' out of bounds (size 2) at line 1");
  EXPECT_EQ(error_text<util::SimError>([] {
              run("kernel k(int a[2], int out[1]) {\n"
                  "  out[0] = a[9];\n"
                  "}\n");
            }),
            "sim: golden model: 'a[9]' out of bounds (size 2) at line 2");
  // A negative index is the unsigned 32-bit word it wraps to.
  EXPECT_EQ(error_text<util::SimError>(
                [] { run("kernel k(int out[2]) { out[0 - 1] = 1; }"); }),
            "sim: golden model: 'out[4294967295]' out of bounds (size 2) "
            "at line 1");
}

TEST(Interp, MissingScalarArgThrows) {
  EXPECT_EQ(error_text<util::CompileError>([] {
              run("kernel k(int out[1], int n) { out[0] = n; }");
            }),
            "compile: scalar parameter 'n' has no bound value");
}

TEST(Interp, StatementBudgetGuardsNontermination) {
  Program program = parse_program(
      "kernel k(int out[1]) {\n"
      "  int x = 1;\n"
      "  while (x > 0) {\n"
      "    x = 1;\n"
      "  }\n"
      "}\n");
  mem::MemoryPool pool;
  pool.create("out", 1, 32);
  InterpOptions options;
  options.max_statements = 10000;
  EXPECT_EQ(error_text<util::SimError>(
                [&] { run_program(program, pool, options); }),
            "sim: golden model exceeded 10000 statements near line 4 -- "
            "non-terminating input?");
}

TEST(Interp, StatsAreCounted) {
  Program program = parse_program(
      "kernel k(int a[4], int out[4]) {\n"
      "  int i;\n"
      "  for (i = 0; i < 4; i = i + 1) { out[i] = a[i] + 1; }\n"
      "}\n");
  mem::MemoryPool pool;
  pool.create("a", 4, 32);
  pool.create("out", 4, 32);
  InterpStats stats = run_program(program, pool, {});
  EXPECT_EQ(stats.loads, 4u);
  EXPECT_EQ(stats.stores, 4u);
  EXPECT_EQ(stats.operations, 13u);  // 4 adds + 5 compares + 4 increments
  // The declaration, the for, its init, then per iteration the loop's
  // tick, the braces (a block statement), the store and the step.
  EXPECT_EQ(stats.statements, 19u);
}

TEST(Interp, LanesShareNoState) {
  Program program = parse_program(
      "kernel k(int flag[1], int out[2]) {\n"
      "  if (flag[0] != 0) { int s = 9; }\n"
      "  out[0] = s;\n"
      "  out[1] = out[1] + 1;\n"
      "}\n");
  const GoldenProgram golden(program, check_program(program), {});

  mem::MemoryPool first;
  first.create("flag", 1, 32).write(0, 1);
  first.create("spare", 1, 32);
  InterpStats first_stats = golden.run(first);
  EXPECT_EQ(first.get("out").words(), (std::vector<std::uint64_t>{9, 1}));

  // The second lane skips the declaration, so it reads the local's
  // power-on zero, not the first lane's 9; it binds its own images.
  mem::MemoryPool second;
  InterpStats second_stats = golden.run(second);
  EXPECT_EQ(second.get("out").words(), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(first.get("out").words(), (std::vector<std::uint64_t>{9, 1}));
  EXPECT_FALSE(second.contains("spare"));
  EXPECT_EQ(first_stats.statements, 5u);
  EXPECT_EQ(second_stats.statements, 3u);
  EXPECT_EQ(second_stats.loads, 2u);
  EXPECT_EQ(second_stats.stores, 2u);
}

TEST(Interp, ExampleKernelStatsArePinned) {
  // Lane 0 of each sample kernel under its .args sidecar.  The counts
  // are part of every verify report, so a change to how the golden
  // model executes must not move them.
  struct Expected {
    const char* kernel;
    InterpStats stats;
  };
  const Expected table[] = {
      {"clip", {263, 194, 64, 64}},
      {"matmul4", {393, 605, 128, 16}},
      {"popcount", {379, 345, 8, 8}},
      {"saxpy", {67, 65, 32, 16}},
  };
  const std::filesystem::path examples =
      std::filesystem::path(FTI_TEST_DATA_DIR).parent_path().parent_path() /
      "examples" / "kernels";
  for (const Expected& row : table) {
    SCOPED_TRACE(row.kernel);
    harness::TestCase test =
        harness::load_test_case(examples / (std::string(row.kernel) + ".k"));
    Program program = parse_program(test.source);
    mem::MemoryPool pool;
    for (const Param& param : program.params) {
      if (param.is_array) {
        pool.create(param.name, param.array_size, width_of(param.type));
      }
    }
    for (const auto& [name, values] : test.inputs) {
      harness::load_inputs(pool, name, values);
    }
    InterpOptions options;
    options.scalar_args = test.scalar_args;
    InterpStats stats = run_program(program, pool, options);
    EXPECT_EQ(stats.statements, row.stats.statements);
    EXPECT_EQ(stats.operations, row.stats.operations);
    EXPECT_EQ(stats.loads, row.stats.loads);
    EXPECT_EQ(stats.stores, row.stats.stores);
  }
}

TEST(Interp, StageIsANoOpForSequentialSemantics) {
  auto with_stage = run(
      "kernel k(int m[2], int out[1]) { m[0] = 3; stage; out[0] = m[0]; }");
  EXPECT_EQ(with_stage[0], 3u);
}

}  // namespace
}  // namespace fti::compiler
