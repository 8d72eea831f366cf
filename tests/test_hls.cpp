// End-to-end checks of the hardware generator: small kernels are compiled,
// simulated and compared against the golden interpreter through the full
// harness flow (including the XML round-trip).
#include <gtest/gtest.h>

#include "fti/harness/testcase.hpp"

namespace fti {
namespace {

harness::VerifyOutcome verify(const std::string& name,
                              const std::string& source,
                              std::map<std::string, std::int64_t> args = {},
                              std::map<std::string,
                                       std::vector<std::uint64_t>>
                                  inputs = {}) {
  harness::TestCase test;
  test.name = name;
  test.source = source;
  test.scalar_args = std::move(args);
  test.inputs = std::move(inputs);
  return harness::run_test_case(test);
}

TEST(Hls, CopyArray) {
  auto outcome = verify("copy",
                        "kernel copy(int a[8], int b[8], int n) {\n"
                        "  int i;\n"
                        "  for (i = 0; i < n; i = i + 1) { b[i] = a[i]; }\n"
                        "}\n",
                        {{"n", 8}}, {{"a", {5, 4, 3, 2, 1, 9, 8, 7}}});
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

TEST(Hls, ScalarArithmetic) {
  auto outcome =
      verify("arith",
             "kernel arith(int out[4]) {\n"
             "  int x = 10;\n"
             "  int y = 3;\n"
             "  out[0] = x + y * 7;\n"
             "  out[1] = (x - y) << 2;\n"
             "  out[2] = x / y;\n"
             "  out[3] = x % y;\n"
             "}\n");
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

TEST(Hls, IfElse) {
  auto outcome = verify("ifelse",
                        "kernel ifelse(int a[6], int b[6], int n) {\n"
                        "  int i;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    if (a[i] > 10) { b[i] = a[i] - 10; }\n"
                        "    else { b[i] = 10 - a[i]; }\n"
                        "  }\n"
                        "}\n",
                        {{"n", 6}}, {{"a", {0, 5, 10, 15, 20, 25}}});
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

TEST(Hls, WhileLoop) {
  auto outcome = verify("gcd",
                        "kernel gcd(int out[1], int a, int b) {\n"
                        "  int x = a;\n"
                        "  int y = b;\n"
                        "  while (y != 0) {\n"
                        "    int t = y;\n"
                        "    y = x % y;\n"
                        "    x = t;\n"
                        "  }\n"
                        "  out[0] = x;\n"
                        "}\n",
                        {{"a", 1071}, {"b", 462}});
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

TEST(Hls, TwoStagePartition) {
  auto outcome = verify("twostage",
                        "kernel twostage(int a[8], int m[8], int b[8]) {\n"
                        "  int i;\n"
                        "  for (i = 0; i < 8; i = i + 1) {\n"
                        "    m[i] = a[i] * 3;\n"
                        "  }\n"
                        "  stage;\n"
                        "  int j;\n"
                        "  for (j = 0; j < 8; j = j + 1) {\n"
                        "    b[j] = m[j] + 1;\n"
                        "  }\n"
                        "}\n",
                        {}, {{"a", {1, 2, 3, 4, 5, 6, 7, 8}}});
  EXPECT_TRUE(outcome.passed) << outcome.message;
  EXPECT_EQ(outcome.run.partitions.size(), 2u);
  EXPECT_EQ(outcome.compiled.design.configuration_count(), 2u);
}

TEST(Hls, ShortArraySignExtension) {
  // -2 stored as 0xFFFE in the short array must reload as -2.
  auto outcome = verify("sext",
                        "kernel sext(short a[4], int out[4]) {\n"
                        "  a[0] = 0 - 2;\n"
                        "  out[0] = a[0] * 10;\n"
                        "  a[1] = 40000;\n"   // wraps to negative in short
                        "  out[1] = a[1];\n"
                        "}\n");
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

TEST(Hls, ByteArrayZeroExtension) {
  auto outcome = verify("zext",
                        "kernel zext(byte a[4], int out[4]) {\n"
                        "  a[0] = 200;\n"
                        "  out[0] = a[0] + 1;\n"
                        "  a[1] = 300;\n"  // wraps to 44 in byte
                        "  out[1] = a[1];\n"
                        "}\n");
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

TEST(Hls, LogicalOperators) {
  auto outcome = verify("logic",
                        "kernel logic(int a[8], int b[8], int n) {\n"
                        "  int i;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    if (a[i] > 2 && a[i] < 6 || a[i] == 7) {\n"
                        "      b[i] = 1;\n"
                        "    } else {\n"
                        "      b[i] = 0;\n"
                        "    }\n"
                        "  }\n"
                        "}\n",
                        {{"n", 8}}, {{"a", {0, 1, 2, 3, 4, 5, 6, 7}}});
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

TEST(Hls, Builtins) {
  auto outcome = verify("builtins",
                        "kernel builtins(int a[6], int b[6], int n) {\n"
                        "  int i;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    b[i] = min(max(a[i], 0 - 3), 100) + abs(a[i]);\n"
                        "  }\n"
                        "}\n",
                        {{"n", 6}},
                        {{"a", {0xFFFFFFF6ull, 2, 0, 200, 50, 3}}});
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

TEST(Hls, NestedLoopsAccumulate) {
  auto outcome = verify("acc",
                        "kernel acc(int a[16], int out[4], int n) {\n"
                        "  int i;\n"
                        "  int j;\n"
                        "  for (i = 0; i < 4; i = i + 1) {\n"
                        "    int sum = 0;\n"
                        "    for (j = 0; j < 4; j = j + 1) {\n"
                        "      sum = sum + a[i * 4 + j];\n"
                        "    }\n"
                        "    out[i] = sum;\n"
                        "  }\n"
                        "}\n",
                        {{"n", 4}},
                        {{"a", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                14, 15, 16}}});
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

TEST(Hls, InPlaceUpdate) {
  auto outcome = verify("inplace",
                        "kernel inplace(int a[8], int n) {\n"
                        "  int i;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    a[i] = a[i] * a[i] - 1;\n"
                        "  }\n"
                        "}\n",
                        {{"n", 8}}, {{"a", {1, 2, 3, 4, 5, 6, 7, 8}}});
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

TEST(Hls, StatsArePopulated) {
  auto outcome = verify("stats",
                        "kernel stats(int a[4], int b[4]) {\n"
                        "  int i;\n"
                        "  for (i = 0; i < 4; i = i + 1) { b[i] = a[i]; }\n"
                        "}\n",
                        {}, {{"a", {9, 9, 9, 9}}});
  ASSERT_TRUE(outcome.passed) << outcome.message;
  ASSERT_EQ(outcome.compiled.stats.size(), 1u);
  EXPECT_GT(outcome.compiled.stats[0].fsm_states, 0u);
  EXPECT_GT(outcome.compiled.stats[0].operators, 0u);
  EXPECT_GT(outcome.run.total_cycles(), 0u);
}

}  // namespace
}  // namespace fti

namespace fti {
namespace {

TEST(Hls, EmbeddedInputsMakeXmlSelfContained) {
  harness::TestCase test;
  test.name = "rom";
  test.source =
      "kernel rom(short coef[4], int out[4]) {\n"
      "  int i;\n"
      "  for (i = 0; i < 4; i = i + 1) { out[i] = coef[i] * 2; }\n"
      "}\n";
  test.inputs = {{"coef", {3, 0xFFFF /* -1 as short */, 7, 9}}};
  test.embed_inputs = true;
  auto outcome = harness::run_test_case(test);
  EXPECT_TRUE(outcome.passed) << outcome.message;
  // The design's memory declaration carries the power-up contents.
  const auto& memories =
      outcome.compiled.design.configuration("rom").datapath.memories;
  bool found = false;
  for (const auto& memory : memories) {
    if (memory.name == "coef") {
      found = true;
      EXPECT_EQ(memory.init,
                (std::vector<std::uint64_t>{3, 0xFFFF, 7, 9}));
    }
  }
  EXPECT_TRUE(found);
}

TEST(Hls, EmbeddedInputsWithUncheckedUntouchedArray) {
  harness::TestCase test;
  test.name = "romskip";
  test.source =
      "kernel romskip(int unused[4], int out[2]) {\n"
      "  out[0] = 5;\n"
      "}\n";
  test.inputs = {{"unused", {1, 2, 3, 4}}};
  test.embed_inputs = true;
  auto outcome = harness::run_test_case(test);
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

TEST(Hls, RomContentsRejectUnknownArray) {
  compiler::CompileOptions options;
  options.rom_contents = {{"ghost", {1}}};
  EXPECT_THROW(
      compiler::compile_source("kernel k(int a[2]) { a[0] = 1; }", options),
      util::CompileError);
}

TEST(Hls, RomContentsRejectOversize) {
  compiler::CompileOptions options;
  options.rom_contents = {{"a", {1, 2, 3}}};
  EXPECT_THROW(
      compiler::compile_source("kernel k(int a[2]) { a[0] = 1; }", options),
      util::CompileError);
}

}  // namespace
}  // namespace fti
