// Flow layer: the command bodies shared by the CLI shims and the serve
// daemon, driven directly as a library.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "fti/cache/design_cache.hpp"
#include "fti/flow/flow.hpp"
#include "fti/util/error.hpp"
#include "fti/util/json_reader.hpp"

namespace fti::flow {
namespace {

harness::TestCase square_case() {
  harness::TestCase test;
  test.name = "square";
  test.source =
      "kernel square(int a[8], int b[8], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) { b[i] = a[i] * a[i]; }\n"
      "}\n";
  test.scalar_args = {{"n", 8}};
  test.inputs = {{"a", {1, 2, 3, 4, 5, 6, 7, 8}}};
  test.check_arrays = {"b"};
  return test;
}

TEST(FlowVerify, PassReportsExitZeroAndPrintsVerdict) {
  VerifyRequest request;
  request.test = square_case();
  std::ostringstream out;
  std::ostringstream err;
  FlowContext context;
  VerifyResult result = run_verify(request, context, out, err);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.outcome.passed);
  EXPECT_NE(out.str().find("PASS  square"), std::string::npos);
  EXPECT_NE(out.str().find("fsm coverage"), std::string::npos);
  EXPECT_TRUE(err.str().empty());
}

TEST(FlowVerify, FourStateChecksEveryLane) {
  VerifyRequest request;
  request.test = square_case();
  request.four_state = true;
  request.lanes = 3;
  std::ostringstream out;
  std::ostringstream err;
  FlowContext context;
  VerifyResult clean = run_verify(request, context, out, err);
  EXPECT_EQ(clean.exit_code, 0);
  EXPECT_EQ(clean.outcome.four_state.size(), 3u);
  EXPECT_NE(out.str().find("over 3 lanes"), std::string::npos) << out.str();

  // A local read before any write: its register powers up X in every
  // lane, each lane reports under its own tag, and the run exits 4.
  request.test.name = "uninit";
  request.test.source =
      "kernel uninit(int a[8], int b[8], int n) {\n"
      "  int x;\n"
      "  b[0] = x;\n"
      "}\n";
  out.str("");
  VerifyResult dirty = run_verify(request, context, out, err);
  EXPECT_EQ(dirty.exit_code, 4);
  for (const char* tag : {"lane 0: FTI-L010", "lane 1: FTI-L010",
                          "lane 2: FTI-L010"}) {
    EXPECT_NE(out.str().find(tag), std::string::npos) << out.str();
  }
}

TEST(FlowVerify, UsesContextCacheOnRepeat) {
  cache::DesignCache cache(4);
  FlowContext context;
  context.design_cache = &cache;
  VerifyRequest request;
  request.test = square_case();
  std::ostringstream out;
  std::ostringstream err;
  VerifyResult cold = run_verify(request, context, out, err);
  VerifyResult warm = run_verify(request, context, out, err);
  EXPECT_EQ(cold.exit_code, 0);
  EXPECT_EQ(warm.exit_code, 0);
  EXPECT_FALSE(cold.outcome.cache_hit);
  EXPECT_TRUE(warm.outcome.cache_hit);
}

TEST(FlowVerify, InstrumentedRequestsRunCold) {
  cache::DesignCache cache(4);
  FlowContext context;
  context.design_cache = &cache;
  VerifyRequest request;
  request.test = square_case();
  std::ostringstream out;
  std::ostringstream err;
  run_verify(request, context, out, err);  // populate
  request.vcd_path =
      std::filesystem::temp_directory_path() / "fti_flow_test.vcd";
  VerifyResult traced = run_verify(request, context, out, err);
  EXPECT_EQ(traced.exit_code, 0);
  EXPECT_FALSE(traced.outcome.cache_hit);
  std::filesystem::remove(request.vcd_path);
}

TEST(FlowVerify, VcdOnUntracedEngineIsUsageErrorBeforeAnyWork) {
  VerifyRequest request;
  request.test = square_case();
  request.engine = "batched";
  request.vcd_path =
      std::filesystem::temp_directory_path() / "fti_flow_untraced.vcd";
  std::ostringstream out;
  std::ostringstream err;
  FlowContext context;
  VerifyResult result = run_verify(request, context, out, err);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_EQ(out.str().find("PASS"), std::string::npos) << out.str();
  EXPECT_NE(err.str().find("engine 'batched' does not support --vcd"),
            std::string::npos)
      << err.str();
  EXPECT_FALSE(std::filesystem::exists(request.vcd_path));
}

TEST(FlowVerify, PreCancelledContextThrows) {
  std::atomic<bool> cancel{true};
  FlowContext context;
  context.cancel = &cancel;
  VerifyRequest request;
  request.test = square_case();
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_THROW(run_verify(request, context, out, err), util::CancelledError);
}

TEST(FlowSuite, ExplicitTestsRunWithoutADirectory) {
  SuiteRequest request;
  request.tests = {square_case()};
  request.name = "inline";
  request.print_rows = false;
  std::ostringstream out;
  std::ostringstream err;
  FlowContext context;
  SuiteResult result = run_suite(request, context, out, err);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.report.all_passed());
  EXPECT_NE(out.str().find("suite PASSED"), std::string::npos);
  // print_rows=false suppressed the per-case progress lines.
  EXPECT_EQ(out.str().find("PASS  square\n"), std::string::npos);
}

TEST(FlowSuite, ReportJsonIsParseable) {
  SuiteRequest request;
  request.tests = {square_case()};
  std::ostringstream out;
  std::ostringstream err;
  FlowContext context;
  SuiteResult result = run_suite(request, context, out, err);
  std::string json = suite_report_to_json(result.report, "inline", "event");
  util::JsonValue doc = util::parse_json(json);
  EXPECT_EQ(doc.at("suite").as_string(), "inline");
  EXPECT_EQ(doc.at("tests").as_u64(), 1u);
  EXPECT_TRUE(doc.at("all_passed").as_bool());
  ASSERT_EQ(doc.at("rows").items.size(), 1u);
  EXPECT_EQ(doc.at("rows").items[0].at("name").as_string(), "square");
}

TEST(FlowEngines, ListsEveryEngineWithItsLaneCapability) {
  std::ostringstream out;
  EXPECT_EQ(run_engines(out), 0);
  std::string text = out.str();
  EXPECT_NE(text.find("max lanes"), std::string::npos);
  EXPECT_NE(text.find("availability"), std::string::npos);
  for (const char* engine :
       {"event", "naive", "levelized", "batched", "compiled"}) {
    EXPECT_NE(text.find(engine), std::string::npos) << engine;
  }
  // The batched engine advertises a lane capacity > 1 on its row
  // (second column, after the engine name).
  std::size_t row = text.find("batched");
  ASSERT_NE(row, std::string::npos);
  std::string line = text.substr(row, text.find('\n', row) - row);
  std::istringstream columns(line);
  std::string name;
  unsigned long lanes = 0;
  ASSERT_TRUE(columns >> name >> lanes) << line;
  EXPECT_GT(lanes, 1u) << line;
  // The compiled row says which of native execution or the levelized
  // fallback a run would actually get, whatever this host has.
  std::size_t compiled_row = text.find("compiled");
  ASSERT_NE(compiled_row, std::string::npos);
  std::string compiled_line =
      text.substr(compiled_row, text.find('\n', compiled_row) - compiled_row);
  EXPECT_TRUE(compiled_line.find("via ") != std::string::npos ||
              compiled_line.find("falls back to levelized") !=
                  std::string::npos)
      << compiled_line;
}

TEST(FlowLint, MissingInputsIsUsageError) {
  LintRequest request;
  request.inputs = {std::filesystem::temp_directory_path() /
                    "fti_flow_empty_dir_that_does_not_exist"};
  std::ostringstream out;
  std::ostringstream err;
  FlowContext context;
  EXPECT_THROW(run_lint(request, context, out, err), util::Error);
}

TEST(FlowLint, LintsDataDesigns) {
  LintRequest request;
  request.inputs = {std::filesystem::path(FTI_TEST_DATA_DIR) / "lint" /
                    "bad_multidriver.xml"};
  std::ostringstream out;
  std::ostringstream err;
  FlowContext context;
  LintResult result = run_lint(request, context, out, err);
  EXPECT_EQ(result.exit_code, 3);
  ASSERT_EQ(result.reports.size(), 1u);
  EXPECT_GT(result.reports[0].errors(), 0u);
}

}  // namespace
}  // namespace fti::flow
