// Flow layer: the command bodies shared by the CLI shims and the serve
// daemon, driven directly as a library.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <sstream>

#include "fti/cache/design_cache.hpp"
#include "fti/flow/flow.hpp"
#include "fti/harness/suite_io.hpp"
#include "fti/mem/memfile.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
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

/// A fresh directory under the system temp dir, removed on scope exit.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / ("fti_flow_" + name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::filesystem::path path;
};

std::filesystem::path example_kernel(const std::string& name) {
  return std::filesystem::path(FTI_TEST_DATA_DIR).parent_path().parent_path() /
         "examples" / "kernels" / (name + ".k");
}

/// Enables obs for the scope, restoring the previous setting after.
class ObsOn {
 public:
  ObsOn() : was_enabled_(obs::enabled()) { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(was_enabled_); }

 private:
  bool was_enabled_;
};

TEST(FlowVerify, DumpingRequestServedWarmWritesTheColdBytes) {
  ScratchDir dir("warm_dumps");
  cache::DesignCache cache(4);
  FlowContext context;
  context.design_cache = &cache;
  VerifyRequest request;
  request.test = square_case();
  std::ostringstream out;
  std::ostringstream err;
  run_verify(request, context, out, err);  // populate

  request.vcd_path = dir.path / "warm.vcd";
  request.saves = {{"b", dir.path / "warm.b.dat"}};
  out.str("");
  VerifyResult warm = run_verify(request, context, out, err);
  EXPECT_EQ(warm.exit_code, 0);
  EXPECT_TRUE(warm.outcome.cache_hit);
  EXPECT_NE(out.str().find("wrote " + request.vcd_path.string() + "\nwrote " +
                           request.saves[0].second.string() + "\n"),
            std::string::npos)
      << out.str();

  VerifyRequest cold_request = request;
  cold_request.vcd_path = dir.path / "cold.vcd";
  cold_request.saves = {{"b", dir.path / "cold.b.dat"}};
  VerifyResult cold = run_verify(cold_request, FlowContext{}, out, err);
  EXPECT_FALSE(cold.outcome.cache_hit);
  const std::string vcd = util::read_file(request.vcd_path);
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  EXPECT_EQ(vcd, util::read_file(cold_request.vcd_path));
  EXPECT_EQ(util::read_file(request.saves[0].second),
            util::read_file(cold_request.saves[0].second));
}

TEST(FlowVerify, ColdDumpingVerifySimulatesEachConfigurationOnce) {
  // The dumps come from the verified run itself: no second simulation
  // and no second check of the design.
  ObsOn obs_on;
  obs::Counter& partitions = obs::counter("engine.partitions");
  obs::Counter& validations = obs::counter("ir.validations");
  ScratchDir dir("cold_dumps");
  for (const char* name : {"saxpy", "clip"}) {
    SCOPED_TRACE(name);
    VerifyRequest request;
    request.test = harness::load_test_case(example_kernel(name));
    request.vcd_path = dir.path / (std::string(name) + ".vcd");
    for (const std::string& array : request.test.check_arrays) {
      request.saves.emplace_back(array, dir.path / (array + ".dat"));
    }
    std::ostringstream out;
    std::ostringstream err;
    const std::uint64_t partitions_before = partitions.value();
    const std::uint64_t validations_before = validations.value();
    VerifyResult result = run_verify(request, FlowContext{}, out, err);
    ASSERT_EQ(result.exit_code, 0) << out.str() << err.str();
    const std::size_t configurations =
        result.outcome.compiled.design.configuration_count();
    EXPECT_EQ(partitions.value() - partitions_before, configurations);
    EXPECT_EQ(validations.value() - validations_before, configurations);
    EXPECT_TRUE(std::filesystem::exists(request.vcd_path));
  }
}

TEST(FlowVerify, VcdOfFourLanesIsLaneZerosDump) {
  ScratchDir dir("lanes_vcd");
  VerifyRequest request;
  request.test = harness::load_test_case(example_kernel("saxpy"));
  std::ostringstream out;
  std::ostringstream err;
  request.vcd_path = dir.path / "one.vcd";
  ASSERT_EQ(run_verify(request, FlowContext{}, out, err).exit_code, 0);
  request.lanes = 4;
  request.vcd_path = dir.path / "four.vcd";
  ASSERT_EQ(run_verify(request, FlowContext{}, out, err).exit_code, 0);
  EXPECT_EQ(util::read_file(dir.path / "one.vcd"),
            util::read_file(dir.path / "four.vcd"));
}

TEST(FlowVerify, SaveWritesWhatEmitWrites) {
  ScratchDir dir("save_emit");
  VerifyRequest request;
  request.test = harness::load_test_case(example_kernel("saxpy"));
  request.emit_dir = dir.path / "emit";
  request.saves = {{"y", dir.path / "y.dat"}};
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(run_verify(request, FlowContext{}, out, err).exit_code, 0);
  EXPECT_EQ(util::read_file(dir.path / "y.dat"),
            util::read_file(request.emit_dir / "saxpy.y.dat"));
}

TEST(FlowVerify, SaveOfAnUntouchedRomArrayWritesItsInitialContents) {
  // With the inputs baked in, memories the design never references are
  // never created, yet their save still holds the declared inputs.
  ScratchDir dir("save_untouched");
  VerifyRequest request;
  request.test.name = "untouched";
  request.test.source =
      "kernel untouched(int x[4], int y[4], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) { y[i] = i; }\n"
      "}\n";
  request.test.scalar_args = {{"n", 4}};
  request.test.inputs = {{"x", {5, 6, 7, 8}}};
  request.test.check_arrays = {"y"};
  request.test.embed_inputs = true;
  request.saves = {{"x", dir.path / "x.dat"}};
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(run_verify(request, FlowContext{}, out, err).exit_code, 0)
      << out.str() << err.str();
  mem::MemoryImage expected("x", 4, 32);
  for (std::size_t i = 0; i < 4; ++i) {
    expected.write(i, 5 + i);
  }
  EXPECT_EQ(util::read_file(dir.path / "x.dat"), mem::to_mem_text(expected));
}

TEST(FlowVerify, IncompleteRunStillWritesItsDumps) {
  ScratchDir dir("incomplete_dumps");
  VerifyRequest request;
  request.test = square_case();
  request.test.max_cycles = 5;
  request.vcd_path = dir.path / "cut.vcd";
  request.saves = {{"b", dir.path / "b.dat"}};
  std::ostringstream out;
  std::ostringstream err;
  VerifyResult result = run_verify(request, FlowContext{}, out, err);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(out.str().find("did not complete"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(request.vcd_path));
  EXPECT_TRUE(std::filesystem::exists(request.saves[0].second));
}

TEST(FlowVerify, SaveOfAnUnknownArrayThrowsBeforeWritingAnything) {
  ScratchDir dir("save_unknown");
  VerifyRequest request;
  request.test = square_case();
  request.vcd_path = dir.path / "v.vcd";
  request.saves = {{"nope", dir.path / "nope.dat"}};
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_THROW(run_verify(request, FlowContext{}, out, err), util::IoError);
  EXPECT_TRUE(out.str().empty());
  EXPECT_FALSE(std::filesystem::exists(request.vcd_path));
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
