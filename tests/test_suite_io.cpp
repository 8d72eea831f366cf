#include <gtest/gtest.h>

#include <filesystem>

#include "fti/harness/suite_io.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"

namespace fti::harness {
namespace {

std::filesystem::path make_suite_dir(const std::string& tag) {
  auto dir = util::scratch_dir("suite-io") / tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(SuiteIo, LoadsKernelWithSidecars) {
  auto dir = make_suite_dir("basic");
  util::write_file(dir / "double.k",
                   "kernel double(int a[4], int b[4], int n) {\n"
                   "  int i;\n"
                   "  for (i = 0; i < n; i = i + 1) { b[i] = a[i] * 2; }\n"
                   "}\n");
  util::write_file(dir / "double.args",
                   "# comment\n"
                   "n=4\n"
                   "!check b\n"
                   "!max-cycles 5000\n"
                   "!limit mul=1\n"
                   "!latency mul=2\n"
                   "!read-ports 2\n");
  util::write_file(dir / "double.a.dat", "10 20 30 40\n");

  TestCase test = load_test_case(dir / "double.k");
  EXPECT_EQ(test.name, "double");
  EXPECT_EQ(test.scalar_args.at("n"), 4);
  EXPECT_EQ(test.check_arrays, std::vector<std::string>{"b"});
  EXPECT_EQ(test.max_cycles, 5000u);
  EXPECT_EQ(test.resources.limits.at("mul"), 1u);
  EXPECT_EQ(test.resources.latencies.at("mul"), 2u);
  EXPECT_EQ(test.resources.default_memory_read_ports, 2u);
  EXPECT_EQ(test.inputs.at("a"),
            (std::vector<std::uint64_t>{10, 20, 30, 40}));

  VerifyOutcome outcome = run_test_case(test);
  EXPECT_TRUE(outcome.passed) << outcome.message;
}

TEST(SuiteIo, SuiteDirRunsEveryKernel) {
  auto dir = make_suite_dir("many");
  util::write_file(dir / "one.k", "kernel one(int m[2]) { m[0] = 1; }\n");
  util::write_file(dir / "two.k", "kernel two(int m[2]) { m[1] = 2; }\n");
  TestSuite suite = load_suite_dir(dir);
  EXPECT_EQ(suite.size(), 2u);
  VerifyOptions options;
  SuiteReport report = suite.run_all(options);
  EXPECT_TRUE(report.all_passed());
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].name, "one");  // sorted order
  EXPECT_EQ(report.rows[1].name, "two");
}

TEST(SuiteIo, RomDirective) {
  auto dir = make_suite_dir("rom");
  util::write_file(dir / "r.k",
                   "kernel r(int a[2], int b[2]) { b[0] = a[0] + a[1]; }\n");
  util::write_file(dir / "r.args", "!rom\n");
  util::write_file(dir / "r.a.dat", "5 6\n");
  TestCase test = load_test_case(dir / "r.k");
  EXPECT_TRUE(test.embed_inputs);
  EXPECT_TRUE(run_test_case(test).passed);
}

TEST(SuiteIo, Errors) {
  auto dir = make_suite_dir("bad");
  EXPECT_THROW(load_suite_dir(dir), util::IoError);  // no .k files
  EXPECT_THROW(load_suite_dir(dir / "missing"), util::IoError);
  util::write_file(dir / "x.k", "kernel x(int m[1]) { m[0] = 1; }\n");
  util::write_file(dir / "x.args", "!unknown-directive\n");
  EXPECT_THROW(load_test_case(dir / "x.k"), util::IoError);
  util::write_file(dir / "x.args", "noequals\n");
  EXPECT_THROW(load_test_case(dir / "x.k"), util::IoError);
  util::write_file(dir / "x.args", "n=notanumber\n");
  EXPECT_THROW(load_test_case(dir / "x.k"), util::IoError);
}

TEST(SuiteIo, AddressedDatFilesFillSparsely) {
  auto dir = make_suite_dir("sparse");
  util::write_file(dir / "s.k",
                   "kernel s(int a[8], int b[8]) { b[0] = a[5]; }\n");
  util::write_file(dir / "s.a.dat", "@5 77\n");
  TestCase test = load_test_case(dir / "s.k");
  ASSERT_EQ(test.inputs.at("a").size(), 6u);
  EXPECT_EQ(test.inputs.at("a")[5], 77u);
  EXPECT_EQ(test.inputs.at("a")[0], 0u);
}

}  // namespace
}  // namespace fti::harness
