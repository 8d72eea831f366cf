// E2 -- the paper's in-text scaling result:
//   "The simulation time results for the FDCTs are related to the
//    computation with an input image of 4,096 pixels (64 DCT blocks).
//    With images of 65,536 and 345,600 pixels, FDCT1 is simulated in
//    1 and 6.5 minutes, respectively."  (paper §3)
//
// The claim behind the numbers is near-linear scaling of simulation time
// with image size (6.9 s -> ~60 s -> ~390 s for 1x -> 16x -> 84.4x the
// pixels).  This bench runs FDCT1 at the same three sizes and reports the
// measured wall time, the events processed and the normalised
// time-per-pixel, which should stay flat.
//
//   bench_scaling [--quick] [--json PATH]
//   (conventionally PATH=BENCH_scaling.json; --quick caps the sweep at
//    65,536 pixels)
#include <cstring>
#include <iostream>

#include "fti/util/cli.hpp"
#include "fti/util/json.hpp"
#include "fti/golden/fdct.hpp"
#include "fti/golden/rng.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/util/table.hpp"

int main(int argc, char** argv) {
  std::filesystem::path json_path;
  try {
    json_path = fti::util::extract_path_flag(argc, argv, "--json");
  } catch (const fti::util::UsageError& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
  }
  fti::util::JsonReport json("scaling");
  bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  struct Point {
    std::size_t pixels;
    const char* paper_time;
  };
  std::vector<Point> sweep = {{4096, "6.9 s"},
                              {65536, "~60 s (\"1 minute\")"},
                              {345600, "~390 s (\"6.5 minutes\")"}};
  if (quick) {
    sweep.pop_back();
  }

  fti::util::TextTable table({"pixels", "paper (P4 2.8GHz)", "measured (s)",
                              "cycles", "events", "ns/pixel",
                              "verdict"});
  double first_ns_per_pixel = 0;
  for (const Point& point : sweep) {
    std::size_t blocks = point.pixels / fti::golden::kBlockPixels;
    fti::harness::TestCase test;
    test.name = "fdct1_" + std::to_string(point.pixels);
    test.source = fti::golden::fdct_source(blocks, false);
    test.scalar_args = {{"nblocks", static_cast<std::int64_t>(blocks)}};
    test.inputs = {{"in", fti::golden::make_test_image(point.pixels)}};
    test.check_arrays = {"out"};
    test.max_cycles = 500'000'000;
    fti::harness::VerifyOutcome outcome =
        fti::harness::run_test_case(test);
    double ns_per_pixel =
        outcome.sim_seconds * 1e9 / static_cast<double>(point.pixels);
    if (first_ns_per_pixel == 0) {
      first_ns_per_pixel = ns_per_pixel;
    }
    table.add_row({fti::util::format_count(point.pixels), point.paper_time,
                   fti::util::format_double(outcome.sim_seconds, 2),
                   fti::util::format_count(outcome.run.total_cycles()),
                   fti::util::format_count(outcome.run.total_events()),
                   fti::util::format_double(ns_per_pixel, 1),
                   outcome.passed ? "PASS" : "FAIL"});
    fti::util::JsonReport::Workload& workload = json.workload(test.name);
    workload.set("passed", outcome.passed);
    workload.set("pixels", static_cast<std::uint64_t>(point.pixels));
    workload.set("wall_seconds", outcome.sim_seconds);
    workload.set("cycles", outcome.run.total_cycles());
    workload.set("ns_per_pixel", ns_per_pixel);
    for (const auto& partition : outcome.run.partitions) {
      workload.stats(partition.node, partition.stats);
    }
  }
  std::cout << "=== FDCT1 image-size scaling (E2) ===\n"
            << table.to_string() << "\n";
  std::cout << "linear-scaling check: ns/pixel should be roughly constant\n"
               "(the paper's own numbers scale slightly super-linearly:\n"
               " 1.68 ms/px -> 0.92 ms/px -> 1.13 ms/px).\n";
  if (!json_path.empty()) {
    json.write(json_path);
    std::cout << "wrote " << json_path.string() << "\n";
  }
  return 0;
}
