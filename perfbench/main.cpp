// Benchmark runner: runs one workload once and prints its result.
//
//   fti_perfbench --workload regress-cold|fuzz|serve-warm --seed N
//                 --seconds S --trace 0|1 --scratch DIR --root DIR
//                 --trace-out FILE
//
// The last stdout line is the result object ({"correct", "attempted",
// "failed", "metrics"}); the line before it starts with "counts " and
// holds the exact counts run.py compares between runs with one seed.
// --trace 1 reports the per-layer metrics instead of the end-to-end ones
// and writes the spans as a Chrome trace to --trace-out.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "fti/obs/metrics.hpp"
#include "fti/obs/trace.hpp"
#include "fti/util/cli.hpp"
#include "fti/util/json.hpp"
#include "workloads.hpp"

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric is not a finite number");
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

perfbench::RunConfig parse_args(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw fti::util::UsageError("missing value for " + flag);
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = fti::util::parse_u64_flag(flag, value);
    } else if (flag == "--seconds") {
      config.seconds = fti::util::parse_u32_flag(flag, value);
    } else if (flag == "--trace") {
      config.trace = fti::util::parse_u32_flag(flag, value) != 0;
    } else if (flag == "--scratch") {
      config.scratch = value;
    } else if (flag == "--root") {
      config.root = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      throw fti::util::UsageError("unknown flag " + flag);
    }
  }
  if (!have_workload || config.scratch.empty() || config.root.empty() ||
      config.trace_out.empty() || config.seconds == 0) {
    throw fti::util::UsageError(
        "--workload, --scratch, --root, --trace-out and --seconds > 0 are "
        "required");
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    perfbench::RunConfig config = parse_args(argc, argv);
    perfbench::RunResult result;
    // A traced run has the program's own instrumentation on throughout;
    // each workload turns the benchmark's spans on where its traced part
    // starts.
    fti::obs::set_enabled(config.trace);
    if (config.workload == "regress-cold") {
      result = perfbench::run_regress_cold(config);
    } else if (config.workload == "fuzz") {
      result = perfbench::run_fuzz(config);
    } else if (config.workload == "serve-warm") {
      result = perfbench::run_serve_warm(config);
    } else {
      throw fti::util::UsageError("unknown workload '" + config.workload +
                                  "'");
    }
    if (config.trace) {
      perfbench::write_chrome_trace(config.trace_out, result);
      std::filesystem::path obs_out = config.trace_out;
      obs_out.replace_extension(".obs.json");
      fti::obs::Tracer::instance().write_chrome_trace_file(obs_out);
    }

    std::string counts;
    for (const auto& [name, value] : result.counts) {
      counts += (counts.empty() ? "\"" : ", \"") + name +
                "\": " + std::to_string(value);
    }
    std::string metrics;
    for (const auto& [name, metric] : result.metrics) {
      metrics += (metrics.empty() ? "\"" : ", \"") +
                 fti::util::json_escape(name) + "\": {\"value\": " +
                 number(metric.value) + ", \"unit\": \"" + metric.unit +
                 "\"}";
    }
    std::cout << "counts {" << counts << "}\n";
    std::cout << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed << ", \"metrics\": {"
              << metrics << "}}" << std::endl;
    return result.failed == 0 ? 0 : 1;
  } catch (const fti::util::UsageError& error) {
    std::cerr << "fti_perfbench: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "fti_perfbench: error: " << error.what() << "\n";
    return 1;
  }
}
