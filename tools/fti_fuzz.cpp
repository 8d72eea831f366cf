// fti_fuzz -- differential fuzzing front end.
//
// A flag-parsing shim over the flow layer (src/fti/flow/), which owns
// the campaign/replay/inject bodies and shares them with fti serve.
//
//   fti_fuzz [options]                 run a fuzzing campaign
//   fti_fuzz replay FILE.xml           re-run one corpus <repro> entry
//   fti_fuzz corpus DIR                re-run every entry in a corpus dir
//   fti_fuzz inject [options]          lint-recall cross-check: plant one
//                                      known defect per generated design
//                                      and assert the matching rule fires
//
// Campaign options:
//   --seed N         campaign seed (default 1)
//   --runs N         number of generated designs (default 100)
//   --jobs N         worker threads (default 1)
//   --max-failures N stop after N failing cases (default 5)
//   --corpus DIR     write shrunk repros into DIR
//   --no-shrink      keep failing designs unshrunk
//   --max-units N    upper bound on random units per design
//   --max-configs N  upper bound on temporal partitions per design
//   --engine NAME    engine lane compared against the kernel (repeatable;
//                    replaces the default reference/batched set;
//                    "levelized" names the batched engine again and
//                    "naive" the reference sweep)
//   --lanes N        batched stimulus lanes per design (default 64,
//                    0 disables the lane check)
//   --smoke          fixed quick profile used by ctest (~seconds)
//   --xsim           add the external-simulator lane: cosimulate every
//                    completed design's emitted Verilog under Icarus
//                    Verilog and diff it against the kernel lane; a
//                    loud notice is printed (and the lane skipped) when
//                    no simulator is installed
//   --metrics PATH   record observability counters, write snapshot JSON
//   --trace PATH     record spans, write a Chrome trace-event file
//   --quiet          suppress per-case progress lines
//
// Inject options: --seed N, --runs N (cases per defect class),
// --max-units N, --max-configs N, --smoke (quick ctest profile), and at
// most one experiment other than static lint recall:
// --4state (experiment E10: plant uninit-register defects, assert the
// 2-state lanes launder them while the 4-state checker reports them),
// --semantic (experiment E11: plant behaviour-neutral oob-index /
// const-false-guard / live-truncation defects, assert the 2-state lanes
// launder them while the semantic lint tier proves them statically).
//
// Exit code: 0 when every case agreed (or, for inject, every planted
// defect was detected), 1 on any mismatch / missed defect, 2 on usage
// errors.
#include <cstring>
#include <iostream>

#include "fti/flow/flow.hpp"
#include "fti/obs/json.hpp"
#include "fti/util/cli.hpp"
#include "fti/util/error.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr
      << "usage: fti_fuzz [--seed N] [--runs N] [--jobs N]\n"
         "                [--max-failures N] [--corpus DIR] [--no-shrink]\n"
         "                [--max-units N] [--max-configs N] [--smoke]\n"
         "                [--engine NAME]... [--lanes N] [--xsim]\n"
         "                [--metrics PATH] [--trace PATH] [--quiet]\n"
         "       fti_fuzz replay FILE.xml\n"
         "       fti_fuzz corpus DIR\n"
         "       fti_fuzz inject [--seed N] [--runs N] [--max-units N]\n"
         "                       [--max-configs N] [--smoke]\n"
         "                       [--4state | --semantic]\n";
  std::exit(2);
}

int run_replay(int argc, char** argv) {
  if (argc != 1) {
    usage();
  }
  fti::flow::ReplayRequest request;
  request.repro_path = argv[0];
  fti::flow::FlowContext context;
  return fti::flow::run_replay(request, context, std::cout, std::cerr)
      .exit_code;
}

int run_corpus(int argc, char** argv) {
  if (argc != 1) {
    usage();
  }
  fti::flow::ReplayRequest request;
  request.corpus_dir = argv[0];
  fti::flow::FlowContext context;
  return fti::flow::run_replay(request, context, std::cout, std::cerr)
      .exit_code;
}

int run_inject(int argc, char** argv) {
  fti::flow::InjectRequest request;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      request.seed = fti::util::parse_u64_flag(arg, value());
    } else if (arg == "--runs") {
      request.runs = fti::util::parse_u64_flag(arg, value());
    } else if (arg == "--max-units") {
      request.generator.max_units = fti::util::parse_u32_flag(arg, value());
    } else if (arg == "--max-configs") {
      request.generator.max_configurations =
          fti::util::parse_u32_flag(arg, value());
    } else if (arg == "--smoke") {
      request.runs = 20;
      request.generator.max_units = 12;
      request.generator.max_run_cycles = 24;
    } else if (arg == "--4state" || arg == "--semantic") {
      fti::fuzz::InjectMode mode = arg == "--4state"
                                       ? fti::fuzz::InjectMode::kFourState
                                       : fti::fuzz::InjectMode::kSemantic;
      if (request.mode != fti::fuzz::InjectMode::kLint &&
          request.mode != mode) {
        std::cerr << "fti_fuzz inject: --4state and --semantic select "
                     "different experiments; name one\n";
        usage();
      }
      request.mode = mode;
    } else {
      usage();
    }
  }
  fti::flow::FlowContext context;
  return fti::flow::run_inject(request, context, std::cout, std::cerr)
      .exit_code;
}

int run_campaign(int argc, char** argv) {
  fti::flow::CampaignRequest request;
  fti::util::ToolFlags flags;
  for (int i = 0; i < argc; ++i) {
    // --engine/--lanes/--jobs/--metrics/--trace are shared with fti via
    // util::consume_tool_flag (identical spelling and validation).
    if (fti::util::consume_tool_flag(flags, argc, argv, i)) {
      continue;
    }
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      request.options.seed = fti::util::parse_u64_flag(arg, value());
    } else if (arg == "--runs") {
      request.options.runs = fti::util::parse_u64_flag(arg, value());
    } else if (arg == "--max-failures") {
      request.options.max_failures = fti::util::parse_u64_flag(arg, value());
    } else if (arg == "--corpus") {
      request.options.corpus_dir = value();
    } else if (arg == "--no-shrink") {
      request.options.shrink_failures = false;
    } else if (arg == "--max-units") {
      request.options.generator.max_units =
          fti::util::parse_u32_flag(arg, value());
    } else if (arg == "--max-configs") {
      request.options.generator.max_configurations =
          fti::util::parse_u32_flag(arg, value());
    } else if (arg == "--smoke") {
      request.options.runs = 25;
      request.options.generator.max_units = 12;
      request.options.generator.max_run_cycles = 24;
      request.options.batch_lanes = 16;
    } else if (arg == "--xsim") {
      request.options.diff.auto_xsim = true;
    } else if (arg == "--quiet") {
      request.quiet = true;
    } else {
      usage();
    }
  }
  // The fuzzer's diff driver uses the whole --engine list as its lane
  // set, replacing the default reference set when any were named.
  if (!flags.engines.empty()) {
    request.options.diff.engines = flags.engines;
  }
  if (flags.lanes_set) {
    request.options.batch_lanes = flags.lanes;
  }
  if (flags.jobs_set) {
    request.options.jobs = flags.jobs;
  }
  if (!flags.metrics_path.empty() || !flags.trace_path.empty()) {
    fti::obs::set_enabled(true);
  }

  fti::flow::FlowContext context;
  fti::flow::CampaignResult result =
      fti::flow::run_campaign(request, context, std::cout, std::cerr);
  if (!flags.metrics_path.empty()) {
    fti::obs::write_metrics_file(flags.metrics_path, "fti_fuzz");
    std::cout << "wrote " << flags.metrics_path << "\n";
  }
  if (!flags.trace_path.empty()) {
    if (!fti::obs::Tracer::instance().write_chrome_trace_file(
            flags.trace_path)) {
      std::cerr << "fti_fuzz: cannot write trace file '" << flags.trace_path
                << "'\n";
      return 2;
    }
    std::cout << "wrote " << flags.trace_path << "\n";
  }
  return result.exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "replay") == 0) {
      return run_replay(argc - 2, argv + 2);
    }
    if (argc >= 2 && std::strcmp(argv[1], "corpus") == 0) {
      return run_corpus(argc - 2, argv + 2);
    }
    if (argc >= 2 && std::strcmp(argv[1], "inject") == 0) {
      return run_inject(argc - 2, argv + 2);
    }
    return run_campaign(argc - 1, argv + 1);
  } catch (const fti::util::UsageError& error) {
    std::cerr << "fti_fuzz: " << error.what() << "\n";
    usage();
  } catch (const fti::util::Error& error) {
    std::cerr << "fti_fuzz: " << error.what() << "\n";
    return 2;
  }
}
