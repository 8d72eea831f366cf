// fti -- command-line front end of the test infrastructure.
//
// This binary is a flag-parsing shim: every command body lives in the
// reusable flow layer (src/fti/flow/), shared with the fti serve daemon.
// main() builds a typed flow request from argv, runs it against
// std::cout/std::cerr and maps the result to the exit-code contract.
//
//   fti verify KERNEL.k [options]     run the full functional-test flow
//   fti translate KERNEL.k [options]  emit XML / dot / hds / HDLs
//   fti run RTG.xml [options]         simulate a saved XML file set
//   fti suite DIR [--emit DIR]        run every *.k test case in DIR
//                 [--jobs N]          run N test cases concurrently (the
//                                     report stays in test order and is
//                                     identical to a --jobs 1 run apart
//                                     from the wall-clock columns)
//                 [--json PATH]       also write the report as JSON
//   fti engines                       list the registered execution
//                                     engines with their max batch lanes
//   fti obs METRICS.json              pretty-print a --metrics snapshot
//   fti lint PATH...                  static analysis without simulating
//        [--json PATH] [--sarif PATH]
//        [--semantic[=off]]           abstract-interpretation tier
//                                     (FTI-L012..L017), on by default
//        [--baseline SARIF]           suppress findings already in a
//                                     previously exported SARIF file;
//                                     only NEW findings set the exit code
//   fti serve SOCKET [--jobs N]       long-lived daemon accepting verify/
//             [--cache N]             suite/lint jobs as JSON over a local
//                                     socket; repeat submissions of the
//                                     same kernel hit the design cache and
//                                     skip compile+lint+round-trip
//   fti submit SOCKET REQUEST         send one JSON request line to a
//                                     running daemon, print the reply and
//                                     exit with the job's exit code
//
// Common options:
//   --arg NAME=VALUE       bind a scalar parameter (repeatable)
//   --mem ARRAY=FILE.dat   initial memory contents from a mem file
//   --rom                  embed the memories into the XML (<init> tables)
//   --limit CLASS=N        FU resource limit (e.g. --limit mul=1)
//   --default-limit N      default FU limit (default 2)
//   --latency CLASS=N      pipelined FU latency (e.g. --latency mul=2)
//   --engine NAME          execution engine for verify/run/suite
//                          (default "event"; see `fti engines`)
//   --lanes N              verify/suite: stimulus lanes per design
//   --lane-seed N          seed for the random lane stimuli (default 1)
//   --lint error|warn|off  static-analysis gate for verify/suite
//   --semantic[=on|off]    semantic lint tier for verify/suite/lint
//                          (value-range + known-bits dataflow analysis;
//                          on by default)
//   --metrics PATH         write an observability snapshot as JSON
//   --trace PATH           write a Chrome trace-event file
// verify options:
//   --check ARRAY          compare only this array (repeatable)
//   --emit DIR             write all artefacts + verdict into DIR
//   --max-cycles N         per-partition cycle budget
//   --vcd FILE             dump a VCD of the first partition
//   --save ARRAY=FILE.dat  write an array's final contents after the run
//   --xsim                 cosimulate the emitted Verilog with an external
//                          simulator (Icarus Verilog; FTI_XSIM_SIM pins or
//                          disables it) and compare bit for bit against
//                          the levelized engine; skipped loudly when no
//                          simulator is installed
//   --4state               re-run lane 0 with 4-state X/Z semantics;
//                          X reaching an observable is reported as a
//                          dynamic FTI-L010 finding (warning exit code)
// translate options:
//   --out DIR              output directory (default: KERNEL name)
//
// Exit codes (the contract CI scripts rely on, see README):
//   0  PASS / lint clean (notes allowed)
//   1  FAIL -- simulation mismatch or incomplete run
//   2  usage or input error (bad flags -- including a flag the command
//      does not read --, unreadable files, malformed XML)
//   3  lint errors (fti lint), or the --lint gate blocked on errors
//   4  lint warnings only (fti lint), or the gate blocked on warnings
#include <cstring>
#include <iostream>
#include <map>
#include <set>

#include "fti/flow/flow.hpp"
#include "fti/mem/memfile.hpp"
#include "fti/obs/json.hpp"
#include "fti/serve/serve.hpp"
#include "fti/util/cli.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/json_reader.hpp"
#include "fti/util/logging.hpp"
#include "fti/util/strings.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr <<
      "usage: fti verify    KERNEL.k [--arg n=V] [--mem a=F.dat] [--rom]\n"
      "                     [--check a] [--emit DIR] [--max-cycles N]\n"
      "                     [--vcd FILE] [--save a=F.dat]\n"
      "                     [--limit class=N] [--default-limit N]\n"
      "                     [--latency class=N] [--read-ports N]\n"
      "                     [--engine NAME] [--lanes N]\n"
      "                     [--xsim] [--4state]\n"
      "       fti translate KERNEL.k [--arg n=V] [--mem a=F.dat] [--rom]\n"
      "                     [--out DIR] [--limit class=N]\n"
      "       fti run       RTG.xml [--mem a=F.dat] [--save a=F.dat]\n"
      "                     [--max-cycles N] [--vcd FILE] [--engine NAME]\n"
      "       fti suite     DIR [--emit DIR] [--engine NAME] [--lanes N]\n"
      "                     [--jobs N] [--json PATH] [--xsim]\n"
      "       fti engines\n"
      "       fti obs       METRICS.json\n"
      "       fti lint      PATH... [--json PATH] [--sarif PATH]\n"
      "                     [--semantic[=off]] [--baseline SARIF]\n"
      "       fti serve     SOCKET [--jobs N] [--cache N]\n"
      "       fti submit    SOCKET REQUEST-JSON\n"
      "options common to verify/run/suite:\n"
      "                     [--metrics PATH] [--trace PATH]\n"
      "                     [--lint error|warn|off]  (verify/suite gate)\n"
      "                     [--semantic[=on|off]]    (semantic lint tier)\n"
      "exit codes: 0 pass/clean, 1 simulation mismatch, 2 usage/input\n"
      "error, 3 lint errors, 4 lint warnings only\n";
  std::exit(2);
}

std::pair<std::string, std::string> split_kv(const std::string& text,
                                             const char* what) {
  std::size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw fti::util::IoError(std::string("malformed ") + what + " '" +
                             text + "', expected NAME=VALUE");
  }
  return {text.substr(0, eq), text.substr(eq + 1)};
}

struct Cli {
  std::string command;
  std::filesystem::path source_path;
  fti::harness::TestCase test;
  std::filesystem::path out_dir;
  std::filesystem::path vcd_path;
  std::vector<std::pair<std::string, std::filesystem::path>> saves;
  std::filesystem::path json_path;
  fti::util::ToolFlags flags;
  bool verbose = false;
  bool xsim = false;
  bool four_state = false;
};

/// Rejects a flag that `command` does not read: silently ignoring it
/// would let `fti suite --4state` pass without checking anything.
/// --verbose, --metrics and --trace are read by every command.
void require_flag_read(const std::string& command, const std::string& arg) {
  static const std::map<std::string, std::set<std::string>> kReaders = {
      {"--arg", {"verify", "translate"}},
      {"--mem", {"verify", "translate", "run"}},
      {"--rom", {"verify", "translate"}},
      {"--check", {"verify"}},
      {"--emit", {"verify", "translate", "suite"}},
      {"--out", {"verify", "translate", "suite"}},
      {"--max-cycles", {"verify", "run"}},
      {"--vcd", {"verify", "run"}},
      {"--save", {"verify", "run"}},
      {"--limit", {"verify", "translate"}},
      {"--default-limit", {"verify", "translate"}},
      {"--latency", {"verify", "translate"}},
      {"--read-ports", {"verify", "translate"}},
      {"--json", {"suite"}},
      {"--xsim", {"verify", "suite"}},
      {"--4state", {"verify"}},
      {"--engine", {"verify", "run", "suite"}},
      {"--lanes", {"verify", "suite"}},
      {"--lane-seed", {"verify", "suite"}},
      {"--jobs", {"suite"}},
      {"--lint", {"verify", "suite"}},
      {"--semantic", {"verify", "suite"}},
  };
  const std::string flag = arg.substr(0, arg.find('='));
  auto readers = kReaders.find(flag);
  if (readers != kReaders.end() && !readers->second.count(command)) {
    throw fti::util::UsageError("fti " + command + " does not read " + flag);
  }
}

Cli parse_cli(int argc, char** argv) {
  if (argc < 3) {
    usage();
  }
  Cli cli;
  cli.command = argv[1];
  cli.source_path = argv[2];
  if (cli.command != "verify" && cli.command != "translate" &&
      cli.command != "run" && cli.command != "suite") {
    usage();
  }
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      usage();
    }
    return argv[++i];
  };
  for (int i = 3; i < argc; ++i) {
    require_flag_read(cli.command, argv[i]);
    // --engine/--lanes/--lane-seed/--jobs/--lint/--metrics/--trace are
    // shared with fti_fuzz via util::consume_tool_flag.
    if (fti::util::consume_tool_flag(cli.flags, argc, argv, i)) {
      continue;
    }
    std::string flag = argv[i];
    if (flag == "--arg") {
      auto [name, value] = split_kv(need_value(i), "--arg");
      cli.test.scalar_args[name] = fti::util::parse_i64(value);
    } else if (flag == "--mem") {
      auto [name, file] = split_kv(need_value(i), "--mem");
      // Width-independent parse: values are masked when loaded into the
      // actual image, so parse at full width here.
      auto words = fti::mem::parse_mem_text(
          fti::util::read_file(file), 64);
      std::vector<std::uint64_t> values;
      for (const auto& word : words) {
        if (word.address >= values.size()) {
          values.resize(word.address + 1, 0);
        }
        values[word.address] = word.value;
      }
      cli.test.inputs[name] = std::move(values);
    } else if (flag == "--rom") {
      cli.test.embed_inputs = true;
    } else if (flag == "--check") {
      cli.test.check_arrays.push_back(need_value(i));
    } else if (flag == "--emit" || flag == "--out") {
      cli.out_dir = need_value(i);
    } else if (flag == "--max-cycles") {
      cli.test.max_cycles =
          fti::util::parse_u64_flag("--max-cycles", need_value(i));
    } else if (flag == "--vcd") {
      cli.vcd_path = need_value(i);
    } else if (flag == "--save") {
      auto [name, file] = split_kv(need_value(i), "--save");
      cli.saves.emplace_back(name, file);
    } else if (flag == "--limit") {
      auto [cls, value] = split_kv(need_value(i), "--limit");
      cli.test.resources.limits[cls] =
          fti::util::parse_u32_flag("--limit", value);
    } else if (flag == "--latency") {
      auto [cls, value] = split_kv(need_value(i), "--latency");
      cli.test.resources.latencies[cls] =
          fti::util::parse_u32_flag("--latency", value);
    } else if (flag == "--default-limit") {
      cli.test.resources.default_limit =
          fti::util::parse_u32_flag("--default-limit", need_value(i));
    } else if (flag == "--read-ports") {
      cli.test.resources.default_memory_read_ports =
          fti::util::parse_u32_flag("--read-ports", need_value(i));
    } else if (flag == "--json") {
      cli.json_path = need_value(i);
    } else if (flag == "--xsim") {
      cli.xsim = true;
    } else if (flag == "--4state") {
      cli.four_state = true;
    } else if (flag == "--verbose") {
      cli.verbose = true;
    } else {
      std::cerr << "unknown option '" << flag << "'\n";
      usage();
    }
  }
  if (cli.command != "run" && cli.command != "suite") {
    cli.test.source = fti::util::read_file(cli.source_path);
  }
  cli.test.name = cli.source_path.stem().string();
  return cli;
}

int run_lint(int argc, char** argv) {
  fti::flow::LintRequest request;
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    auto need_value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
      }
      return argv[++i];
    };
    if (flag == "--json") {
      request.json_path = need_value();
    } else if (flag == "--sarif") {
      request.sarif_path = need_value();
    } else if (flag == "--baseline") {
      request.baseline_path = need_value();
    } else if (flag == "--semantic" ||
               fti::util::starts_with(flag, "--semantic=")) {
      fti::util::ToolFlags semantic_flag;
      int j = i;
      fti::util::consume_tool_flag(semantic_flag, argc, argv, j);
      request.semantic = semantic_flag.semantic;
      i = j;
    } else if (fti::util::starts_with(flag, "--")) {
      std::cerr << "unknown option '" << flag << "'\n";
      usage();
    } else {
      request.inputs.emplace_back(flag);
    }
  }
  if (request.inputs.empty()) {
    usage();
  }
  fti::flow::FlowContext context;
  return fti::flow::run_lint(request, context, std::cout, std::cerr)
      .exit_code;
}

/// `fti serve`: run the daemon until a shutdown request arrives.
int run_serve(int argc, char** argv) {
  if (argc < 3) {
    usage();
  }
  fti::serve::ServerOptions options;
  options.socket_path = argv[2];
  for (int i = 3; i < argc; ++i) {
    std::string flag = argv[i];
    auto need_value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
      }
      return argv[++i];
    };
    if (flag == "--jobs") {
      options.jobs = fti::util::parse_jobs_flag("--jobs", need_value());
    } else if (flag == "--cache") {
      options.cache_entries =
          fti::util::parse_u32_flag("--cache", need_value());
    } else {
      std::cerr << "unknown option '" << flag << "'\n";
      usage();
    }
  }
  fti::serve::Server server(options);
  server.start();
  std::cout << "fti serve: listening on " << options.socket_path.string()
            << " (" << options.jobs << " worker(s), cache "
            << options.cache_entries << " entries)" << std::endl;
  server.wait();
  const auto& stats = server.cache().stats();
  std::cout << "fti serve: stopped after " << server.finished_jobs()
            << " job(s), cache " << stats.hits << " hit(s) / "
            << stats.misses << " miss(es)\n";
  return 0;
}

/// `fti submit`: one request line to a running daemon; the reply is
/// printed verbatim and the job's exit code becomes ours.
int run_submit(int argc, char** argv) {
  if (argc != 4) {
    usage();
  }
  std::string reply = fti::serve::request(argv[2], argv[3]);
  std::cout << reply << "\n";
  fti::util::JsonValue doc = fti::util::parse_json(reply);
  const fti::util::JsonValue* ok = doc.find("ok");
  if (ok == nullptr || !ok->as_bool()) {
    return 2;
  }
  if (const fti::util::JsonValue* code = doc.find("exit_code")) {
    return static_cast<int>(code->as_u64());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::strcmp(argv[1], "engines") == 0) {
      return fti::flow::run_engines(std::cout);
    }
    if (argc == 3 && std::strcmp(argv[1], "obs") == 0) {
      return fti::flow::run_obs(argv[2], std::cout);
    }
    if (argc >= 2 && std::strcmp(argv[1], "lint") == 0) {
      return run_lint(argc, argv);
    }
    if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
      return run_serve(argc, argv);
    }
    if (argc >= 2 && std::strcmp(argv[1], "submit") == 0) {
      return run_submit(argc, argv);
    }
    Cli cli = parse_cli(argc, argv);
    if (cli.verbose) {
      fti::util::set_log_level(fti::util::LogLevel::kInfo);
    }
    // --metrics / --trace turn recording on for the whole command; the
    // snapshots are written after the command returns.
    if (!cli.flags.metrics_path.empty() || !cli.flags.trace_path.empty()) {
      fti::obs::set_enabled(true);
    }
    auto finish = [&cli](int code) {
      if (!cli.flags.metrics_path.empty()) {
        fti::obs::write_metrics_file(cli.flags.metrics_path);
        std::cout << "wrote " << cli.flags.metrics_path << "\n";
      }
      if (!cli.flags.trace_path.empty()) {
        if (!fti::obs::Tracer::instance().write_chrome_trace_file(
                cli.flags.trace_path)) {
          std::cerr << "error: cannot write trace file '"
                    << cli.flags.trace_path << "'\n";
          return 2;
        }
        std::cout << "wrote " << cli.flags.trace_path << "\n";
      }
      return code;
    };
    fti::flow::FlowContext context;
    fti::lint::Gate gate =
        fti::lint::gate_from_string(cli.flags.lint_gate).value();
    if (cli.command == "verify") {
      fti::flow::VerifyRequest request;
      request.test = std::move(cli.test);
      request.engine = cli.flags.engine_or("event");
      request.lint_gate = gate;
      request.semantic = cli.flags.semantic;
      request.lanes = cli.flags.lanes_set ? cli.flags.lanes : 1;
      request.lane_seed = cli.flags.lane_seed;
      request.emit_dir = cli.out_dir;
      request.vcd_path = cli.vcd_path;
      request.saves = cli.saves;
      request.xsim = cli.xsim;
      request.four_state = cli.four_state;
      return finish(
          fti::flow::run_verify(request, context, std::cout, std::cerr)
              .exit_code);
    }
    if (cli.command == "translate") {
      fti::flow::TranslateRequest request;
      request.test = std::move(cli.test);
      request.out_dir = cli.out_dir;
      return finish(
          fti::flow::run_translate(request, context, std::cout, std::cerr)
              .exit_code);
    }
    if (cli.command == "run") {
      fti::flow::RunDesignRequest request;
      request.design_path = cli.source_path;
      request.inputs = std::move(cli.test.inputs);
      request.engine = cli.flags.engine_or("event");
      request.max_cycles = cli.test.max_cycles;
      request.vcd_path = cli.vcd_path;
      request.saves = cli.saves;
      return finish(
          fti::flow::run_design(request, context, std::cout, std::cerr)
              .exit_code);
    }
    if (cli.command == "suite") {
      fti::flow::SuiteRequest request;
      request.suite_dir = cli.source_path;
      request.engine = cli.flags.engine_or("event");
      request.lint_gate = gate;
      request.semantic = cli.flags.semantic;
      request.lanes = cli.flags.lanes_set ? cli.flags.lanes : 1;
      request.lane_seed = cli.flags.lane_seed;
      request.jobs = cli.flags.jobs;
      request.emit_dir = cli.out_dir;
      request.json_path = cli.json_path;
      request.xsim = cli.xsim;
      return finish(
          fti::flow::run_suite(request, context, std::cout, std::cerr)
              .exit_code);
    }
    usage();
  } catch (const fti::util::UsageError& e) {
    std::cerr << e.what() << "\n";
    usage();
  } catch (const fti::util::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
