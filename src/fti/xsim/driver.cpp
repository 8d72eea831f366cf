#include "fti/xsim/driver.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "fti/codegen/verilog.hpp"
#include "fti/elab/engines.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/obs/trace.hpp"
#include "fti/sim/vcd.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "fti/xsim/testbench.hpp"

namespace fti::xsim {
namespace {

bool is_executable(const std::string& path) {
  return ::access(path.c_str(), X_OK) == 0;
}

/// Resolves `name` against $PATH the way execvp would; "" when absent.
std::string find_in_path(const std::string& name) {
  if (name.find('/') != std::string::npos) {
    return is_executable(name) ? name : "";
  }
  const char* path = std::getenv("PATH");
  if (path == nullptr) {
    return "";
  }
  std::string dirs = path;
  std::size_t start = 0;
  while (start <= dirs.size()) {
    std::size_t end = dirs.find(':', start);
    if (end == std::string::npos) {
      end = dirs.size();
    }
    std::string dir = dirs.substr(start, end - start);
    if (!dir.empty()) {
      std::string candidate = dir + "/" + name;
      if (is_executable(candidate)) {
        return candidate;
      }
    }
    start = end + 1;
  }
  return "";
}

/// The vvp runtime that belongs to a resolved iverilog: the sibling in
/// the same bin directory first (a pinned toolchain should not mix with
/// whatever is on $PATH), then $PATH.
std::string find_runtime(const std::string& compile) {
  std::size_t slash = compile.rfind('/');
  if (slash != std::string::npos) {
    std::string sibling = compile.substr(0, slash + 1) + "vvp";
    if (is_executable(sibling)) {
      return sibling;
    }
  }
  return find_in_path("vvp");
}

struct CommandResult {
  int exit_code = -1;
  bool timed_out = false;
  std::string output;  ///< combined stdout+stderr
};

/// Runs argv in `cwd` with stdout/stderr captured, killing the process
/// group when the wall-clock budget expires.
CommandResult run_command(const std::vector<std::string>& argv,
                          const std::filesystem::path& cwd,
                          const std::filesystem::path& log,
                          double timeout_seconds) {
  CommandResult result;
  pid_t pid = ::fork();
  if (pid < 0) {
    result.output = "fork failed";
    return result;
  }
  if (pid == 0) {
    ::setpgid(0, 0);
    if (::chdir(cwd.c_str()) != 0) {
      ::_exit(126);
    }
    int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    ::execv(argv[0].c_str(), args.data());
    ::_exit(127);
  }
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(timeout_seconds);
  int status = 0;
  for (;;) {
    pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) {
      break;
    }
    if (done < 0) {
      result.output = "waitpid failed";
      return result;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(-pid, SIGKILL);
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      result.timed_out = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  try {
    result.output = util::read_file(log);
  } catch (const util::Error&) {
  }
  return result;
}

std::filesystem::path make_sandbox() {
  static std::atomic<std::uint64_t> counter{0};
  std::filesystem::path root = util::scratch_dir("xsim");
  std::filesystem::path dir =
      root / ("run-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter.fetch_add(1)));
  std::filesystem::create_directories(dir);
  return dir;
}

std::string hex_lines(const std::vector<std::uint64_t>& words) {
  std::string out;
  char buffer[20];
  for (std::uint64_t word : words) {
    std::snprintf(buffer, sizeof(buffer), "%llx\n",
                  static_cast<unsigned long long>(word));
    out += buffer;
  }
  return out;
}

/// Truncated tool output for error messages.
std::string excerpt(const std::string& text) {
  constexpr std::size_t kMax = 800;
  if (text.size() <= kMax) {
    return text;
  }
  return text.substr(0, kMax) + "\n... (truncated)";
}

bool parse_hex(const std::string& token, std::uint64_t* value) {
  if (token.empty() || token.size() > 16) {
    return false;
  }
  std::uint64_t out = 0;
  for (char c : token) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;  // x/z from the simulator land here
    }
    out = (out << 4) | static_cast<std::uint64_t>(digit);
  }
  *value = out;
  return true;
}

/// Parses the bench's result file into `run`.  The format is positional
/// (indices into the bench spec), so IR names never appear in it.
void parse_result_file(const std::string& text, const Testbench& bench,
                       XsimRun* run) {
  std::vector<bool> done(bench.nodes.size(), false);
  std::vector<bool> seen(bench.nodes.size(), false);
  run->cycles.assign(bench.nodes.size(), 0);
  std::istringstream lines(text);
  std::string line;
  auto fail = [&](const std::string& why) {
    throw util::SimError("xsim: bad result line '" + line + "': " + why);
  };
  while (std::getline(lines, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "partition") {
      std::size_t index;
      std::uint64_t cycles;
      std::string done_bit;
      if (!(fields >> index >> cycles >> done_bit) ||
          index >= bench.nodes.size()) {
        fail("malformed partition record");
      }
      run->cycles[index] = cycles;
      seen[index] = true;
      if (done_bit == "1") {
        done[index] = true;
      } else if (done_bit != "0") {
        fail("done bit is neither 0 nor 1 (X-poisoned completion logic?)");
      }
    } else if (kind == "final") {
      std::size_t index;
      std::string hex;
      if (!(fields >> index >> hex) || index >= bench.traced.size()) {
        fail("malformed final record");
      }
      const TracedWire& traced = bench.traced[index];
      std::uint64_t value = 0;
      if (!parse_hex(hex, &value)) {
        fail("final value of " + traced.node + "/" + traced.wire +
             " is not defined hex (X/Z leaked into a clocked wire)");
      }
      run->finals[traced.node + "/" + traced.wire] = value;
    } else if (kind == "memory") {
      std::size_t index;
      std::size_t depth;
      if (!(fields >> index >> depth) || index >= bench.mem_outputs.size() ||
          depth != bench.mem_outputs[index].depth) {
        fail("malformed memory record");
      }
      std::vector<std::uint64_t>& words =
          run->memories[bench.mem_outputs[index].memory];
      words.clear();
      for (std::size_t i = 0; i < depth; ++i) {
        std::string hex;
        if (!std::getline(lines, hex)) {
          fail("memory dump truncated");
        }
        std::uint64_t value = 0;
        if (!parse_hex(hex, &value)) {
          line = hex;
          fail("memory word of '" + bench.mem_outputs[index].memory +
               "' is not defined hex");
        }
        words.push_back(value);
      }
    } else if (kind == "selfcheck") {
      std::size_t index;
      std::uint64_t errors;
      if (!(fields >> index >> errors) || index >= bench.mem_outputs.size()) {
        fail("malformed selfcheck record");
      }
      run->selfcheck[bench.mem_outputs[index].memory] = errors;
    } else {
      fail("unknown record kind");
    }
  }
  run->completed = true;
  run->total_cycles = 0;
  for (std::size_t k = 0; k < bench.nodes.size(); ++k) {
    if (!seen[k]) {
      throw util::SimError("xsim: result file has no record for partition " +
                           std::to_string(k));
    }
    run->completed = run->completed && done[k];
    run->total_cycles += run->cycles[k];
  }
}

/// Rebuilds the engines' value-change traces from the VCD: the engines
/// record every change from an implicit power-up zero, so the stream is
/// the wire's settled series with consecutive duplicates (and a leading
/// zero) dropped.
void parse_traces(const std::string& vcd_text, const Testbench& bench,
                  XsimRun* run) {
  sim::VcdDocument doc = sim::parse_vcd(vcd_text);
  std::map<std::string, std::size_t> node_index;
  for (std::size_t k = 0; k < bench.nodes.size(); ++k) {
    node_index[bench.nodes[k]] = k;
  }
  for (const TracedWire& traced : bench.traced) {
    std::string scope = "dut_" + std::to_string(node_index[traced.node]);
    const sim::VcdVar* var = doc.find_var(scope, traced.ident);
    std::string key = traced.node + "/" + traced.wire;
    if (var == nullptr) {
      throw util::SimError("xsim: traced wire " + key +
                           " missing from the simulator's VCD");
    }
    std::vector<std::uint64_t>& stream = run->traces[key];
    std::uint64_t last = 0;
    for (const sim::VcdSample& sample : doc.settled_series(var->code)) {
      if (sample.unknown != 0) {
        throw util::SimError("xsim: X/Z observed on clocked wire " + key +
                             " in the simulator's VCD");
      }
      if (sample.value != last) {
        stream.push_back(sample.value);
        last = sample.value;
      }
    }
  }
}

}  // namespace

XsimStatus xsim_status() {
  XsimStatus status;
  if (const char* pinned = std::getenv("FTI_XSIM_SIM");
      pinned != nullptr && *pinned != '\0') {
    status.compile = find_in_path(pinned);
    if (status.compile.empty()) {
      status.reason =
          "FTI_XSIM_SIM='" + std::string(pinned) + "' is not an executable";
      return status;
    }
  } else {
    status.compile = find_in_path("iverilog");
    if (status.compile.empty()) {
      status.reason = "no Verilog simulator on PATH (tried iverilog)";
      return status;
    }
  }
  status.run = find_runtime(status.compile);
  if (status.run.empty()) {
    status.reason = "found '" + status.compile +
                    "' but no vvp runtime next to it or on PATH";
    return status;
  }
  status.available = true;
  return status;
}

bool xsim_available() { return xsim_status().available; }

XsimRun run_external(
    const ir::Design& design, const mem::MemoryPool& stimulus,
    const XsimOptions& options,
    const std::map<std::string, std::vector<std::uint64_t>>&
        golden_memories) {
  XsimRun run;
  XsimStatus status = xsim_status();
  if (!status.available) {
    run.skip_reason = status.reason;
    obs::counter("xsim.skips").inc();
    return run;
  }
  obs::ScopedSpan span("xsim.run", "xsim");

  TestbenchOptions bench_options;
  bench_options.max_cycles_per_partition = options.max_cycles_per_partition;
  bench_options.golden_memories = golden_memories;
  Testbench bench = make_testbench(design, stimulus, bench_options);

  std::filesystem::path sandbox = make_sandbox();
  bool keep = options.keep_sandbox;
  try {
    util::write_file(sandbox / "design.v",
                     codegen::design_to_verilog(design));
    util::write_file(sandbox / "tb.v", bench.text);
    for (const MemPreload& preload : bench.preloads) {
      util::write_file(sandbox / preload.file, hex_lines(preload.words));
    }

    CommandResult compiled = run_command(
        {status.compile, "-g2001", "-o", "sim.vvp", "design.v", "tb.v"},
        sandbox, sandbox / "compile.log", options.timeout_seconds);
    if (compiled.timed_out) {
      throw util::SimError("xsim: '" + status.compile + "' timed out after " +
                           std::to_string(options.timeout_seconds) + "s");
    }
    if (compiled.exit_code != 0) {
      throw util::SimError("xsim: '" + status.compile +
                           "' rejected the emitted design (exit " +
                           std::to_string(compiled.exit_code) + "):\n" +
                           excerpt(compiled.output));
    }
    CommandResult simulated =
        run_command({status.run, "-n", "sim.vvp"}, sandbox,
                    sandbox / "sim.log", options.timeout_seconds);
    if (simulated.timed_out) {
      throw util::SimError("xsim: '" + status.run + "' timed out after " +
                           std::to_string(options.timeout_seconds) + "s");
    }
    if (simulated.exit_code != 0) {
      throw util::SimError("xsim: '" + status.run + "' failed (exit " +
                           std::to_string(simulated.exit_code) + "):\n" +
                           excerpt(simulated.output));
    }
    parse_result_file(util::read_file(sandbox / bench_options.result_file),
                      bench, &run);
    parse_traces(util::read_file(sandbox / bench_options.vcd_file), bench,
                 &run);
    run.ran = true;
    obs::counter("xsim.runs").inc();
  } catch (const util::Error& error) {
    run.error = error.what();
    keep = true;  // leave the evidence for debugging
    obs::counter("xsim.failures").inc();
  }
  if (keep) {
    run.sandbox = sandbox;
  } else {
    std::error_code ignored;
    std::filesystem::remove_all(sandbox, ignored);
  }
  return run;
}

XsimCheck cross_check(const elab::CheckedDesign& design,
                      const mem::MemoryPool& stimulus,
                      const XsimOptions& options) {
  XsimCheck check;
  XsimStatus status = xsim_status();
  if (!status.available) {
    check.skip_reason = status.reason;
    obs::counter("xsim.skips").inc();
    return check;
  }

  // The levelized engine over a private copy of the stimulus is the
  // reference side of the comparison.
  mem::MemoryPool pool;
  for (const std::string& name : stimulus.names()) {
    const mem::MemoryImage& image = stimulus.get(name);
    pool.create(name, image.depth(), image.width());
    pool.get(name).load(image.words());
  }
  sim::EngineRunOptions engine_options;
  engine_options.collect_wire_data = true;
  engine_options.max_cycles_per_partition = options.max_cycles_per_partition;
  sim::EngineResult reference =
      elab::make_engine("levelized")->run(design, pool, engine_options);

  std::map<std::string, std::uint64_t> ref_finals;
  std::map<std::string, std::vector<std::uint64_t>> ref_traces;
  std::vector<std::uint64_t> ref_cycles;
  for (const sim::EnginePartition& partition : reference.partitions) {
    ref_cycles.push_back(partition.cycles);
    for (const auto& [wire, value] : partition.finals) {
      ref_finals[partition.node + "/" + wire] = value;
    }
    for (const auto& [wire, stream] : partition.traces) {
      ref_traces[partition.node + "/" + wire] = stream;
    }
  }
  std::map<std::string, std::vector<std::uint64_t>> ref_memories;
  for (const std::string& name : pool.names()) {
    ref_memories[name] = pool.get(name).words();
  }

  check.run = run_external(design.design(), stimulus, options,
                           reference.completed ? ref_memories
                                               : decltype(ref_memories){});
  if (!check.run.ran) {
    if (!check.run.skip_reason.empty()) {
      check.skip_reason = check.run.skip_reason;
      return check;
    }
    check.ran = true;
    check.mismatches.push_back(check.run.error);
    return check;
  }
  check.ran = true;

  auto mismatch = [&](const std::string& line) {
    if (check.mismatches.size() < 32) {
      check.mismatches.push_back(line);
    }
  };
  if (reference.completed != check.run.completed) {
    mismatch(std::string("completed: levelized=") +
             (reference.completed ? "true" : "false") + " xsim=" +
             (check.run.completed ? "true" : "false"));
  }
  for (std::size_t k = 0; k < ref_cycles.size(); ++k) {
    if (k < check.run.cycles.size() &&
        ref_cycles[k] != check.run.cycles[k]) {
      mismatch("cycles[" + std::to_string(k) +
               "]: levelized=" + std::to_string(ref_cycles[k]) +
               " xsim=" + std::to_string(check.run.cycles[k]));
    }
  }
  // Wire and memory data are only comparable for complete runs: the
  // engine tears down at the first partition that misses done, while the
  // bench reports every phase.
  if (reference.completed && check.run.completed) {
    auto compare_values = [&](const char* what,
                              const std::map<std::string, std::uint64_t>& a,
                              const std::map<std::string, std::uint64_t>& b) {
      for (const auto& [key, value] : a) {
        auto it = b.find(key);
        if (it == b.end()) {
          mismatch(std::string(what) + "[" + key + "]: missing from xsim");
        } else if (it->second != value) {
          mismatch(std::string(what) + "[" + key +
                   "]: levelized=" + std::to_string(value) +
                   " xsim=" + std::to_string(it->second));
        }
      }
      for (const auto& [key, value] : b) {
        if (a.find(key) == a.end()) {
          mismatch(std::string(what) + "[" + key +
                   "]: missing from levelized");
        }
      }
    };
    compare_values("finals", ref_finals, check.run.finals);
    auto compare_streams =
        [&](const char* what,
            const std::map<std::string, std::vector<std::uint64_t>>& a,
            const std::map<std::string, std::vector<std::uint64_t>>& b) {
          for (const auto& [key, stream] : a) {
            auto it = b.find(key);
            if (it == b.end()) {
              mismatch(std::string(what) + "[" + key +
                       "]: missing from xsim");
            } else if (it->second != stream) {
              mismatch(std::string(what) + "[" + key +
                       "]: levelized has " + std::to_string(stream.size()) +
                       " changes, xsim has " +
                       std::to_string(it->second.size()) +
                       (it->second.size() == stream.size()
                            ? " (values differ)"
                            : ""));
            }
          }
          for (const auto& [key, stream] : b) {
            if (a.find(key) == a.end()) {
              mismatch(std::string(what) + "[" + key +
                       "]: missing from levelized");
            }
          }
        };
    compare_streams("traces", ref_traces, check.run.traces);
    compare_streams("memories", ref_memories, check.run.memories);
    for (const auto& [memory, errors] : check.run.selfcheck) {
      if (errors != 0) {
        mismatch("selfcheck[" + memory + "]: " + std::to_string(errors) +
                 " mismatching words (bench-side check)");
      }
    }
  }
  check.ok = check.mismatches.empty();
  return check;
}

}  // namespace fti::xsim
