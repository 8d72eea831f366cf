// E5 -- event-kernel micro-benchmarks (ablation support).
//
// The paper's requirement is "a fast simulation engine" for designs that
// run millions of cycles.  These google-benchmark fixtures measure the
// kernel's primitive costs: raw event throughput, fan-out activation,
// delta-cycle convergence of combinational chains, clocked-component wake
// cost, and the elaboration cost of a compiled design.
//
//   bench_kernel [--json PATH] [google-benchmark flags]
//   (--json PATH is sugar for --benchmark_out=PATH
//    --benchmark_out_format=json; conventionally PATH=BENCH_kernel.json)
#include <benchmark/benchmark.h>

#include <iostream>

#include "fti/util/cli.hpp"
#include "fti/util/json.hpp"
#include "fti/compiler/hls.hpp"
#include "fti/elab/elaborator.hpp"
#include "fti/golden/fdct.hpp"
#include "fti/mem/storage.hpp"
#include "fti/ops/alu.hpp"
#include "fti/ops/clock.hpp"
#include "fti/ops/constant.hpp"
#include "fti/ops/counter.hpp"
#include "fti/ops/register.hpp"
#include "fti/sim/kernel.hpp"

namespace {

using fti::sim::Bits;

/// Raw scheduling throughput: a counter toggled by a clock for N cycles.
void BM_EventThroughput(benchmark::State& state) {
  const std::uint64_t cycles = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    fti::sim::Netlist netlist;
    fti::sim::Net& clock = netlist.create_net("clk", 1);
    fti::sim::Net& q = netlist.create_net("q", 32);
    netlist.add_component<fti::ops::ClockGen>("cg", clock, 10, cycles);
    netlist.add_component<fti::ops::Counter>("ctr", clock, q);
    fti::sim::Kernel kernel(netlist);
    kernel.run();
    events += kernel.stats().events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventThroughput)->Arg(1000)->Arg(10000)->Arg(100000);

/// Fan-out activation: one toggling net wakes N combinational consumers.
void BM_Fanout(benchmark::State& state) {
  const int fanout = static_cast<int>(state.range(0));
  std::uint64_t evaluations = 0;
  for (auto _ : state) {
    fti::sim::Netlist netlist;
    fti::sim::Net& clock = netlist.create_net("clk", 1);
    netlist.add_component<fti::ops::ClockGen>("cg", clock, 10, 256);
    fti::sim::Net& source = netlist.create_net("src", 32);
    netlist.add_component<fti::ops::Counter>("ctr", clock, source);
    for (int i = 0; i < fanout; ++i) {
      fti::sim::Net& sink =
          netlist.create_net("sink" + std::to_string(i), 32);
      netlist.add_component<fti::ops::UnaryOp>(
          "u" + std::to_string(i), fti::ops::UnOp::kNot, source, sink);
    }
    fti::sim::Kernel kernel(netlist);
    kernel.run();
    evaluations += kernel.stats().evaluations;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluations));
}
BENCHMARK(BM_Fanout)->Arg(1)->Arg(16)->Arg(128);

/// Delta convergence: a depth-N adder chain settles after each input step.
void BM_DeltaChain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  std::uint64_t deltas = 0;
  for (auto _ : state) {
    fti::sim::Netlist netlist;
    fti::sim::Net& clock = netlist.create_net("clk", 1);
    netlist.add_component<fti::ops::ClockGen>("cg", clock, 10, 64);
    fti::sim::Net& one = netlist.create_net("one", 32);
    netlist.add_component<fti::ops::Constant>("k1", one, Bits(32, 1));
    fti::sim::Net* previous = &netlist.create_net("stage0", 32);
    netlist.add_component<fti::ops::Counter>("ctr", clock, *previous);
    for (int i = 1; i <= depth; ++i) {
      fti::sim::Net& next =
          netlist.create_net("stage" + std::to_string(i), 32);
      netlist.add_component<fti::ops::BinaryOp>(
          "a" + std::to_string(i), fti::ops::BinOp::kAdd, *previous, one,
          next);
      previous = &next;
    }
    fti::sim::Kernel kernel(netlist);
    kernel.run();
    deltas += kernel.stats().delta_cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(deltas));
}
BENCHMARK(BM_DeltaChain)->Arg(4)->Arg(32)->Arg(128);

/// Wake cost of clocked components: N enabled registers shifting a token.
void BM_RegisterArray(benchmark::State& state) {
  const int registers = static_cast<int>(state.range(0));
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    fti::sim::Netlist netlist;
    fti::sim::Net& clock = netlist.create_net("clk", 1);
    netlist.add_component<fti::ops::ClockGen>("cg", clock, 10, 512);
    fti::sim::Net& seed = netlist.create_net("seed", 8);
    netlist.add_component<fti::ops::Counter>("ctr", clock, seed);
    fti::sim::Net* previous = &seed;
    for (int i = 0; i < registers; ++i) {
      fti::sim::Net& q = netlist.create_net("q" + std::to_string(i), 8);
      netlist.add_component<fti::ops::Register>(
          "r" + std::to_string(i), clock, *previous, q);
      previous = &q;
    }
    fti::sim::Kernel kernel(netlist);
    kernel.run();
    cycles += 512;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles) *
                          registers);
}
BENCHMARK(BM_RegisterArray)->Arg(8)->Arg(64)->Arg(256);

/// End-to-end elaboration cost of a real compiled design (one FDCT block).
void BM_ElaborateFdct(benchmark::State& state) {
  fti::compiler::CompileOptions options;
  options.scalar_args = {{"nblocks", 1}};
  auto compiled =
      fti::compiler::compile_source(fti::golden::fdct_source(1, false),
                                    options);
  const fti::elab::CheckedDesign checked(compiled.design);
  for (auto _ : state) {
    fti::mem::MemoryPool pool;
    auto live = fti::elab::elaborate(checked, "fdct", pool);
    benchmark::DoNotOptimize(live->netlist.component_count());
  }
}
BENCHMARK(BM_ElaborateFdct);

/// Compile-time cost of the HLS pipeline itself.
void BM_CompileFdct(benchmark::State& state) {
  std::string source = fti::golden::fdct_source(1, false);
  for (auto _ : state) {
    fti::compiler::CompileOptions options;
    options.scalar_args = {{"nblocks", 1}};
    auto compiled = fti::compiler::compile_source(source, options);
    benchmark::DoNotOptimize(compiled.design.configuration_count());
  }
}
BENCHMARK(BM_CompileFdct);

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path json_path;
  try {
    json_path = fti::util::extract_path_flag(argc, argv, "--json");
  } catch (const fti::util::UsageError& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
  }
  std::vector<std::string> storage;
  if (!json_path.empty()) {
    storage.push_back("--benchmark_out=" + json_path.string());
    storage.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args(argv, argv + argc);
  for (std::string& extra : storage) {
    args.push_back(extra.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
