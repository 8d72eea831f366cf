// Hamming(7,4) decoder with injected transmission errors -- the paper's
// second workload.  Demonstrates in-simulation assertions: a NetAssertion
// attached through EngineRunOptions::on_netlist checks that the decoder
// never emits a value above 15.
//
// Usage: hamming_decoder [words] [error_stride]
#include <iostream>

#include "fti/elab/engines.hpp"
#include "fti/golden/hamming.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/sim/probe.hpp"

int main(int argc, char** argv) {
  std::size_t words = argc > 1 ? std::stoull(argv[1]) : 1024;
  std::size_t error_stride = argc > 2 ? std::stoull(argv[2]) : 4;

  fti::harness::TestCase test;
  test.name = "hamming";
  test.source = fti::golden::hamming_source(words);
  test.scalar_args = {{"n", static_cast<std::int64_t>(words)}};
  test.inputs = {{"code",
                  fti::golden::make_codewords(words, 2026, error_stride)}};
  test.check_arrays = {"data"};

  // Instrumented run: compile once, attach the assertion, simulate.
  fti::compiler::CompileOptions compile_options;
  compile_options.scalar_args = test.scalar_args;
  auto compiled =
      fti::compiler::compile_source(test.source, compile_options);
  fti::mem::MemoryPool pool;
  pool.create("code", words, 8);
  pool.create("data", words, 8);
  fti::harness::load_inputs(pool, "code", test.inputs.at("code"));

  fti::sim::EngineRunOptions run_options;
  run_options.on_netlist = [](const std::string&,
                              fti::sim::Netlist& netlist) {
    // Nibbles are 4 bits: anything above 15 on the data-memory din port
    // is a decoder bug caught *during* simulation, not after -- the
    // assertion throws SimError and the run stops at the violation.
    netlist.add_component<fti::sim::NetAssertion>(
        "nibble-range", netlist.net("mp_data_din"),
        [](const fti::sim::Bits& value) { return value.u() <= 15; });
  };
  auto run = fti::elab::EventEngine().run(compiled.design, pool, run_options);
  if (!run.completed) {
    std::cerr << "simulation did not complete\n";
    return 1;
  }
  std::cout << "decoded " << words << " codewords ("
            << (error_stride ? words / error_stride : 0)
            << " corrupted) in " << run.total_cycles() << " cycles, "
            << run.total_events() << " events, " << run.total_wall_seconds()
            << " s\n";
  std::cout << "range assertion (data nibble <= 15) held\n";

  // Cross-check against the reference decoder.
  std::vector<std::uint64_t> expected;
  fti::golden::hamming_reference(test.inputs.at("code"), expected);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < words; ++i) {
    if (pool.get("data").words()[i] != expected[i]) {
      ++mismatches;
    }
  }
  std::cout << "mismatches vs reference decoder: " << mismatches << "\n";

  // And the standard golden-model verdict.
  auto outcome = fti::harness::run_test_case(test);
  std::cout << "harness verdict: " << (outcome.passed ? "PASS" : "FAIL")
            << "\n";
  return outcome.passed && mismatches == 0 ? 0 : 1;
}
