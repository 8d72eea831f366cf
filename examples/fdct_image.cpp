// FDCT over an image -- the paper's headline workload, with the image-data
// conveniences §3 mentions: the input and output images are dumped as PGM
// files so they can be inspected in any viewer, and a VCD waveform of the
// first block's control signals is written for a waveform viewer.
//
// Usage: fdct_image [pixels] [--two-stage] [--outdir DIR]
#include <cstring>
#include <iostream>

#include "fti/golden/fdct.hpp"
#include "fti/golden/rng.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/mem/pgm.hpp"
#include "fti/sim/vcd.hpp"
#include "fti/util/file_io.hpp"

namespace {

fti::mem::PgmImage to_image(const std::vector<std::uint64_t>& words,
                            std::size_t row_width, bool signed16) {
  fti::mem::PgmImage image;
  image.width = row_width;
  image.height = words.size() / row_width;
  image.pixels.reserve(words.size());
  for (std::uint64_t word : words) {
    if (signed16) {
      // Coefficients are signed; show magnitude clamped to 8 bits.
      auto value = static_cast<std::int32_t>(
          static_cast<std::int16_t>(word & 0xFFFF));
      value = value < 0 ? -value : value;
      image.pixels.push_back(
          static_cast<std::uint16_t>(value > 255 ? 255 : value));
    } else {
      image.pixels.push_back(static_cast<std::uint16_t>(word & 0xFF));
    }
  }
  return image;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t pixels = 4096;
  bool two_stage = false;
  std::filesystem::path outdir = "fdct-out";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--two-stage") == 0) {
      two_stage = true;
    } else if (std::strcmp(argv[i], "--outdir") == 0 && i + 1 < argc) {
      outdir = argv[++i];
    } else {
      pixels = static_cast<std::size_t>(std::stoull(argv[i]));
    }
  }
  std::size_t blocks = pixels / fti::golden::kBlockPixels;
  if (blocks == 0) {
    std::cerr << "need at least 64 pixels\n";
    return 2;
  }
  pixels = blocks * fti::golden::kBlockPixels;

  fti::harness::TestCase test;
  test.name = two_stage ? "fdct2" : "fdct1";
  test.source = fti::golden::fdct_source(blocks, two_stage);
  test.scalar_args = {{"nblocks", static_cast<std::int64_t>(blocks)}};
  test.inputs = {{"in", fti::golden::make_test_image(pixels)}};
  test.check_arrays = {"out"};

  // Compile separately first so we can attach a VCD tracer to the run.
  fti::compiler::CompileOptions compile_options;
  compile_options.scalar_args = test.scalar_args;
  auto compiled = fti::compiler::compile_source(test.source, compile_options);

  fti::mem::MemoryPool pool;
  pool.create("in", pixels, 8);
  pool.create("tmp", pixels, 16);
  pool.create("out", pixels, 16);
  fti::harness::load_inputs(pool, "in", test.inputs.at("in"));

  fti::sim::VcdWriter vcd("fdct");
  bool vcd_attached = false;
  fti::sim::EngineRunOptions run_options;
  run_options.tracer = &vcd;  // installed on the first partition's kernel
  run_options.on_netlist = [&](const std::string& node,
                               fti::sim::Netlist& netlist) {
    if (vcd_attached) {
      return;  // watch only the first partition's nets
    }
    vcd_attached = true;
    vcd.watch(netlist.net("clk"));
    vcd.watch(netlist.net(compiled.design.configuration(node).fsm.done_wire));
    vcd.watch(netlist.net("r_v_b_q"));   // block index register
    vcd.watch(netlist.net("r_v_i_q"));   // line index register
  };
  auto run = fti::elab::EventEngine().run(compiled.design, pool, run_options);
  if (!run.completed) {
    std::cerr << "simulation did not complete\n";
    return 1;
  }

  // Golden comparison through the standard harness flow.
  auto outcome = fti::harness::run_test_case(test);
  std::cout << "verdict: " << (outcome.passed ? "PASS" : "FAIL") << "\n";
  if (!outcome.passed) {
    std::cout << outcome.message << "\n";
    return 1;
  }
  for (const auto& partition : run.partitions) {
    std::cout << "partition " << partition.node << ": " << partition.cycles
              << " cycles, " << partition.stats.events << " events, "
              << partition.wall_seconds << " s\n";
  }

  // Artefacts: PGM images (64-pixel-wide strips) and the VCD trace.
  fti::mem::save_pgm(to_image(test.inputs.at("in"), 64, false),
                     outdir / "input.pgm");
  fti::mem::save_pgm(to_image(pool.get("out").words(), 64, true),
                     outdir / "coefficients.pgm");
  vcd.write_file(outdir / "first_partition.vcd");
  std::cout << "wrote " << (outdir / "input.pgm").string() << ", "
            << (outdir / "coefficients.pgm").string() << " and "
            << (outdir / "first_partition.vcd").string() << "\n";
  return 0;
}
