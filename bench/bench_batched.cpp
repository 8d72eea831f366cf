// E7 -- batched-lane engine throughput vs sequential single-lane runs.
//
// The batched engine stores every net as N lane values (structure of
// arrays) and packs 1-bit nets 64 lanes to a word, so one combinational
// sweep evaluates up to 64 test vectors bitwise-parallel.  This benchmark
// quantifies the payoff on three workload shapes:
//
//   bit-sea   hand-built design dominated by 1-bit gates and registers --
//             the shape the word path was built for (target: >= 8x)
//   FDCT1     the paper's compiled kernel; 32-bit datapath, so most units
//             take the wide all-lane loops (dispatch hoisted out of the
//             lane loop) and the bar is parity with sequential runs
//   fuzz      a generator-produced design, the shape the 64-lane fuzz
//             campaign sweeps
//   Hamming   the decoder over seeded random codewords: its correction
//             branch depends on each lane's words, so the lanes diverge
//             and the batch advances the earliest FSM state's lanes
//             first until they reconverge
//
// The single-lane side is 64 sequential "levelized" runs -- the same
// engine at one lane.  Every run is cross-checked: per-lane cycles and
// final memory words must be bit-identical to 64 independent runs of the
// reference interpreter from identical pools.
//
//   bench_batched [--json PATH]   (conventionally PATH=BENCH_batched.json)
#include <deque>
#include <functional>
#include <iostream>

#include "fti/compiler/hls.hpp"
#include "fti/compiler/parser.hpp"
#include "fti/elab/engines.hpp"
#include "fti/fuzz/generate.hpp"
#include "fti/fuzz/lanes.hpp"
#include "fti/fuzz/reference.hpp"
#include "fti/golden/fdct.hpp"
#include "fti/golden/hamming.hpp"
#include "fti/golden/rng.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/util/cli.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/json.hpp"
#include "fti/util/table.hpp"

namespace {

constexpr std::size_t kLanes = 64;

/// The 1-bit-dominated workload: a 16-bit shift/xor state machine plus a
/// chain of `gates` 1-bit gates, terminated by a small 32-bit cycle
/// counter.  Roughly (16 + gates) packed-word units against 3 lane-loop
/// units, so throughput here is the word path's headline number.
fti::ir::Design make_bit_sea(std::uint64_t cycles, std::size_t gates) {
  namespace ir = fti::ir;
  ir::Datapath dp;
  dp.name = "bitsea";
  constexpr std::size_t kBits = 16;
  for (std::size_t i = 0; i < kBits; ++i) {
    dp.wires.push_back({"b" + std::to_string(i) + "_q", 1});
    dp.wires.push_back({"b" + std::to_string(i) + "_d", 1});
  }
  for (std::size_t i = 0; i < gates; ++i) {
    dp.wires.push_back({"g" + std::to_string(i), 1});
  }
  dp.wires.push_back({"cnt_q", 32});
  dp.wires.push_back({"cnt_add", 32});
  dp.wires.push_back({"k1_out", 32});
  dp.wires.push_back({"kt_out", 32});
  dp.wires.push_back({"lt_out", 1});
  dp.wires.push_back({"c_en", 1});
  dp.wires.push_back({"done", 1});
  dp.control_wires = {"c_en", "done"};
  dp.status_wires = {"lt_out"};

  auto bit_reg = [&](std::size_t i) {
    ir::Unit reg;
    reg.name = "r_b" + std::to_string(i);
    reg.kind = ir::UnitKind::kRegister;
    reg.width = 1;
    reg.ports = {{"d", "b" + std::to_string(i) + "_d"},
                 {"q", "b" + std::to_string(i) + "_q"},
                 {"en", "c_en"}};
    dp.units.push_back(reg);
  };
  auto gate = [&](const std::string& name, fti::ops::BinOp op,
                  const std::string& a, const std::string& b,
                  const std::string& out) {
    ir::Unit unit;
    unit.name = name;
    unit.kind = ir::UnitKind::kBinOp;
    unit.binop = op;
    unit.width = 1;
    unit.ports = {{"a", a}, {"b", b}, {"out", out}};
    dp.units.push_back(unit);
  };

  // State update: b0 <- !b15 (so the all-zero power-up state evolves),
  // bi <- b(i-1) ^ b((i+5) mod 16).
  {
    ir::Unit inv;
    inv.name = "u_not0";
    inv.kind = ir::UnitKind::kUnOp;
    inv.unop = fti::ops::UnOp::kNot;
    inv.width = 1;
    inv.ports = {{"a", "b15_q"}, {"out", "b0_d"}};
    dp.units.push_back(inv);
  }
  for (std::size_t i = 1; i < kBits; ++i) {
    gate("u_mix" + std::to_string(i), fti::ops::BinOp::kXor,
         "b" + std::to_string(i - 1) + "_q",
         "b" + std::to_string((i + 5) % kBits) + "_q",
         "b" + std::to_string(i) + "_d");
  }
  for (std::size_t i = 0; i < kBits; ++i) {
    bit_reg(i);
  }
  // The sea itself: a long chain of 1-bit gates over the register bits.
  const fti::ops::BinOp kOps[] = {fti::ops::BinOp::kAnd,
                                  fti::ops::BinOp::kOr,
                                  fti::ops::BinOp::kXor};
  for (std::size_t i = 0; i < gates; ++i) {
    std::string prev =
        i == 0 ? "b0_q" : "g" + std::to_string(i - 1);
    gate("u_g" + std::to_string(i), kOps[i % 3], prev,
         "b" + std::to_string(i % kBits) + "_q",
         "g" + std::to_string(i));
  }

  // Termination: 32-bit counter up to `cycles`.
  auto konst = [&](const std::string& name, std::uint64_t value,
                   const std::string& out) {
    ir::Unit unit;
    unit.name = name;
    unit.kind = ir::UnitKind::kConst;
    unit.width = 32;
    unit.value = value;
    unit.ports = {{"out", out}};
    dp.units.push_back(unit);
  };
  konst("k1", 1, "k1_out");
  konst("kt", cycles, "kt_out");
  {
    ir::Unit add;
    add.name = "add0";
    add.kind = ir::UnitKind::kBinOp;
    add.binop = fti::ops::BinOp::kAdd;
    add.width = 32;
    add.ports = {{"a", "cnt_q"}, {"b", "k1_out"}, {"out", "cnt_add"}};
    dp.units.push_back(add);
  }
  {
    ir::Unit cmp;
    cmp.name = "cmp0";
    cmp.kind = ir::UnitKind::kBinOp;
    cmp.binop = fti::ops::BinOp::kLtu;
    cmp.width = 32;
    cmp.ports = {{"a", "cnt_q"}, {"b", "kt_out"}, {"out", "lt_out"}};
    dp.units.push_back(cmp);
  }
  {
    ir::Unit reg;
    reg.name = "r_cnt";
    reg.kind = ir::UnitKind::kRegister;
    reg.width = 32;
    reg.ports = {{"d", "cnt_add"}, {"q", "cnt_q"}, {"en", "c_en"}};
    dp.units.push_back(reg);
  }

  ir::Fsm fsm;
  fsm.name = "bitsea_fsm";
  fsm.initial = "run";
  fsm.done_wire = "done";
  ir::State run;
  run.name = "run";
  run.controls = {{"c_en", 1}};
  run.transitions.push_back({ir::parse_guard("!lt_out"), "halt"});
  fsm.states.push_back(run);
  ir::State halt;
  halt.name = "halt";
  halt.controls = {{"done", 1}};
  fsm.states.push_back(halt);

  return ir::make_single_design("bitsea", {std::move(dp), std::move(fsm)});
}

using Primer = std::function<void(std::uint32_t, fti::mem::MemoryPool&)>;

struct BatchMeasure {
  std::uint64_t lane_cycles = 0;
  double single_seconds = 0;
  double batched_seconds = 0;
  bool identical = true;
};

/// 64 sequential single-lane runs vs one batched sweep, both from
/// identically primed pools; checks per-lane cycles and final memories
/// of the batch against untimed reference runs.
BatchMeasure measure(const fti::ir::Design& design, const Primer& prime,
                     const fti::sim::EngineRunOptions& ropts) {
  BatchMeasure out;
  fti::util::Stopwatch watch;

  std::deque<fti::mem::MemoryPool> single_pools(kLanes);
  auto levelized = fti::elab::make_engine("levelized");
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    prime(lane, single_pools[lane]);
  }
  watch.reset();
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    levelized->run(design, single_pools[lane], ropts);
  }
  out.single_seconds = watch.seconds();

  std::deque<fti::mem::MemoryPool> ref_pools(kLanes);
  std::vector<fti::sim::EngineResult> ref_runs;
  ref_runs.reserve(kLanes);
  fti::fuzz::ReferenceEngine reference;
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    prime(lane, ref_pools[lane]);
    ref_runs.push_back(reference.run(design, ref_pools[lane], ropts));
  }

  std::deque<fti::mem::MemoryPool> pools(kLanes);
  std::vector<fti::mem::MemoryPool*> ptrs;
  ptrs.reserve(kLanes);
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    prime(lane, pools[lane]);
    ptrs.push_back(&pools[lane]);
  }
  auto batched = fti::elab::make_engine("batched");
  watch.reset();
  std::vector<fti::sim::EngineResult> runs =
      batched->run_batch(design, ptrs, ropts);
  out.batched_seconds = watch.seconds();

  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    out.lane_cycles += runs[lane].total_cycles();
    out.identical = out.identical && runs[lane].completed &&
                    runs[lane].total_cycles() ==
                        ref_runs[lane].total_cycles();
    for (const std::string& name : ref_pools[lane].names()) {
      out.identical = out.identical &&
                      pools[lane].get(name).words() ==
                          ref_pools[lane].get(name).words();
    }
  }
  return out;
}

void report_workload(const std::string& name, const BatchMeasure& m,
                     fti::util::TextTable& table,
                     fti::util::JsonReport& report) {
  double single_rate = m.lane_cycles / m.single_seconds;
  double batched_rate = m.lane_cycles / m.batched_seconds;
  double speedup = m.single_seconds / m.batched_seconds;
  table.add_row({name, std::to_string(kLanes),
                 fti::util::format_count(m.lane_cycles),
                 fti::util::format_double(m.single_seconds, 3),
                 fti::util::format_double(m.batched_seconds, 3),
                 fti::util::format_double(single_rate / 1e6, 2),
                 fti::util::format_double(batched_rate / 1e6, 2),
                 fti::util::format_double(speedup, 2),
                 m.identical ? "yes" : "NO"});
  fti::util::JsonReport::Workload& workload = report.workload(name);
  workload.set("lanes", static_cast<std::uint64_t>(kLanes));
  workload.set("lane_cycles", m.lane_cycles);
  workload.set("single.wall_seconds", m.single_seconds);
  workload.set("batched.wall_seconds", m.batched_seconds);
  workload.set("single.lanes_per_sec", single_rate);
  workload.set("batched.lanes_per_sec", batched_rate);
  workload.set("speedup.batched_vs_single", speedup);
  workload.set("bit_identical", m.identical);
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path json_path;
  try {
    json_path = fti::util::extract_path_flag(argc, argv, "--json");
  } catch (const fti::util::UsageError& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
  }
  fti::util::JsonReport report("batched");
  fti::util::TextTable table({"design", "lanes", "lane-cycles",
                              "single (s)", "batched (s)",
                              "single Mlc/s", "batched Mlc/s", "speedup",
                              "identical"});

  // Bit-sea: no memories, every lane identical stimulus -- throughput of
  // the packed word path alone.
  {
    fti::ir::Design design = make_bit_sea(4096, 256);
    BatchMeasure m = measure(
        design, [](std::uint32_t, fti::mem::MemoryPool&) {}, {});
    report_workload("bit-sea (272 1-bit units)", m, table, report);
  }

  // FDCT1: the paper's compiled kernel; per-lane images differ in their
  // first words so lanes are genuinely distinct stimuli.
  {
    constexpr std::size_t kBlocks = 16;
    std::string source = fti::golden::fdct_source(kBlocks, false);
    fti::compiler::CompileOptions options;
    options.scalar_args = {{"nblocks", kBlocks}};
    auto compiled = fti::compiler::compile_source(source, options);
    fti::compiler::Program program = fti::compiler::parse_program(source);
    std::vector<std::uint64_t> image =
        fti::golden::make_test_image(kBlocks * 64);
    auto prime = [&](std::uint32_t lane, fti::mem::MemoryPool& pool) {
      for (const auto& param : program.params) {
        if (param.is_array) {
          pool.create(param.name, param.array_size,
                      fti::compiler::width_of(param.type));
        }
      }
      std::vector<std::uint64_t> lane_image = image;
      for (std::size_t i = 0; i < 8 && i < lane_image.size(); ++i) {
        lane_image[i] = (lane_image[i] + lane + i) & 0xff;
      }
      fti::harness::load_inputs(pool, "in", lane_image);
    };
    BatchMeasure m = measure(compiled.design, prime, {});
    report_workload("FDCT1 (1,024 px)", m, table, report);
  }

  // Fuzz-shaped workload: a generator design with the same per-lane
  // random memory stimuli the 64-lane campaign uses.
  {
    constexpr std::uint64_t kSeed = 12;
    fti::ir::Design design = fti::fuzz::generate_design_seeded(kSeed, {});
    fti::sim::EngineRunOptions ropts;
    ropts.max_cycles_per_partition = 100'000;
    auto prime = [&](std::uint32_t lane, fti::mem::MemoryPool& pool) {
      fti::fuzz::prime_lane_pool(design, kSeed, lane, pool);
    };
    BatchMeasure m = measure(design, prime, ropts);
    report_workload("fuzz design (seed 12)", m, table, report);
  }

  // Diverged lanes: Hamming over seeded random codewords, which take
  // the correction branch at different words in every lane.
  {
    constexpr std::size_t kWords = 512;
    std::string source = fti::golden::hamming_source(kWords);
    fti::compiler::CompileOptions options;
    options.scalar_args = {{"n", kWords}};
    auto compiled = fti::compiler::compile_source(source, options);
    auto prime = [&](std::uint32_t lane, fti::mem::MemoryPool& pool) {
      pool.create("code", kWords, 8);
      pool.create("data", kWords, 8);
      fti::golden::Rng rng(lane + 1);
      fti::harness::load_inputs(pool, "code", rng.sequence(kWords, 128));
    };
    BatchMeasure m = measure(compiled.design, prime, {});
    report_workload("Hamming, diverged (512 words)", m, table, report);
  }

  std::cout << "=== batched vs single-lane runs, " << kLanes
            << " lanes (E7) ===\n"
            << table.to_string() << "\n";
  std::cout
      << "expected shape: the 1-bit-dominated bit-sea rides the packed\n"
         "word path (one uint64 op covers 64 lanes) and should clear 8x;\n"
         "multi-bit workloads take the wide all-lane loops (dispatch\n"
         "hoisted out, contiguous lane words), which must at least match\n"
         "sequential single-lane runs rather than regress below 1x.\n";
  if (!json_path.empty()) {
    report.write(json_path);
    std::cout << "wrote " << json_path.string() << "\n";
  }
  return 0;
}
