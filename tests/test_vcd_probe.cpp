// Coverage for the waveform/probe instrumentation: a golden-file VCD dump
// of a known design, probe sample ordering and overflow, and the
// empty-netlist edge cases of both tracers.
//
// Regenerate the golden dump after an intentional VCD format change with:
//   FTI_REGEN_GOLDEN=1 ./tests/test_vcd_probe
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fti/elab/elaborator.hpp"
#include "fti/elab/engines.hpp"
#include "fti/fuzz/generate.hpp"
#include "fti/fuzz/reference.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/sim/kernel.hpp"
#include "fti/sim/probe.hpp"
#include "fti/sim/vcd.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "test_designs.hpp"

namespace fti {
namespace {

std::filesystem::path golden_path() {
  return std::filesystem::path(FTI_TEST_DATA_DIR) / "accumulator.vcd";
}

/// Runs the shared accumulator design through the event engine with `vcd`
/// installed, watching clk, acc_q and done.
sim::EngineResult trace_accumulator(std::uint64_t target,
                                    sim::VcdWriter& vcd) {
  ir::Design design = ir::make_single_design(
      "acc", testing::make_accumulator(target));
  mem::MemoryPool pool;
  sim::EngineRunOptions options;
  options.tracer = &vcd;
  options.on_netlist = [&](const std::string&, sim::Netlist& netlist) {
    vcd.watch(netlist.net("clk"));
    vcd.watch(netlist.net("acc_q"));
    vcd.watch(netlist.net("done"));
  };
  return elab::EventEngine().run(design, pool, options);
}

/// One accumulator configuration, elaborated and run on the kernel with
/// probes (capped at `max_samples`, 0 = uncapped) on the named wires.
struct ProbedRun {
  sim::Kernel::StopReason reason = sim::Kernel::StopReason::kIdle;
  std::map<std::string, std::vector<sim::Probe::Sample>> samples;
  std::vector<bool> overflowed;
};

ProbedRun probe_accumulator(std::uint64_t target,
                            const std::vector<std::string>& probed,
                            std::size_t max_samples = 0) {
  mem::MemoryPool pool;
  ir::Design design =
      ir::make_single_design("acc", testing::make_accumulator(target));
  const elab::CheckedDesign checked(design);
  auto live = elab::elaborate(checked, design.rtg.initial, pool);
  std::vector<std::pair<std::string, sim::Probe*>> probes;
  for (const std::string& wire : probed) {
    probes.emplace_back(wire, &live->netlist.add_component<sim::Probe>(
                                  "probe." + wire, live->netlist.net(wire),
                                  max_samples));
  }
  sim::Kernel kernel(live->netlist);
  ProbedRun run;
  run.reason = kernel.run(100000, live->done);
  for (const auto& [wire, probe] : probes) {
    run.samples[wire] = probe->samples();
    run.overflowed.push_back(probe->overflowed());
  }
  return run;
}

TEST(Vcd, GoldenAccumulatorDump) {
  sim::VcdWriter vcd("acc");
  ASSERT_TRUE(trace_accumulator(3, vcd).completed);
  std::string text = vcd.str();
  if (std::getenv("FTI_REGEN_GOLDEN") != nullptr) {
    util::write_file(golden_path(), text);
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }
  EXPECT_EQ(text, util::read_file(golden_path()))
      << "VCD output drifted from tests/data/accumulator.vcd; regenerate "
         "with FTI_REGEN_GOLDEN=1 if the change is intentional";
}

TEST(Vcd, DumpStructure) {
  sim::VcdWriter vcd("acc");
  ASSERT_TRUE(trace_accumulator(2, vcd).completed);
  std::string text = vcd.str();
  // Header, one $var per watched net, then the body in time order.
  EXPECT_NE(text.find("$scope module acc $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1 ! clk $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 32 \" acc_q $end"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
  std::size_t t5 = text.find("#5");
  std::size_t t15 = text.find("#15");
  ASSERT_NE(t5, std::string::npos);
  ASSERT_NE(t15, std::string::npos);
  EXPECT_LT(t5, t15) << "timestamps must be emitted in increasing order";
}

TEST(Probe, SamplesOrderedAndExact) {
  ProbedRun run = probe_accumulator(3, {"acc_q", "done"});
  ASSERT_EQ(run.reason, sim::Kernel::StopReason::kDoneNet);
  const auto& acc = run.samples.at("acc_q");
  // acc loads target + 1 values: 1, 2, 3, 4 (power-up zero is not a
  // change, so the probe starts at the first increment).
  ASSERT_EQ(acc.size(), 4u);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    EXPECT_EQ(acc[i].value.u(), i + 1);
    if (i > 0) {
      EXPECT_LT(acc[i - 1].time, acc[i].time)
          << "samples must be strictly ordered in time";
    }
  }
  // The register commits on rising clock edges: period 10, first at 5.
  EXPECT_EQ(acc.front().time, 5u);
  const auto& done = run.samples.at("done");
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done.front().value.u(), 1u);
  EXPECT_EQ(done.front().time, acc.back().time)
      << "done rises in the same timestep as the final register load";
}

TEST(Probe, OverflowKeepsCountingChanges) {
  ProbedRun run = probe_accumulator(5, {"acc_q"}, 2);
  ASSERT_EQ(run.reason, sim::Kernel::StopReason::kDoneNet);
  const auto& acc = run.samples.at("acc_q");
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc[0].value.u(), 1u);
  EXPECT_EQ(acc[1].value.u(), 2u);
  ASSERT_EQ(run.overflowed.size(), 1u);
  EXPECT_TRUE(run.overflowed.front());
}

TEST(Vcd, EmptyNetlist) {
  sim::Netlist netlist;
  sim::Kernel kernel(netlist);
  sim::VcdWriter vcd("empty");
  kernel.set_tracer(&vcd);
  EXPECT_EQ(kernel.run(), sim::Kernel::StopReason::kIdle);
  std::string text = vcd.str();
  EXPECT_NE(text.find("$scope module empty $end"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
  EXPECT_EQ(vcd.watched_count(), 0u);
}

TEST(BatchedGolden, LaneZeroMatchesSingleLaneReferenceRun) {
  // A batched run's lane 0 must produce byte-identical wire data to a
  // plain single-lane run of the reference interpreter -- traces, finals
  // and cycle counts.
  ir::Design design =
      ir::make_single_design("acc", testing::make_accumulator(3));
  sim::EngineRunOptions options;
  options.collect_wire_data = true;

  mem::MemoryPool single_pool;
  sim::EngineResult expected =
      fuzz::ReferenceEngine().run(design, single_pool, options);
  ASSERT_TRUE(expected.completed);

  std::deque<mem::MemoryPool> pools(5);
  std::vector<mem::MemoryPool*> ptrs;
  for (mem::MemoryPool& pool : pools) {
    ptrs.push_back(&pool);
  }
  std::vector<sim::EngineResult> runs =
      elab::make_engine("batched")->run_batch(design, ptrs, options);
  ASSERT_TRUE(runs[0].completed);
  const sim::EnginePartition& got = runs[0].partitions.at(0);
  const sim::EnginePartition& want = expected.partitions.at(0);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.finals, want.finals);
  EXPECT_EQ(got.traces, want.traces);

  // Cross-check against the event kernel's probe instrumentation: the
  // traced acc_q change sequence must equal the probe's samples (values
  // 1..target+1, per the Moore-timing contract above).
  ProbedRun probe_run = probe_accumulator(3, {"acc_q"});
  ASSERT_EQ(probe_run.reason, sim::Kernel::StopReason::kDoneNet);
  const auto& samples = probe_run.samples.at("acc_q");
  const std::vector<std::uint64_t>& trace = got.traces.at("acc_q");
  ASSERT_EQ(trace.size(), samples.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], samples[i].value.u()) << "sample " << i;
  }
}

// ----------------------------------------------------- reader round-trip

TEST(VcdReader, RoundTripsWriterDump) {
  sim::VcdWriter vcd("acc");
  ASSERT_TRUE(trace_accumulator(3, vcd).completed);
  sim::VcdDocument doc = sim::parse_vcd(vcd.str());
  EXPECT_EQ(doc.timescale, "1ns");
  ASSERT_EQ(doc.vars.size(), 3u);  // clk, acc_q, done
  const sim::VcdVar* acc = doc.find_var("acc", "acc_q");
  ASSERT_NE(acc, nullptr);
  EXPECT_EQ(acc->width, 32u);
  // Writer dumps are 2-state: nothing may parse as unknown.
  for (const auto& [code, samples] : doc.changes) {
    for (const auto& [time, sample] : samples) {
      EXPECT_EQ(sample.unknown, 0u);
    }
  }
  // The settled series of acc_q mirrors the traced change sequence: the
  // initial power-up zero plus the increments 1..4.
  std::vector<sim::VcdSample> series = doc.settled_series(acc->code);
  ASSERT_EQ(series.size(), 5u);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series[i].value, i);
  }
  EXPECT_EQ(doc.final_sample(acc->code).value, 4u);
  const sim::VcdVar* done = doc.find_var("acc", "done");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(doc.final_sample(done->code).value, 1u);
}

// Property: for random generated designs, a VCD round trip through the
// reader preserves every watched net's name, width, change sequence and
// final value exactly as the engine traced them.
TEST(VcdReader, PropertyRoundTripMatchesEngineTraces) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    fuzz::GeneratorOptions generator;
    generator.max_units = 10;
    generator.max_configurations = 1;
    ir::Design design = fuzz::generate_design_seeded(seed, generator);

    // Engine truth: levelized traces (value changes from power-up zero).
    mem::MemoryPool pool;
    sim::EngineRunOptions options;
    options.collect_wire_data = true;
    sim::EngineResult expected =
        elab::make_engine("levelized")->run(design, pool, options);

    // Instrumented event run with every net watched.
    sim::VcdWriter vcd(design.rtg.initial);
    mem::MemoryPool vcd_pool;
    sim::EngineRunOptions run_options;
    run_options.tracer = &vcd;
    run_options.on_netlist = [&](const std::string&, sim::Netlist& netlist) {
      for (const auto& net : netlist.nets()) {
        vcd.watch(*net);
      }
    };
    sim::EngineResult traced =
        elab::EventEngine().run(design, vcd_pool, run_options);
    ASSERT_EQ(traced.completed, expected.completed) << "seed " << seed;
    if (!expected.completed) {
      continue;
    }

    sim::VcdDocument doc = sim::parse_vcd(vcd.str());
    const sim::EnginePartition& partition = expected.partitions.at(0);
    for (const auto& [wire, trace] : partition.traces) {
      const sim::VcdVar* var = doc.find_var("", wire);
      ASSERT_NE(var, nullptr) << "seed " << seed << " wire " << wire;
      std::vector<sim::VcdSample> series = doc.settled_series(var->code);
      // The engine trace records changes from an implicit power-up zero;
      // the dump's first settled sample is that zero unless the wire
      // settles nonzero before the first edge, in which case it is the
      // trace's first entry.  Reconstruct the change list the same way
      // the xsim driver does: drop leading samples equal to the running
      // last value, starting from zero.
      std::vector<std::uint64_t> changes;
      std::uint64_t last = 0;
      for (const sim::VcdSample& sample : series) {
        ASSERT_EQ(sample.unknown, 0u);
        if (sample.value != last) {
          changes.push_back(sample.value);
          last = sample.value;
        }
      }
      EXPECT_EQ(changes, trace) << "seed " << seed << " wire " << wire;
      if (!trace.empty()) {
        EXPECT_EQ(doc.final_sample(var->code).value,
                  partition.finals.at(wire))
            << "seed " << seed << " wire " << wire;
      }
    }
  }
}

TEST(VcdReader, FourStateAndDumpoff) {
  std::string text =
      "$timescale 1ns $end\n"
      "$scope module tb $end\n"
      "$scope module dut_0 $end\n"
      "$var wire 8 ! data $end\n"
      "$var wire 1 \" flag $end\n"
      "$upscope $end\n"
      "$upscope $end\n"
      "$enddefinitions $end\n"
      "$dumpvars\n"
      "bxxxxxxxx !\n"
      "0\"\n"
      "$end\n"
      "#10\n"
      "b1010x01z !\n"
      "1\"\n"
      "#20\n"
      "$dumpoff\n"
      "bxxxxxxxx !\n"
      "x\"\n"
      "$end\n"
      "#30\n"
      "b00001111 !\n";
  sim::VcdDocument doc = sim::parse_vcd(text);
  const sim::VcdVar* data = doc.find_var("dut_0", "data");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->scope, "tb.dut_0");
  EXPECT_EQ(doc.initial.at(data->code).unknown, 0xffu);
  // x and z bits set the unknown mask; their value bits read zero.
  // b1010x01z MSB-first: bits 3 (x) and 0 (z) are unknown.
  std::vector<sim::VcdSample> series = doc.settled_series(data->code);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[1].value, 0b10100010u);
  EXPECT_EQ(series[1].unknown, 0b00001001u);
  // $dumpoff blocks are skipped entirely: the #20 x-dump is not a change.
  EXPECT_EQ(series[2].value, 0x0fu);
  EXPECT_EQ(series[2].unknown, 0u);
  EXPECT_EQ(doc.final_sample(data->code).value, 0x0fu);
}

TEST(VcdReader, RejectsWideAndRealVars) {
  EXPECT_THROW(
      sim::parse_vcd("$var wire 65 ! huge $end\n$enddefinitions $end\n"),
      util::SimError);
  EXPECT_THROW(
      sim::parse_vcd("$var real 64 ! r $end\n$enddefinitions $end\n"),
      util::SimError);
}

TEST(Probe, UnchangedNetRecordsNothing) {
  sim::Netlist netlist;
  sim::Net& net = netlist.create_net("quiet", 8);
  sim::Probe& probe =
      netlist.add_component<sim::Probe>("probe.quiet", net);
  sim::Kernel kernel(netlist);
  EXPECT_EQ(kernel.run(), sim::Kernel::StopReason::kIdle);
  EXPECT_TRUE(probe.samples().empty());
  EXPECT_EQ(probe.change_count(), 0u);
}

}  // namespace
}  // namespace fti
