// fuzz: a seeded differential campaign through flow::run_campaign on two
// workers with every lane this machine has -- kernel, reference, naive,
// levelized, batched, compiled and roundtrip, plus the 64-lane check.
// The compiled lane starts from an empty object cache, so the host
// compiler does most of the work: compile tiering or batching shows
// here, interpreter speedups barely do.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "fti/cache/ir_hash.hpp"
#include "fti/cache/so_store.hpp"
#include "fti/codegen/cpp.hpp"
#include "fti/elab/compiled.hpp"
#include "fti/elab/engines.hpp"
#include "fti/elab/levelized.hpp"
#include "fti/flow/flow.hpp"
#include "fti/fuzz/lanes.hpp"
#include "fti/fuzz/reference.hpp"
#include "fti/fuzz/shrink.hpp"
#include "fti/ir/serde.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/obs/trace.hpp"
#include "fti/util/json_reader.hpp"
#include "fti/util/thread_pool.hpp"
#include "fti/xml/parser.hpp"
#include "fti/xml/writer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kWorkers = 2;
/// Designs per requested second (5 to 8 designs/s on a 4-core x86
/// container, depending on its load); at least 100 so p90 has ten
/// samples beyond it.
constexpr std::uint64_t kDesignsPerSecond = 8;
constexpr std::uint64_t kMinDesigns = 100;
constexpr int kSetupRepeats = 5;
/// Designs per throughput window (see set_end_to_end).
constexpr std::size_t kWindow = 5;
constexpr std::uint64_t kMaxCycles = 100'000;  // DiffOptions' default

/// Points the compiled engine's on-disk object cache at `dir` (created
/// empty).  The store reads the variable on every lookup.
void use_object_cache(const fs::path& dir) {
  fs::create_directories(dir);
  ::setenv("FTI_COMPILED_CACHE_DIR", dir.c_str(), 1);
}

/// Set-up a campaign pays before its first design: find the host
/// toolchain (failing loudly without one, rather than timing fewer
/// lanes) and run it once on a throwaway design so its binaries are
/// paged in.  The warm-up object goes to its own cache directory; the
/// campaign's stays empty.
double set_up_toolchain(const RunConfig& config, int repeat) {
  double start = now_seconds();
  fti::elab::CompiledStatus status = fti::elab::compiled_status();
  if (!status.available) {
    throw std::runtime_error("no host C++ toolchain for the compiled lane: " +
                             status.reason);
  }
  use_object_cache(config.scratch / ("warmup-" + std::to_string(repeat)));
  fti::ir::Design design =
      fti::fuzz::generate_design_seeded(0x5eed0000u + repeat);
  fti::mem::MemoryPool pool;
  fti::elab::CompiledEngine().run(design, pool, {});
  return now_seconds() - start;
}

fti::flow::CampaignRequest campaign(std::uint64_t seed, std::uint64_t runs) {
  fti::flow::CampaignRequest request;
  request.options.seed = seed;
  request.options.runs = runs;
  request.options.jobs = kWorkers;
  request.quiet = true;
  return request;
}

struct CaseSpan {
  double end_s;  ///< now_seconds() scale
  double ms;
};

/// Every design's span from the campaign's own "case:<index>" spans,
/// which run_fuzz records around each design while obs is on.
std::vector<CaseSpan> case_spans() {
  fti::obs::Tracer& tracer = fti::obs::Tracer::instance();
  double epoch_s = now_seconds() - static_cast<double>(tracer.now_us()) * 1e-6;
  std::ostringstream text;
  tracer.write_chrome_trace(text);
  fti::util::JsonValue doc = fti::util::parse_json(text.str());
  std::vector<CaseSpan> spans;
  for (const fti::util::JsonValue& event : doc.at("traceEvents").items) {
    const fti::util::JsonValue* name = event.find("name");
    if (name != nullptr && name->as_string().rfind("case:", 0) == 0 &&
        event.at("ph").as_string() == "X") {
      double start_us = event.at("ts").as_number();
      double dur_us = event.at("dur").as_number();
      spans.push_back({epoch_s + (start_us + dur_us) * 1e-6, dur_us * 1e-3});
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const CaseSpan& a, const CaseSpan& b) {
              return a.end_s < b.end_s;
            });
  return spans;
}

struct Lane {
  const char* name;
  std::unique_ptr<fti::sim::Engine> engine;
};

/// One design through every lane with a span around each call -- the
/// per-case body of fuzz::run_fuzz, rebuilt from public functions.
/// Returns the number of disagreements (must be 0).
std::uint64_t staged_case(std::uint64_t case_seed, std::uint64_t& cycles,
                          std::uint64_t& xml_bytes) {
  std::uint64_t divergences = 0;
  fti::ir::Design design;
  fti::sim::EngineRunOptions options;
  options.max_cycles_per_partition = kMaxCycles;
  options.collect_wire_data = true;
  {
    Span job("job");
    {
      Span span("fuzz.generate_ms");
      design = fti::fuzz::generate_design_seeded(case_seed);
    }
    std::vector<Lane> lanes;
    lanes.push_back({"kernel", std::make_unique<fti::elab::EventEngine>()});
    lanes.push_back({"reference",
                     std::make_unique<fti::fuzz::ReferenceEngine>()});
    for (const char* name : {"naive", "levelized", "batched", "compiled"}) {
      lanes.push_back({name, fti::elab::make_engine(name)});
    }
    std::vector<fti::fuzz::Observation> observations;
    auto observe = [&](const char* label, fti::sim::Engine& engine,
                       const fti::ir::Design& subject) {
      fti::mem::MemoryPool pool;
      try {
        fti::fuzz::Observation observation = fti::fuzz::observe_result(
            label, engine.run(subject, pool, options), pool);
        observation.has_wire_data = engine.reports_wire_data();
        observations.push_back(std::move(observation));
      } catch (const std::exception& error) {
        fti::fuzz::Observation observation;
        observation.engine = label;
        observation.error = error.what();
        observations.push_back(std::move(observation));
      }
    };
    for (Lane& lane : lanes) {
      Span span(std::string("fuzz.lane_ms.") + lane.name);
      observe(lane.name, *lane.engine, design);
    }
    {
      Span span("fuzz.lane_ms.roundtrip");
      fti::ir::Design restored;
      {
        Span xml("xml.roundtrip_ms");
        std::string text = fti::xml::to_string(*fti::ir::to_xml(design));
        xml_bytes += text.size();
        restored = fti::ir::design_from_xml(*fti::xml::parse(text));
      }
      fti::elab::EventEngine engine;
      observe("roundtrip", engine, restored);
    }
    {
      Span span("harness.compare_ms");
      for (std::size_t i = 1; i < observations.size(); ++i) {
        if (!fti::fuzz::compare_observation_pair(observations[0],
                                                 observations[i])
                 .empty()) {
          ++divergences;
        }
      }
    }
    cycles += observations[0].total_cycles;
    Span span("fuzz.lane_check_ms");
    fti::fuzz::LaneCheckOptions lane_options;
    lane_options.max_cycles_per_partition = kMaxCycles;
    if (!fti::fuzz::check_lanes(design, case_seed, lane_options).ok) {
      ++divergences;
    }
  }
  // Probes outside the case: the compiled lane again on the same design
  // (an in-process registry hit, so the difference is the host compiler)
  // and the C++ emission alone.
  {
    Span span("compiled.rerun");
    fti::mem::MemoryPool pool;
    fti::elab::CompiledEngine().run(design, pool, options);
  }
  std::vector<std::shared_ptr<const fti::elab::LevelizedSchedule>> owned;
  std::vector<const fti::elab::LevelizedSchedule*> schedules;
  {
    Span span("elab.schedule_ms");
    for (const std::string& node : design.rtg.nodes) {
      owned.push_back(fti::elab::acquire_levelized_schedule(design, node));
      schedules.push_back(owned.back().get());
    }
  }
  std::string hash = fti::cache::hash_design(design).to_string();
  Span span("codegen.cpp_ms");
  fti::codegen::emit_cpp(design, hash, schedules);
  return divergences;
}

}  // namespace

RunResult run_fuzz(const RunConfig& config) {
  RunResult result;
  std::uint64_t designs =
      std::max(kMinDesigns, kDesignsPerSecond * config.seconds);
  std::uint64_t seed = fti::fuzz::Rng::derive(config.seed, 0);
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(set_up_toolchain(config, i));
  }
  use_object_cache(config.scratch / "object-cache");
  fti::elab::CompiledStats compiled_before = fti::elab::compiled_stats();
  fti::cache::SoStoreStats store_before = fti::cache::so_store_stats();

  std::uint64_t campaign_designs = config.trace ? designs / 2 : designs;

  // The campaign's per-case spans give the per-design latencies.
  fti::obs::Tracer::instance().set_ring_capacity(1u << 20);
  fti::obs::Tracer::instance().reset_values();
  fti::obs::set_enabled(true);
  NullStream sink;
  fti::flow::CampaignResult outcome;
  std::vector<Mark> marks;
  double wall_s = 0;
  double cpu_s = 0;
  double children_s = 0;
  std::vector<CaseSpan> cases;
  {
    CpuSampler sampler;
    double children_start = cpu_seconds_children();
    marks.push_back(mark_now(0));
    outcome = fti::flow::run_campaign(campaign(seed, campaign_designs),
                                      {}, sink, sink);
    wall_s = now_seconds() - marks.front().t;
    cpu_s = cpu_seconds_total() - marks.front().cpu;
    children_s = cpu_seconds_children() - children_start;
    // Windows of kWindow designs, closed when their last design ends.
    cases = case_spans();
    for (std::size_t done = kWindow; done <= cases.size(); done += kWindow) {
      double t = cases[done - 1].end_s;
      marks.push_back(Mark{t, sampler.cpu_at(t), done});
    }
  }

  const fti::fuzz::FuzzReport& report = outcome.report;
  result.attempted = campaign_designs;
  for (const fti::fuzz::FuzzFailure& failure : report.failures) {
    result.fail("case " + std::to_string(failure.case_index) + ": " +
                (failure.mismatches.empty() ? std::string("divergence")
                                            : failure.mismatches.front()));
  }
  if (report.cases_run != campaign_designs || outcome.exit_code != 0) {
    result.fail("campaign ran " + std::to_string(report.cases_run) + " of " +
                std::to_string(campaign_designs) + " designs, exit code " +
                std::to_string(outcome.exit_code));
  }
  std::uint64_t dropped = fti::obs::Tracer::instance().dropped_total();
  std::vector<double> latencies_ms;
  for (const CaseSpan& span : cases) {
    latencies_ms.push_back(span.ms);
  }
  if (dropped != 0 || latencies_ms.size() != campaign_designs) {
    result.fail("campaign recorded " + std::to_string(latencies_ms.size()) +
                " case spans for " + std::to_string(campaign_designs) +
                " designs (" + std::to_string(dropped) + " dropped)");
  }
  result.counts["fuzz.designs"] = report.cases_run;
  result.counts["fuzz.cycles"] = report.total_cycles;
  result.counts["fuzz.multi_configuration_designs"] =
      report.multi_configuration_designs;
  std::uint64_t divergences = report.failures.size();

  double traced_wall_s = 0;
  std::uint64_t staged_cycles = 0;
  std::uint64_t staged_xml_bytes = 0;
  if (config.trace) {
    // The other half of the designs, staged lane by lane on the same
    // number of workers (fresh designs, so the compiled lane is cold).
    enable_spans();
    std::atomic<std::uint64_t> staged_divergences{0};
    std::vector<std::uint64_t> cycles(designs - campaign_designs, 0);
    std::vector<std::uint64_t> bytes(designs - campaign_designs, 0);
    double traced_start = now_seconds();
    fti::util::parallel_for_indexed(
        kWorkers, designs - campaign_designs, [&](std::uint64_t i) {
          std::uint64_t index = campaign_designs + i;
          staged_divergences += staged_case(
              fti::fuzz::Rng::derive(seed, index), cycles[i],
              bytes[i]);
          return true;
        });
    traced_wall_s = now_seconds() - traced_start;
    divergences += staged_divergences.load();
    result.attempted += designs - campaign_designs;
    for (std::uint64_t i = 0; i < cycles.size(); ++i) {
      staged_cycles += cycles[i];
      staged_xml_bytes += bytes[i];
    }
    if (staged_divergences.load() != 0) {
      result.fail(std::to_string(staged_divergences.load()) +
                  " staged lane disagreement(s)");
    }
  }

  fti::elab::CompiledStats compiled = fti::elab::compiled_stats();
  std::uint64_t so_hits =
      fti::cache::so_store_stats().hits - store_before.hits;
  std::uint64_t fallbacks = compiled.fallbacks - compiled_before.fallbacks;
  if (so_hits != 0 || fallbacks != 0 ||
      compiled.compiles == compiled_before.compiles) {
    result.fail("compiled lane not cold and native: " +
                std::to_string(so_hits) + " object-cache hit(s), " +
                std::to_string(fallbacks) + " fallback(s), " +
                std::to_string(compiled.compiles - compiled_before.compiles) +
                " compile(s)");
  }

  if (!config.trace) {
    set_end_to_end(result, median(setups), marks, latencies_ms);
    return result;
  }
  result.counts["elab.cycles"] = staged_cycles;
  result.counts["xml.bytes"] = staged_xml_bytes;
  result.set("elab.cycles", static_cast<double>(staged_cycles), "count");
  result.set("xml.bytes", static_cast<double>(staged_xml_bytes), "count");
  result.set("fuzz.divergences", static_cast<double>(divergences), "count");
  result.set("so_store.hits", static_cast<double>(so_hits), "count");
  result.set("compiled.fallbacks", static_cast<double>(fallbacks), "count");
  result.set("compiled.cxx_cpu_share", children_s / cpu_s, "ratio");
  set_span_metrics(result);
  std::map<std::string, SpanTotals> totals = span_totals();
  result.set("compiled.cxx_ms",
             totals["fuzz.lane_ms.compiled"].mean_ms() -
                 totals["compiled.rerun"].mean_ms(),
             "ms");
  // The staged replica's mean design against run_fuzz's own mean case.
  double case_ms = 0;
  for (const CaseSpan& span : cases) {
    case_ms += span.ms;
  }
  case_ms /= static_cast<double>(cases.size());
  result.set("trace.coverage", totals["job"].mean_ms() / case_ms, "ratio");
  double staged_designs = static_cast<double>(designs - campaign_designs);
  result.set("trace.overhead",
             (staged_designs / traced_wall_s) /
                 (static_cast<double>(campaign_designs) / wall_s),
             "ratio");
  return result;
}

}  // namespace perfbench
