#include "fti/fuzz/diff.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "fti/elab/compiled.hpp"
#include "fti/elab/engines.hpp"
#include "fti/ir/serde.hpp"
#include "fti/xml/parser.hpp"
#include "fti/xml/writer.hpp"
#include "fti/xsim/driver.hpp"

namespace fti::fuzz {
namespace {

constexpr std::size_t kMaxMismatchLines = 25;

/// One lane: a fresh pool, one engine, observables flattened to the
/// "<node>/<wire>" keys the comparison uses.  Engine exceptions become
/// `error` so a crashing lane is itself a reportable disagreement.
Observation run_engine_path(const elab::CheckedDesign& design,
                            const DiffOptions& options, sim::Engine& engine,
                            std::string label) {
  mem::MemoryPool pool;
  try {
    sim::EngineRunOptions ropts;
    ropts.max_cycles_per_partition = options.max_cycles_per_partition;
    ropts.collect_wire_data = true;
    sim::EngineResult result = engine.run(design, pool, ropts);
    Observation obs = observe_result(std::move(label), std::move(result), pool);
    obs.has_wire_data = engine.reports_wire_data();
    return obs;
  } catch (const std::exception& error) {
    Observation obs;
    obs.engine = std::move(label);
    obs.has_wire_data = engine.reports_wire_data();
    obs.error = error.what();
    for (const std::string& name : pool.names()) {
      obs.memories.emplace(name, pool.get(name).words());
    }
    return obs;
  }
}

Observation run_lane(const elab::CheckedDesign& design,
                     const DiffOptions& options, const std::string& name) {
  if (name == "reference") {
    ReferenceEngine engine(options.reference);
    return run_engine_path(design, options, engine, name);
  }
  try {
    std::unique_ptr<sim::Engine> engine = elab::make_engine(name);
    return run_engine_path(design, options, *engine, name);
  } catch (const std::exception& error) {
    Observation obs;
    obs.engine = name;
    obs.error = error.what();
    return obs;
  }
}

/// The xsim lane: the emitted Verilog run by an external simulator.
/// Unlike the engine lanes this one executes generated *text*, so it is
/// the only lane that can catch codegen::verilog emission bugs.  The
/// stimulus pool is empty, mirroring run_engine_path: memories power up
/// from their declaration init tables on both sides.
Observation run_xsim_path(const ir::Design& design,
                          const DiffOptions& options) {
  Observation obs;
  obs.engine = "xsim";
  obs.has_wire_data = true;
  xsim::XsimOptions xsim_options;
  xsim_options.max_cycles_per_partition = options.max_cycles_per_partition;
  mem::MemoryPool empty;
  xsim::XsimRun run = xsim::run_external(design, empty, xsim_options);
  if (!run.ran) {
    obs.error = run.error.empty() ? "skipped: " + run.skip_reason : run.error;
    return obs;
  }
  obs.completed = run.completed;
  obs.total_cycles = run.total_cycles;
  obs.cycles = std::move(run.cycles);
  obs.finals = std::move(run.finals);
  obs.traces = std::move(run.traces);
  obs.memories = std::move(run.memories);
  return obs;
}

Observation run_roundtrip_path(const ir::Design& design,
                               const DiffOptions& options) {
  try {
    std::string text = xml::to_string(*ir::to_xml(design));
    ir::Design restored = ir::design_from_xml(*xml::parse(text));
    elab::EventEngine engine;
    return run_engine_path(restored, options, engine, "roundtrip");
  } catch (const std::exception& error) {
    Observation obs;
    obs.engine = "roundtrip";
    obs.error = error.what();
    return obs;
  }
}

class Reporter {
 public:
  explicit Reporter(DiffResult& result) : result_(result) {}

  void mismatch(const std::string& line) {
    result_.ok = false;
    if (result_.mismatches.size() < kMaxMismatchLines) {
      result_.mismatches.push_back(line);
    } else {
      ++suppressed_;
    }
  }

  ~Reporter() {
    if (suppressed_ > 0) {
      result_.mismatches.push_back("... and " + std::to_string(suppressed_) +
                                   " more mismatches");
    }
  }

 private:
  DiffResult& result_;
  std::size_t suppressed_ = 0;
};

std::string pair_tag(const Observation& a, const Observation& b) {
  return a.engine + " vs " + b.engine;
}

template <typename Map>
void compare_maps(const Observation& a, const Observation& b,
                  const Map& map_a, const Map& map_b, const char* what,
                  Reporter& report) {
  for (const auto& [key, value_a] : map_a) {
    auto it = map_b.find(key);
    if (it == map_b.end()) {
      report.mismatch(std::string(what) + "[" + key + "]: missing from " +
                      b.engine);
      continue;
    }
    if constexpr (std::is_integral_v<std::decay_t<decltype(value_a)>>) {
      if (value_a != it->second) {
        report.mismatch(std::string(what) + "[" + key + "]: " + a.engine +
                        "=" + std::to_string(value_a) + " " + b.engine + "=" +
                        std::to_string(it->second));
      }
    } else {
      const auto& trace_a = value_a;
      const auto& trace_b = it->second;
      std::size_t limit = std::min(trace_a.size(), trace_b.size());
      for (std::size_t i = 0; i < limit; ++i) {
        if (trace_a[i] != trace_b[i]) {
          report.mismatch(std::string(what) + "[" + key + "][" +
                          std::to_string(i) + "]: " + a.engine + "=" +
                          std::to_string(trace_a[i]) + " " + b.engine + "=" +
                          std::to_string(trace_b[i]));
          break;
        }
      }
      if (trace_a.size() != trace_b.size()) {
        report.mismatch(std::string(what) + "[" + key + "]: " + a.engine +
                        " has " + std::to_string(trace_a.size()) + " entries, " +
                        b.engine + " has " + std::to_string(trace_b.size()));
      }
    }
  }
  for (const auto& [key, value_b] : map_b) {
    if (map_a.find(key) == map_a.end()) {
      report.mismatch(std::string(what) + "[" + key + "]: missing from " +
                      a.engine);
    }
  }
}

void compare_observations(const Observation& a, const Observation& b,
                          Reporter& report) {
  if (a.completed != b.completed) {
    report.mismatch("completed (" + pair_tag(a, b) + "): " + a.engine + "=" +
                    (a.completed ? "true" : "false") + " " + b.engine + "=" +
                    (b.completed ? "true" : "false"));
  }
  if (a.total_cycles != b.total_cycles) {
    report.mismatch("total_cycles (" + pair_tag(a, b) + "): " + a.engine +
                    "=" + std::to_string(a.total_cycles) + " " + b.engine +
                    "=" + std::to_string(b.total_cycles));
  }
  if (!a.cycles.empty() && !b.cycles.empty() && a.cycles != b.cycles) {
    report.mismatch("partition cycles (" + pair_tag(a, b) + ") disagree");
  }
  if (a.has_wire_data && b.has_wire_data) {
    compare_maps(a, b, a.finals, b.finals, "finals", report);
    compare_maps(a, b, a.traces, b.traces, "traces", report);
  }
  compare_maps(a, b, a.memories, b.memories, "memories", report);
}

}  // namespace

Observation observe_result(std::string label, sim::EngineResult result,
                           const mem::MemoryPool& pool) {
  Observation obs;
  obs.engine = std::move(label);
  obs.has_wire_data = result.has_wire_data;
  obs.completed = result.completed;
  obs.total_cycles = result.total_cycles();
  for (sim::EnginePartition& partition : result.partitions) {
    obs.cycles.push_back(partition.cycles);
    for (auto& [wire, value] : partition.finals) {
      obs.finals.emplace(partition.node + "/" + wire, value);
    }
    for (auto& [wire, trace] : partition.traces) {
      obs.traces.emplace(partition.node + "/" + wire, std::move(trace));
    }
  }
  for (const std::string& name : pool.names()) {
    obs.memories.emplace(name, pool.get(name).words());
  }
  return obs;
}

std::vector<std::string> compare_observation_pair(const Observation& a,
                                                  const Observation& b) {
  DiffResult scratch;
  {
    Reporter report(scratch);
    if (!a.error.empty()) {
      report.mismatch("engine " + a.engine + " failed: " + a.error);
    }
    if (!b.error.empty()) {
      report.mismatch("engine " + b.engine + " failed: " + b.error);
    }
    if (a.error.empty() && b.error.empty()) {
      compare_observations(a, b, report);
    }
  }
  return std::move(scratch.mismatches);
}

DiffResult diff_design(const elab::CheckedDesign& design,
                       const DiffOptions& options) {
  register_reference_engine();
  DiffResult result;
  {
    elab::EventEngine engine;
    result.observations.push_back(
        run_engine_path(design, options, engine, "kernel"));
  }
  for (const std::string& name : options.engines) {
    result.observations.push_back(run_lane(design, options, name));
  }
  if (options.auto_compiled && elab::compiled_backend_available() &&
      std::find(options.engines.begin(), options.engines.end(), "compiled") ==
          options.engines.end()) {
    // Each fuzz design runs once and is thrown away: build it at -O0 and
    // keep it out of the on-disk object store.
    elab::CompiledEngine engine(elab::CompiledTier::kOneShot);
    result.observations.push_back(
        run_engine_path(design, options, engine, "compiled"));
  }
  if (options.check_roundtrip) {
    result.observations.push_back(
        run_roundtrip_path(design.design(), options));
  }
  if (options.auto_xsim && xsim::xsim_available() &&
      result.observations.front().error.empty() &&
      result.observations.front().completed) {
    result.observations.push_back(run_xsim_path(design.design(), options));
  }
  {
    Reporter report(result);
    for (const Observation& obs : result.observations) {
      if (!obs.error.empty()) {
        report.mismatch("engine " + obs.engine + " failed: " + obs.error);
      }
    }
    const Observation& baseline = result.observations.front();
    if (baseline.error.empty()) {
      for (std::size_t i = 1; i < result.observations.size(); ++i) {
        if (result.observations[i].error.empty()) {
          compare_observations(baseline, result.observations[i], report);
        }
      }
    }
  }
  return result;
}

}  // namespace fti::fuzz
