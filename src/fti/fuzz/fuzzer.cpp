#include "fti/fuzz/fuzzer.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>

#include "fti/fuzz/corpus.hpp"
#include "fti/fuzz/lanes.hpp"
#include "fti/lint/lint.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/obs/trace.hpp"
#include "fti/util/thread_pool.hpp"

namespace fti::fuzz {
namespace {

/// Cycle budget for shrink candidates: tight enough that a candidate whose
/// termination skeleton got mangled times out quickly instead of burning
/// the full differential budget on every predicate call.
std::uint64_t shrink_cycle_budget(const DiffResult& failure) {
  std::uint64_t observed = 0;
  for (const Observation& obs : failure.observations) {
    observed = std::max(observed, obs.total_cycles);
  }
  return std::max<std::uint64_t>(256, 4 * observed);
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& options) {
  FuzzReport report;
  std::atomic<std::uint64_t> cases_run{0};
  std::atomic<std::uint64_t> multi_config{0};
  std::atomic<std::uint64_t> total_cycles{0};
  std::mutex sink_mutex;  // guards report.failures and options.log

  auto emit = [&](const std::string& line) {
    if (options.log) {
      std::lock_guard<std::mutex> lock(sink_mutex);
      options.log(line);
    }
  };

  // Shared failure path for diff and lane divergences: shrink against the
  // caller's predicate, lint-classify, optionally save a repro, and decide
  // whether the campaign keeps going.
  auto record_failure = [&](std::uint64_t index, std::uint64_t case_seed,
                            const ir::Design& design,
                            std::vector<std::string> mismatches,
                            const FailurePredicate& predicate) -> bool {
    FuzzFailure failure;
    failure.case_index = index;
    failure.case_seed = case_seed;
    failure.mismatches = std::move(mismatches);
    failure.original_nodes = ir_node_count(design);
    failure.shrunk = design;
    failure.shrunk_nodes = failure.original_nodes;
    if (options.shrink_failures) {
      ShrinkOptions shrink_options;
      shrink_options.max_evaluations = options.shrink_evaluations;
      obs::ScopedSpan shrink_span("shrink:" + std::to_string(index), "fuzz");
      ShrinkResult shrunk = shrink(design, predicate, shrink_options);
      obs::counter("fuzz.shrink_steps").add(shrunk.evaluations);
      failure.shrunk = std::move(shrunk.design);
      failure.shrunk_nodes = ir_node_count(failure.shrunk);
      emit("case " + std::to_string(index) + ": shrunk " +
           std::to_string(failure.original_nodes) + " -> " +
           std::to_string(failure.shrunk_nodes) + " IR nodes in " +
           std::to_string(shrunk.evaluations) + " evaluations");
    }
    // Classify the divergence: a lint-clean shrunk design points at a
    // simulator-side bug rather than a malformed design.
    lint::Report lint_report = lint::lint_design(failure.shrunk);
    failure.lint_errors = lint_report.errors();
    failure.lint_warnings = lint_report.warnings();
    if (failure.lints_clean()) {
      emit("case " + std::to_string(index) +
           ": shrunk design lints clean -> likely simulator-side bug");
    }
    if (!options.corpus_dir.empty()) {
      CorpusEntry entry;
      entry.name = "seed-" + std::to_string(case_seed);
      entry.seed = case_seed;
      entry.design = failure.shrunk;
      entry.mismatches = failure.mismatches;
      failure.saved_path = save_entry(entry, options.corpus_dir);
    }
    std::size_t failure_count = 0;
    {
      std::lock_guard<std::mutex> lock(sink_mutex);
      report.failures.push_back(std::move(failure));
      failure_count = report.failures.size();
    }
    // Returning false cancels the campaign: enough failures collected.
    return failure_count < options.max_failures;
  };

  auto run_case = [&](std::uint64_t index) -> bool {
    std::uint64_t case_seed = Rng::derive(options.seed, index);
    obs::ScopedSpan case_span("case:" + std::to_string(index), "fuzz");
    ir::Design design;
    // One check for the case, made as the design is generated: every
    // diff lane, the batched lane sweep and all of its reference twins
    // run this handle.
    std::optional<elab::CheckedDesign> handle;
    try {
      design = generate_design_seeded(case_seed, options.generator);
      obs::counter("fuzz.designs_generated").inc();
      handle.emplace(design);
    } catch (const std::exception& error) {
      // A generator bug -- a throw or an invalid design -- is a campaign
      // failure too, minus the shrink.
      FuzzFailure failure;
      failure.case_index = index;
      failure.case_seed = case_seed;
      failure.mismatches = {std::string("generator threw: ") +
                            error.what()};
      emit("case " + std::to_string(index) + ": " +
           failure.mismatches.front());
      std::lock_guard<std::mutex> lock(sink_mutex);
      report.failures.push_back(std::move(failure));
      return true;
    }
    if (design.configuration_count() > 1) {
      multi_config.fetch_add(1, std::memory_order_relaxed);
    }
    const elab::CheckedDesign& checked = *handle;
    DiffResult diff = diff_design(checked, options.diff);
    cases_run.fetch_add(1, std::memory_order_relaxed);
    if (!diff.observations.empty()) {
      total_cycles.fetch_add(diff.observations.front().total_cycles,
                             std::memory_order_relaxed);
    }
    if (diff.ok) {
      // Engines agree on the default stimulus; now sweep the design once
      // through the batched engine with N randomized memory lanes and hold
      // every lane to its own reference-interpreter run.
      if (options.batch_lanes == 0) {
        return true;
      }
      LaneCheckOptions lane_options;
      lane_options.lanes = options.batch_lanes;
      lane_options.max_cycles_per_partition =
          options.diff.max_cycles_per_partition;
      obs::ScopedSpan lane_span("lanes:" + std::to_string(index), "fuzz");
      LaneCheckResult lane_check =
          check_lanes(checked, case_seed, lane_options);
      obs::counter("fuzz.lane_checks").inc();
      total_cycles.fetch_add(lane_check.lane_cycles,
                             std::memory_order_relaxed);
      if (lane_check.ok) {
        return true;
      }
      obs::counter("fuzz.lane_divergences").inc();
      emit("case " + std::to_string(index) + " (seed " +
           std::to_string(case_seed) + "): " +
           std::to_string(lane_check.mismatches.size()) +
           " lane mismatch line(s), " +
           (lane_check.mismatches.empty() ? std::string("<none>")
                                          : lane_check.mismatches.front()));
      LaneCheckOptions shrink_lanes = lane_options;
      shrink_lanes.max_cycles_per_partition = std::max<std::uint64_t>(
          256, 4 * lane_check.max_cycles_observed);
      return record_failure(
          index, case_seed, design, std::move(lane_check.mismatches),
          [&](const elab::CheckedDesign& candidate) {
            return !check_lanes(candidate, case_seed, shrink_lanes).ok;
          });
    }
    obs::counter("fuzz.divergences").inc();
    emit("case " + std::to_string(index) + " (seed " +
         std::to_string(case_seed) + "): " +
         std::to_string(diff.mismatches.size()) + " mismatch line(s), " +
         (diff.mismatches.empty() ? std::string("<none>")
                                  : diff.mismatches.front()));
    DiffOptions shrink_diff = options.diff;
    shrink_diff.check_roundtrip = false;
    // Every shrink candidate is a fresh IR hash; re-compiling each one
    // through the host toolchain would dominate the shrink loop.
    shrink_diff.auto_compiled = false;
    shrink_diff.max_cycles_per_partition = shrink_cycle_budget(diff);
    return record_failure(
        index, case_seed, design, diff.mismatches,
        [&](const elab::CheckedDesign& candidate) {
          return !diff_design(candidate, shrink_diff).ok;
        });
  };

  util::parallel_for_indexed(options.jobs, options.runs, run_case);

  report.cases_run = cases_run.load();
  report.multi_configuration_designs = multi_config.load();
  report.total_cycles = total_cycles.load();
  std::sort(report.failures.begin(), report.failures.end(),
            [](const FuzzFailure& a, const FuzzFailure& b) {
              return a.case_index < b.case_index;
            });
  return report;
}

}  // namespace fti::fuzz
