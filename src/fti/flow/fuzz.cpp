#include <iostream>

#include "fti/flow/flow.hpp"
#include "fti/fuzz/corpus.hpp"
#include "fti/fuzz/diff.hpp"
#include "fti/util/file_io.hpp"
#include "fti/xsim/driver.hpp"

namespace fti::flow {
namespace {

int report_diff(const std::string& label, const fuzz::DiffResult& diff,
                std::ostream& out) {
  if (diff.ok) {
    out << label << ": PASS (all engines agree)\n";
    return 0;
  }
  out << label << ": FAIL\n";
  for (const std::string& line : diff.mismatches) {
    out << "  " << line << "\n";
  }
  return 1;
}

int replay_entry(const fuzz::CorpusEntry& entry, std::ostream& out) {
  out << "replaying '" << entry.name << "' (seed " << entry.seed << ", "
      << fuzz::ir_node_count(entry.design) << " IR nodes)\n";
  return report_diff(entry.name, fuzz::diff_design(entry.design), out);
}

}  // namespace

CampaignResult run_campaign(const CampaignRequest& request,
                            const FlowContext& context, std::ostream& out,
                            std::ostream& err) {
  (void)context;
  CampaignResult result;
  fuzz::FuzzOptions options = request.options;
  if (options.diff.auto_xsim && !xsim::xsim_available()) {
    // Requested cosim lane can't run: say so loudly up front instead of
    // quietly fuzzing one lane short of what was asked for.
    err << "fti_fuzz: NOTICE: --xsim requested but "
        << xsim::xsim_status().reason
        << "; the external-simulator lane is skipped for this campaign\n";
  }
  if (!request.quiet && !options.log) {
    options.log = [&err](const std::string& line) {
      err << "fti_fuzz: " << line << "\n";
    };
  }
  result.report = fuzz::run_fuzz(options);
  const fuzz::FuzzReport& report = result.report;
  out << "fuzzed " << report.cases_run << " design(s), "
      << report.multi_configuration_designs << " with multiple partitions, "
      << report.total_cycles << " kernel cycles total\n";
  if (report.ok()) {
    out << "PASS: zero mismatches\n";
    result.exit_code = 0;
    return result;
  }
  for (const fuzz::FuzzFailure& failure : report.failures) {
    out << "FAIL case " << failure.case_index << " (seed "
        << failure.case_seed << "), shrunk " << failure.original_nodes
        << " -> " << failure.shrunk_nodes << " IR nodes";
    if (failure.lints_clean()) {
      out << ", lints clean (likely simulator-side bug)";
    } else {
      out << ", lint: " << failure.lint_errors << " error(s) "
          << failure.lint_warnings << " warning(s)";
    }
    if (!failure.saved_path.empty()) {
      out << ", saved to " << failure.saved_path.string();
    }
    out << "\n";
    for (const std::string& line : failure.mismatches) {
      out << "  " << line << "\n";
    }
  }
  result.exit_code = 1;
  return result;
}

ReplayResult run_replay(const ReplayRequest& request,
                        const FlowContext& context, std::ostream& out,
                        std::ostream& err) {
  (void)context;
  (void)err;
  ReplayResult result;
  if (!request.corpus_dir.empty()) {
    std::vector<fuzz::CorpusEntry> corpus =
        fuzz::load_corpus(request.corpus_dir);
    result.entries = corpus.size();
    if (corpus.empty()) {
      out << "corpus '" << request.corpus_dir.string() << "' is empty\n";
      result.exit_code = 0;
      return result;
    }
    int exit_code = 0;
    for (const fuzz::CorpusEntry& entry : corpus) {
      exit_code |= replay_entry(entry, out);
    }
    result.exit_code = exit_code;
    return result;
  }
  fuzz::CorpusEntry entry =
      fuzz::repro_from_xml(util::read_file(request.repro_path));
  result.entries = 1;
  result.exit_code = replay_entry(entry, out);
  return result;
}

InjectResult run_inject(const InjectRequest& request,
                        const FlowContext& context, std::ostream& out,
                        std::ostream& err) {
  (void)context;
  (void)err;
  InjectResult result;
  result.report = fuzz::run_injection(request.mode, request.seed,
                                      request.runs, request.generator);
  const fuzz::InjectionReport& report = result.report;
  for (const fuzz::InjectionOutcome& outcome : report.outcomes) {
    const fuzz::DefectInfo& info = fuzz::defect_info(outcome.defect);
    out << info.name << " (" << info.rule << ", "
        << fuzz::to_string(report.mode) << "): " << outcome.detected << "/"
        << outcome.injected << " detected";
    if (report.checks_laundering()) {
      out << ", " << outcome.laundered << "/" << outcome.injected
          << " laundered by 2-state lanes";
    }
    out << " across " << outcome.cases_tried << " case(s)";
    if (outcome.injected == 0) {
      out << "  [NO APPLICABLE SITE]";
    }
    if (outcome.missed > 0) {
      out << "  [MISSED " << outcome.missed << ", seeds:";
      for (std::uint64_t missed_seed : outcome.missed_seeds) {
        out << " " << missed_seed;
      }
      out << "]";
    }
    out << "\n";
  }
  if (report.ok()) {
    out << "PASS: every planted defect was detected"
        << (report.checks_laundering()
                ? " and laundered by 2-state simulation"
                : "")
        << "\n";
    result.exit_code = 0;
    return result;
  }
  out << "FAIL: " << fuzz::to_string(report.mode)
      << " recall gap (see above)\n";
  result.exit_code = 1;
  return result;
}

}  // namespace fti::flow
