#include "fti/xsim/fourstate.hpp"

#include <utility>

#include "fti/obs/metrics.hpp"

namespace fti::xsim {

std::vector<lint::Finding> FourStateReport::to_lint() const {
  std::vector<lint::Finding> out;
  for (const FourStateFinding& finding : findings) {
    lint::Finding lf;
    lf.rule = "FTI-L010";
    lf.severity = lint::Severity::kWarning;
    lf.configuration = finding.node;
    lf.object = finding.object;
    lf.message = "4-state: " + finding.message + " (cycle " +
                 std::to_string(finding.cycle) +
                 "); dynamic counterpart of uninitialized-memory-read";
    out.push_back(std::move(lf));
  }
  return out;
}

std::vector<FourStateReport> run_four_state(
    const ir::Design& design, const std::vector<mem::MemoryPool*>& lanes,
    const FourStateOptions& options) {
  std::vector<FourStateReport> reports;
  std::size_t findings = 0;
  for (elab::FourStateLane& lane :
       elab::run_four_state_lanes(design, lanes, options)) {
    findings += lane.findings.size();
    reports.push_back({std::move(lane)});
  }
  if (obs::enabled()) {
    obs::counter("xsim.four_state_runs").add(reports.size());
    obs::counter("xsim.four_state_findings").add(findings);
  }
  return reports;
}

}  // namespace fti::xsim
