// fti::lint -- static design analyzer for compiler-emitted datapaths,
// FSMs and RTGs.
//
// Every check in the harness otherwise requires a simulation; lint finds
// structural defect classes (multiple drivers, width mismatches,
// combinational cycles, dead FSM states, memory read-before-write across
// temporal partitions) instantly and machine-locatably.  It runs on raw
// designs that have NOT passed ir::validate -- every accessor is
// find-based and tolerant -- so it can diagnose exactly the inputs
// validate rejects with a single message.
//
// A checked design (elab::CheckedDesign) is linted through its handle:
// the cycle report and the dataflow tier's order read the handle's one
// combinational graph per configuration.  The raw-design overloads
// build a handle themselves whenever the design passes ir::validate, so
// every valid design takes that one path; only a design validate rejects
// is walked raw.  Both paths produce the same report.
//
// Findings carry stable rule IDs (FTI-L001..), a severity, and an IR
// location (configuration + object).  Reports export as text, JSON
// (util::JsonReport schema) and SARIF 2.1.0 so CI can annotate.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fti/ir/rtg.hpp"

namespace fti::elab {
class CheckedDesign;
}  // namespace fti::elab

namespace fti::lint {

enum class Severity {
  kNote,
  kWarning,
  kError,
};

std::string_view to_string(Severity severity);

/// Catalog entry for one rule; docs/lint.md mirrors this table.
struct RuleInfo {
  std::string_view id;        ///< stable rule ID, "FTI-L001"
  Severity severity;          ///< default (most severe) level the rule emits
  std::string_view name;      ///< short kebab-case name for SARIF
  std::string_view summary;   ///< one-line description
};

/// All rules, ordered by ID.  Stable across releases: IDs are never
/// reused, retired rules keep their row.
const std::vector<RuleInfo>& rules();

/// Catalog row for `id`, or nullptr for an unknown ID.
const RuleInfo* find_rule(std::string_view id);

struct Finding {
  std::string rule;           ///< "FTI-L001"
  Severity severity = Severity::kWarning;
  /// RTG node (configuration) the finding lives in; "" for design-level
  /// findings (RTG shape, cross-partition memory liveness).
  std::string configuration;
  /// The named IR object: a wire, unit, state, memory or transition.
  std::string object;
  std::string message;
};

struct Report {
  std::string design;         ///< design name
  std::string source;         ///< originating file, "" when not file-backed
  std::vector<Finding> findings;

  std::size_t count(Severity severity) const;
  std::size_t errors() const { return count(Severity::kError); }
  std::size_t warnings() const { return count(Severity::kWarning); }
  bool clean() const { return findings.empty(); }
};

/// Linter configuration.  The semantic tier (FTI-L012..L017, the
/// abstract-interpretation dataflow engine in dataflow.hpp) is on by
/// default; `--semantic=off` is the escape hatch.
struct Options {
  bool semantic = true;
};

/// Runs every rule over the design.  Never throws on malformed input --
/// malformed is precisely what it reports.  Findings are deterministic:
/// configurations in RTG declaration order, objects in IR declaration
/// order, rules in ID order within one object; semantic findings follow
/// the structural ones.
Report lint_design(const ir::Design& design);
Report lint_design(const ir::Design& design, const Options& options);
/// The same report for a design that has passed ir::validate, read from
/// its handle's memos.
Report lint_design(const elab::CheckedDesign& design,
                   const Options& options = {});

/// True for rules produced by the semantic (dataflow) tier.
bool is_semantic_rule(std::string_view id);

/// `report` without its semantic findings: the `--semantic=off` view of
/// a memoized full report (the design cache stores reports with the
/// semantic tier on and filters per request).
Report without_semantic(const Report& report);

/// Pre-check gate threshold for `fti verify` / `fti suite`:
/// kOff = never block, kWarn = block on warnings or errors,
/// kError = block on errors only.
enum class Gate {
  kOff,
  kWarn,
  kError,
};

/// Parses "off" / "warn" / "error"; nullopt on anything else.
std::optional<Gate> gate_from_string(std::string_view text);

/// True when the report's findings reach the gate's threshold.
bool blocks(Gate gate, const Report& report);

/// Human-readable listing: one "severity rule [location] message" line
/// per finding plus a summary line.
std::string to_text(const Report& report);

/// util::JsonReport document ("lint" kind, "findings" list).
std::string to_json(const Report& report);

/// SARIF 2.1.0 log aggregating all reports into a single run, with the
/// rule catalog under tool.driver.rules and one result per finding.
std::string to_sarif(const std::vector<Report>& reports);

}  // namespace fti::lint
