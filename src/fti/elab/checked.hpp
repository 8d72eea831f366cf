// The checked design: a design is validated once, then run many times.
//
// Every engine entry point (sim::Engine::run/run_batch/run_partition,
// elaborate, the 4-state lanes, the compiled module registry, the fuzz
// lane checker) takes a CheckedDesign instead of a bare ir::Design.
// Building one runs ir::validate once.  What the engines derive from a
// configuration is built on its first request and shared by every later
// run, from any thread: the table resolving every wire, port, memory,
// control, guard and state name to a position (ir::ConfigSlots; a
// wire's slot is its declaration position, the layout every engine
// stores values in), so no engine looks a name up while it runs; the
// combinational graph (ir/comb_graph.hpp), the one graph of the
// configuration that the levelized schedule, lint's cycle report
// (FTI-L005) and the dataflow tier's rank order all read; the levelized
// schedule; the state slices (slices.hpp); and the design's canonical
// hash.  An engine that never asks -- the name-wired event kernel --
// pays for none of them.
//
// A handle views the design it was built from: the design must outlive
// the handle and must not change while it lives (the indexes, graphs
// and schedules point into it).  Callers build one per job -- a verify
// run, which lints and then simulates it; a fuzz case shared by every
// lane and reference twin; a shrink candidate -- and the design cache
// keeps one per entry, so a warm hit runs with no validation and no
// graph or schedule build.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "fti/cache/ir_hash.hpp"
#include "fti/elab/levelized.hpp"
#include "fti/elab/slices.hpp"
#include "fti/ir/comb_graph.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/ir/slots.hpp"

namespace fti::elab {

class CheckedDesign {
 public:
  /// Validates `design` (throws ir::validate's IrError).  Not explicit: a
  /// plain ir::Design converts wherever a handle is expected, at the cost
  /// of one check per call.
  CheckedDesign(const ir::Design& design);
  /// As above, for a caller that has already hashed the design: `key`
  /// must be cache::hash_design(design), and key() returns it unhashed.
  CheckedDesign(const ir::Design& design, const cache::Key& key);

  CheckedDesign(const CheckedDesign&) = delete;
  CheckedDesign& operator=(const CheckedDesign&) = delete;

  const ir::Design& design() const { return design_; }

  /// `node`'s names resolved to positions (ir/slots.hpp), resolved on the
  /// first request and counted in `elab.slot_resolutions`.
  const ir::ConfigSlots& slots(std::string_view node) const;

  /// The combinational graph of `node`'s datapath, built on the first
  /// request (counted, with every other build, in `ir.comb_graph_builds`).
  const ir::CombGraph& graph(std::string_view node) const;

  /// The levelized schedule of `node`, ranked from graph(node) on the
  /// first request and
  /// counted in `elab.schedule_builds`; later requests count in
  /// `elab.schedule_hits`.  Throws SimError on a combinational cycle, on
  /// every request.
  const LevelizedSchedule& schedule(std::string_view node) const;

  /// The state slices of `node` (slices.hpp), built on the first request
  /// and counted in `elab.slice_builds`.  Throws as schedule() does.
  const StateSlices& slices(std::string_view node) const;

  /// cache::hash_design(design()), computed on the first request.
  const cache::Key& key() const;

 private:
  /// Each memo is filled on its first request, under mutex_.
  struct Node {
    const ir::Configuration* config;
    mutable std::unique_ptr<const ir::ConfigSlots> slots;
    mutable std::unique_ptr<const ir::CombGraph> graph;
    mutable std::unique_ptr<const LevelizedSchedule> schedule;
    mutable std::unique_ptr<const StateSlices> slices;
  };

  const Node& node(std::string_view name) const;
  // The memo builders, which count builds but not hits; the caller holds
  // mutex_.
  const ir::ConfigSlots& slots_locked(const Node& entry) const;
  const ir::CombGraph& graph_locked(const Node& entry) const;
  const LevelizedSchedule& schedule_locked(const Node& entry) const;

  const ir::Design& design_;
  std::map<std::string, Node, std::less<>> nodes_;
  mutable std::mutex mutex_;
  mutable std::optional<cache::Key> key_;
};

}  // namespace fti::elab
