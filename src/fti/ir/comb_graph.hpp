// Combinational-dependency analysis over a datapath -- the graph every
// static scheduler and checker needs: which units evaluate inside one
// clock cycle (latency-0 binops, unops, constants, muxes and the
// asynchronous memory read path), which wires they read, which wire they
// drive, and whether the read-after-drive relation is acyclic.
//
// elab::CheckedDesign builds one per configuration and serves all three
// readers from it: the levelized schedule (Kahn order + cycle
// rejection), the dataflow lint tier's rank order and the structural
// analyzer's cycle report (FTI-L005), so all order units and report
// cycles the same way.  Every build counts in the `ir.comb_graph_builds`
// obs counter.  The graph tolerates malformed units (missing ports are
// skipped), because lint also runs on designs that fail ir::validate.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "fti/ir/datapath.hpp"

namespace fti::ir {

/// One combinational cycle, as an ordered path through the datapath:
/// units[0] feeds units[1] feeds ... feeds units.back() feeds units[0].
/// A single-unit cycle is a self-loop (a unit reading its own output).
struct CombCycle {
  std::vector<const Unit*> units;

  /// "a -> b -> c -> a" (the first unit repeated to close the loop).
  std::string to_string() const;
};

/// The combinational units of a datapath, in declaration order, with
/// their producer -> consumer edges (one per read of a wire another
/// combinational unit drives; the first driver of a wire wins).
class CombGraph {
 public:
  /// Views `datapath`, which must outlive the graph.
  explicit CombGraph(const Datapath& datapath);

  const Datapath& datapath() const { return *datapath_; }

  struct Ranked {
    const Unit* unit;
    /// Longest combinational distance from a sequential/constant source.
    std::size_t rank;
  };

  /// Level-synchronous topological order (Kahn): by rank, declaration
  /// order within a rank.  std::nullopt when the graph has a cycle.
  std::optional<std::vector<Ranked>> levelize() const;

  /// Every combinational cycle, one per strongly connected component
  /// (Tarjan), in declaration order of the cycle's first unit.  An empty
  /// result means the datapath is levelizable.
  std::vector<CombCycle> cycles() const;

 private:
  const Datapath* datapath_;
  std::vector<const Unit*> units_;
  std::vector<std::vector<std::size_t>> successors_;
};

/// CombGraph(datapath).cycles().
std::vector<CombCycle> find_combinational_cycles(const Datapath& datapath);

}  // namespace fti::ir
