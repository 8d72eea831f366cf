#include "fti/ir/comb_graph.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

#include "fti/obs/metrics.hpp"

namespace fti::ir {

std::string CombCycle::to_string() const {
  std::string out;
  for (const Unit* unit : units) {
    out += unit->name;
    out += " -> ";
  }
  if (!units.empty()) {
    out += units.front()->name;
  }
  return out;
}

namespace {

/// True when the unit's output settles within the current cycle;
/// registers, pipelined binops and write-only memory ports commit at the
/// clock edge instead.
bool is_combinational(const Unit& unit) {
  switch (unit.kind) {
    case UnitKind::kBinOp:
      return unit.latency == 0;
    case UnitKind::kUnOp:
    case UnitKind::kConst:
    case UnitKind::kMux:
      return true;
    case UnitKind::kMemPort:
      // The asynchronous read path; write commits happen at the edge.
      return unit.mem_mode != MemMode::kWrite;
    case UnitKind::kRegister:
      return false;
  }
  return false;
}

/// Wires the unit reads on its combinational path; ports it lacks are
/// skipped.
std::vector<std::string> comb_input_wires(const Unit& unit) {
  std::vector<std::string> inputs;
  auto add = [&unit, &inputs](std::string_view port) {
    if (unit.has_port(port)) {
      inputs.push_back(unit.port(port));
    }
  };
  switch (unit.kind) {
    case UnitKind::kBinOp:
      add("a");
      add("b");
      break;
    case UnitKind::kUnOp:
      add("a");
      break;
    case UnitKind::kConst:
      break;
    case UnitKind::kMux:
      add("sel");
      for (std::uint32_t i = 0; i < unit.mux_inputs; ++i) {
        add("in" + std::to_string(i));
      }
      break;
    case UnitKind::kMemPort:
      add("addr");
      break;
    case UnitKind::kRegister:
      break;
  }
  return inputs;
}

/// The wire the unit's combinational output drives, or nullptr.
const std::string* comb_output_wire(const Unit& unit) {
  if (!is_combinational(unit)) {
    return nullptr;
  }
  std::string_view port = unit.kind == UnitKind::kMemPort ? "dout" : "out";
  if (!unit.has_port(port)) {
    return nullptr;
  }
  return &unit.port(port);
}

/// Iterative Tarjan over the producer -> consumer edges of the
/// combinational units.  Designs are user input (the fuzzer shrinks some
/// to thousands of units), so no recursion.
class Tarjan {
 public:
  explicit Tarjan(const std::vector<std::vector<std::size_t>>& successors)
      : successors_(successors),
        index_(successors.size(), kUnvisited),
        lowlink_(successors.size(), 0),
        on_stack_(successors.size(), false) {}

  /// Strongly connected components, each sorted by node id; singleton
  /// components are kept only when the node has a self-edge.
  std::vector<std::vector<std::size_t>> components() {
    for (std::size_t root = 0; root < successors_.size(); ++root) {
      if (index_[root] == kUnvisited) {
        visit(root);
      }
    }
    return components_;
  }

 private:
  static constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);

  struct Frame {
    std::size_t node;
    std::size_t next_edge = 0;
  };

  void visit(std::size_t root) {
    std::vector<Frame> frames{{root}};
    open(root);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.next_edge < successors_[frame.node].size()) {
        std::size_t successor = successors_[frame.node][frame.next_edge++];
        if (index_[successor] == kUnvisited) {
          open(successor);
          frames.push_back({successor});
        } else if (on_stack_[successor]) {
          lowlink_[frame.node] =
              std::min(lowlink_[frame.node], index_[successor]);
        }
        continue;
      }
      if (lowlink_[frame.node] == index_[frame.node]) {
        std::vector<std::size_t> component;
        std::size_t member;
        do {
          member = stack_.back();
          stack_.pop_back();
          on_stack_[member] = false;
          component.push_back(member);
        } while (member != frame.node);
        bool self_loop = false;
        for (std::size_t successor : successors_[frame.node]) {
          self_loop = self_loop || successor == frame.node;
        }
        if (component.size() > 1 || self_loop) {
          std::sort(component.begin(), component.end());
          components_.push_back(std::move(component));
        }
      }
      std::size_t done = frame.node;
      frames.pop_back();
      if (!frames.empty()) {
        lowlink_[frames.back().node] =
            std::min(lowlink_[frames.back().node], lowlink_[done]);
      }
    }
  }

  void open(std::size_t node) {
    index_[node] = lowlink_[node] = next_index_++;
    stack_.push_back(node);
    on_stack_[node] = true;
  }

  const std::vector<std::vector<std::size_t>>& successors_;
  std::vector<std::size_t> index_;
  std::vector<std::size_t> lowlink_;
  std::vector<bool> on_stack_;
  std::vector<std::size_t> stack_;
  std::size_t next_index_ = 0;
  std::vector<std::vector<std::size_t>> components_;
};

}  // namespace

CombGraph::CombGraph(const Datapath& datapath) : datapath_(&datapath) {
  static obs::Counter& builds = obs::counter("ir.comb_graph_builds");
  builds.inc();
  for (const Unit& unit : datapath.units) {
    if (is_combinational(unit)) {
      units_.push_back(&unit);
    }
  }
  std::map<std::string_view, std::size_t> producer;
  for (std::size_t i = 0; i < units_.size(); ++i) {
    if (const std::string* wire = comb_output_wire(*units_[i])) {
      producer.emplace(*wire, i);
    }
  }
  successors_.resize(units_.size());
  for (std::size_t i = 0; i < units_.size(); ++i) {
    for (const std::string& wire : comb_input_wires(*units_[i])) {
      auto it = producer.find(wire);
      if (it != producer.end()) {
        successors_[it->second].push_back(i);
      }
    }
  }
}

std::optional<std::vector<CombGraph::Ranked>> CombGraph::levelize() const {
  std::vector<std::size_t> indegree(units_.size(), 0);
  for (const std::vector<std::size_t>& successors : successors_) {
    for (std::size_t successor : successors) {
      ++indegree[successor];
    }
  }
  // Rank r holds every unit whose inputs are all satisfied by ranks < r.
  std::vector<Ranked> order;
  std::vector<std::size_t> level;
  for (std::size_t i = 0; i < units_.size(); ++i) {
    if (indegree[i] == 0) {
      level.push_back(i);
    }
  }
  for (std::size_t rank = 0; !level.empty(); ++rank) {
    std::vector<std::size_t> next;
    for (std::size_t i : level) {
      order.push_back({units_[i], rank});
      for (std::size_t successor : successors_[i]) {
        if (--indegree[successor] == 0) {
          next.push_back(successor);
        }
      }
    }
    std::sort(next.begin(), next.end());
    level = std::move(next);
  }
  if (order.size() != units_.size()) {
    return std::nullopt;
  }
  return order;
}

std::vector<CombCycle> find_combinational_cycles(const Datapath& datapath) {
  return CombGraph(datapath).cycles();
}

std::vector<CombCycle> CombGraph::cycles() const {
  std::vector<CombCycle> cycles;
  for (std::vector<std::size_t>& component :
       Tarjan(successors_).components()) {
    // Reconstruct an actual path through the component: walk producer ->
    // consumer edges restricted to the component (lowest-id successor
    // first, for determinism) until the walk closes on a visited unit.
    std::vector<bool> in_component(units_.size(), false);
    for (std::size_t member : component) {
      in_component[member] = true;
    }
    std::vector<std::size_t> walk{component.front()};
    std::vector<std::size_t> position(units_.size(), 0);
    std::vector<bool> visited(units_.size(), false);
    visited[walk.front()] = true;
    position[walk.front()] = 0;
    std::size_t loop_start = 0;
    while (true) {
      std::size_t best = units_.size();
      for (std::size_t successor : successors_[walk.back()]) {
        if (in_component[successor]) {
          best = std::min(best, successor);
        }
      }
      // A strongly connected component guarantees an in-component
      // successor, but a malformed graph must not hang the analysis.
      if (best == units_.size()) {
        break;
      }
      if (visited[best]) {
        loop_start = position[best];
        break;
      }
      position[best] = walk.size();
      visited[best] = true;
      walk.push_back(best);
    }
    CombCycle cycle;
    for (std::size_t i = loop_start; i < walk.size(); ++i) {
      cycle.units.push_back(units_[walk[i]]);
    }
    cycles.push_back(std::move(cycle));
  }
  std::sort(cycles.begin(), cycles.end(),
            [](const CombCycle& a, const CombCycle& b) {
              return a.units.front() < b.units.front();
            });
  return cycles;
}

}  // namespace fti::ir
