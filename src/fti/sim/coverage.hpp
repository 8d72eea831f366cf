// Control-unit coverage -- state visit counts and transition take counts,
// the per-design observability an FPGA implementation cannot offer without
// dedicated probes (paper §1).  A compiler test case that leaves states
// unvisited is a weak test; the harness surfaces this per partition.
//
// The struct lives in sim (not elab) because every execution engine --
// event-driven, naive, batched, compiled -- reports it through the common
// Engine interface; it depends on nothing but strings and counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fti::sim {

struct FsmCoverage {
  struct StateCov {
    std::string name;
    std::uint64_t visits = 0;
  };
  struct TransitionCov {
    std::string from;
    std::string to;
    std::string guard;  ///< dialect syntax ("1" when unconditional)
    std::uint64_t taken = 0;
  };

  std::string fsm;
  std::vector<StateCov> states;
  std::vector<TransitionCov> transitions;

  std::size_t states_visited() const;
  std::size_t transitions_taken() const;
  /// True when every state was visited and every transition taken.
  bool full() const;
  /// Percentage [0,100] over states + transitions.
  double percent() const;
  /// Human-readable report listing the uncovered elements.
  std::string to_string() const;
};

}  // namespace fti::sim
