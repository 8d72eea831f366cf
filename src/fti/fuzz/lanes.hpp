// Batched-lane divergence check for the fuzz campaign.
//
// One generated design, N randomized stimulus lanes (each lane's memory
// pool is pre-primed with seed-derived contents), ONE run of the batched
// engine -- then every lane is compared against its own independent
// reference-interpreter run over an identically primed pool.  Any
// per-lane disagreement (completion, cycles, finals, traces, memories)
// is a divergence, reported with the lane index so repros name the
// stimulus that triggered it.  This is what makes wide differential
// campaigns affordable: the design is swept once for all N vectors
// instead of N times.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fti/elab/checked.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/mem/storage.hpp"

namespace fti::fuzz {

struct LaneCheckOptions {
  /// Stimulus lanes per design.  Lane contents derive from the case seed,
  /// so a failing lane reproduces from (seed, lane) alone.
  std::uint32_t lanes = 64;
  std::uint64_t max_cycles_per_partition = 100'000;
};

struct LaneCheckResult {
  bool ok = true;
  std::uint32_t lanes = 0;
  /// Simulated cycles summed over all batched lanes.
  std::uint64_t lane_cycles = 0;
  /// Largest per-lane cycle count either side observed (shrink budget).
  std::uint64_t max_cycles_observed = 0;
  /// Mismatch lines prefixed "lane K: ".
  std::vector<std::string> mismatches;
};

/// Fills `pool` with the design's memories, every word randomized from
/// (seed, lane) -- the stimulus the lane checker feeds both the batched
/// lane and its reference twin.  Exposed so tests and the harness can
/// regenerate a named lane's exact stimulus.
void prime_lane_pool(const ir::Design& design, std::uint64_t seed,
                     std::uint32_t lane, mem::MemoryPool& pool);

/// Runs the check described above; the batched run and every reference
/// twin share the one handle.  Throws SimError when options.lanes is
/// zero (the batched engine rejects empty batches; callers disable the
/// check instead of passing 0 here).
LaneCheckResult check_lanes(const elab::CheckedDesign& design,
                            std::uint64_t seed,
                            const LaneCheckOptions& options = {});

}  // namespace fti::fuzz
