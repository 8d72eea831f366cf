// The verify flow of harness::run_test_case rebuilt stage by stage from
// the layers' public functions, so a traced run can put a span around
// each stage.  The untraced runs never use this: they call
// flow::run_verify, and trace.coverage compares the two.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "fti/cache/design_cache.hpp"
#include "fti/compiler/ast.hpp"
#include "fti/compiler/sema.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/mem/storage.hpp"

namespace perfbench {

/// What a decomposed verify observed; counts feed the exact-count check.
struct StagedVerify {
  bool passed = false;
  std::string message;
  std::size_t mismatches = 0;
  std::uint64_t cycles = 0;       ///< summed over lanes
  std::uint64_t ir_nodes = 0;     ///< cold path only
  std::uint64_t lint_findings = 0;
  std::uint64_t xml_bytes = 0;
  std::uint64_t codegen_lines = 0;
};

/// Cold path with no design cache (regress-cold): parse, sema, HLS,
/// structural lint, dataflow lint, XML round trip, artefacts, golden,
/// simulate, compare.  The schedule build is timed afterwards as a probe
/// (elab.schedule_ms); the engine builds its own inside elab.sim_ms.
StagedVerify staged_cold_verify(const fti::harness::TestCase& test,
                                const std::string& engine);

/// Compiles, lints and round-trips `test` (no spans: this is set-up) and
/// inserts the design into `cache` under the source key
/// `staged_warm_verify` looks up, with a span around the insert
/// (cache.insert_ms).
void staged_cache_fill(const fti::harness::TestCase& test,
                       fti::cache::DesignCache& cache);

/// Warm path (serve-warm): parse, sema, cache lookup, golden runs per
/// lane, one batched simulation over every lane, compare.  The schedule
/// lookups are timed afterwards as a probe (elab.schedule_ms).
StagedVerify staged_warm_verify(const fti::harness::TestCase& test,
                                fti::cache::DesignCache& cache,
                                const std::string& engine,
                                std::uint32_t lanes, std::uint64_t lane_seed);

}  // namespace perfbench
