// The three workloads.  Each returns a filled RunResult: the end-to-end
// metrics when config.trace is off, the per-layer metrics when it is on.
#pragma once

#include "bench.hpp"

namespace perfbench {

/// Cold re-verification of a seeded draw of kernels, one at a time, with
/// no design cache -- the paper's loop after a compiler change.
RunResult run_regress_cold(const RunConfig& config);

/// A seeded differential fuzz campaign on two workers with every lane,
/// the compiled lane starting from an empty object cache.
RunResult run_fuzz(const RunConfig& config);

/// Fresh-stimulus verify requests against a warm in-process daemon from
/// two closed-loop clients.
RunResult run_serve_warm(const RunConfig& config);

}  // namespace perfbench
