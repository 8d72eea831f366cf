// Kernel sets the workloads verify, written out as the .k / .args / .dat
// file triples `fti suite` and `fti serve` read.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct KernelSpec {
  std::string name;
  std::string source;
  /// NAME.args lines (scalar bindings and !directives).
  std::vector<std::string> args;
  /// Initial contents per array, written as NAME.<array>.dat.
  std::map<std::string, std::vector<std::uint64_t>> inputs;
};

/// regress-cold's kernels: every in-tree golden family at several sizes
/// plus the checked-in example kernels under `root`/examples/kernels.
/// Stimulus is drawn from `seed`; the set and the sizes are fixed, so
/// every seed does the same amount of compiler work.
std::vector<KernelSpec> regress_kernels(const std::filesystem::path& root,
                                        std::uint64_t seed);

/// serve-warm's mix: kernels that simulate for many cycles relative to
/// their size, so a warm request spends its time in simulation.
std::vector<KernelSpec> serve_kernels(std::uint64_t seed);

/// Writes NAME.k, NAME.args and NAME.<array>.dat for each spec into
/// `dir` (created) and returns the .k paths in spec order.
std::vector<std::filesystem::path> write_kernels(
    const std::vector<KernelSpec>& specs, const std::filesystem::path& dir);

/// `rounds` passes over the indices [0, n), each shuffled by `seed`:
/// every kernel appears equally often and the seed only sets the order.
std::vector<std::size_t> stratified_order(std::size_t n, std::size_t rounds,
                                          std::uint64_t seed);

}  // namespace perfbench
