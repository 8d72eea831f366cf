// The "compiled" execution engine: levelized schedules lowered to
// native code instead of interpreted.
//
// For each design, codegen::cpp emits one straight-line C++ translation
// unit per RTG node, the host toolchain ($CXX and friends, probed at
// startup) compiles it to a shared object, and this engine dlopen()s
// the result and drives it through the versioned extern "C" ABI of
// compiled_abi.hpp.  Modules are cached twice: a process-wide in-memory
// registry keyed on the 128-bit canonical IR hash (a warm `fti serve`
// resubmission re-dispatches into the already-loaded module with zero
// compiler work) and the on-disk cache::SoStore (a later process
// dlopen()s the object straight off disk).  A module's key -- its store
// name, baked into the module and re-checked at load -- folds the IR
// hash together with a per-process build fingerprint: the pasted
// semantics header, the ABI text, the emitter's revision, the host
// compiler's identity (its resolved file, size and mtime) and the
// tier's flags.  An object built by other code or another compiler can
// only miss.  The fingerprint is computed once, from the first compiler
// a compiled run resolves, so a process that has resolved none cannot
// name (or load) a stored object and falls back.
//
// Build tiers, chosen by the caller to match how often a module will be
// reused (CompiledTier): kReused builds at -O2 and publishes to the
// store; kOneShot builds at -O0, dlopen()s the object from a scratch
// file that is unlinked at once, and keeps it only in the in-memory
// registry.  Both link with -nostdlib: generated code includes no
// headers and calls no libc.
//
// Fallback ladder, loud but graceful:
//  * no usable host compiler / no cached object -> warn once to stderr,
//    run the partition on the batched interpreter at one lane, the
//    engine registered as "levelized" (results identical;
//    `fti engines` and compiled_status() report why);
//  * module fails to load or fails its hash/ABI check -> evict the
//    on-disk object and fall through to a fresh compile;
//  * the generated source fails to compile -> SimError carrying the
//    compiler's stderr (a bug in the emitter, never silently ignored).
#pragma once

#include <cstdint>
#include <string>

#include "fti/elab/engines.hpp"

namespace fti::elab {

/// Availability report for the compiled backend, independent of any
/// particular design.  `fti engines` prints it; the fuzz flow uses it to
/// decide whether to add the compiled diff lane.
struct CompiledStatus {
  bool available = false;
  /// Resolved host compiler path ("" when unavailable).
  std::string compiler;
  /// Shared-object cache directory.
  std::string cache_dir;
  /// Human-readable reason when unavailable ("" when available).
  std::string reason;
};

CompiledStatus compiled_status();

/// True when a run would use native modules rather than fall back.
bool compiled_backend_available();

/// Process-wide counters, snapshot for tests and `fti serve` metrics.
struct CompiledStats {
  std::uint64_t compiles = 0;           ///< host compiler invocations
  std::uint64_t oneshot_compiles = 0;   ///< ...of which kOneShot builds
  std::uint64_t cache_hits_memory = 0;  ///< loaded-module registry hits
  std::uint64_t cache_hits_disk = 0;    ///< dlopen of a cached object
  std::uint64_t load_rejects = 0;       ///< cached objects that failed load
  std::uint64_t fallbacks = 0;          ///< partitions run on levelized
};

CompiledStats compiled_stats();

/// Testing hook: forgets every loaded module and sticky compile error so
/// the next run re-probes the disk cache and toolchain.  Leaks the
/// dlopen handles on purpose (code from them may still be referenced).
void compiled_reset_for_testing();

/// Testing hook: replaces this process's build fingerprint with one
/// derived from `salt` -- standing in for a process built from other
/// code or run with another compiler -- and forgets every loaded module.
void compiled_set_fingerprint_for_testing(const std::string& salt);

/// How much the host compiler spends on a module, by expected reuse.
enum class CompiledTier {
  /// -O2, published to the on-disk SoStore.  The registry name
  /// "compiled" (fti serve, verify/suite --engine compiled, benches).
  kReused,
  /// -O0, never published: the module lives only in the in-process
  /// registry, so every partition of the design still hits memory.  The
  /// fuzz diff lane, whose designs run once and are thrown away.
  kOneShot,
};

/// Registry rules across tiers: a kOneShot acquire takes any loaded or
/// cached module; a kReused acquire of a design whose only module is a
/// one-shot build recompiles at -O2 and publishes.  A compile failure is
/// sticky for the design in both tiers.
class CompiledEngine final : public PartitionedEngine {
 public:
  explicit CompiledEngine(CompiledTier tier = CompiledTier::kReused)
      : tier_(tier) {}

  const std::string& name() const override;
  bool reports_wire_data() const override { return true; }
  sim::EnginePartition run_partition(const ir::Design& design,
                                     const std::string& node,
                                     mem::MemoryPool& pool,
                                     const sim::EngineRunOptions& options,
                                     std::size_t partition_index) override;

 private:
  CompiledTier tier_;
};

}  // namespace fti::elab
