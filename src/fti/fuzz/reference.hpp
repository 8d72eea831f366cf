// The fuzzer's golden model: elab::SweepEngine under the name
// "reference".
//
// Full settle sweeps plus a two-phase clock edge, with no event queue,
// no schedule and no generated code (see elab/engines.hpp).  Any
// divergence from the event-driven sim::Kernel elaboration, the batched
// sweep or a compiled module is therefore a bug in one of the engines,
// the elaborator, or the IR itself -- exactly the cross-checking the
// paper performs between simulated architectures and the executed input
// algorithm, turned inward on the infrastructure.
//
// Beyond cycle and evaluation counts, it reports the observables the
// differential driver compares: final register/control values per
// partition and the per-wire value-change traces of every clocked wire
// (ir::traced_wires -- the wires that are glitch-free by construction
// and thus comparable across scheduling strategies).
#pragma once

#include <string>
#include <utility>

#include "fti/elab/engines.hpp"

namespace fti::fuzz {

struct ReferenceOptions {
  /// Override for binary-FU semantics.  Tests inject operator bugs here
  /// (e.g. a flipped carry) to prove the differential harness catches and
  /// shrinks them; null means ops::eval_binop.
  elab::SweepEngine::BinopFn eval_binop;
};

/// The reference interpreter behind the common Engine interface, so the
/// differential driver treats it as just another lane.  Constructed
/// directly when a test injects operator bugs through
/// ReferenceOptions::eval_binop; the registry entry uses defaults.
class ReferenceEngine final : public elab::SweepEngine {
 public:
  ReferenceEngine() = default;
  explicit ReferenceEngine(ReferenceOptions options)
      : SweepEngine(std::move(options.eval_binop)) {}
  const std::string& name() const override;
};

/// Registers "reference" (default options) with the sim registry, next to
/// the elab builtins.  Idempotent and thread-safe.
void register_reference_engine();

}  // namespace fti::fuzz
