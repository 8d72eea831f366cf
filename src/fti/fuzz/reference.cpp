#include "fti/fuzz/reference.hpp"

#include <memory>
#include <mutex>

namespace fti::fuzz {

const std::string& ReferenceEngine::name() const {
  static const std::string kName = "reference";
  return kName;
}

void register_reference_engine() {
  static std::once_flag once;
  std::call_once(once, [] {
    sim::register_engine(
        "reference", [] { return std::make_unique<ReferenceEngine>(); });
  });
}

}  // namespace fti::fuzz
