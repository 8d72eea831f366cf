#include <iostream>

#include "fti/elab/compiled.hpp"
#include "fti/elab/engines.hpp"
#include "fti/flow/flow.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/json_reader.hpp"
#include "fti/util/table.hpp"
#include "fti/xsim/driver.hpp"

namespace fti::flow {

int run_engines(std::ostream& out) {
  elab::register_builtin_engines();
  // One row per engine with its batch capability, so users can size
  // --lanes without reading DESIGN.md.  max_lanes() is the engine's own
  // cap on lanes per run_batch call; lane counts above it are rejected.
  // The availability column flags the one engine that depends on the
  // host environment: "compiled" needs a C++ toolchain (or a warm cache)
  // and degrades to the one-lane interpreter ("levelized") without one.
  util::TextTable table({"engine", "max lanes", "availability"});
  for (const std::string& name : elab::engine_names()) {
    auto engine = elab::make_engine(name);
    std::string availability = "always";
    if (name == "compiled") {
      elab::CompiledStatus status = elab::compiled_status();
      availability = status.available
                         ? "via " + status.compiler
                         : "falls back to levelized (" + status.reason + ")";
    }
    table.add_row(
        {name, std::to_string(engine->max_lanes()), availability});
  }
  // The external cosimulator is not a registry engine (it runs emitted
  // Verilog, not the IR), but it is the other availability question
  // users ask; one extra row answers it in the same place.
  xsim::XsimStatus xsim_status = xsim::xsim_status();
  table.add_row({"xsim (cosim)", "1",
                 xsim_status.available
                     ? "via " + xsim_status.compile
                     : "skipped (" + xsim_status.reason + ")"});
  out << table.to_string();
  return 0;
}

/// Pretty-print a --metrics snapshot written by an earlier run, so
/// nobody needs jq to read one.
int run_obs(const std::filesystem::path& path, std::ostream& out) {
  util::JsonValue doc = util::parse_json(util::read_file(path));
  const util::JsonValue& metrics = doc.at("metrics");
  if (!metrics.is_array()) {
    throw util::JsonError("\"metrics\" is not an array");
  }
  out << "snapshot '" << doc.at("snapshot").as_string() << "', "
      << metrics.items.size() << " metric(s)";
  if (const util::JsonValue* dropped = doc.find("dropped_spans")) {
    if (dropped->is_number() && dropped->as_u64() > 0) {
      out << " (" << dropped->as_u64() << " spans dropped by full rings)";
    }
  }
  out << "\n";
  util::TextTable table({"metric", "type", "value"});
  for (const util::JsonValue& item : metrics.items) {
    const std::string& type = item.at("type").as_string();
    std::string value;
    if (type == "histogram") {
      value = "count " + util::format_count(item.at("count").as_u64()) +
              ", sum " + util::format_double(item.at("sum").as_number(), 3);
    } else {
      const util::JsonValue& raw = item.at("value");
      if (!raw.is_number()) {
        value = "null";  // non-finite gauge, serialised as JSON null
      } else if (type == "counter") {
        value = util::format_count(raw.as_u64());
      } else {
        value = util::format_double(raw.as_number(), 3);
      }
    }
    table.add_row({item.at("name").as_string(), type, value});
  }
  out << table.to_string();
  return 0;
}

}  // namespace fti::flow
