// Value Change Dump writer and reader.  Hades offers waveform viewing
// through its GUI; in a batch C++ flow the equivalent is emitting
// standard VCD that any waveform viewer (GTKWave etc.) can open -- and,
// for the external-simulator cosimulation lane, parsing the VCD an
// external simulator wrote back into the repo's value/trace types.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "fti/sim/kernel.hpp"

namespace fti::sim {

struct EngineRunOptions;

class VcdWriter : public Tracer {
 public:
  /// `module_name` labels the single scope in the dump.
  explicit VcdWriter(std::string module_name = "design");

  /// Registers a net before the simulation starts; its initial value is
  /// recorded in the $dumpvars section.
  void watch(const Net& net);

  void on_change(Time time, const Net& net) override;
  void on_finish(Time time) override;

  /// Full VCD text (valid once the run finished or flush() was implied by
  /// on_finish).
  std::string str() const;

  void write_file(const std::filesystem::path& path) const;

  std::size_t watched_count() const { return nets_.size(); }

  /// Dumps an engine run: installs this writer as `options.tracer` and
  /// an on_netlist hook that watches every net of the first partition,
  /// the only one a tracer sees.  The writer must outlive the run.
  void trace(EngineRunOptions& options);

 private:
  struct Entry {
    const Net* net;    // identity only; may dangle after netlist teardown
    std::string name;  // snapshot: str() stays valid after the run
    std::uint32_t width;
    std::string code;  // short VCD identifier
    Bits last;
    bool has_last = false;
  };

  static std::string code_for(std::size_t index);
  Entry* find_entry(const Net& net);
  void emit_time(Time time);
  static void emit_value(std::string& out, const Bits& value,
                         const std::string& code);

  std::string module_name_;
  std::vector<Entry> nets_;
  std::string body_;
  Time last_time_ = 0;
  bool time_emitted_ = false;
  bool finished_ = false;
};

// ------------------------------------------------------------------ reader

/// One 4-state sample: `value` holds the known bits, `unknown` masks the
/// bits that were x or z in the dump (their `value` bits are zero).
/// 2-state dumps (our own writer) always have unknown == 0.
struct VcdSample {
  std::uint64_t value = 0;
  std::uint64_t unknown = 0;

  bool operator==(const VcdSample& other) const {
    return value == other.value && unknown == other.unknown;
  }
};

/// One declared $var: `scope` is the '.'-joined scope path at the point
/// of declaration (e.g. "tb.dut_p0"), `code` the short VCD identifier.
/// Several vars may share one code (simulators alias connected nets).
struct VcdVar {
  std::string scope;
  std::string name;
  std::uint32_t width = 1;
  std::string code;
};

/// A parsed VCD: declarations plus, per identifier code, the initial
/// ($dumpvars) sample and the time-stamped change list.  Changes are in
/// file order; multiple changes of one code at the same timestamp keep
/// the last one (simulators may dump intermediate delta values).
struct VcdDocument {
  std::string timescale;
  std::vector<VcdVar> vars;
  std::map<std::string, VcdSample> initial;
  std::map<std::string, std::vector<std::pair<std::uint64_t, VcdSample>>>
      changes;

  /// Vars whose scope ends with `scope_suffix` (exact tail component
  /// match) -- "" matches every scope.
  const VcdVar* find_var(const std::string& scope_suffix,
                         const std::string& name) const;

  /// Sequence of settled values of `code`: collapse same-time changes to
  /// the last sample per timestamp, then drop consecutive duplicates,
  /// starting from the $dumpvars initial value.  The result mirrors the
  /// engines' value-change traces (which record every change from an
  /// implicit power-up zero): element 0 is the initial sample and later
  /// elements are genuine transitions.
  std::vector<VcdSample> settled_series(const std::string& code) const;

  /// Final (last dumped) sample of `code`; the initial sample when the
  /// body never changed it.
  VcdSample final_sample(const std::string& code) const;
};

/// Parses VCD text.  Supports the subset our writer and Icarus Verilog
/// emit: $scope/$upscope nesting, $var wire/reg/integer declarations,
/// scalar (0/1/x/z) and binary-vector (b...) value changes, $dumpvars /
/// $dumpoff blocks and #time markers.  Vars wider than 64 bits and real
/// values are rejected with util::SimError -- the infrastructure's nets
/// are at most 64 bits wide.
VcdDocument parse_vcd(const std::string& text);

}  // namespace fti::sim
