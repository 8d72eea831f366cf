// Datapath intermediate representation -- the object model of the
// compiler's datapath.xml dialect.
//
// A datapath is a sea of typed wires connected by units (functional units,
// registers, muxes, constants and memory ports).  The control unit (FSM)
// drives the wires listed as <control> and reads the ones listed as
// <status>; a global clock is implicit and attached by the elaborator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fti/ops/alu.hpp"

namespace fti::ir {

struct Wire {
  std::string name;
  std::uint32_t width = 32;
};

/// Requirement on the shared memory pool: the named SRAM must exist with
/// this shape while the configuration executes.  `init` (optional) gives
/// the memory's power-up contents (a ROM table); it is applied exactly
/// once, by whichever configuration first creates the memory -- later
/// partitions see whatever earlier ones computed, never a reset.
struct MemoryDecl {
  std::string name;
  std::size_t depth = 0;
  std::uint32_t width = 32;
  std::vector<std::uint64_t> init;
};

enum class UnitKind {
  kBinOp,     ///< two-input functional unit (ports a, b, out)
  kUnOp,      ///< one-input functional unit (ports a, out)
  kRegister,  ///< clocked register (ports d, q; optional en, rst)
  kMux,       ///< n-input multiplexer (ports in0..inN-1, sel, out)
  kConst,     ///< literal driver (port out)
  kMemPort,   ///< SRAM access port (see MemMode for the port sets)
};

/// Access mode of a kMemPort unit.  All ports of one memory share its
/// storage; at most one write-capable port per memory is allowed, so
/// write conflicts cannot arise.
enum class MemMode {
  kReadWrite,  ///< ports addr, din, dout, we (the classic single port)
  kRead,       ///< ports addr, dout
  kWrite,      ///< ports addr, din, we
};

std::string_view to_string(MemMode mode);
MemMode mem_mode_from_string(std::string_view name);

std::string_view to_string(UnitKind kind);

struct Unit {
  std::string name;
  UnitKind kind = UnitKind::kBinOp;
  std::uint32_t width = 32;       ///< data width of the unit
  ops::BinOp binop{};             ///< valid when kind == kBinOp
  ops::UnOp unop{};               ///< valid when kind == kUnOp
  std::uint64_t value = 0;        ///< valid when kind == kConst
  /// kBinOp only: pipeline stages (0 = combinational).  A latency-L unit
  /// samples its operands on every rising edge and presents the sampled
  /// result L edges later (initiation interval 1).
  std::uint32_t latency = 0;
  std::uint64_t reset_value = 0;  ///< valid when kind == kRegister
  std::uint32_t mux_inputs = 0;   ///< valid when kind == kMux
  std::string memory;             ///< valid when kind == kMemPort
  MemMode mem_mode = MemMode::kReadWrite;  ///< valid when kind == kMemPort
  /// port name -> wire name (transparent: looked up by string_view
  /// without building a key string)
  std::map<std::string, std::string, std::less<>> ports;

  const std::string& port(std::string_view port_name) const;
  bool has_port(std::string_view port_name) const;
};

struct Datapath {
  std::string name;
  std::vector<Wire> wires;
  std::vector<MemoryDecl> memories;
  std::vector<Unit> units;
  /// Wires driven by the control unit (write side of the FSM interface).
  std::vector<std::string> control_wires;
  /// One-bit wires read by the control unit (transition guards).
  std::vector<std::string> status_wires;

  const Wire* find_wire(std::string_view wire_name) const;
  const Wire& wire(std::string_view wire_name) const;
  const Unit* find_unit(std::string_view unit_name) const;
  const MemoryDecl* find_memory(std::string_view memory_name) const;

  bool is_control(std::string_view wire_name) const;
  bool is_status(std::string_view wire_name) const;

  /// Functional units (binary + unary FUs + memory ports): the paper's
  /// Table I "operators" column counts the functional units of a datapath.
  std::size_t operator_count() const;
  std::size_t count_kind(UnitKind kind) const;
};

/// The wires every engine reports finals/traces for, in this order:
/// register q wires first, then control wires, in declaration order.
/// Clocked wires are glitch-free by construction, hence comparable across
/// scheduling strategies; combinational wires are not (engines settle
/// them in different orders).  The compiled ABI's finals/trace slots and
/// the external-simulator bench follow the same order.
std::vector<std::string> traced_wires(const Datapath& datapath);

/// Name lookups over one datapath, built in one pass; the first
/// declaration of a name wins, as in Datapath::find_wire/find_memory.
/// A per-call snapshot for whole-datapath checks (validate, lint), which
/// would be quadratic over the find_* scans: the IR is edited in place
/// (HLS, fault injection, shrinking), so it keeps no index of its own.
/// Views the datapath's strings -- it must not outlive or see a change
/// to the datapath it indexes.
class DatapathIndex {
 public:
  explicit DatapathIndex(const Datapath& datapath);

  const Wire* find_wire(std::string_view wire_name) const;
  const MemoryDecl* find_memory(std::string_view memory_name) const;
  bool is_control(std::string_view wire_name) const {
    return controls_.count(wire_name) != 0;
  }
  bool is_status(std::string_view wire_name) const {
    return statuses_.count(wire_name) != 0;
  }

 private:
  std::unordered_map<std::string_view, const Wire*> wires_;
  std::unordered_map<std::string_view, const MemoryDecl*> memories_;
  std::unordered_set<std::string_view> controls_;
  std::unordered_set<std::string_view> statuses_;
};

/// Structural checks: unique names, ports reference existing wires with the
/// right widths, single driver per wire, required ports present, memports
/// reference declared memories.  Throws IrError with a precise message.
void validate(const Datapath& datapath);

/// Width a mux select wire must have to address `inputs` inputs.
std::uint32_t select_width(std::uint32_t inputs);

/// Port sets per unit kind: required and optional port names.
struct PortSpec {
  std::vector<std::string> required;
  std::vector<std::string> optional;
  /// Ports that drive their wire (outputs of the unit).
  std::vector<std::string> outputs;
};

/// The port contract of `unit` given its kind / mux arity / memory mode.
PortSpec port_spec(const Unit& unit);

/// The wire width each port of `unit` must have; used by validation and by
/// the elaborator.  Returns 0 when any width is accepted (memport addr).
std::uint32_t expected_port_width(const Unit& unit, std::string_view port,
                                  const Datapath& datapath);
/// Same, with a memport's memory already resolved (nullptr when unknown).
std::uint32_t expected_port_width(const Unit& unit, std::string_view port,
                                  const MemoryDecl* memory);

}  // namespace fti::ir
