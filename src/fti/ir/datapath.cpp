#include "fti/ir/datapath.hpp"

#include <algorithm>

#include "fti/util/error.hpp"

namespace fti::ir {

std::string_view to_string(UnitKind kind) {
  switch (kind) {
    case UnitKind::kBinOp:
      return "binop";
    case UnitKind::kUnOp:
      return "unop";
    case UnitKind::kRegister:
      return "register";
    case UnitKind::kMux:
      return "mux";
    case UnitKind::kConst:
      return "const";
    case UnitKind::kMemPort:
      return "memport";
  }
  return "?";
}

std::string_view to_string(MemMode mode) {
  switch (mode) {
    case MemMode::kReadWrite:
      return "rw";
    case MemMode::kRead:
      return "r";
    case MemMode::kWrite:
      return "w";
  }
  return "?";
}

MemMode mem_mode_from_string(std::string_view name) {
  if (name == "rw") {
    return MemMode::kReadWrite;
  }
  if (name == "r") {
    return MemMode::kRead;
  }
  if (name == "w") {
    return MemMode::kWrite;
  }
  throw util::XmlError("unknown memory-port mode '" + std::string(name) +
                       "'");
}

const std::string& Unit::port(std::string_view port_name) const {
  auto it = ports.find(port_name);
  if (it == ports.end()) {
    throw util::IrError("unit '" + name + "' lacks port '" +
                        std::string(port_name) + "'");
  }
  return it->second;
}

bool Unit::has_port(std::string_view port_name) const {
  return ports.find(port_name) != ports.end();
}

const Wire* Datapath::find_wire(std::string_view wire_name) const {
  for (const Wire& w : wires) {
    if (w.name == wire_name) {
      return &w;
    }
  }
  return nullptr;
}

const Wire& Datapath::wire(std::string_view wire_name) const {
  const Wire* found = find_wire(wire_name);
  if (found == nullptr) {
    throw util::IrError("datapath '" + name + "' has no wire '" +
                        std::string(wire_name) + "'");
  }
  return *found;
}

const Unit* Datapath::find_unit(std::string_view unit_name) const {
  for (const Unit& u : units) {
    if (u.name == unit_name) {
      return &u;
    }
  }
  return nullptr;
}

const MemoryDecl* Datapath::find_memory(std::string_view memory_name) const {
  for (const MemoryDecl& m : memories) {
    if (m.name == memory_name) {
      return &m;
    }
  }
  return nullptr;
}

bool Datapath::is_control(std::string_view wire_name) const {
  for (const std::string& c : control_wires) {
    if (c == wire_name) {
      return true;
    }
  }
  return false;
}

bool Datapath::is_status(std::string_view wire_name) const {
  for (const std::string& s : status_wires) {
    if (s == wire_name) {
      return true;
    }
  }
  return false;
}

std::size_t Datapath::operator_count() const {
  std::size_t n = 0;
  for (const Unit& unit : units) {
    if (unit.kind == UnitKind::kBinOp || unit.kind == UnitKind::kUnOp ||
        unit.kind == UnitKind::kMemPort) {
      ++n;
    }
  }
  return n;
}

std::size_t Datapath::count_kind(UnitKind kind) const {
  std::size_t n = 0;
  for (const Unit& unit : units) {
    if (unit.kind == kind) {
      ++n;
    }
  }
  return n;
}

std::vector<std::string> traced_wires(const Datapath& datapath) {
  std::vector<std::string> wires;
  for (const Unit& unit : datapath.units) {
    if (unit.kind == UnitKind::kRegister) {
      wires.push_back(unit.port("q"));
    }
  }
  for (const std::string& control : datapath.control_wires) {
    wires.push_back(control);
  }
  return wires;
}

std::uint32_t select_width(std::uint32_t inputs) {
  std::uint32_t width = 1;
  while ((1u << width) < inputs) {
    ++width;
  }
  return width;
}

PortSpec port_spec(const Unit& unit) {
  switch (unit.kind) {
    case UnitKind::kBinOp:
      return {{"a", "b", "out"}, {}, {"out"}};
    case UnitKind::kUnOp:
      return {{"a", "out"}, {}, {"out"}};
    case UnitKind::kRegister:
      return {{"d", "q"}, {"en", "rst"}, {"q"}};
    case UnitKind::kMux: {
      PortSpec spec;
      for (std::uint32_t i = 0; i < unit.mux_inputs; ++i) {
        spec.required.push_back("in" + std::to_string(i));
      }
      spec.required.push_back("sel");
      spec.required.push_back("out");
      spec.outputs = {"out"};
      return spec;
    }
    case UnitKind::kConst:
      return {{"out"}, {}, {"out"}};
    case UnitKind::kMemPort:
      switch (unit.mem_mode) {
        case MemMode::kReadWrite:
          return {{"addr", "din", "dout", "we"}, {}, {"dout"}};
        case MemMode::kRead:
          return {{"addr", "dout"}, {}, {"dout"}};
        case MemMode::kWrite:
          return {{"addr", "din", "we"}, {}, {}};
      }
  }
  FTI_ASSERT(false, "unhandled UnitKind");
}

std::uint32_t expected_port_width(const Unit& unit, std::string_view port,
                                  const MemoryDecl* memory) {
  switch (unit.kind) {
    case UnitKind::kBinOp:
      if (port == "out" && ops::is_comparison(unit.binop)) {
        return 1;
      }
      return unit.width;
    case UnitKind::kUnOp:
      // Width-adapting units (pass/sext) accept any input width; the
      // evaluation resizes from the wire's own width.
      return port == "a" ? 0 : unit.width;
    case UnitKind::kRegister:
      if (port == "en" || port == "rst") {
        return 1;
      }
      return unit.width;
    case UnitKind::kMux:
      if (port == "sel") {
        return select_width(unit.mux_inputs);
      }
      return unit.width;
    case UnitKind::kConst:
      return unit.width;
    case UnitKind::kMemPort: {
      if (port == "we") {
        return 1;
      }
      if (port == "addr") {
        return 0;  // any width the schedule produced
      }
      return memory != nullptr ? memory->width : unit.width;
    }
  }
  FTI_ASSERT(false, "unhandled UnitKind");
}

std::uint32_t expected_port_width(const Unit& unit, std::string_view port,
                                  const Datapath& datapath) {
  return expected_port_width(unit, port,
                             unit.kind == UnitKind::kMemPort
                                 ? datapath.find_memory(unit.memory)
                                 : nullptr);
}

DatapathIndex::DatapathIndex(const Datapath& datapath)
    : controls_(datapath.control_wires.begin(), datapath.control_wires.end()),
      statuses_(datapath.status_wires.begin(), datapath.status_wires.end()) {
  wires_.reserve(datapath.wires.size());
  for (const Wire& wire : datapath.wires) {
    wires_.emplace(wire.name, &wire);
  }
  for (const MemoryDecl& memory : datapath.memories) {
    memories_.emplace(memory.name, &memory);
  }
}

const Wire* DatapathIndex::find_wire(std::string_view wire_name) const {
  auto it = wires_.find(wire_name);
  return it == wires_.end() ? nullptr : it->second;
}

const MemoryDecl* DatapathIndex::find_memory(
    std::string_view memory_name) const {
  auto it = memories_.find(memory_name);
  return it == memories_.end() ? nullptr : it->second;
}

namespace {

bool contains(const std::vector<std::string>& names, std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

void validate(const Datapath& datapath) {
  auto err = [&datapath](const std::string& message) {
    throw util::IrError("datapath '" + datapath.name + "': " + message);
  };

  const DatapathIndex index(datapath);
  for (const Wire& wire : datapath.wires) {
    if (wire.width == 0 || wire.width > 64) {
      err("wire '" + wire.name + "' has width " +
          std::to_string(wire.width));
    }
    if (index.find_wire(wire.name) != &wire) {
      err("duplicate wire '" + wire.name + "'");
    }
  }

  for (const MemoryDecl& memory : datapath.memories) {
    if (memory.depth == 0) {
      err("memory '" + memory.name + "' has zero depth");
    }
    if (memory.width == 0 || memory.width > 64) {
      err("memory '" + memory.name + "' has bad width");
    }
    if (index.find_memory(memory.name) != &memory) {
      err("duplicate memory '" + memory.name + "'");
    }
    if (memory.init.size() > memory.depth) {
      err("memory '" + memory.name + "' has " +
          std::to_string(memory.init.size()) + " init words but depth " +
          std::to_string(memory.depth));
    }
    for (std::uint64_t word : memory.init) {
      if (word > sim::Bits::mask(memory.width)) {
        err("memory '" + memory.name + "' init word " +
            std::to_string(word) + " does not fit in " +
            std::to_string(memory.width) + " bits");
      }
    }
  }

  for (const std::string& control : datapath.control_wires) {
    if (index.find_wire(control) == nullptr) {
      err("control wire '" + control + "' is not declared");
    }
  }
  for (const std::string& status : datapath.status_wires) {
    const Wire* wire = index.find_wire(status);
    if (wire == nullptr) {
      err("status wire '" + status + "' is not declared");
    }
    if (wire->width != 1) {
      err("status wire '" + status + "' must be one bit");
    }
    if (index.is_control(status)) {
      err("wire '" + status + "' cannot be both control and status");
    }
  }

  std::unordered_set<std::string_view> unit_names;
  // wire -> "unit.port" of its driver
  std::unordered_map<std::string_view, std::string> driver_of;
  for (const std::string& control : datapath.control_wires) {
    driver_of[control] = "<control unit>";
  }

  for (const Unit& unit : datapath.units) {
    if (!unit_names.insert(unit.name).second) {
      err("duplicate unit '" + unit.name + "'");
    }
    if (unit.latency != 0) {
      if (unit.kind != UnitKind::kBinOp) {
        err("unit '" + unit.name + "' has latency but is not a binary FU");
      }
      if (ops::is_comparison(unit.binop)) {
        err("comparator '" + unit.name +
            "' cannot be pipelined (status logic must be combinational)");
      }
    }
    if (unit.kind == UnitKind::kMux && unit.mux_inputs < 2) {
      err("mux '" + unit.name + "' needs at least two inputs");
    }
    const MemoryDecl* memory = nullptr;
    if (unit.kind == UnitKind::kMemPort) {
      memory = index.find_memory(unit.memory);
      if (memory == nullptr) {
        err("memport '" + unit.name + "' references unknown memory '" +
            unit.memory + "'");
      }
    }
    PortSpec spec = port_spec(unit);
    for (const std::string& required : spec.required) {
      if (!unit.has_port(required)) {
        err("unit '" + unit.name + "' (" + std::string(to_string(unit.kind)) +
            ") lacks required port '" + required + "'");
      }
    }
    for (const auto& [port_name, wire_name] : unit.ports) {
      bool known = contains(spec.required, port_name) ||
                   contains(spec.optional, port_name);
      if (!known) {
        err("unit '" + unit.name + "' has unexpected port '" + port_name +
            "'");
      }
      const Wire* wire = index.find_wire(wire_name);
      if (wire == nullptr) {
        err("port '" + unit.name + "." + port_name +
            "' references unknown wire '" + wire_name + "'");
      }
      std::uint32_t expected = expected_port_width(unit, port_name, memory);
      if (expected != 0 && wire->width != expected) {
        err("port '" + unit.name + "." + port_name + "' expects width " +
            std::to_string(expected) + " but wire '" + wire_name +
            "' has width " + std::to_string(wire->width));
      }
      if (contains(spec.outputs, port_name)) {
        auto [it, inserted] =
            driver_of.emplace(wire_name, unit.name + "." + port_name);
        if (!inserted) {
          err("wire '" + wire_name + "' driven by both " + it->second +
              " and " + unit.name + "." + port_name);
        }
      }
    }
  }

  for (const std::string& status : datapath.status_wires) {
    if (driver_of.find(status) == driver_of.end()) {
      err("status wire '" + status + "' has no driver");
    }
  }

  // Write conflicts are ruled out structurally: one writer per memory.
  std::unordered_map<std::string_view, std::string_view> writer_of;
  for (const Unit& unit : datapath.units) {
    if (unit.kind != UnitKind::kMemPort ||
        unit.mem_mode == MemMode::kRead) {
      continue;
    }
    auto [it, inserted] = writer_of.emplace(unit.memory, unit.name);
    if (!inserted) {
      err("memory '" + unit.memory + "' has two write-capable ports ('" +
          std::string(it->second) + "' and '" + unit.name + "')");
    }
  }
}

}  // namespace fti::ir
