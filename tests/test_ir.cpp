#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fti/ir/serde.hpp"
#include "fti/ir/slots.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "fti/xml/parser.hpp"
#include "fti/xml/writer.hpp"
#include "test_designs.hpp"

namespace fti::ir {
namespace {

/// The full IrError message `check` throws; "" when it does not throw.
/// validate() reports the first fault in a fixed order, and these
/// messages pin that order as well as the wording.
template <typename Check>
std::string error_of(Check check) {
  try {
    check();
  } catch (const util::IrError& error) {
    return error.what();
  }
  return "";
}

std::string datapath_error(const Configuration& config) {
  return error_of([&] { validate(config.datapath); });
}

std::string fsm_error(const Configuration& config) {
  return error_of([&] { validate(config.fsm, config.datapath); });
}

TEST(Guard, ParseAndPrint) {
  EXPECT_TRUE(parse_guard("").always());
  EXPECT_TRUE(parse_guard("1").always());
  EXPECT_TRUE(parse_guard("true").always());
  Guard guard = parse_guard("a & !b & c");
  ASSERT_EQ(guard.literals.size(), 3u);
  EXPECT_EQ(guard.literals[0].status, "a");
  EXPECT_TRUE(guard.literals[0].expected);
  EXPECT_FALSE(guard.literals[1].expected);
  EXPECT_EQ(to_string(guard), "a & !b & c");
  EXPECT_EQ(to_string(Guard{}), "1");
  EXPECT_THROW(parse_guard("a &"), util::IrError);
  EXPECT_THROW(parse_guard("a | b"), util::IrError);
}

TEST(DatapathValidate, AcceptsAccumulator) {
  Configuration config = testing::make_accumulator(5);
  EXPECT_NO_THROW(validate(config.datapath));
  EXPECT_NO_THROW(validate(config.fsm, config.datapath));
}

TEST(DatapathValidate, RejectsDuplicateWire) {
  Configuration config = testing::make_accumulator(5);
  config.datapath.wires.push_back({"acc_q", 32});
  EXPECT_EQ(datapath_error(config),
            "ir: datapath 'acc': duplicate wire 'acc_q'");
}

TEST(DatapathValidate, RejectsUnknownWireReference) {
  Configuration config = testing::make_accumulator(5);
  config.datapath.units[2].ports["a"] = "missing";
  EXPECT_EQ(datapath_error(config),
            "ir: datapath 'acc': port 'add0.a' references unknown wire "
            "'missing'");
}

TEST(DatapathValidate, RejectsWidthMismatch) {
  Configuration config = testing::make_accumulator(5);
  config.datapath.wires[0].width = 16;  // acc_q
  EXPECT_EQ(datapath_error(config),
            "ir: datapath 'acc': port 'add0.a' expects width 32 but wire "
            "'acc_q' has width 16");
}

TEST(DatapathValidate, RejectsDoubleDriver) {
  Configuration config = testing::make_accumulator(5);
  // Second unit driving add_out.
  Unit extra = config.datapath.units[2];
  extra.name = "add1";
  config.datapath.units.push_back(extra);
  EXPECT_EQ(datapath_error(config),
            "ir: datapath 'acc': wire 'add_out' driven by both add0.out and "
            "add1.out");
}

TEST(DatapathValidate, RejectsMissingRequiredPort) {
  Configuration config = testing::make_accumulator(5);
  config.datapath.units[2].ports.erase("b");
  EXPECT_EQ(datapath_error(config),
            "ir: datapath 'acc': unit 'add0' (binop) lacks required port "
            "'b'");
}

TEST(DatapathValidate, RejectsControlAsStatus) {
  Configuration config = testing::make_accumulator(5);
  config.datapath.status_wires.push_back("c_en");
  EXPECT_EQ(datapath_error(config),
            "ir: datapath 'acc': wire 'c_en' cannot be both control and "
            "status");
}

TEST(DatapathValidate, RejectsWideStatus) {
  Configuration config = testing::make_accumulator(5);
  config.datapath.status_wires[0] = "acc_q";
  EXPECT_EQ(datapath_error(config),
            "ir: datapath 'acc': status wire 'acc_q' must be one bit");
}

TEST(DatapathValidate, RejectsMemportWithoutMemory) {
  Configuration config = testing::make_accumulator(5);
  Unit memport;
  memport.name = "mp";
  memport.kind = UnitKind::kMemPort;
  memport.memory = "nowhere";
  memport.ports = {{"addr", "acc_q"},
                   {"din", "add_out"},
                   {"dout", "kt_out"},
                   {"we", "c_en"}};
  config.datapath.units.push_back(memport);
  EXPECT_EQ(datapath_error(config),
            "ir: datapath 'acc': memport 'mp' references unknown memory "
            "'nowhere'");
}

TEST(DatapathValidate, RejectsUndeclaredControl) {
  Configuration config = testing::make_accumulator(5);
  config.datapath.control_wires.push_back("ghost");
  EXPECT_EQ(datapath_error(config),
            "ir: datapath 'acc': control wire 'ghost' is not declared");
}

TEST(DatapathValidate, TwoFaultsReportTheFirst) {
  Configuration config = testing::make_accumulator(5);
  // A unit-level fault in the last unit, a status fault before any unit
  // is checked, and a duplicate wire name that only matters to lookups.
  config.datapath.units[4].ports["d"] = "missing";
  config.datapath.status_wires.push_back("ghost_status");
  config.datapath.wires.push_back({"zz_extra", 32});
  config.datapath.wires.push_back({"zz_extra", 32});
  EXPECT_EQ(datapath_error(config),
            "ir: datapath 'acc': duplicate wire 'zz_extra'");
  config.datapath.wires.pop_back();
  EXPECT_EQ(datapath_error(config),
            "ir: datapath 'acc': status wire 'ghost_status' is not "
            "declared");
  config.datapath.status_wires.pop_back();
  EXPECT_EQ(datapath_error(config),
            "ir: datapath 'acc': port 'r_acc.d' references unknown wire "
            "'missing'");
}

TEST(FsmValidate, RejectsBadInitial) {
  Configuration config = testing::make_accumulator(5);
  config.fsm.initial = "nope";
  EXPECT_EQ(fsm_error(config),
            "ir: fsm 'acc_fsm': initial state 'nope' does not exist");
}

TEST(FsmValidate, RejectsUnknownTarget) {
  Configuration config = testing::make_accumulator(5);
  config.fsm.states[0].transitions[0].target = "nope";
  EXPECT_EQ(fsm_error(config),
            "ir: fsm 'acc_fsm': state 'run' targets unknown state 'nope'");
}

TEST(FsmValidate, RejectsAssignToStatus) {
  Configuration config = testing::make_accumulator(5);
  config.fsm.states[0].controls.push_back({"lt_out", 1});
  EXPECT_EQ(fsm_error(config),
            "ir: fsm 'acc_fsm': state 'run' assigns non-control wire "
            "'lt_out'");
}

TEST(FsmValidate, RejectsGuardOnControl) {
  Configuration config = testing::make_accumulator(5);
  config.fsm.states[0].transitions[0].guard = parse_guard("c_en");
  EXPECT_EQ(fsm_error(config),
            "ir: fsm 'acc_fsm': state 'run' guard uses non-status wire "
            "'c_en'");
}

TEST(FsmValidate, RejectsValueBeyondWidth) {
  Configuration config = testing::make_accumulator(5);
  config.fsm.states[0].controls[0].value = 2;  // c_en is one bit
  EXPECT_EQ(fsm_error(config),
            "ir: fsm 'acc_fsm': state 'run' assigns value 2 beyond width of "
            "'c_en'");
}

TEST(FsmValidate, RejectsNonControlDoneWire) {
  Configuration config = testing::make_accumulator(5);
  config.fsm.done_wire = "lt_out";
  EXPECT_EQ(fsm_error(config),
            "ir: fsm 'acc_fsm': done wire 'lt_out' is not a control wire of "
            "'acc'");
}

TEST(FsmValidate, RejectsControlAssignedTwice) {
  Configuration config = testing::make_accumulator(5);
  config.fsm.states[0].controls.push_back({"c_en", 0});
  EXPECT_EQ(fsm_error(config),
            "ir: fsm 'acc_fsm': state 'run' assigns 'c_en' twice");
}

TEST(FsmValidate, TwoFaultsReportTheFirst) {
  Configuration config = testing::make_accumulator(5);
  // The guard fault and the duplicate state come after the unknown
  // target in check order, so the target is what gets reported.
  config.fsm.states[0].transitions[0].target = "nope";
  config.fsm.states[0].transitions[0].guard = parse_guard("c_en");
  config.fsm.states.push_back(config.fsm.states[1]);  // duplicate 'halt'
  EXPECT_EQ(fsm_error(config),
            "ir: fsm 'acc_fsm': state 'run' targets unknown state 'nope'");
  config.fsm.states[0].transitions[0].target = "halt";
  EXPECT_EQ(fsm_error(config),
            "ir: fsm 'acc_fsm': state 'run' guard uses non-status wire "
            "'c_en'");
  config.fsm.states[0].transitions[0].guard = parse_guard("!lt_out");
  EXPECT_EQ(fsm_error(config), "ir: fsm 'acc_fsm': duplicate state 'halt'");
}

TEST(OperatorCount, CountsFunctionalUnits) {
  Configuration config = testing::make_accumulator(5);
  // add + cmp are operators; consts and the register are not.
  EXPECT_EQ(config.datapath.operator_count(), 2u);
  EXPECT_EQ(config.datapath.count_kind(UnitKind::kRegister), 1u);
  EXPECT_EQ(config.datapath.count_kind(UnitKind::kConst), 2u);
}

TEST(SelectWidth, CoversRanges) {
  EXPECT_EQ(select_width(2), 1u);
  EXPECT_EQ(select_width(3), 2u);
  EXPECT_EQ(select_width(4), 2u);
  EXPECT_EQ(select_width(5), 3u);
  EXPECT_EQ(select_width(64), 6u);
  EXPECT_EQ(select_width(65), 7u);
}

TEST(Serde, DatapathRoundTrip) {
  Configuration config = testing::make_accumulator(7);
  auto element = to_xml(config.datapath);
  Datapath reparsed = datapath_from_xml(*element);
  EXPECT_EQ(xml::to_string(*to_xml(reparsed)), xml::to_string(*element));
  EXPECT_NO_THROW(validate(reparsed));
  EXPECT_EQ(reparsed.units.size(), config.datapath.units.size());
}

TEST(Serde, FsmRoundTrip) {
  Configuration config = testing::make_accumulator(7);
  auto element = to_xml(config.fsm);
  Fsm reparsed = fsm_from_xml(*element);
  EXPECT_EQ(xml::to_string(*to_xml(reparsed)), xml::to_string(*element));
  EXPECT_EQ(reparsed.initial, "run");
  EXPECT_EQ(reparsed.states.size(), 2u);
  ASSERT_EQ(reparsed.states[0].transitions.size(), 1u);
  EXPECT_FALSE(reparsed.states[0].transitions[0].guard.literals[0].expected);
}

TEST(Serde, DesignRoundTrip) {
  Design design =
      make_single_design("accdesign", testing::make_accumulator(3));
  auto element = to_xml(design);
  Design reparsed = design_from_xml(*element);
  EXPECT_EQ(xml::to_string(*to_xml(reparsed)), xml::to_string(*element));
  EXPECT_NO_THROW(validate(reparsed));
  EXPECT_EQ(reparsed.name, "accdesign");
  EXPECT_EQ(reparsed.configuration_count(), 1u);
}

TEST(Serde, FileSetRoundTrip) {
  Design design =
      make_single_design("filedesign", testing::make_accumulator(3));
  auto dir = util::scratch_dir("ir-test");
  auto paths = save_design_files(design, dir / "filedesign");
  ASSERT_EQ(paths.size(), 3u);  // rtg + datapath + fsm
  EXPECT_EQ(paths[0].filename(), "rtg.xml");
  Design reloaded = load_design_files(paths[0]);
  EXPECT_EQ(reloaded.name, "filedesign");
  EXPECT_EQ(xml::to_string(*to_xml(reloaded)),
            xml::to_string(*to_xml(design)));
}

TEST(Serde, RejectsMalformedDialect) {
  EXPECT_THROW(datapath_from_xml(*xml::parse("<fsm name=\"x\"/>")),
               util::XmlError);
  EXPECT_THROW(
      datapath_from_xml(*xml::parse("<datapath name=\"d\"><bogus/></datapath>")),
      util::XmlError);
  EXPECT_THROW(
      fsm_from_xml(*xml::parse(
          "<fsm name=\"f\" initial=\"s\"><state name=\"s\"><oops/></state></fsm>")),
      util::XmlError);
  EXPECT_THROW(rtg_from_xml(*xml::parse("<rtg name=\"r\" initial=\"a\"><x/></rtg>")),
               util::XmlError);
}

TEST(Rtg, SuccessorWalk) {
  Rtg rtg;
  rtg.name = "r";
  rtg.initial = "a";
  rtg.nodes = {"a", "b", "c"};
  rtg.edges = {{"a", "b"}, {"b", "c"}};
  EXPECT_EQ(rtg.successor("a"), "b");
  EXPECT_EQ(rtg.successor("c"), "");
  EXPECT_TRUE(rtg.has_node("b"));
  EXPECT_FALSE(rtg.has_node("z"));
}

TEST(DesignValidate, RejectsCyclicRtg) {
  Design design = make_single_design("d", testing::make_accumulator(2));
  std::string node = design.rtg.nodes[0];
  design.rtg.edges.push_back({node, node});
  EXPECT_THROW(validate(design), util::IrError);
}

TEST(DesignValidate, RejectsNodeWithoutConfiguration) {
  Design design = make_single_design("d", testing::make_accumulator(2));
  design.rtg.nodes.push_back("ghost");
  EXPECT_THROW(validate(design), util::IrError);
}

TEST(DesignValidate, RejectsDoubleSuccessor) {
  Design design = make_single_design("d", testing::make_accumulator(2));
  std::string node = design.rtg.nodes[0];
  Configuration other = testing::make_accumulator(3);
  other.datapath.name = "acc2";
  design.rtg.nodes.push_back("acc2");
  design.configurations.emplace("acc2", std::move(other));
  design.rtg.edges.push_back({node, "acc2"});
  design.rtg.edges.push_back({node, "acc2"});
  EXPECT_THROW(validate(design), util::IrError);
}

TEST(DesignValidate, RejectsMemoryShapeConflict) {
  Configuration first = testing::make_accumulator(2);
  first.datapath.memories.push_back({"shared", 16, 8, {}});
  Configuration second = testing::make_accumulator(2);
  second.datapath.name = "acc2";
  second.fsm.name = "acc2_fsm";
  second.datapath.memories.push_back({"shared", 32, 8, {}});
  Design design;
  design.name = "d";
  design.rtg.name = "d_rtg";
  design.rtg.initial = "acc";
  design.rtg.nodes = {"acc", "acc2"};
  design.rtg.edges = {{"acc", "acc2"}};
  design.configurations.emplace("acc", std::move(first));
  design.configurations.emplace("acc2", std::move(second));
  EXPECT_THROW(validate(design), util::IrError);
}

}  // namespace
}  // namespace fti::ir

namespace fti::ir {
namespace {

TEST(MemoryInit, SerdeRoundTripWithInit) {
  Configuration config = fti::testing::make_accumulator(3);
  config.datapath.memories.push_back({"rom", 6, 16, {1, 2, 3, 4, 5, 65535}});
  auto element = to_xml(config.datapath);
  Datapath reparsed = datapath_from_xml(*element);
  ASSERT_EQ(reparsed.memories.size(), 1u);
  EXPECT_EQ(reparsed.memories[0].init,
            (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 65535}));
  EXPECT_EQ(xml::to_string(*to_xml(reparsed)), xml::to_string(*element));
}

TEST(MemoryInit, ValidateRejectsOversizedInit) {
  Configuration config = fti::testing::make_accumulator(3);
  config.datapath.memories.push_back({"rom", 2, 16, {1, 2, 3}});
  EXPECT_THROW(validate(config.datapath), util::IrError);
}

TEST(MemoryInit, ValidateRejectsWideInitWord) {
  Configuration config = fti::testing::make_accumulator(3);
  config.datapath.memories.push_back({"rom", 4, 8, {256}});
  EXPECT_THROW(validate(config.datapath), util::IrError);
}

TEST(MemoryInit, DesignValidateRejectsConflictingInit) {
  Configuration first = fti::testing::make_accumulator(2);
  first.datapath.memories.push_back({"shared", 4, 8, {1, 2}});
  Configuration second = fti::testing::make_accumulator(2);
  second.datapath.name = "acc2";
  second.fsm.name = "acc2_fsm";
  second.datapath.memories.push_back({"shared", 4, 8, {9, 9}});
  Design design;
  design.name = "d";
  design.rtg.name = "d_rtg";
  design.rtg.initial = "acc";
  design.rtg.nodes = {"acc", "acc2"};
  design.rtg.edges = {{"acc", "acc2"}};
  design.configurations.emplace("acc", std::move(first));
  design.configurations.emplace("acc2", std::move(second));
  EXPECT_THROW(validate(design), util::IrError);
}

}  // namespace
}  // namespace fti::ir

namespace fti::ir {
namespace {

/// One unit of every kind and memory mode, registers with and without
/// en/rst, muxes of 2 and 12 inputs, a control listed twice and two
/// status wires.  Wires are declared in reverse so that no slot equals
/// the position a resolver walking units or ports would guess.
Configuration make_resolver_zoo() {
  Configuration config;
  Datapath& dp = config.datapath;
  dp.name = "zoo";
  std::vector<Wire> wires = {
      {"x", 8},     {"k8", 8},    {"diff", 8},  {"lt", 1},    {"eq", 1},
      {"prod", 8},  {"negd", 8},  {"y_en", 8},  {"y_rst", 8}, {"y_both", 8},
      {"m2_out", 8}, {"m12_out", 8}, {"ram_out", 8}, {"rom_out", 8},
      {"go", 1},    {"ld", 1},    {"done", 1},  {"sel2", 1},  {"sel12", 4},
      {"we_c", 1}};
  for (int i = 0; i < 12; ++i) {
    wires.push_back({"i" + std::to_string(i), 8});
  }
  dp.wires.assign(wires.rbegin(), wires.rend());
  dp.memories = {{"ram", 16, 8, {}}, {"rom", 8, 8, {}}, {"sink", 4, 8, {}}};
  dp.control_wires = {"go", "ld", "done", "sel2", "sel12", "we_c", "ld"};
  dp.status_wires = {"lt", "eq"};

  auto add = [&dp](std::string name, UnitKind kind,
                   std::map<std::string, std::string, std::less<>> ports) {
    Unit& unit = dp.units.emplace_back();
    unit.name = std::move(name);
    unit.kind = kind;
    unit.width = 8;
    unit.ports = std::move(ports);
    return &unit;
  };
  add("k", UnitKind::kConst, {{"out", "k8"}})->value = 3;
  add("sub", UnitKind::kBinOp, {{"a", "x"}, {"b", "k8"}, {"out", "diff"}})
      ->binop = ops::BinOp::kSub;
  add("cmp_lt", UnitKind::kBinOp, {{"a", "x"}, {"b", "k8"}, {"out", "lt"}})
      ->binop = ops::BinOp::kLtu;
  add("cmp_eq", UnitKind::kBinOp, {{"a", "k8"}, {"b", "x"}, {"out", "eq"}})
      ->binop = ops::BinOp::kEq;
  Unit* mul = add("mul", UnitKind::kBinOp,
                  {{"a", "diff"}, {"b", "x"}, {"out", "prod"}});
  mul->binop = ops::BinOp::kMul;
  mul->latency = 2;
  add("neg", UnitKind::kUnOp, {{"a", "diff"}, {"out", "negd"}})->unop =
      ops::UnOp::kNeg;
  add("r_plain", UnitKind::kRegister, {{"d", "negd"}, {"q", "x"}});
  add("r_en", UnitKind::kRegister,
      {{"d", "prod"}, {"q", "y_en"}, {"en", "ld"}});
  add("r_rst", UnitKind::kRegister,
      {{"d", "diff"}, {"q", "y_rst"}, {"rst", "go"}});
  add("r_both", UnitKind::kRegister,
      {{"d", "x"}, {"q", "y_both"}, {"en", "ld"}, {"rst", "go"}});
  add("m2", UnitKind::kMux,
      {{"in0", "i0"}, {"in1", "i1"}, {"sel", "sel2"}, {"out", "m2_out"}})
      ->mux_inputs = 2;
  std::map<std::string, std::string, std::less<>> m12 = {
      {"sel", "sel12"}, {"out", "m12_out"}};
  for (int i = 0; i < 12; ++i) {
    m12.emplace("in" + std::to_string(i), "i" + std::to_string(11 - i));
  }
  add("m12", UnitKind::kMux, std::move(m12))->mux_inputs = 12;
  Unit* rw = add("p_rw", UnitKind::kMemPort,
                 {{"addr", "sel12"}, {"din", "m2_out"}, {"dout", "ram_out"},
                  {"we", "we_c"}});
  rw->memory = "ram";
  rw->mem_mode = MemMode::kReadWrite;
  Unit* read =
      add("p_r", UnitKind::kMemPort, {{"addr", "x"}, {"dout", "rom_out"}});
  read->memory = "rom";
  read->mem_mode = MemMode::kRead;
  Unit* write = add("p_w", UnitKind::kMemPort,
                    {{"addr", "k8"}, {"din", "m12_out"}, {"we", "we_c"}});
  write->memory = "sink";
  write->mem_mode = MemMode::kWrite;

  Fsm& fsm = config.fsm;
  fsm.name = "zoo_fsm";
  fsm.initial = "s2";
  fsm.done_wire = "done";
  fsm.states = {
      {"s0",
       {{"go", 1}, {"sel12", 11}, {"ld", 1}},
       {{parse_guard("lt & !eq"), "s2"}, {parse_guard("1"), "s1"}}},
      {"s1", {{"done", 1}}, {{parse_guard("eq"), "s0"}}},
      {"s2", {}, {{parse_guard("!lt"), "s1"}}}};
  return config;
}

/// The table field that holds port `name` -- written out apart from the
/// resolver's own dispatch, so the two check each other.
std::size_t field(const UnitSlots& unit, std::string_view name) {
  if (name == "out" || name == "dout") return unit.out;
  if (name == "a") return unit.a;
  if (name == "b") return unit.b;
  if (name == "sel") return unit.sel;
  if (name == "d") return unit.d;
  if (name == "q") return unit.q;
  if (name == "en") return unit.en;
  if (name == "rst") return unit.rst;
  if (name == "addr") return unit.addr;
  if (name == "din") return unit.din;
  if (name == "we") return unit.we;
  return unit.in.at(std::stoul(std::string(name.substr(2))));
}

TEST(ResolveSlots, EveryPortMatchesItsNamedWire) {
  const Configuration config = make_resolver_zoo();
  validate(config.datapath);
  validate(config.fsm, config.datapath);
  const DatapathIndex index(config.datapath);
  const ConfigSlots slots = resolve_slots(config, index);
  const Datapath& dp = config.datapath;
  ASSERT_EQ(slots.units.size(), dp.units.size());
  const std::vector<std::string> kScalar = {
      "out", "a", "b", "sel", "d", "q", "en", "rst", "addr", "din", "we"};
  for (std::size_t u = 0; u < dp.units.size(); ++u) {
    const Unit& unit = dp.units[u];
    const UnitSlots& resolved = slots.units[u];
    EXPECT_EQ(&slots.of(unit), &resolved);
    const PortSpec spec = port_spec(unit);
    std::vector<std::string> names = spec.required;
    names.insert(names.end(), spec.optional.begin(), spec.optional.end());
    for (const std::string& name : names) {
      EXPECT_EQ(field(resolved, name), unit.has_port(name)
                                           ? index.slot(unit.port(name))
                                           : kNone)
          << unit.name << "." << name;
    }
    // Every field the unit's ports do not name reads kNone.
    for (const std::string& name : kScalar) {
      const bool named = unit.has_port(name) ||
                         (name == "out" && unit.has_port("dout"));
      if (!named) {
        EXPECT_EQ(field(resolved, name), kNone) << unit.name << "." << name;
      }
    }
    EXPECT_EQ(resolved.in.size(),
              unit.kind == UnitKind::kMux ? unit.mux_inputs : 0u);
    std::size_t memory = kNone;
    for (std::size_t m = 0; m < dp.memories.size(); ++m) {
      if (unit.kind == UnitKind::kMemPort &&
          dp.memories[m].name == unit.memory) {
        memory = m;
      }
    }
    EXPECT_EQ(resolved.memory, memory) << unit.name;
  }
  // Registers without en/rst read kNone there; "in10" is input 10.
  const UnitSlots& plain = slots.units[6];
  EXPECT_EQ(plain.en, kNone);
  EXPECT_EQ(plain.rst, kNone);
  const UnitSlots& m12 = slots.units[11];
  EXPECT_EQ(m12.in[10], index.slot("i1"));
  EXPECT_EQ(m12.in[11], index.slot("i0"));
  EXPECT_EQ(m12.in[2], index.slot("i9"));
  EXPECT_EQ(slots.units[14].memory, 2u);
}

TEST(ResolveSlots, ControlsTracesGuardsAndStatesMatchTheirNames) {
  const Configuration config = make_resolver_zoo();
  const DatapathIndex index(config.datapath);
  const ConfigSlots slots = resolve_slots(config, index);
  const Datapath& dp = config.datapath;
  const Fsm& fsm = config.fsm;
  ASSERT_EQ(slots.controls.size(), dp.control_wires.size());
  for (std::size_t c = 0; c < dp.control_wires.size(); ++c) {
    EXPECT_EQ(slots.controls[c], index.slot(dp.control_wires[c]));
  }
  const std::vector<std::string> traced = traced_wires(dp);
  ASSERT_EQ(slots.traced.size(), traced.size());
  for (std::size_t t = 0; t < traced.size(); ++t) {
    EXPECT_EQ(slots.traced[t], index.slot(traced[t]));
  }
  EXPECT_EQ(slots.initial, fsm.state_index(fsm.initial));
  EXPECT_EQ(slots.done, index.slot(fsm.done_wire));
  ASSERT_EQ(slots.states.size(), fsm.states.size());
  for (std::size_t s = 0; s < fsm.states.size(); ++s) {
    const State& state = fsm.states[s];
    const StateSlots& resolved = slots.states[s];
    // One entry per listing of the assigned wire, in declaration order.
    std::vector<std::pair<std::size_t, std::uint64_t>> expected;
    for (const ControlAssign& assign : state.controls) {
      for (std::size_t c = 0; c < dp.control_wires.size(); ++c) {
        if (dp.control_wires[c] == assign.wire) {
          expected.emplace_back(c, assign.value);
        }
      }
    }
    std::vector<std::pair<std::size_t, std::uint64_t>> actual;
    for (const auto& [control, value] : resolved.controls) {
      actual.emplace_back(control, value);
    }
    EXPECT_EQ(actual, expected) << state.name;
    ASSERT_EQ(resolved.transitions.size(), state.transitions.size());
    for (std::size_t t = 0; t < state.transitions.size(); ++t) {
      const Transition& transition = state.transitions[t];
      const TransitionSlots& edge = resolved.transitions[t];
      EXPECT_EQ(edge.target, fsm.state_index(transition.target));
      ASSERT_EQ(edge.literals.size(), transition.guard.literals.size());
      for (std::size_t l = 0; l < edge.literals.size(); ++l) {
        const GuardLiteral& literal = transition.guard.literals[l];
        EXPECT_EQ(edge.literals[l].status, index.slot(literal.status));
        EXPECT_EQ(edge.literals[l].expected, literal.expected);
      }
    }
  }
  // "ld" is listed at positions 1 and 6: s0's assignment reaches both.
  EXPECT_EQ(slots.states[0].controls.size(), 4u);
}

TEST(ResolveSlots, OneInputMuxPlacesItsInput) {
  // validate wants two inputs; the resolver still places what is there.
  Configuration config = make_resolver_zoo();
  Unit& mux = config.datapath.units[10];
  mux.mux_inputs = 1;
  mux.ports.erase("in1");
  const DatapathIndex index(config.datapath);
  const ConfigSlots slots = resolve_slots(config, index);
  ASSERT_EQ(slots.units[10].in.size(), 1u);
  EXPECT_EQ(slots.units[10].in[0], index.slot("i0"));
  EXPECT_EQ(slots.units[10].sel, index.slot("sel2"));
}

}  // namespace
}  // namespace fti::ir
