#include <gtest/gtest.h>

#include "fti/ir/serde.hpp"
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
