// fti::lint unit tests: per-rule minimal failing designs paired with
// near-miss passing ones, report writers (text / JSON / SARIF 2.1.0,
// schema-checked through util::parse_json), the verify-flow lint gate,
// and the defect-injection recall cross-check.
#include <gtest/gtest.h>

#include <algorithm>

#include "fti/elab/engines.hpp"
#include "fti/fuzz/inject.hpp"
#include "fti/harness/testcase.hpp"
#include "fti/lint/dataflow.hpp"
#include "fti/lint/lint.hpp"
#include "fti/mem/storage.hpp"
#include "fti/util/json_reader.hpp"
#include "test_designs.hpp"

namespace fti::lint {
namespace {

ir::Design accumulator_design() {
  return ir::make_single_design("acc_design",
                                testing::make_accumulator(5));
}

std::size_t count_rule(const Report& report, std::string_view rule) {
  return static_cast<std::size_t>(
      std::count_if(report.findings.begin(), report.findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

const Finding* first_of(const Report& report, std::string_view rule) {
  for (const Finding& finding : report.findings) {
    if (finding.rule == rule) {
      return &finding;
    }
  }
  return nullptr;
}

/// Two-partition design sharing memory "m": one configuration reads it
/// through a read port, the other writes it.  `reader_first` orders the
/// RTG chain reader -> writer; `initialized` bakes in an init image.
ir::Design make_memory_chain(bool reader_first, bool initialized,
                             bool with_writer = true) {
  ir::Configuration reader = testing::make_accumulator(3);
  reader.datapath.name = "read_dp";
  reader.fsm.name = "read_fsm";
  reader.datapath.memories.push_back(
      {"m", 16, 32, initialized ? std::vector<std::uint64_t>{7} :
                                  std::vector<std::uint64_t>{}});
  reader.datapath.wires.push_back({"m_addr", 4});
  reader.datapath.wires.push_back({"m_dout", 32});
  ir::Unit addr_const;
  addr_const.name = "addr0";
  addr_const.kind = ir::UnitKind::kConst;
  addr_const.width = 4;
  addr_const.value = 0;
  addr_const.ports = {{"out", "m_addr"}};
  reader.datapath.units.push_back(addr_const);
  ir::Unit read_port;
  read_port.name = "rp0";
  read_port.kind = ir::UnitKind::kMemPort;
  read_port.mem_mode = ir::MemMode::kRead;
  read_port.memory = "m";
  read_port.width = 32;
  read_port.ports = {{"addr", "m_addr"}, {"dout", "m_dout"}};
  reader.datapath.units.push_back(read_port);

  ir::Configuration writer = testing::make_accumulator(3);
  writer.datapath.name = "write_dp";
  writer.fsm.name = "write_fsm";
  writer.datapath.memories.push_back(
      {"m", 16, 32, initialized ? std::vector<std::uint64_t>{7} :
                                  std::vector<std::uint64_t>{}});
  writer.datapath.wires.push_back({"w_addr", 4});
  writer.datapath.wires.push_back({"w_din", 32});
  writer.datapath.wires.push_back({"w_we", 1});
  for (auto [name, width, value] :
       {std::tuple<const char*, std::uint32_t, std::uint64_t>
            {"waddr0", 4u, 0ull},
        {"wdin0", 32u, 11ull},
        {"wwe0", 1u, 1ull}}) {
    ir::Unit constant;
    constant.name = name;
    constant.kind = ir::UnitKind::kConst;
    constant.width = width;
    constant.value = value;
    constant.ports = {{"out", std::string("w_") +
                                  (std::string(name) == "waddr0" ? "addr"
                                   : std::string(name) == "wdin0" ? "din"
                                                                  : "we")}};
    writer.datapath.units.push_back(constant);
  }
  ir::Unit write_port;
  write_port.name = "wp0";
  write_port.kind = ir::UnitKind::kMemPort;
  write_port.mem_mode = ir::MemMode::kWrite;
  write_port.memory = "m";
  write_port.width = 32;
  write_port.ports = {{"addr", "w_addr"}, {"din", "w_din"}, {"we", "w_we"}};
  writer.datapath.units.push_back(write_port);

  ir::Design design;
  design.name = "memchain";
  design.rtg.name = "memchain_rtg";
  if (with_writer) {
    design.rtg.nodes = {"p0", "p1"};
    design.rtg.edges = {{"p0", "p1"}};
    design.rtg.initial = "p0";
    design.configurations["p0"] =
        reader_first ? std::move(reader) : std::move(writer);
    design.configurations["p1"] =
        reader_first ? std::move(writer) : std::move(reader);
  } else {
    design.rtg.nodes = {"p0"};
    design.rtg.initial = "p0";
    design.configurations["p0"] = std::move(reader);
  }
  return design;
}

TEST(LintRules, CleanDesignHasNoFindings) {
  Report report = lint_design(accumulator_design());
  EXPECT_TRUE(report.clean()) << to_text(report);
  EXPECT_EQ(report.design, "acc_design");
}

TEST(LintRules, MultiDriverIsAnError) {
  ir::Design design = accumulator_design();
  // k1's output lands on add_out, which add0 already drives.
  design.configurations.at("acc").datapath.units[0].ports["out"] =
      "add_out";
  Report report = lint_design(design);
  ASSERT_EQ(count_rule(report, "FTI-L001"), 1u) << to_text(report);
  EXPECT_EQ(first_of(report, "FTI-L001")->severity, Severity::kError);
  EXPECT_EQ(first_of(report, "FTI-L001")->object, "add_out");
}

TEST(LintRules, UndrivenButReadWireWarns) {
  ir::Design design = accumulator_design();
  auto& units = design.configurations.at("acc").datapath.units;
  units.erase(units.begin());  // delete k1; add0 still reads k1_out
  Report report = lint_design(design);
  ASSERT_EQ(count_rule(report, "FTI-L002"), 1u) << to_text(report);
  EXPECT_EQ(first_of(report, "FTI-L002")->severity, Severity::kWarning);
  EXPECT_EQ(first_of(report, "FTI-L002")->object, "k1_out");
}

TEST(LintRules, DeadWireSeverityTracksConnectivity) {
  ir::Design design = accumulator_design();
  ir::Datapath& dp = design.configurations.at("acc").datapath;
  dp.wires.push_back({"floating", 8});  // never connected: warning
  Report report = lint_design(design);
  ASSERT_EQ(count_rule(report, "FTI-L003"), 1u) << to_text(report);
  EXPECT_EQ(first_of(report, "FTI-L003")->severity, Severity::kWarning);

  // Driven but never read is only a note.
  dp.wires.push_back({"k2_out", 32});
  ir::Unit k2;
  k2.name = "k2";
  k2.kind = ir::UnitKind::kConst;
  k2.width = 32;
  k2.value = 9;
  k2.ports = {{"out", "k2_out"}};
  dp.units.push_back(k2);
  report = lint_design(design);
  ASSERT_EQ(count_rule(report, "FTI-L003"), 2u) << to_text(report);
  EXPECT_EQ(report.count(Severity::kNote), 1u);
}

TEST(LintRules, WidthMismatchIsAnError) {
  ir::Design design = accumulator_design();
  for (ir::Wire& wire :
       design.configurations.at("acc").datapath.wires) {
    if (wire.name == "add_out") {
      wire.width = 16;  // add0 (width 32) expects 32 on "out"
    }
  }
  Report report = lint_design(design);
  ASSERT_GE(count_rule(report, "FTI-L004"), 1u) << to_text(report);
  EXPECT_EQ(first_of(report, "FTI-L004")->severity, Severity::kError);
}

TEST(LintRules, ConstLiteralOverflowWarns) {
  ir::Design design = accumulator_design();
  ir::Datapath& dp = design.configurations.at("acc").datapath;
  // 2-bit constant holding 4: representable widths stay silent,
  // overflow warns without being a gate-blocking error.
  dp.wires.push_back({"k3_out", 2});
  ir::Unit k3;
  k3.name = "k3";
  k3.kind = ir::UnitKind::kConst;
  k3.width = 2;
  k3.value = 4;
  k3.ports = {{"out", "k3_out"}};
  dp.units.push_back(k3);
  Report report = lint_design(design);
  const Finding* overflow = first_of(report, "FTI-L004");
  ASSERT_NE(overflow, nullptr) << to_text(report);
  EXPECT_EQ(overflow->severity, Severity::kWarning);
  EXPECT_EQ(report.errors(), 0u);
}

TEST(LintRules, CombinationalCycleIsAnErrorWithPath) {
  ir::Design design = accumulator_design();
  for (ir::Unit& unit :
       design.configurations.at("acc").datapath.units) {
    if (unit.name == "add0") {
      unit.ports["a"] = "add_out";  // latency-0 self-loop
    }
  }
  Report report = lint_design(design);
  ASSERT_EQ(count_rule(report, "FTI-L005"), 1u) << to_text(report);
  const Finding& finding = *first_of(report, "FTI-L005");
  EXPECT_EQ(finding.severity, Severity::kError);
  EXPECT_NE(finding.message.find("add0"), std::string::npos);
}

TEST(LintRules, RegisterLoopIsNotACycle) {
  // The accumulator's acc_q -> add0 -> r_acc -> acc_q loop goes through
  // a register; near-miss for FTI-L005.
  Report report = lint_design(accumulator_design());
  EXPECT_EQ(count_rule(report, "FTI-L005"), 0u) << to_text(report);
}

TEST(LintRules, UnreachableStateWarns) {
  ir::Design design = accumulator_design();
  ir::Fsm& fsm = design.configurations.at("acc").fsm;
  ir::State ghost;
  ghost.name = "ghost";
  ghost.transitions.push_back({ir::Guard{}, "run"});
  fsm.states.push_back(ghost);
  Report report = lint_design(design);
  ASSERT_EQ(count_rule(report, "FTI-L006"), 1u) << to_text(report);
  EXPECT_EQ(first_of(report, "FTI-L006")->severity, Severity::kWarning);
  EXPECT_EQ(first_of(report, "FTI-L006")->object, "ghost");
}

TEST(LintRules, ShadowedTransitionWarns) {
  ir::Design design = accumulator_design();
  ir::State& run =
      design.configurations.at("acc").fsm.states.front();
  run.transitions.insert(run.transitions.begin(), {ir::Guard{}, "halt"});
  Report report = lint_design(design);
  ASSERT_EQ(count_rule(report, "FTI-L007"), 1u) << to_text(report);
  EXPECT_EQ(first_of(report, "FTI-L007")->severity, Severity::kWarning);
}

TEST(LintRules, GuardedThenUnconditionalIsFine) {
  // Near-miss for FTI-L007: the guarded transition comes first, so the
  // trailing unconditional one is the legitimate fallthrough.
  ir::Design design = accumulator_design();
  ir::State& run =
      design.configurations.at("acc").fsm.states.front();
  run.transitions.push_back({ir::Guard{}, "run"});
  Report report = lint_design(design);
  EXPECT_EQ(count_rule(report, "FTI-L007"), 0u) << to_text(report);
}

TEST(LintRules, TrapStateWarns) {
  ir::Design design = accumulator_design();
  // halt stops asserting done: reachable, no way out, never done.
  design.configurations.at("acc").fsm.states.back().controls.clear();
  Report report = lint_design(design);
  ASSERT_GE(count_rule(report, "FTI-L008"), 1u) << to_text(report);
  EXPECT_EQ(first_of(report, "FTI-L008")->severity, Severity::kWarning);
  EXPECT_EQ(first_of(report, "FTI-L008")->object, "halt");
}

TEST(LintRules, ReadBeforeWriteAcrossPartitionsWarns) {
  Report report =
      lint_design(make_memory_chain(/*reader_first=*/true,
                                    /*initialized=*/false));
  ASSERT_EQ(count_rule(report, "FTI-L009"), 1u) << to_text(report);
  const Finding& finding = *first_of(report, "FTI-L009");
  EXPECT_EQ(finding.severity, Severity::kWarning);
  EXPECT_EQ(finding.configuration, "p0");
  EXPECT_EQ(finding.object, "m");
}

TEST(LintRules, WriteBeforeReadIsFine) {
  Report report =
      lint_design(make_memory_chain(/*reader_first=*/false,
                                    /*initialized=*/false));
  EXPECT_EQ(count_rule(report, "FTI-L009"), 0u) << to_text(report);
  EXPECT_EQ(count_rule(report, "FTI-L010"), 0u) << to_text(report);
}

TEST(LintRules, InitializedMemorySilencesLiveness) {
  Report report =
      lint_design(make_memory_chain(/*reader_first=*/true,
                                    /*initialized=*/true));
  EXPECT_EQ(count_rule(report, "FTI-L009"), 0u) << to_text(report);
  EXPECT_EQ(count_rule(report, "FTI-L010"), 0u) << to_text(report);
}

TEST(LintRules, ReadWithNoWriterAnywhereIsANote) {
  Report report = lint_design(make_memory_chain(/*reader_first=*/true,
                                                /*initialized=*/false,
                                                /*with_writer=*/false));
  EXPECT_EQ(count_rule(report, "FTI-L009"), 0u) << to_text(report);
  ASSERT_EQ(count_rule(report, "FTI-L010"), 1u) << to_text(report);
  EXPECT_EQ(first_of(report, "FTI-L010")->severity, Severity::kNote);
}

TEST(LintRules, DanglingWireReferenceIsAnError) {
  ir::Design design = accumulator_design();
  for (ir::Unit& unit :
       design.configurations.at("acc").datapath.units) {
    if (unit.name == "add0") {
      unit.ports["b"] = "no_such_wire";
    }
  }
  Report report = lint_design(design);
  ASSERT_GE(count_rule(report, "FTI-L011"), 1u) << to_text(report);
  EXPECT_EQ(first_of(report, "FTI-L011")->severity, Severity::kError);
}

TEST(LintRules, DanglingTransitionTargetIsAnError) {
  ir::Design design = accumulator_design();
  design.configurations.at("acc")
      .fsm.states.front()
      .transitions.front()
      .target = "nowhere";
  Report report = lint_design(design);
  EXPECT_GE(count_rule(report, "FTI-L011"), 1u) << to_text(report);
}

TEST(LintRules, LintNeverThrowsOnMalformedDesigns) {
  ir::Design empty;
  empty.name = "hollow";
  EXPECT_NO_THROW(lint_design(empty));

  ir::Design bad_rtg = accumulator_design();
  bad_rtg.rtg.initial = "phantom";
  EXPECT_NO_THROW(lint_design(bad_rtg));
  EXPECT_GE(count_rule(lint_design(bad_rtg), "FTI-L011"), 1u);
}

// --------------------------------------------------------------------
// Semantic tier (FTI-L012..L017): per-rule minimal failing designs and
// their near-miss passing twins, all grown from the clean accumulator.

ir::Datapath& acc_dp(ir::Design& design) {
  return design.configurations.at("acc").datapath;
}

ir::Fsm& acc_fsm(ir::Design& design) {
  return design.configurations.at("acc").fsm;
}

void add_const(ir::Datapath& dp, const std::string& name,
               std::uint32_t width, std::uint64_t value,
               const std::string& out) {
  dp.wires.push_back({out, width});
  ir::Unit unit;
  unit.name = name;
  unit.kind = ir::UnitKind::kConst;
  unit.width = width;
  unit.value = value;
  unit.ports = {{"out", out}};
  dp.units.push_back(unit);
}

void add_binop(ir::Datapath& dp, const std::string& name, ops::BinOp op,
               std::uint32_t width, const std::string& a,
               const std::string& b, const std::string& out,
               std::uint32_t out_width) {
  dp.wires.push_back({out, out_width});
  ir::Unit unit;
  unit.name = name;
  unit.kind = ir::UnitKind::kBinOp;
  unit.binop = op;
  unit.width = width;
  unit.ports = {{"a", a}, {"b", b}, {"out", out}};
  dp.units.push_back(unit);
}

void add_read_port(ir::Datapath& dp, const std::string& name,
                   const std::string& memory, std::uint32_t width,
                   const std::string& addr, const std::string& dout) {
  dp.wires.push_back({dout, width});
  ir::Unit unit;
  unit.name = name;
  unit.kind = ir::UnitKind::kMemPort;
  unit.mem_mode = ir::MemMode::kRead;
  unit.memory = memory;
  unit.width = width;
  unit.ports = {{"addr", addr}, {"dout", dout}};
  dp.units.push_back(unit);
}

/// Accumulator plus a memory read port whose constant address is `addr`;
/// the memory has depth 8.
ir::Design oob_design(std::uint64_t addr) {
  ir::Design design = accumulator_design();
  ir::Datapath& dp = acc_dp(design);
  dp.memories.push_back({"m", 8, 32, {}});
  add_const(dp, "ka", 4, addr, "m_addr");
  add_read_port(dp, "rp0", "m", 32, "m_addr", "m_dout");
  return design;
}

TEST(LintSemanticRules, ProvableOobIndexIsAnError) {
  // Depth 8, constant address 8: one past the end, provable.
  Report report = lint_design(oob_design(8));
  ASSERT_EQ(count_rule(report, "FTI-L012"), 1u) << to_text(report);
  const Finding& finding = *first_of(report, "FTI-L012");
  EXPECT_EQ(finding.severity, Severity::kError);
  EXPECT_EQ(finding.object, "rp0");
  EXPECT_NE(finding.message.find("[8, 8]"), std::string::npos)
      << finding.message;
}

TEST(LintSemanticRules, LastValidIndexIsFine) {
  Report report = lint_design(oob_design(7));
  EXPECT_EQ(count_rule(report, "FTI-L012"), 0u) << to_text(report);
}

TEST(LintSemanticRules, PossiblyOobIndexWarns) {
  // Depth 10; the address is or(top4, 8), so its range is [8, 15] with
  // bit 3 known 1 -- it straddles the depth without provably crossing it.
  ir::Design design = accumulator_design();
  ir::Datapath& dp = acc_dp(design);
  dp.memories.push_back({"m", 10, 4, {}});
  add_const(dp, "ka", 4, 0, "a0");
  add_read_port(dp, "rp0", "m", 4, "a0", "d0");  // d0 = top (mem read)
  add_const(dp, "k8", 4, 8, "k8_out");
  add_binop(dp, "or0", ops::BinOp::kOr, 4, "d0", "k8_out", "a1", 4);
  add_read_port(dp, "rp1", "m", 4, "a1", "d1");
  Report report = lint_design(design);
  ASSERT_EQ(count_rule(report, "FTI-L012"), 1u) << to_text(report);
  const Finding& finding = *first_of(report, "FTI-L012");
  EXPECT_EQ(finding.severity, Severity::kWarning);
  EXPECT_EQ(finding.object, "rp1");
}

/// Adds status wire `dead_st` = ltu(acc_q, 0): provably false for every
/// acc_q, the canonical never-true guard literal.
void add_false_status(ir::Design& design) {
  ir::Datapath& dp = acc_dp(design);
  add_const(dp, "kz", 32, 0, "z_out");
  add_binop(dp, "cz", ops::BinOp::kLtu, 32, "acc_q", "z_out", "dead_st", 1);
  dp.status_wires.push_back("dead_st");
}

TEST(LintSemanticRules, ProvablyFalseGuardIsADeadTransition) {
  ir::Design design = accumulator_design();
  add_false_status(design);
  ir::State& run = acc_fsm(design).states.front();
  run.transitions.insert(run.transitions.begin(),
                         {ir::Guard{{{"dead_st", true}}}, "halt"});
  Report report = lint_design(design);
  ASSERT_EQ(count_rule(report, "FTI-L013"), 1u) << to_text(report);
  const Finding& finding = *first_of(report, "FTI-L013");
  EXPECT_EQ(finding.severity, Severity::kWarning);
  EXPECT_EQ(finding.object, "run");
  EXPECT_NE(finding.message.find("provably false"), std::string::npos)
      << finding.message;
}

TEST(LintSemanticRules, ProvablyTrueGuardShadowsLaterTransitions) {
  // !dead_st is provably TRUE, so the guarded front transition always
  // fires and the original !lt_out one behind it can never be taken.
  // FTI-L007 stays silent (it only sees unconditional shadows); this is
  // the value-analysis refinement.
  ir::Design design = accumulator_design();
  add_false_status(design);
  ir::State& run = acc_fsm(design).states.front();
  run.transitions.insert(run.transitions.begin(),
                         {ir::Guard{{{"dead_st", false}}}, "halt"});
  Report report = lint_design(design);
  EXPECT_EQ(count_rule(report, "FTI-L007"), 0u) << to_text(report);
  ASSERT_EQ(count_rule(report, "FTI-L013"), 1u) << to_text(report);
  EXPECT_NE(first_of(report, "FTI-L013")->message.find("always true"),
            std::string::npos);
}

TEST(LintSemanticRules, FeasibleGuardIsNotDead) {
  ir::Design design = accumulator_design();
  ir::State& run = acc_fsm(design).states.front();
  run.transitions.insert(run.transitions.begin(),
                         {ir::Guard{{{"lt_out", true}}}, "run"});
  Report report = lint_design(design);
  EXPECT_EQ(count_rule(report, "FTI-L013"), 0u) << to_text(report);
}

ir::Design truncation_design(ops::UnOp op, std::uint64_t value) {
  ir::Design design = accumulator_design();
  ir::Datapath& dp = acc_dp(design);
  add_const(dp, "kw", 32, value, "wide");
  dp.wires.push_back({"narrow", 8});
  ir::Unit unit;
  unit.name = "tr0";
  unit.kind = ir::UnitKind::kUnOp;
  unit.unop = op;
  unit.width = 8;
  unit.ports = {{"a", "wide"}, {"out", "narrow"}};
  dp.units.push_back(unit);
  return design;
}

TEST(LintSemanticRules, PassDroppingLiveBitsWarns) {
  // 0x1234 cannot fit 8 bits; the pass provably destroys value bits.
  Report report =
      lint_design(truncation_design(ops::UnOp::kPass, 0x1234));
  ASSERT_EQ(count_rule(report, "FTI-L014"), 1u) << to_text(report);
  const Finding& finding = *first_of(report, "FTI-L014");
  EXPECT_EQ(finding.severity, Severity::kWarning);
  EXPECT_EQ(finding.object, "tr0");
}

TEST(LintSemanticRules, PassOfRepresentableValueIsFine) {
  Report report = lint_design(truncation_design(ops::UnOp::kPass, 200));
  EXPECT_EQ(count_rule(report, "FTI-L014"), 0u) << to_text(report);
}

TEST(LintSemanticRules, SextOutsideSignedRangeWarns) {
  // 200 > 127 = smax of 8 bits, so the sign-extending truncation flips
  // the value's meaning; 100 fits and stays silent.
  Report warns = lint_design(truncation_design(ops::UnOp::kSext, 200));
  ASSERT_EQ(count_rule(warns, "FTI-L014"), 1u) << to_text(warns);
  Report fine = lint_design(truncation_design(ops::UnOp::kSext, 100));
  EXPECT_EQ(count_rule(fine, "FTI-L014"), 0u) << to_text(fine);
}

// Warning even though provable: the ALU defines division by zero
// deterministically (all-ones), so the design still simulates, and
// compiled kernels divide by never-enabled registers in dead code —
// an error here would let the default verify gate reject passing
// designs.
TEST(LintSemanticRules, DivisionByProvableZeroWarns) {
  ir::Design design = accumulator_design();
  ir::Datapath& dp = acc_dp(design);
  add_const(dp, "kz", 32, 0, "z_out");
  add_binop(dp, "dv0", ops::BinOp::kDiv, 32, "acc_q", "z_out", "q_out", 32);
  Report report = lint_design(design);
  ASSERT_EQ(count_rule(report, "FTI-L015"), 1u) << to_text(report);
  const Finding& finding = *first_of(report, "FTI-L015");
  EXPECT_EQ(finding.severity, Severity::kWarning);
  EXPECT_EQ(finding.object, "dv0");
  EXPECT_NE(finding.message.find("provably zero"), std::string::npos);
}

TEST(LintSemanticRules, RemainderByPossiblyZeroDivisorWarns) {
  // The divisor register loads 1 but powers up at 0: range [0, 1],
  // informative and includes zero.
  ir::Design design = accumulator_design();
  ir::Datapath& dp = acc_dp(design);
  dp.wires.push_back({"r2_q", 32});
  ir::Unit reg;
  reg.name = "r2";
  reg.kind = ir::UnitKind::kRegister;
  reg.width = 32;
  reg.ports = {{"d", "k1_out"}, {"q", "r2_q"}, {"en", "c_en"}};
  dp.units.push_back(reg);
  add_binop(dp, "rm0", ops::BinOp::kRem, 32, "acc_q", "r2_q", "q_out", 32);
  Report report = lint_design(design);
  ASSERT_EQ(count_rule(report, "FTI-L015"), 1u) << to_text(report);
  EXPECT_EQ(first_of(report, "FTI-L015")->severity, Severity::kWarning);
}

TEST(LintSemanticRules, DivisionByNonzeroConstantIsFine) {
  ir::Design design = accumulator_design();
  add_binop(acc_dp(design), "dv0", ops::BinOp::kDiv, 32, "acc_q", "k1_out",
            "q_out", 32);
  Report report = lint_design(design);
  EXPECT_EQ(count_rule(report, "FTI-L015"), 0u) << to_text(report);
}

TEST(LintSemanticRules, RegisterWithConstantZeroEnableWarns) {
  ir::Design design = accumulator_design();
  ir::Datapath& dp = acc_dp(design);
  add_const(dp, "ke", 1, 0, "en0");
  dp.wires.push_back({"q2", 32});
  ir::Unit reg;
  reg.name = "r2";
  reg.kind = ir::UnitKind::kRegister;
  reg.width = 32;
  reg.ports = {{"d", "k1_out"}, {"q", "q2"}, {"en", "en0"}};
  dp.units.push_back(reg);
  Report report = lint_design(design);
  ASSERT_EQ(count_rule(report, "FTI-L016"), 1u) << to_text(report);
  const Finding& finding = *first_of(report, "FTI-L016");
  EXPECT_EQ(finding.severity, Severity::kWarning);
  EXPECT_EQ(finding.object, "r2");
}

TEST(LintSemanticRules, RegisterWithAssertableEnableIsFine) {
  // Near miss: the FSM does assert c_en, so r_acc loads; the clean
  // accumulator must stay L016-silent.
  Report report = lint_design(accumulator_design());
  EXPECT_EQ(count_rule(report, "FTI-L016"), 0u) << to_text(report);
}

TEST(LintSemanticRules, SemanticallyUnreachableStateWarns) {
  // "ghost" is syntactically reachable (run has an edge to it), but the
  // edge's guard is provably false: FTI-L006 cannot see it, the value
  // analysis proves it.
  ir::Design design = accumulator_design();
  add_false_status(design);
  ir::Fsm& fsm = acc_fsm(design);
  fsm.states.front().transitions.insert(
      fsm.states.front().transitions.begin(),
      {ir::Guard{{{"dead_st", true}}}, "ghost"});
  ir::State ghost;
  ghost.name = "ghost";
  ghost.transitions.push_back({ir::Guard{}, "halt"});
  fsm.states.push_back(ghost);
  Report report = lint_design(design);
  EXPECT_EQ(count_rule(report, "FTI-L006"), 0u) << to_text(report);
  ASSERT_EQ(count_rule(report, "FTI-L016"), 1u) << to_text(report);
  const Finding& finding = *first_of(report, "FTI-L016");
  EXPECT_EQ(finding.object, "ghost");
  EXPECT_NE(finding.message.find("semantically unreachable"),
            std::string::npos);
}

TEST(LintSemanticRules, MaybeReachableStateIsFine) {
  ir::Design design = accumulator_design();
  ir::Fsm& fsm = acc_fsm(design);
  fsm.states.front().transitions.insert(
      fsm.states.front().transitions.begin(),
      {ir::Guard{{{"lt_out", true}}}, "ghost"});
  ir::State ghost;
  ghost.name = "ghost";
  ghost.transitions.push_back({ir::Guard{}, "halt"});
  fsm.states.push_back(ghost);
  Report report = lint_design(design);
  EXPECT_EQ(count_rule(report, "FTI-L016"), 0u) << to_text(report);
}

TEST(LintSemanticRules, VacuousComparisonWarns) {
  // ltu(1, 5) decides at analysis time; the undecidable base comparison
  // cmp0 (acc_q vs 5) must stay silent.
  ir::Design design = accumulator_design();
  add_binop(acc_dp(design), "cv0", ops::BinOp::kLtu, 32, "k1_out",
            "kt_out", "v_out", 1);
  Report report = lint_design(design);
  ASSERT_EQ(count_rule(report, "FTI-L017"), 1u) << to_text(report);
  const Finding& finding = *first_of(report, "FTI-L017");
  EXPECT_EQ(finding.severity, Severity::kWarning);
  EXPECT_EQ(finding.object, "cv0");
  EXPECT_NE(finding.message.find("always true"), std::string::npos);
}

TEST(LintSemanticTier, OptionsAndFilterAgree) {
  ir::Design design = oob_design(8);
  Report full = lint_design(design);
  ASSERT_EQ(count_rule(full, "FTI-L012"), 1u);

  Options off;
  off.semantic = false;
  Report structural = lint_design(design, off);
  EXPECT_EQ(count_rule(structural, "FTI-L012"), 0u);

  // Filtering the memoized full report gives the same view the off
  // options produce -- the contract the design cache relies on.
  Report filtered = without_semantic(full);
  ASSERT_EQ(filtered.findings.size(), structural.findings.size());
  for (std::size_t i = 0; i < filtered.findings.size(); ++i) {
    EXPECT_EQ(filtered.findings[i].rule, structural.findings[i].rule);
    EXPECT_FALSE(is_semantic_rule(filtered.findings[i].rule));
  }
  EXPECT_TRUE(is_semantic_rule("FTI-L012"));
  EXPECT_TRUE(is_semantic_rule("FTI-L017"));
  EXPECT_FALSE(is_semantic_rule("FTI-L001"));
  EXPECT_FALSE(is_semantic_rule("FTI-L011"));
}

TEST(LintCatalog, RuleIdsAreStableAndDense) {
  const std::vector<RuleInfo>& catalog = rules();
  ASSERT_EQ(catalog.size(), 17u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    char expected[32];
    std::snprintf(expected, sizeof expected, "FTI-L%03zu", i + 1);
    EXPECT_EQ(catalog[i].id, expected);
    EXPECT_FALSE(catalog[i].name.empty());
    EXPECT_FALSE(catalog[i].summary.empty());
  }
  EXPECT_EQ(find_rule("FTI-L005")->name, "combinational-cycle");
  EXPECT_EQ(find_rule("FTI-L999"), nullptr);
  // The semantic tier starts at L012; the split is what --semantic=off
  // and the cache's per-request filtering key off.
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(is_semantic_rule(catalog[i].id), i + 1 >= 12)
        << catalog[i].id;
  }
}

TEST(LintGate, ThresholdsAndParsing) {
  EXPECT_EQ(gate_from_string("off"), Gate::kOff);
  EXPECT_EQ(gate_from_string("warn"), Gate::kWarn);
  EXPECT_EQ(gate_from_string("error"), Gate::kError);
  EXPECT_EQ(gate_from_string("loud"), std::nullopt);

  Report clean;
  Report warned;
  warned.findings.push_back({"FTI-L002", Severity::kWarning, "", "w", "m"});
  Report errored = warned;
  errored.findings.push_back({"FTI-L001", Severity::kError, "", "w", "m"});
  EXPECT_FALSE(blocks(Gate::kOff, errored));
  EXPECT_FALSE(blocks(Gate::kWarn, clean));
  EXPECT_TRUE(blocks(Gate::kWarn, warned));
  EXPECT_FALSE(blocks(Gate::kError, warned));
  EXPECT_TRUE(blocks(Gate::kError, errored));
}

TEST(LintReport, TextListsFindingsAndSummary) {
  ir::Design design = accumulator_design();
  design.configurations.at("acc").datapath.units[0].ports["out"] =
      "add_out";
  std::string text = to_text(lint_design(design));
  EXPECT_NE(text.find("error FTI-L001"), std::string::npos) << text;
  EXPECT_NE(text.find("[acc_design/acc/add_out]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("1 error(s)"), std::string::npos) << text;
}

TEST(LintReport, JsonRoundTripsThroughParseJson) {
  ir::Design design = accumulator_design();
  design.configurations.at("acc").datapath.units[0].ports["out"] =
      "add_out";
  Report report = lint_design(design);
  report.source = "acc.xml";
  util::JsonValue doc = util::parse_json(to_json(report));
  EXPECT_EQ(doc.at("source").as_string(), "acc.xml");
  EXPECT_EQ(doc.at("errors").as_u64(), report.errors());
  EXPECT_EQ(doc.at("warnings").as_u64(), report.warnings());
  const util::JsonValue& findings = doc.at("findings");
  ASSERT_EQ(findings.items.size(), report.findings.size());
  EXPECT_EQ(findings.items[0].at("name").as_string(), "FTI-L001");
  EXPECT_EQ(findings.items[0].at("severity").as_string(), "error");
}

TEST(LintReport, SarifValidatesAgainst210Shape) {
  ir::Design bad = accumulator_design();
  bad.configurations.at("acc").datapath.units[0].ports["out"] =
      "add_out";
  Report with_source = lint_design(bad);
  with_source.source = "designs/bad.xml";
  Report clean = lint_design(accumulator_design());
  util::JsonValue doc =
      util::parse_json(to_sarif({with_source, clean}));

  // SARIF 2.1.0 required top-level members.
  EXPECT_NE(doc.at("$schema").as_string().find("sarif-2.1.0"),
            std::string::npos);
  EXPECT_EQ(doc.at("version").as_string(), "2.1.0");
  ASSERT_EQ(doc.at("runs").items.size(), 1u);
  const util::JsonValue& run = doc.at("runs").items[0];

  // tool.driver carries the full rule catalog.
  const util::JsonValue& driver = run.at("tool").at("driver");
  EXPECT_EQ(driver.at("name").as_string(), "fti-lint");
  const util::JsonValue& sarif_rules = driver.at("rules");
  ASSERT_EQ(sarif_rules.items.size(), rules().size());
  for (std::size_t i = 0; i < sarif_rules.items.size(); ++i) {
    const util::JsonValue& rule = sarif_rules.items[i];
    EXPECT_EQ(rule.at("id").as_string(), rules()[i].id);
    rule.at("shortDescription").at("text").as_string();
    std::string level =
        rule.at("defaultConfiguration").at("level").as_string();
    EXPECT_TRUE(level == "note" || level == "warning" || level == "error");
  }

  // One result per finding, each pointing back into the catalog.
  const util::JsonValue& results = run.at("results");
  ASSERT_EQ(results.items.size(), with_source.findings.size());
  for (const util::JsonValue& result : results.items) {
    const std::string& rule_id = result.at("ruleId").as_string();
    std::uint64_t rule_index = result.at("ruleIndex").as_u64();
    ASSERT_LT(rule_index, rules().size());
    EXPECT_EQ(rules()[rule_index].id, rule_id);
    result.at("message").at("text").as_string();
    const util::JsonValue& location = result.at("locations").items.at(0);
    EXPECT_EQ(location.at("physicalLocation")
                  .at("artifactLocation")
                  .at("uri")
                  .as_string(),
              "designs/bad.xml");
    location.at("logicalLocations")
        .items.at(0)
        .at("fullyQualifiedName")
        .as_string();
  }
}

TEST(LintGateFlow, SeededDefectBlocksBeforeSimulation) {
  harness::TestCase test;
  test.name = "gate_block";
  test.source =
      "kernel gate_block(int x[16], int a, int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) { x[i] = a * x[i]; }\n"
      "}\n";
  test.scalar_args = {{"a", 3}, {"n", 8}};
  test.inputs = {{"x", {1, 2, 3, 4, 5, 6, 7, 8}}};
  harness::VerifyOptions options;
  options.post_compile = [](ir::Design& design) {
    // Plant a multi-driver defect: redirect one unit's output onto a
    // wire some other unit already drives.
    ir::Datapath& dp = design.configurations.begin()->second.datapath;
    ir::Unit* attacker = nullptr;
    std::string attacker_port;
    for (ir::Unit& unit : dp.units) {
      for (const std::string& output : ir::port_spec(unit).outputs) {
        if (unit.has_port(output)) {
          attacker = &unit;
          attacker_port = output;
          break;
        }
      }
      if (attacker != nullptr) {
        break;
      }
    }
    ASSERT_NE(attacker, nullptr);
    for (const ir::Unit& unit : dp.units) {
      for (const std::string& output : ir::port_spec(unit).outputs) {
        if (unit.has_port(output) &&
            unit.port(output) != attacker->port(attacker_port)) {
          attacker->ports[attacker_port] = unit.port(output);
          return;
        }
      }
    }
    FAIL() << "no second driven wire to collide with";
  };
  harness::VerifyOutcome outcome = harness::run_test_case(test, options);
  EXPECT_FALSE(outcome.passed);
  EXPECT_TRUE(outcome.lint_blocked);
  EXPECT_GE(outcome.lint.errors(), 1u);
  // Fail-fast: simulation never started.
  EXPECT_TRUE(outcome.run.partitions.empty());
  EXPECT_EQ(outcome.run.total_cycles(), 0u);
  EXPECT_NE(outcome.message.find("lint gate"), std::string::npos)
      << outcome.message;

  // The same defect sails through with the gate off (and then fails or
  // passes on simulation grounds alone -- multi-driven wires are caught
  // by ir::validate during the round-trip, so expect a throw there).
  options.lint_gate = Gate::kOff;
  EXPECT_THROW(harness::run_test_case(test, options), util::Error);
}

TEST(LintGateFlow, CleanDesignIsNotBlocked) {
  harness::TestCase test;
  test.name = "gate_pass";
  test.source =
      "kernel gate_pass(int x[16], int a, int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) { x[i] = a + x[i]; }\n"
      "}\n";
  test.scalar_args = {{"a", 5}, {"n", 8}};
  test.inputs = {{"x", {1, 2, 3, 4, 5, 6, 7, 8}}};
  harness::VerifyOutcome outcome = harness::run_test_case(test);
  EXPECT_TRUE(outcome.passed) << outcome.message;
  EXPECT_FALSE(outcome.lint_blocked);
  EXPECT_EQ(outcome.lint.errors(), 0u) << to_text(outcome.lint);
}

TEST(LintInjection, EveryDefectClassIsDetected) {
  fuzz::GeneratorOptions generator;
  generator.max_units = 10;
  generator.max_run_cycles = 16;
  fuzz::InjectionReport report =
      fuzz::run_injection(fuzz::InjectMode::kLint, 21, 6, generator);
  ASSERT_EQ(report.outcomes.size(),
            fuzz::defect_classes(fuzz::InjectMode::kLint).size());
  for (const fuzz::InjectionOutcome& outcome : report.outcomes) {
    EXPECT_GT(outcome.injected, 0u)
        << "no applicable site for " << fuzz::defect_info(outcome.defect).name;
    EXPECT_EQ(outcome.missed, 0u)
        << fuzz::defect_info(outcome.defect).name << " missed "
        << outcome.missed << " case(s)";
  }
  EXPECT_TRUE(report.ok());
}

// The dataflow soundness contract from dataflow.hpp, property-tested:
// run seeded fuzz designs on the levelized engine with full wire-data
// collection and check that every traced concrete value of every clocked
// wire lies inside the wire's settled abstraction.
TEST(DataflowSoundness, AbstractionContainsEveryTracedValue) {
  fuzz::GeneratorOptions generator;
  generator.max_units = 16;
  generator.max_run_cycles = 48;
  std::size_t values_checked = 0;
  for (std::uint64_t seed : {3u, 7u, 11u, 19u, 23u, 42u, 77u, 101u}) {
    ir::Design design = fuzz::generate_design_seeded(seed, generator);
    dataflow::Summary summary = dataflow::analyze(design);

    std::unique_ptr<sim::Engine> engine = elab::make_engine("levelized");
    mem::MemoryPool pool;
    sim::EngineRunOptions ropts;
    ropts.collect_wire_data = true;
    ropts.max_cycles_per_partition = 1'000'000;
    sim::EngineResult result = engine->run(design, pool, ropts);
    ASSERT_TRUE(result.completed) << "seed " << seed;
    ASSERT_TRUE(result.has_wire_data);

    for (const sim::EnginePartition& partition : result.partitions) {
      const dataflow::ConfigSummary& config =
          summary.configurations.at(partition.node);
      // Termination happened (we are here); the fixpoint also settled
      // in a sane number of sweeps thanks to widening.
      ASSERT_TRUE(config.analyzed) << "seed " << seed;
      EXPECT_GE(config.iterations, 1u);
      EXPECT_LE(config.iterations, 1000u);
      const ir::Datapath& dp =
          design.configurations.at(partition.node).datapath;
      for (const auto& [wire, trace] : partition.traces) {
        auto it = config.wires.find(wire);
        ASSERT_NE(it, config.wires.end())
            << "seed " << seed << " wire " << wire;
        const std::uint32_t width = dp.wire(wire).width;
        for (std::uint64_t value : trace) {
          ASSERT_TRUE(it->second.contains(sim::Bits(width, value)))
              << "seed " << seed << ": wire '" << wire << "' took value "
              << value << " outside abstraction "
              << it->second.to_string();
          ++values_checked;
        }
      }
    }
  }
  // The property must have had teeth (traces record value *changes* of
  // the clocked wires, so the count is well below cycles x wires).
  EXPECT_GT(values_checked, 300u);
}

TEST(DataflowControls, LateReachableStateJoinsItsControlValue) {
  // "halt" becomes reachable only once the counter's range grows past
  // the target, several fixpoint iterations in; its control value must
  // then show up in the joined range of the wire it drives (the joined
  // controls are cached per reachable set).
  ir::Configuration config = testing::make_accumulator(3);
  config.datapath.wires.push_back({"mark", 4});
  config.datapath.control_wires.push_back("mark");
  config.fsm.states[1].controls.push_back({"mark", 9});
  ir::Design design =
      ir::make_single_design("late_design", std::move(config));
  dataflow::Summary summary = dataflow::analyze(design);
  ASSERT_EQ(summary.configurations.size(), 1u);
  const dataflow::ConfigSummary& result =
      summary.configurations.begin()->second;
  ASSERT_TRUE(result.analyzed);
  EXPECT_GE(result.iterations, 4u);
  ASSERT_EQ(result.state_reachable.size(), 2u);
  EXPECT_TRUE(result.state_reachable[1]);
  const dataflow::AbstractValue& mark = result.wires.at("mark");
  EXPECT_TRUE(mark.contains(sim::Bits(4, 9))) << mark.to_string();
  EXPECT_TRUE(mark.contains(sim::Bits(4, 0))) << mark.to_string();
  const dataflow::AbstractValue& done = result.wires.at("done");
  EXPECT_TRUE(done.contains(sim::Bits(1, 1))) << done.to_string();
}

// Smoke profile of experiment E11 (EXPERIMENTS.md): the semantic defect
// classes are invisible to 2-state differential simulation (laundered)
// and proved by the dataflow tier with total recall.
TEST(LintInjection, SemanticClassesAreLaunderedAndProved) {
  fuzz::GeneratorOptions generator;
  generator.max_units = 12;
  generator.max_run_cycles = 24;
  fuzz::InjectionReport report =
      fuzz::run_injection(fuzz::InjectMode::kSemantic, 7, 8, generator);
  ASSERT_EQ(report.outcomes.size(),
            fuzz::defect_classes(fuzz::InjectMode::kSemantic).size());
  for (const fuzz::InjectionOutcome& outcome : report.outcomes) {
    const std::string_view name = fuzz::defect_info(outcome.defect).name;
    EXPECT_GT(outcome.injected, 0u) << "no applicable site for " << name;
    EXPECT_EQ(outcome.laundered, outcome.injected)
        << name << " was visible to a 2-state engine lane";
    EXPECT_EQ(outcome.missed, 0u)
        << name << " missed " << outcome.missed << " case(s)";
  }
  EXPECT_TRUE(report.ok());
}

TEST(LintInjection, InjectionIsDeterministic) {
  ir::Design a = fuzz::generate_design_seeded(99, {});
  ir::Design b = fuzz::generate_design_seeded(99, {});
  fuzz::Rng rng_a(5);
  fuzz::Rng rng_b(5);
  const fuzz::DefectInfo& info =
      fuzz::defect_info(fuzz::DefectClass::kMultiDriver);
  bool did_a = info.inject(a, rng_a);
  bool did_b = info.inject(b, rng_b);
  ASSERT_EQ(did_a, did_b);
  Report report_a = lint_design(a);
  Report report_b = lint_design(b);
  ASSERT_EQ(report_a.findings.size(), report_b.findings.size());
  for (std::size_t i = 0; i < report_a.findings.size(); ++i) {
    EXPECT_EQ(report_a.findings[i].message, report_b.findings[i].message);
  }
}

}  // namespace
}  // namespace fti::lint
