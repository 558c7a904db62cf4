#include "trojan/inserter.h"

#include <gtest/gtest.h>

#include "data/designgen.h"
#include "feat/featurize.h"
#include "verilog/parser.h"
#include "verilog/printer.h"

namespace noodle::trojan {
namespace {

verilog::Module make_counter(std::uint64_t seed = 1) {
  util::Rng rng(seed);
  return verilog::parse_module(
      data::generate_design(data::DesignFamily::Counter, "dut", rng));
}

TEST(Trojan, FindClockPrefersClkName) {
  const verilog::Module m = make_counter();
  EXPECT_EQ(find_clock(m), "clk");
  EXPECT_TRUE(has_clock(m));
}

TEST(Trojan, FindResetDetectsRst) {
  const verilog::Module m = make_counter();
  EXPECT_EQ(find_reset(m), "rst");
}

TEST(Trojan, CombinationalModuleHasNoClock) {
  util::Rng rng(1);
  const verilog::Module m = verilog::parse_module(
      data::generate_design(data::DesignFamily::Shifter, "dut", rng));
  EXPECT_FALSE(has_clock(m));
}

TEST(Trojan, RedirectOutputRenamesAllUses) {
  verilog::Module m = verilog::parse_module(
      "module t (input a, output y);\n"
      "  wire inner;\n"
      "  assign inner = y;\n"  // y read internally
      "  assign y = a;\n"
      "endmodule");
  const std::string internal = redirect_output(m, "y");
  EXPECT_EQ(internal, "y_pre");
  const std::string printed = verilog::print_module(m);
  // The old drivers now drive/read y_pre; y itself is only the port name.
  EXPECT_NE(printed.find("assign y_pre = a"), std::string::npos);
  EXPECT_NE(printed.find("assign inner = y_pre"), std::string::npos);
}

TEST(Trojan, RedirectOutputRegBecomesWirePort) {
  verilog::Module m = verilog::parse_module(
      "module t (input clk, input d, output reg q);\n"
      "  always @(posedge clk) q <= d;\n"
      "endmodule");
  redirect_output(m, "q");
  const verilog::PortDecl* port = m.find_port("q");
  ASSERT_NE(port, nullptr);
  EXPECT_EQ(port->net, verilog::NetKind::Wire);
  // The internal net keeps reg-ness so the always block stays legal.
  const verilog::NetDecl* internal = m.find_net("q_pre");
  ASSERT_NE(internal, nullptr);
  EXPECT_EQ(internal->kind, verilog::NetKind::Reg);
}

TEST(Trojan, RedirectNonOutputThrows) {
  verilog::Module m = make_counter();
  EXPECT_THROW(redirect_output(m, "clk"), std::runtime_error);
  EXPECT_THROW(redirect_output(m, "no_such"), std::runtime_error);
}

struct Combo {
  TriggerKind trigger;
  PayloadKind payload;
};

class EveryCombo : public ::testing::TestWithParam<Combo> {};

TEST_P(EveryCombo, InsertsAndReprintsCleanly) {
  verilog::Module m = make_counter(GetParam().trigger == TriggerKind::TimeBomb ? 3 : 4);
  util::Rng rng(9);
  TrojanConfig config;
  config.trigger = GetParam().trigger;
  config.payload = GetParam().payload;
  const TrojanReport report = insert_trojan(m, config, rng);

  EXPECT_EQ(report.trigger, GetParam().trigger);
  EXPECT_EQ(report.payload, GetParam().payload);
  EXPECT_FALSE(report.trigger_net.empty());
  EXPECT_FALSE(report.victim_output.empty());
  EXPECT_FALSE(report.added_nets.empty());

  // The infected module must re-parse (it will be printed into the corpus).
  const std::string printed = verilog::print_module(m);
  EXPECT_NO_THROW(verilog::parse_module(printed));
  // The trigger net must exist.
  EXPECT_NE(m.find_net(report.trigger_net), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, EveryCombo,
    ::testing::Values(Combo{TriggerKind::TimeBomb, PayloadKind::Corrupt},
                      Combo{TriggerKind::TimeBomb, PayloadKind::Leak},
                      Combo{TriggerKind::TimeBomb, PayloadKind::Disable},
                      Combo{TriggerKind::CheatCode, PayloadKind::Corrupt},
                      Combo{TriggerKind::CheatCode, PayloadKind::Leak},
                      Combo{TriggerKind::CheatCode, PayloadKind::Disable},
                      Combo{TriggerKind::Sequence, PayloadKind::Corrupt},
                      Combo{TriggerKind::Sequence, PayloadKind::Leak},
                      Combo{TriggerKind::Sequence, PayloadKind::Disable}));

TEST(Trojan, SequentialTriggerFallsBackOnCombinationalDesign) {
  util::Rng gen_rng(2);
  verilog::Module m = verilog::parse_module(
      data::generate_design(data::DesignFamily::ComparatorBank, "dut", gen_rng));
  util::Rng rng(5);
  TrojanConfig config;
  config.trigger = TriggerKind::TimeBomb;  // impossible without a clock
  const TrojanReport report = insert_trojan(m, config, rng);
  EXPECT_EQ(report.trigger, TriggerKind::CheatCode);
}

TEST(Trojan, InsertionAddsAlwaysBlockForTimeBomb) {
  verilog::Module m = make_counter(6);
  const std::size_t before = m.always_blocks.size();
  util::Rng rng(1);
  TrojanConfig config;
  config.trigger = TriggerKind::TimeBomb;
  insert_trojan(m, config, rng);
  EXPECT_EQ(m.always_blocks.size(), before + 1);
}

TEST(Trojan, InsertionChangesTabularFeatures) {
  verilog::Module clean = make_counter(7);
  verilog::Module infected = clean.clone();
  util::Rng rng(2);
  TrojanConfig config;
  insert_trojan(infected, config, rng);
  feat::FeaturizeWorkspace workspace;
  const auto tabular = [&workspace](const verilog::Module& m) {
    std::vector<double> graph, tab;
    workspace.featurize(verilog::print_module(m), graph, tab);
    return tab;
  };
  EXPECT_NE(tabular(clean), tabular(infected));
}

TEST(Trojan, VictimStillDrivenExactlyViaTap) {
  verilog::Module m = make_counter(8);
  util::Rng rng(3);
  TrojanConfig config;
  config.payload = PayloadKind::Disable;
  const TrojanReport report = insert_trojan(m, config, rng);
  // Exactly one continuous assign drives the victim output now.
  std::size_t drivers = 0;
  for (const auto& assign : m.assigns) {
    if (assign.lhs->kind == verilog::ExprKind::Identifier &&
        assign.lhs->name == report.victim_output) {
      ++drivers;
      EXPECT_EQ(assign.rhs->kind, verilog::ExprKind::Ternary);
    }
  }
  EXPECT_EQ(drivers, 1u);
}

TEST(Trojan, ModuleWithoutOutputsThrows) {
  verilog::Module m = verilog::parse_module("module t (input a, input b); endmodule");
  util::Rng rng(1);
  EXPECT_THROW(insert_trojan(m, TrojanConfig{}, rng), std::runtime_error);
}

TEST(Trojan, DeterministicGivenRngState) {
  verilog::Module a = make_counter(11);
  verilog::Module b = make_counter(11);
  util::Rng ra(77), rb(77);
  TrojanConfig config;
  config.trigger = TriggerKind::Sequence;
  insert_trojan(a, config, ra);
  insert_trojan(b, config, rb);
  EXPECT_EQ(verilog::print_module(a), verilog::print_module(b));
}

TEST(Trojan, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(TriggerKind::TimeBomb), "time_bomb");
  EXPECT_STREQ(to_string(TriggerKind::CheatCode), "cheat_code");
  EXPECT_STREQ(to_string(TriggerKind::Sequence), "sequence");
  EXPECT_STREQ(to_string(PayloadKind::Corrupt), "corrupt");
  EXPECT_STREQ(to_string(PayloadKind::Leak), "leak");
  EXPECT_STREQ(to_string(PayloadKind::Disable), "disable");
}

}  // namespace
}  // namespace noodle::trojan
