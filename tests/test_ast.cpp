#include "verilog/ast.h"

#include <gtest/gtest.h>

#include "verilog/parser.h"

namespace noodle::verilog {
namespace {

const char* kSource =
    "module m (input clk, input [3:0] a, output reg [3:0] q);\n"
    "  wire [3:0] t = a ^ 4'h5;\n"
    "  always @(posedge clk)\n"
    "    if (t == 4'd0)\n"
    "      q <= a;\n"
    "    else\n"
    "      q <= t;\n"
    "endmodule\n";

TEST(Ast, CloneIsDeep) {
  Module m = parse_module(kSource);
  Module copy = m.clone();
  // Mutating the copy must not affect the original.
  // nets[0] is q's reg declaration (from the ANSI header); "t" follows.
  copy.nets[1].name = "renamed";
  copy.always_blocks[0].body->cond->name = "changed";
  EXPECT_EQ(m.nets[1].name, "t");
  EXPECT_EQ(m.always_blocks[0].body->cond->name, "==");
}

TEST(Ast, ExprCloneDeep) {
  auto e = Expr::binary("+", Expr::ident("a"), Expr::number(1, 4));
  auto copy = e->clone();
  copy->operands[0]->name = std::string("b");
  EXPECT_EQ(e->operands[0]->name, "a");
}

TEST(Ast, StmtCloneCoversAllFields) {
  const Module m = parse_module(kSource);
  const StmtPtr copy = m.always_blocks[0].body->clone();
  EXPECT_EQ(copy->kind, StmtKind::If);
  ASSERT_NE(copy->then_branch, nullptr);
  ASSERT_NE(copy->else_branch, nullptr);
}

TEST(Ast, BitRangeWidth) {
  EXPECT_EQ((BitRange{7, 0}).width(), 8);
  EXPECT_EQ((BitRange{0, 0}).width(), 1);
}

TEST(Ast, SequentialDetection) {
  AlwaysBlock comb;
  comb.star = true;
  EXPECT_FALSE(comb.is_sequential());
  AlwaysBlock seq;
  seq.sensitivity.push_back(SensItem{EdgeKind::Posedge, "clk"});
  EXPECT_TRUE(seq.is_sequential());
}

}  // namespace
}  // namespace noodle::verilog
