#include "feat/normalize.h"
#include "feat/tabular.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string_view>

#include "verilog/parser.h"

namespace noodle::feat {
namespace {

/// Extracts the tabular vector of a single-module source through the arena
/// parse, as featurize does.
std::vector<double> tabular_of(std::string_view source) {
  verilog::ParserWorkspace parser;
  TabularScratch scratch;
  std::vector<double> out(kTabularFeatureDim);
  tabular_features(parser.parse_single(source), out, scratch);
  return out;
}

TEST(Tabular, DimensionAndNames) {
  EXPECT_EQ(tabular_feature_names().size(), kTabularFeatureDim);
  std::set<std::string> unique(tabular_feature_names().begin(),
                               tabular_feature_names().end());
  EXPECT_EQ(unique.size(), kTabularFeatureDim);
}

/// Hand-checkable module: 2 inputs (1 + 8 bits), 1 output, 1 seq always,
/// 1 if, 1 case with 3 items, 1 wide eq-const, 1 assign.
const char* kKnown =
    "module k (input clk, input [7:0] d, output reg [7:0] q, output f);\n"
    "  wire hit;\n"
    "  assign hit = d == 8'hA5;\n"
    "  assign f = hit;\n"
    "  always @(posedge clk)\n"
    "    if (hit)\n"
    "      case (d[1:0])\n"
    "        2'd0: q <= 8'd0;\n"
    "        2'd1: q <= d;\n"
    "        default: q <= q + 8'd1;\n"
    "      endcase\n"
    "endmodule\n";

class KnownModule : public ::testing::Test {
 protected:
  void SetUp() override {
    features_ = tabular_of(kKnown);
    const auto& names = tabular_feature_names();
    for (std::size_t i = 0; i < names.size(); ++i) index_[names[i]] = i;
  }
  double at(const std::string& name) const { return features_.at(index_.at(name)); }

  std::vector<double> features_;
  std::map<std::string, std::size_t> index_;
};

TEST_F(KnownModule, InterfaceCounts) {
  EXPECT_DOUBLE_EQ(at("inputs"), 2.0);
  EXPECT_DOUBLE_EQ(at("outputs"), 2.0);
  EXPECT_NEAR(at("log_input_bits"), std::log1p(9.0), 1e-12);
  EXPECT_NEAR(at("log_output_bits"), std::log1p(9.0), 1e-12);
}

TEST_F(KnownModule, ProcessCounts) {
  EXPECT_DOUBLE_EQ(at("seq_always"), 1.0);
  EXPECT_DOUBLE_EQ(at("comb_always"), 0.0);
  EXPECT_DOUBLE_EQ(at("posedges"), 1.0);
  EXPECT_DOUBLE_EQ(at("initial_blocks"), 0.0);
  EXPECT_DOUBLE_EQ(at("instances"), 0.0);
}

TEST_F(KnownModule, BranchCounts) {
  EXPECT_DOUBLE_EQ(at("if_count"), 1.0);
  EXPECT_DOUBLE_EQ(at("case_count"), 1.0);
  EXPECT_NEAR(at("log_case_items"), std::log1p(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(at("max_branch_depth"), 2.0);  // if > case nesting
  EXPECT_DOUBLE_EQ(at("branches_per_always"), 2.0);
}

TEST_F(KnownModule, ComparatorCounts) {
  EXPECT_DOUBLE_EQ(at("eq_ops"), 1.0);
  EXPECT_DOUBLE_EQ(at("eq_const_ops"), 1.0);
  EXPECT_DOUBLE_EQ(at("wide_eq_const"), 1.0);  // 8-bit constant
  EXPECT_DOUBLE_EQ(at("rel_ops"), 0.0);
}

TEST_F(KnownModule, AssignmentCounts) {
  EXPECT_NEAR(at("log_assigns"), std::log1p(2.0), 1e-12);
  EXPECT_NEAR(at("log_nonblocking"), std::log1p(3.0), 1e-12);
  EXPECT_NEAR(at("log_blocking"), std::log1p(0.0), 1e-12);
}

TEST(Tabular, EmptyModuleAllFinite) {
  const auto f = tabular_of("module e; endmodule");
  ASSERT_EQ(f.size(), kTabularFeatureDim);
  for (const double v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST(Tabular, WideRegDetected) {
  const auto f = tabular_of("module w;\n  reg [31:0] big;\n  reg [3:0] small;\nendmodule");
  const auto& names = tabular_feature_names();
  const auto idx = static_cast<std::size_t>(
      std::find(names.begin(), names.end(), "wide_regs") - names.begin());
  EXPECT_DOUBLE_EQ(f[idx], 1.0);
}

// ---------------------------------------------------------------------------
// Normalizers
// ---------------------------------------------------------------------------

TEST(Standardizer, TransformsToZeroMeanUnitVar) {
  Standardizer s;
  s.fit({{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}});
  EXPECT_TRUE(s.fitted());
  const auto mid = s.transform(std::vector<double>{2.0, 20.0});
  EXPECT_NEAR(mid[0], 0.0, 1e-12);
  EXPECT_NEAR(mid[1], 0.0, 1e-12);
  const auto high = s.transform(std::vector<double>{3.0, 30.0});
  EXPECT_NEAR(high[0], 1.0, 1e-12);  // (3-2)/1
}

TEST(Standardizer, InverseRoundTrips) {
  Standardizer s;
  s.fit({{1.0, -4.0}, {5.0, 2.0}, {9.0, 0.0}});
  const std::vector<double> original = {3.3, -1.1};
  const auto back = s.inverse(s.transform(original));
  EXPECT_NEAR(back[0], original[0], 1e-9);
  EXPECT_NEAR(back[1], original[1], 1e-9);
}

TEST(Standardizer, ConstantDimensionMapsToZero) {
  Standardizer s;
  s.fit({{7.0, 1.0}, {7.0, 2.0}});
  const auto t = s.transform(std::vector<double>{7.0, 1.5});
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  // Inverse of a constant dimension restores the mean.
  const auto back = s.inverse(t);
  EXPECT_DOUBLE_EQ(back[0], 7.0);
}

TEST(Standardizer, RejectsBadInput) {
  Standardizer s;
  EXPECT_THROW(s.fit({}), std::invalid_argument);
  EXPECT_THROW(s.fit({{1.0}, {1.0, 2.0}}), std::invalid_argument);
  s.fit({{1.0}, {2.0}});
  EXPECT_THROW(s.transform(std::vector<double>{1.0, 2.0}), std::invalid_argument);
}

TEST(Standardizer, TransformAllMatchesSingle) {
  Standardizer s;
  const std::vector<std::vector<double>> rows = {{1.0}, {2.0}, {4.0}};
  s.fit(rows);
  const auto all = s.transform_all(rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(all[i], s.transform(rows[i]));
  }
}

TEST(MinMaxScaler, MapsToUnitInterval) {
  MinMaxScaler s;
  s.fit({{0.0, -10.0}, {10.0, 10.0}});
  const auto t = s.transform(std::vector<double>{5.0, 0.0});
  EXPECT_NEAR(t[0], 0.5, 1e-12);
  EXPECT_NEAR(t[1], 0.5, 1e-12);
}

TEST(MinMaxScaler, ClampsOutOfRange) {
  MinMaxScaler s;
  s.fit({{0.0}, {1.0}});
  EXPECT_DOUBLE_EQ(s.transform(std::vector<double>{5.0})[0], 1.0);
  EXPECT_DOUBLE_EQ(s.transform(std::vector<double>{-5.0})[0], 0.0);
}

TEST(MinMaxScaler, ConstantDimensionMapsToHalf) {
  MinMaxScaler s;
  s.fit({{3.0}, {3.0}});
  EXPECT_DOUBLE_EQ(s.transform(std::vector<double>{3.0})[0], 0.5);
}

}  // namespace
}  // namespace noodle::feat
