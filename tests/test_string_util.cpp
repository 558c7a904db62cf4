#include "util/string_util.h"

#include <gtest/gtest.h>

namespace noodle::util {
namespace {

TEST(StringUtil, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, SplitKeepsEmptyParts) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitNoSeparator) {
  const auto parts = split("whole", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "whole");
}

TEST(StringUtil, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(join(parts, "::"), "x::y::z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtil, TrimBothSides) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no_trim"), "no_trim");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(starts_with("module foo", "module"));
  EXPECT_FALSE(starts_with("mod", "module"));
  EXPECT_TRUE(ends_with("file.v", ".v"));
  EXPECT_FALSE(ends_with("v", ".v"));
}

TEST(StringUtil, ToLower) {
  EXPECT_EQ(to_lower("MiXeD_123"), "mixed_123");
}

TEST(StringUtil, VerilogIdentifierAccepts) {
  EXPECT_TRUE(is_verilog_identifier("clk"));
  EXPECT_TRUE(is_verilog_identifier("_state"));
  EXPECT_TRUE(is_verilog_identifier("a$b"));
  EXPECT_TRUE(is_verilog_identifier("x123"));
}

TEST(StringUtil, VerilogIdentifierRejects) {
  EXPECT_FALSE(is_verilog_identifier(""));
  EXPECT_FALSE(is_verilog_identifier("2bad"));
  EXPECT_FALSE(is_verilog_identifier("$display"));
  EXPECT_FALSE(is_verilog_identifier("a-b"));
}

TEST(StringUtil, ZeroPad) {
  EXPECT_EQ(zero_pad(7, 3), "007");
  EXPECT_EQ(zero_pad(1234, 3), "1234");
  EXPECT_EQ(zero_pad(0, 1), "0");
}

TEST(StringUtil, ParseUnsignedAcceptsWholeDecimalStrings) {
  EXPECT_EQ(parse_unsigned("0"), 0u);
  EXPECT_EQ(parse_unsigned("42"), 42u);
  EXPECT_EQ(parse_unsigned("18446744073709551615"), ~std::uint64_t{0});
}

TEST(StringUtil, ParseUnsignedRejectsAnythingElse) {
  EXPECT_FALSE(parse_unsigned(""));
  EXPECT_FALSE(parse_unsigned("-1"));  // std::stoul would wrap this to 2^64 - 1
  EXPECT_FALSE(parse_unsigned("4x"));
  EXPECT_FALSE(parse_unsigned(" 4"));
  EXPECT_FALSE(parse_unsigned("+4"));
  EXPECT_FALSE(parse_unsigned("18446744073709551616"));  // 2^64
}

}  // namespace
}  // namespace noodle::util
