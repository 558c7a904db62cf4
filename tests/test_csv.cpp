#include "util/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace noodle::util {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("noodle_csv_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(CsvTest, RoundTripSimpleTable) {
  CsvTable table;
  table.header = {"a", "b", "c"};
  table.rows = {{"1", "2", "3"}, {"x", "y", "z"}};
  write_csv(path_, table);
  const CsvTable read = read_csv(path_);
  EXPECT_EQ(read.header, table.header);
  EXPECT_EQ(read.rows, table.rows);
}

TEST_F(CsvTest, RoundTripQuotedCells) {
  CsvTable table;
  table.header = {"text"};
  table.rows = {{"hello, world"}, {"line\nbreak"}, {"quote\"inside"}};
  write_csv(path_, table);
  const CsvTable read = read_csv(path_);
  EXPECT_EQ(read.rows, table.rows);
}

TEST_F(CsvTest, EmptyCellsPreserved) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"", "v"}, {"v", ""}};
  write_csv(path_, table);
  EXPECT_EQ(read_csv(path_).rows, table.rows);
}

TEST_F(CsvTest, ReadMissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/definitely/not/here.csv"), std::runtime_error);
}

TEST(Csv, ColumnLookup) {
  CsvTable table;
  table.header = {"alpha", "beta"};
  EXPECT_EQ(table.column("alpha"), 0u);
  EXPECT_EQ(table.column("beta"), 1u);
  EXPECT_THROW(table.column("gamma"), std::out_of_range);
}

TEST(Csv, EscapePlainCellUnchanged) { EXPECT_EQ(csv_escape("plain"), "plain"); }

TEST(Csv, EscapeComma) { EXPECT_EQ(csv_escape("a,b"), "\"a,b\""); }

TEST(Csv, EscapeQuotesDoubled) { EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\""); }

TEST(Csv, FormatFixedDigits) {
  EXPECT_EQ(format_fixed(0.15894, 4), "0.1589");
  EXPECT_EQ(format_fixed(1.0, 2), "1.00");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

std::string iostream_fixed(double value, int digits) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << value;
  return os.str();
}

TEST(Csv, FormatFixedMatchesTheIostreamFormEverywhere) {
  std::vector<double> values = {0.0,    -0.0,   1.0,    0.0005, 0.0015, 0.0025, 0.9995,
                                0.125,  2.5,    -2.5,   1e-300, 5e-324, 1e15,   -1e22,
                                1e300,  -1e308, std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
  // Probabilities, as the verdict line prints them, then every magnitude.
  std::uint64_t state = 42;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state;
  };
  for (int i = 0; i < 100000; ++i) {
    values.push_back(static_cast<double>(next() >> 11) * 0x1.0p-53);
  }
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t bits = next();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    if (std::isfinite(value)) values.push_back(value);
  }
  for (const int digits : {0, 1, 2, 3, 4, 6, 9, 17, 40}) {
    for (const double value : values) {
      ASSERT_EQ(format_fixed(value, digits), iostream_fixed(value, digits))
          << value << " at " << digits << " digits";
    }
  }
  std::string appended = "p=";
  append_fixed(appended, 0.8766, 3);
  EXPECT_EQ(appended, "p=0.877");
}

}  // namespace
}  // namespace noodle::util
