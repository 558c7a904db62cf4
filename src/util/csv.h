#pragma once
// Minimal CSV reading/writing. Benches emit every table and figure series as
// CSV next to the human-readable console rendering so downstream plotting
// (matplotlib, gnuplot) can regenerate the paper's artwork exactly.

#include <filesystem>
#include <string>
#include <vector>

namespace noodle::util {

/// In-memory CSV table: a header row plus string cells.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column; throws std::out_of_range if absent.
  std::size_t column(const std::string& name) const;
};

/// Writes a table. Cells containing commas, quotes, or newlines are quoted.
void write_csv(const std::filesystem::path& path, const CsvTable& table);

/// Reads a CSV produced by write_csv (RFC-4180 quoting, first row = header).
CsvTable read_csv(const std::filesystem::path& path);

/// Escapes one cell for CSV output.
std::string csv_escape(const std::string& cell);

/// Formats a double with fixed precision, trimming to a stable width for
/// table output (e.g. "0.1589"). The text is what an iostream in fixed
/// mode at precision `digits` prints, for every double.
std::string format_fixed(double value, int digits);

/// format_fixed, appended to `out` without a temporary string.
void append_fixed(std::string& out, double value, int digits);

}  // namespace noodle::util
