#include "util/csv.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <stdexcept>

namespace noodle::util {

std::size_t CsvTable::column(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw std::out_of_range("CsvTable::column: no column named '" + name + "'");
}

std::string csv_escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

namespace {

void write_row(std::ostream& os, const std::vector<std::string>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i != 0) os << ',';
    os << csv_escape(row[i]);
  }
  os << '\n';
}

}  // namespace

void write_csv(const std::filesystem::path& path, const CsvTable& table) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_csv: cannot open " + path.string());
  write_row(os, table.header);
  for (const auto& row : table.rows) write_row(os, row);
}

CsvTable read_csv(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("read_csv: cannot open " + path.string());
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());

  CsvTable table;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool first_row = true;

  auto end_cell = [&] {
    row.push_back(cell);
    cell.clear();
  };
  auto end_row = [&] {
    end_cell();
    if (first_row) {
      table.header = row;
      first_row = false;
    } else {
      table.rows.push_back(row);
    }
    row.clear();
  };

  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < content.size() && content[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      end_cell();
    } else if (c == '\n') {
      end_row();
    } else if (c != '\r') {
      cell += c;
    }
  }
  if (!cell.empty() || !row.empty()) end_row();
  return table;
}

void append_fixed(std::string& out, double value, int digits) {
  // Probabilities and table cells fit the stack buffer.
  char small[64];
  const auto [end, ec] =
      std::to_chars(small, small + sizeof small, value, std::chars_format::fixed, digits);
  if (ec == std::errc{}) {
    out.append(small, end);
    return;
  }
  // Fixed notation of a large double runs to 309 integer digits: a sign,
  // those, the point and the decimals (6 for a negative count) bound it.
  const std::size_t at = out.size();
  out.resize(at + 311 + static_cast<std::size_t>(std::max(digits, 6)));
  const auto wide = std::to_chars(out.data() + at, out.data() + out.size(), value,
                                  std::chars_format::fixed, digits);
  out.resize(static_cast<std::size_t>(wide.ptr - out.data()));
}

std::string format_fixed(double value, int digits) {
  std::string text;
  append_fixed(text, value, digits);
  return text;
}

}  // namespace noodle::util
