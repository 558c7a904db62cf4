#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace noodle::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view text) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!text.empty() && is_space(static_cast<unsigned char>(text.front())))
    text.remove_prefix(1);
  while (!text.empty() && is_space(static_cast<unsigned char>(text.back())))
    text.remove_suffix(1);
  return text;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

bool is_verilog_identifier(std::string_view name) {
  if (name.empty()) return false;
  const unsigned char first = static_cast<unsigned char>(name.front());
  if (!(std::isalpha(first) || first == '_')) return false;
  return std::all_of(name.begin() + 1, name.end(), [](char c) {
    const auto u = static_cast<unsigned char>(c);
    return std::isalnum(u) || c == '_' || c == '$';
  });
}

std::string zero_pad(std::size_t value, std::size_t width) {
  std::string digits = std::to_string(value);
  if (digits.size() < width) digits.insert(0, width - digits.size(), '0');
  return digits;
}

std::optional<std::uint64_t> parse_unsigned(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace noodle::util
