#pragma once
// String helpers shared by the Verilog front end and report writers.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace noodle::util {

std::vector<std::string> split(std::string_view text, char sep);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

std::string to_lower(std::string_view text);

/// True when `name` is a valid Verilog simple identifier
/// ([a-zA-Z_][a-zA-Z0-9_$]*).
bool is_verilog_identifier(std::string_view name);

/// Zero-padded decimal rendering, e.g. zero_pad(7, 3) == "007".
std::string zero_pad(std::size_t value, std::size_t width);

/// Strict decimal parse for numeric command-line values: the whole of
/// `text` must be decimal digits that fit in 64 bits. Rejects an empty
/// string, signs, surrounding spaces, trailing characters and overflow.
std::optional<std::uint64_t> parse_unsigned(std::string_view text);

}  // namespace noodle::util
