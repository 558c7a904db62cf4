#pragma once
// Little-endian binary stream primitives shared by every component that
// serializes itself into a detector snapshot (nn weights, normalizer state,
// ICP calibration scores, archive framing). Readers throw
// std::runtime_error on truncation or impossible sizes so a corrupted file
// fails loudly instead of mis-loading.
//
// Doubles are written as their IEEE-754 bit pattern via std::uint64_t, so a
// round trip is bit-exact — the property the snapshot tests assert.

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace noodle::util {

void write_u8(std::ostream& os, std::uint8_t value);
void write_u32(std::ostream& os, std::uint32_t value);
void write_u64(std::ostream& os, std::uint64_t value);
void write_f64(std::ostream& os, double value);
void write_string(std::ostream& os, const std::string& value);
void write_f64_vector(std::ostream& os, const std::vector<double>& values);

std::uint8_t read_u8(std::istream& is);
std::uint32_t read_u32(std::istream& is);
std::uint64_t read_u64(std::istream& is);
double read_f64(std::istream& is);
/// `max_size` guards against absurd length prefixes from corrupt files.
std::string read_string(std::istream& is, std::size_t max_size = 1u << 20);
std::vector<double> read_f64_vector(std::istream& is, std::size_t max_size = 1u << 26);

/// FNV-1a 64-bit hash — cache keys and snapshot checksums.
std::uint64_t fnv1a64(const void* data, std::size_t size) noexcept;
std::uint64_t fnv1a64(const std::string& text) noexcept;

}  // namespace noodle::util
