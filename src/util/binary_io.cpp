#include "util/binary_io.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace noodle::util {

namespace {

void write_le(std::ostream& os, std::uint64_t value, std::size_t bytes) {
  char buffer[8];
  for (std::size_t i = 0; i < bytes; ++i) {
    buffer[i] = static_cast<char>((value >> (8 * i)) & 0xffu);
  }
  os.write(buffer, static_cast<std::streamsize>(bytes));
  if (!os) throw std::runtime_error("binary_io: write failed");
}

std::uint64_t read_le(std::istream& is, std::size_t bytes) {
  char buffer[8];
  is.read(buffer, static_cast<std::streamsize>(bytes));
  if (!is) throw std::runtime_error("binary_io: truncated input");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(buffer[i])) << (8 * i);
  }
  return value;
}

}  // namespace

void write_u8(std::ostream& os, std::uint8_t value) { write_le(os, value, 1); }
void write_u32(std::ostream& os, std::uint32_t value) { write_le(os, value, 4); }
void write_u64(std::ostream& os, std::uint64_t value) { write_le(os, value, 8); }

void write_f64(std::ostream& os, double value) {
  write_le(os, std::bit_cast<std::uint64_t>(value), 8);
}

void write_string(std::ostream& os, const std::string& value) {
  write_u64(os, value.size());
  os.write(value.data(), static_cast<std::streamsize>(value.size()));
  if (!os) throw std::runtime_error("binary_io: write failed");
}

void write_f64_vector(std::ostream& os, const std::vector<double>& values) {
  write_u64(os, values.size());
  for (double v : values) write_f64(os, v);
}

std::uint8_t read_u8(std::istream& is) { return static_cast<std::uint8_t>(read_le(is, 1)); }
std::uint32_t read_u32(std::istream& is) { return static_cast<std::uint32_t>(read_le(is, 4)); }
std::uint64_t read_u64(std::istream& is) { return read_le(is, 8); }

double read_f64(std::istream& is) { return std::bit_cast<double>(read_le(is, 8)); }

std::string read_string(std::istream& is, std::size_t max_size) {
  const std::uint64_t size = read_u64(is);
  if (size > max_size) throw std::runtime_error("binary_io: string length out of range");
  std::string value(static_cast<std::size_t>(size), '\0');
  is.read(value.data(), static_cast<std::streamsize>(size));
  if (!is) throw std::runtime_error("binary_io: truncated input");
  return value;
}

std::vector<double> read_f64_vector(std::istream& is, std::size_t max_size) {
  const std::uint64_t size = read_u64(is);
  if (size > max_size) throw std::runtime_error("binary_io: vector length out of range");
  std::vector<double> values(static_cast<std::size_t>(size));
  for (double& v : values) v = read_f64(is);
  return values;
}

std::uint64_t fnv1a64(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fnv1a64(const std::string& text) noexcept {
  return fnv1a64(text.data(), text.size());
}

}  // namespace noodle::util
