#include "serve/snapshot.h"

#include <algorithm>
#include <fstream>
#include <system_error>

#include "util/binary_io.h"

namespace noodle::serve {

// ---------------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------------

std::ostream& SnapshotWriter::begin_section(std::string_view tag) {
  if (tag.size() != 4) {
    throw SnapshotError("snapshot: section tag must be exactly 4 bytes, got '" +
                        std::string(tag) + "'");
  }
  seal_current();
  current_tag_ = std::string(tag);
  current_.str({});
  current_.clear();
  in_section_ = true;
  return current_;
}

void SnapshotWriter::seal_current() {
  if (!in_section_) return;
  sections_.push_back({current_tag_, current_.str()});
  in_section_ = false;
}

void SnapshotWriter::write_to(std::ostream& os) {
  seal_current();
  // Build the full byte image first so the trailing checksum covers the
  // header and every section exactly as written.
  std::ostringstream image;
  util::write_u64(image, kSnapshotMagic);
  util::write_u32(image, kSnapshotVersion);
  util::write_u32(image, static_cast<std::uint32_t>(sections_.size()));
  for (const Section& section : sections_) {
    image.write(section.tag.data(), 4);
    util::write_u64(image, section.body.size());
    image.write(section.body.data(), static_cast<std::streamsize>(section.body.size()));
  }
  const std::string bytes = image.str();
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  util::write_u64(os, util::fnv1a64(bytes));
  if (!os) throw SnapshotError("snapshot: write failed");
}

void SnapshotWriter::write_file(const std::filesystem::path& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw SnapshotError("snapshot: cannot open " + path.string() + " for write");
  write_to(os);
}

// ---------------------------------------------------------------------------
// SnapshotReader
// ---------------------------------------------------------------------------

namespace {

/// The whole stream, refused once it is longer than kMaxSnapshotBytes.
std::string read_capped(std::istream& is) {
  constexpr std::size_t kFirstChunk = 64 * 1024;
  std::string bytes;
  while (is && bytes.size() < kMaxSnapshotBytes) {
    // Doubling reads that land exactly on the cap, so the buffer never
    // grows past it.
    const std::size_t old = bytes.size();
    const std::size_t step =
        std::min(std::max(old, kFirstChunk), kMaxSnapshotBytes - old);
    bytes.resize(old + step);
    is.read(bytes.data() + old, static_cast<std::streamsize>(step));
    bytes.resize(old + static_cast<std::size_t>(is.gcount()));
  }
  if (bytes.size() == kMaxSnapshotBytes &&
      is.peek() != std::istream::traits_type::eof()) {
    throw SnapshotError("snapshot: archive exceeds the " +
                        std::to_string(kMaxSnapshotBytes) + "-byte limit");
  }
  return bytes;
}

}  // namespace

SnapshotReader::SnapshotReader(std::istream& is) {
  std::string bytes = read_capped(is);
  constexpr std::size_t kHeaderSize = 8 + 4 + 4;
  constexpr std::size_t kChecksumSize = 8;
  if (bytes.size() < kHeaderSize + kChecksumSize) {
    throw SnapshotError("snapshot: file too small to be an archive");
  }
  const std::size_t payload_size = bytes.size() - kChecksumSize;
  const std::uint64_t computed_checksum = util::fnv1a64(bytes.data(), payload_size);

  // C++20 move construction: the archive is held once, by the stream.
  std::istringstream image(std::move(bytes));
  if (util::read_u64(image) != kSnapshotMagic) {
    throw SnapshotError("snapshot: bad magic (not a detector snapshot)");
  }
  const std::uint32_t version = util::read_u32(image);
  if (version != kSnapshotVersion) {
    throw SnapshotError("snapshot: format version " + std::to_string(version) +
                        "; this reader accepts only version " +
                        std::to_string(kSnapshotVersion));
  }
  const std::uint32_t count = util::read_u32(image);
  // Offsets are validated against payload_size before every read, so the
  // stream reads below can never hit EOF or stray into the checksum.
  std::size_t offset = kHeaderSize;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (offset + 4 + 8 > payload_size) {
      throw SnapshotError("snapshot: truncated section header");
    }
    Section section;
    section.tag.resize(4);
    image.read(section.tag.data(), 4);
    const std::uint64_t length = util::read_u64(image);
    offset += 4 + 8;
    if (length > payload_size - offset) {
      throw SnapshotError("snapshot: truncated section '" + section.tag + "'");
    }
    section.body.resize(static_cast<std::size_t>(length));
    image.read(section.body.data(), static_cast<std::streamsize>(length));
    offset += static_cast<std::size_t>(length);
    sections_.push_back(std::move(section));
  }
  if (offset != payload_size) {
    throw SnapshotError("snapshot: trailing bytes after last section");
  }
  if (util::read_u64(image) != computed_checksum) {
    throw SnapshotError("snapshot: checksum mismatch (file corrupted)");
  }
}

SnapshotReader SnapshotReader::from_file(const std::filesystem::path& path) {
  // A device, FIFO or directory is refused before it is opened: /dev/zero
  // would otherwise be read up to the cap.
  std::error_code error;
  const std::filesystem::file_status status = std::filesystem::status(path, error);
  if (!std::filesystem::exists(status)) {
    throw SnapshotError("snapshot: cannot open " + path.string());
  }
  if (!std::filesystem::is_regular_file(status)) {
    throw SnapshotError("snapshot: " + path.string() + " is not a regular file");
  }
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) throw SnapshotError("snapshot: cannot stat " + path.string());
  if (size > kMaxSnapshotBytes) {
    throw SnapshotError("snapshot: " + path.string() + " is " + std::to_string(size) +
                        " bytes, over the " + std::to_string(kMaxSnapshotBytes) +
                        "-byte limit");
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) throw SnapshotError("snapshot: cannot open " + path.string());
  return SnapshotReader(is);
}

bool SnapshotReader::has_section(std::string_view tag) const {
  for (const Section& section : sections_) {
    if (section.tag == tag) return true;
  }
  return false;
}

std::istream& SnapshotReader::section(std::string_view tag) {
  for (Section& section : sections_) {
    if (section.tag != tag) continue;
    if (section.consumed) {
      throw SnapshotError("snapshot: section '" + std::string(tag) +
                          "' already consumed");
    }
    section.consumed = true;
    current_.str(section.body);
    current_.clear();
    return current_;
  }
  throw SnapshotError("snapshot: missing section '" + std::string(tag) + "'");
}

}  // namespace noodle::serve
