#pragma once
// Versioned binary snapshot archive — the container format behind
// NoodleDetector::save()/load(). A snapshot is what turns a fitted detector
// into a deployable artifact: train once, write the archive, and any number
// of serving processes can load it without paying the corpus → GAN → CNN →
// ICP fit again (see serve::DetectionService).
//
// Archive layout (all integers little-endian, doubles as IEEE-754 bits):
//
//   u64  magic      "NOODSNP1" — rejects non-snapshot files immediately
//   u32  version    format version; readers accept exactly kSnapshotVersion
//   u32  sections   section count
//   per section:
//     4 bytes tag   e.g. "CONF", "EARL", "LATE", "META"
//     u64   length  body byte count
//     ...   body    component-owned encoding (nn weights, ICP scores, ...)
//   u64  checksum   FNV-1a over every preceding byte
//
// The trailing checksum plus per-section length framing means truncation,
// bit corruption, and wrong-version files all fail with SnapshotError
// before any component state is touched.

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace noodle::serve {

/// Raised on any malformed, truncated, corrupted, or version-mismatched
/// snapshot; the message says which check failed.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// Little-endian u64 whose on-disk bytes spell "NOODSNP1".
inline constexpr std::uint64_t kSnapshotMagic = 0x31504e53444f4f4eULL;
/// The one archive format: f64 weight blobs, and a META section that
/// carries the feat::kFeatureVersion the model was fitted against. Archives
/// stamped 2 or 3 carried f32 or int8 weights; they are rejected at the
/// header and must be refit.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Largest archive SnapshotReader accepts. A --quick model is 137 769
/// bytes; the cap is what keeps a reload naming /dev/zero or a runaway
/// file from reading until the host runs out of memory.
inline constexpr std::size_t kMaxSnapshotBytes = std::size_t{64} << 20;

/// Accumulates tagged sections in memory, then writes the framed, checksummed
/// archive in one pass. Usage:
///
///   SnapshotWriter writer;
///   component.save(writer.begin_section("CONF"));
///   other.save(writer.begin_section("EARL"));
///   writer.write_file(path);
///
/// The header is always stamped kSnapshotVersion.
class SnapshotWriter {
 public:
  /// Starts a new section (tag must be exactly 4 bytes) and returns the
  /// stream its body is written to. The previous section, if any, is sealed.
  std::ostream& begin_section(std::string_view tag);

  /// Serializes header + all sections + checksum.
  void write_to(std::ostream& os);
  void write_file(const std::filesystem::path& path);

 private:
  void seal_current();

  struct Section {
    std::string tag;
    std::string body;
  };
  std::vector<Section> sections_;
  std::string current_tag_;
  std::ostringstream current_;
  bool in_section_ = false;
};

/// Parses and fully validates an archive up front (magic, version, framing,
/// checksum), then hands out per-section body streams by tag.
class SnapshotReader {
 public:
  /// Throws SnapshotError if the bytes are not a valid version-matched
  /// archive. Reads at most kMaxSnapshotBytes + 1 bytes: a stream longer
  /// than the cap is refused once that byte arrives.
  explicit SnapshotReader(std::istream& is);

  /// Stats `path` first and refuses, without reading it, anything but a
  /// regular file of at most kMaxSnapshotBytes.
  static SnapshotReader from_file(const std::filesystem::path& path);

  bool has_section(std::string_view tag) const;

  /// Stream over the named section's body. Each section may be opened once;
  /// a missing or already-consumed tag throws SnapshotError.
  std::istream& section(std::string_view tag);

  std::size_t section_count() const noexcept { return sections_.size(); }

 private:
  struct Section {
    std::string tag;
    std::string body;
    bool consumed = false;
  };
  std::vector<Section> sections_;
  std::istringstream current_;
};

}  // namespace noodle::serve
