// The `metaprox binary container`: the versioned envelope every v2 binary
// artifact (index and model) is wrapped in.
//
// Byte layout (all integers little-endian; the full byte-level spec lives
// in docs/ARCHITECTURE.md "Persistence formats"):
//
//   header (32 bytes)
//     0   magic            8 bytes  "MXPXBC2\n"
//     8   kind             u32      kIndexArtifact / kModelArtifact
//     12  version          u32      2 (the format bump over v1 text)
//     16  section_count    u32
//     20  table_crc        u32      CRC-32 of the section table bytes
//     24  total_size       u64      exact file size (truncation guard)
//   section table (40 bytes per section)
//     +0  id               u32
//     +4  flags            u32      bit0 kSectionLzw, bit1 kSectionPacked
//     +8  offset           u64      from file start; 64-byte aligned
//     +16 stored_size      u64      bytes on disk
//     +24 raw_size         u64      bytes after decompression
//     +32 crc              u32      CRC-32 of the stored bytes
//     +36 reserved         u32      0
//   payloads, each at a 64-byte-aligned offset, zero-padded between
//
// The alignment means a raw section mapped via util::MmapFile can be
// reinterpreted in place — zero-copy. A writer may instead store a
// section LZW-compressed (util/lzw.h; it stays compressed only when that
// actually shrank it), which costs a decode on every load.
//
// ContainerWriter output is a pure function of the added sections, so
// artifacts are byte-deterministic — what the golden-file test pins.
// ContainerReader validates the structure (magic, version, kind, size,
// table checksum, every offset/length in bounds) and every section
// payload against its CRC; any violation is a structured Status, never a
// crash — the contract the corruption battery enforces byte by byte.
#ifndef METAPROX_UTIL_CONTAINER_H_
#define METAPROX_UTIL_CONTAINER_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace metaprox::util {

/// Serialization format of an artifact on disk. Text (v1) stays the
/// debug/interop path; readers autodetect by magic, so callers only choose
/// a format when writing.
enum class ArtifactFormat { kText, kBinary };

inline constexpr char kContainerMagic[8] = {'M', 'X', 'P', 'X',
                                            'B', 'C', '2', '\n'};
inline constexpr uint32_t kContainerVersion = 2;
inline constexpr uint32_t kIndexArtifact = 1;
inline constexpr uint32_t kModelArtifact = 2;

/// Section payloads start at multiples of this (mmap-friendly: any scalar
/// or SIMD-width access into a raw section is aligned).
inline constexpr size_t kSectionAlignment = 64;

/// Section flags.
inline constexpr uint32_t kSectionLzw = 1u << 0;     // LZW-compressed
inline constexpr uint32_t kSectionPacked = 1u << 1;  // delta/varint-packed
                                                     // (vs raw mmap layout)

/// True when `bytes` begins with the container magic (format autodetect).
bool StartsWithContainerMagic(std::span<const uint8_t> bytes);
bool StartsWithContainerMagic(const std::string& bytes);

/// Reads just enough of `path` to tell binary container from text.
/// NotFound when the file cannot be opened.
StatusOr<bool> PathIsContainer(const std::string& path);

/// Accumulates sections and serializes the container deterministically.
class ContainerWriter {
 public:
  explicit ContainerWriter(uint32_t kind) : kind_(kind) {}

  /// Adds a section. `flags` may carry kSectionPacked; with
  /// `try_compress` the payload is LZW-compressed and the compressed form
  /// kept only if strictly smaller (kSectionLzw is set accordingly).
  /// Section ids must be unique; order of addition is the file order.
  void AddSection(uint32_t id, std::string bytes, uint32_t flags = 0,
                  bool try_compress = false);

  /// Writes header + table + aligned payloads. Deterministic.
  Status WriteTo(std::ostream& os) const;

 private:
  struct Section {
    uint32_t id;
    uint32_t flags;
    uint64_t raw_size;
    std::string stored;
  };
  uint32_t kind_;
  std::vector<Section> sections_;
};

/// One parsed section. `bytes` views into the container buffer for raw
/// sections (zero-copy) and into `owned` for decompressed ones; the
/// indirection keeps the span valid across moves.
struct SectionData {
  std::span<const uint8_t> bytes;
  std::unique_ptr<std::string> owned;
};

/// Parses and validates a container over caller-owned bytes (the caller —
/// e.g. a MmapFile holder — must keep them alive).
class ContainerReader {
 public:
  /// Validates the structure and every section's payload CRC.
  static StatusOr<ContainerReader> Parse(std::span<const uint8_t> bytes,
                                         uint32_t expected_kind);

  /// One section-table entry.
  struct Entry {
    uint32_t id;
    uint32_t flags;
    uint64_t offset;
    uint64_t stored_size;
    uint64_t raw_size;
    uint32_t crc;
  };
  /// The section table in file order (for size reports).
  std::span<const Entry> entries() const { return entries_; }

  bool Has(uint32_t id) const { return Find(id) != nullptr; }
  /// Flags of section `id` (0 when absent).
  uint32_t Flags(uint32_t id) const;

  /// Returns section `id`'s payload, decompressing if stored LZW. A
  /// missing section or a decode failure is a structured error.
  StatusOr<SectionData> Section(uint32_t id) const;

 private:
  const Entry* Find(uint32_t id) const;

  std::span<const uint8_t> bytes_;
  std::vector<Entry> entries_;
};

}  // namespace metaprox::util

#endif  // METAPROX_UTIL_CONTAINER_H_
