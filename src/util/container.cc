#include "util/container.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <ostream>

#include "util/binary_io.h"
#include "util/lzw.h"
#include "util/macros.h"

namespace metaprox::util {

// The wire layout IS the little-endian in-memory layout of the scalar
// fields; big-endian hosts would need byte swaps in Append/ReadScalar.
static_assert(std::endian::native == std::endian::little,
              "binary artifact containers assume a little-endian host");

namespace {

constexpr size_t kHeaderSize = 32;
constexpr size_t kTableEntrySize = 40;
// More sections than any artifact defines; a count beyond this in a
// header is corruption, not a real file.
constexpr uint32_t kMaxSections = 64;

size_t AlignUp(size_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

}  // namespace

bool StartsWithContainerMagic(std::span<const uint8_t> bytes) {
  return bytes.size() >= sizeof(kContainerMagic) &&
         std::memcmp(bytes.data(), kContainerMagic,
                     sizeof(kContainerMagic)) == 0;
}

bool StartsWithContainerMagic(const std::string& bytes) {
  return StartsWithContainerMagic(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()));
}

StatusOr<bool> PathIsContainer(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  char head[sizeof(kContainerMagic)] = {};
  in.read(head, sizeof(head));
  if (in.gcount() < static_cast<std::streamsize>(sizeof(head))) return false;
  return std::memcmp(head, kContainerMagic, sizeof(head)) == 0;
}

void ContainerWriter::AddSection(uint32_t id, std::string bytes,
                                 uint32_t flags, bool try_compress) {
  for (const Section& s : sections_) {
    MX_CHECK_MSG(s.id != id, "duplicate container section id");
  }
  Section section;
  section.id = id;
  section.flags = flags & ~kSectionLzw;
  section.raw_size = bytes.size();
  if (try_compress && !bytes.empty()) {
    std::string compressed = LzwCompress(bytes);
    if (compressed.size() < bytes.size()) {
      section.flags |= kSectionLzw;
      section.stored = std::move(compressed);
    } else {
      section.stored = std::move(bytes);
    }
  } else {
    section.stored = std::move(bytes);
  }
  sections_.push_back(std::move(section));
}

Status ContainerWriter::WriteTo(std::ostream& os) const {
  // Lay the payloads out first so the table carries final offsets.
  const size_t table_end =
      kHeaderSize + sections_.size() * kTableEntrySize;
  std::vector<uint64_t> offsets(sections_.size());
  size_t cursor = table_end;
  for (size_t i = 0; i < sections_.size(); ++i) {
    cursor = AlignUp(cursor);
    offsets[i] = cursor;
    cursor += sections_[i].stored.size();
  }
  const uint64_t total_size = cursor;

  std::string table;
  table.reserve(sections_.size() * kTableEntrySize);
  for (size_t i = 0; i < sections_.size(); ++i) {
    const Section& s = sections_[i];
    AppendScalar<uint32_t>(&table, s.id);
    AppendScalar<uint32_t>(&table, s.flags);
    AppendScalar<uint64_t>(&table, offsets[i]);
    AppendScalar<uint64_t>(&table, s.stored.size());
    AppendScalar<uint64_t>(&table, s.raw_size);
    AppendScalar<uint32_t>(&table, Crc32(s.stored));
    AppendScalar<uint32_t>(&table, 0);
  }

  std::string header;
  header.reserve(kHeaderSize);
  header.append(kContainerMagic, sizeof(kContainerMagic));
  AppendScalar<uint32_t>(&header, kind_);
  AppendScalar<uint32_t>(&header, kContainerVersion);
  AppendScalar<uint32_t>(&header, static_cast<uint32_t>(sections_.size()));
  AppendScalar<uint32_t>(&header, Crc32(table));
  AppendScalar<uint64_t>(&header, total_size);
  MX_DCHECK(header.size() == kHeaderSize);

  os.write(header.data(), static_cast<std::streamsize>(header.size()));
  os.write(table.data(), static_cast<std::streamsize>(table.size()));
  size_t written = table_end;
  static const char kZeros[kSectionAlignment] = {};
  for (size_t i = 0; i < sections_.size(); ++i) {
    const size_t padding = offsets[i] - written;
    os.write(kZeros, static_cast<std::streamsize>(padding));
    os.write(sections_[i].stored.data(),
             static_cast<std::streamsize>(sections_[i].stored.size()));
    written = offsets[i] + sections_[i].stored.size();
  }
  if (!os.good()) return Status::IoError("container write failed");
  return Status::Ok();
}

StatusOr<ContainerReader> ContainerReader::Parse(
    std::span<const uint8_t> bytes, uint32_t expected_kind) {
  if (!StartsWithContainerMagic(bytes)) {
    return Status::InvalidArgument("not a metaprox binary container");
  }
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("container header truncated");
  }
  size_t pos = sizeof(kContainerMagic);
  uint32_t kind = 0, version = 0, section_count = 0, table_crc = 0;
  uint64_t total_size = 0;
  ReadScalar(bytes, &pos, &kind);
  ReadScalar(bytes, &pos, &version);
  ReadScalar(bytes, &pos, &section_count);
  ReadScalar(bytes, &pos, &table_crc);
  ReadScalar(bytes, &pos, &total_size);
  if (version != kContainerVersion) {
    return Status::InvalidArgument("unsupported container version " +
                                   std::to_string(version));
  }
  if (kind != expected_kind) {
    return Status::InvalidArgument("container holds a different artifact "
                                   "kind (index/model mixup?)");
  }
  if (total_size != bytes.size()) {
    return Status::InvalidArgument("container size mismatch (truncated or "
                                   "trailing data)");
  }
  if (section_count > kMaxSections) {
    return Status::InvalidArgument("implausible container section count");
  }
  const size_t table_bytes = size_t{section_count} * kTableEntrySize;
  if (bytes.size() - kHeaderSize < table_bytes) {
    return Status::InvalidArgument("container section table truncated");
  }
  const std::span<const uint8_t> table =
      bytes.subspan(kHeaderSize, table_bytes);
  if (Crc32(table) != table_crc) {
    return Status::InvalidArgument("container section table checksum "
                                   "mismatch");
  }

  ContainerReader reader;
  reader.bytes_ = bytes;
  reader.entries_.reserve(section_count);
  pos = kHeaderSize;
  for (uint32_t i = 0; i < section_count; ++i) {
    Entry e;
    uint32_t reserved = 0;
    ReadScalar(bytes, &pos, &e.id);
    ReadScalar(bytes, &pos, &e.flags);
    ReadScalar(bytes, &pos, &e.offset);
    ReadScalar(bytes, &pos, &e.stored_size);
    ReadScalar(bytes, &pos, &e.raw_size);
    ReadScalar(bytes, &pos, &e.crc);
    ReadScalar(bytes, &pos, &reserved);
    if (e.offset % kSectionAlignment != 0 ||
        e.offset < kHeaderSize + table_bytes || e.offset > bytes.size() ||
        e.stored_size > bytes.size() - e.offset) {
      return Status::InvalidArgument("container section out of bounds");
    }
    if ((e.flags & kSectionLzw) == 0 && e.raw_size != e.stored_size) {
      return Status::InvalidArgument(
          "container section size fields disagree");
    }
    for (const Entry& prior : reader.entries_) {
      if (prior.id == e.id) {
        return Status::InvalidArgument("duplicate container section id");
      }
    }
    if (Crc32(bytes.subspan(e.offset, e.stored_size)) != e.crc) {
      return Status::InvalidArgument("container section " +
                                     std::to_string(e.id) +
                                     " checksum mismatch");
    }
    reader.entries_.push_back(e);
  }
  return reader;
}

const ContainerReader::Entry* ContainerReader::Find(uint32_t id) const {
  for (const Entry& e : entries_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

uint32_t ContainerReader::Flags(uint32_t id) const {
  const Entry* e = Find(id);
  return e == nullptr ? 0 : e->flags;
}

StatusOr<SectionData> ContainerReader::Section(uint32_t id) const {
  const Entry* e = Find(id);
  if (e == nullptr) {
    return Status::InvalidArgument("container section " + std::to_string(id) +
                                   " missing");
  }
  const std::span<const uint8_t> stored =
      bytes_.subspan(e->offset, e->stored_size);
  SectionData data;
  if ((e->flags & kSectionLzw) != 0) {
    auto decoded = LzwDecompress(
        std::string(reinterpret_cast<const char*>(stored.data()),
                    stored.size()),
        e->raw_size);
    if (!decoded.ok()) {
      return Status::InvalidArgument("container section " +
                                     std::to_string(id) + ": " +
                                     decoded.status().message());
    }
    data.owned = std::make_unique<std::string>(std::move(*decoded));
    data.bytes = std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(data.owned->data()),
        data.owned->size());
  } else {
    data.bytes = stored;
  }
  return data;
}

}  // namespace metaprox::util
