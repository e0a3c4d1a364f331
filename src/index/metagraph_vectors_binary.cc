// The v2 binary persistence of MetagraphVectorIndex: the writer for both
// layouts (compact / aligned) and the one loader behind the eager reader
// and the zero-copy mapped load. Byte-level spec in docs/ARCHITECTURE.md
// "Persistence formats".
//
// Wire contract highlights:
//   * Deterministic: the same committed contents serialize to the same
//     bytes for any thread count (rows in canonical order, pairs in
//     sorted key order, LZW is a pure function of its input).
//   * Key-width clean: pair endpoints travel as individual varints, so
//     the format does not inherit the in-memory 64-bit PairKey packing.
//   * Candidate postings are NOT stored — they are a pure function of the
//     pair keys and are rebuilt on load (BuildPostings), keeping files
//     small without costing determinism.
//   * Hostile-input safe: every decode is bounds-checked and every
//     structural invariant (strictly increasing row indices, strictly
//     increasing pair keys with x < y, section sizes consistent with the
//     declared dimensions) is validated, returning a structured Status — the
//     corruption battery in tests/binary_format_test.cc holds this file
//     to "never crash, never silently mis-answer".
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "index/metagraph_vectors.h"
#include "util/binary_io.h"
#include "util/container.h"
#include "util/macros.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace metaprox {
namespace {

// Section ids of a kIndexArtifact container, in file order.
constexpr uint32_t kSecMeta = 1;         // dims + transform
constexpr uint32_t kSecCommitted = 2;    // metagraph bitmap
constexpr uint32_t kSecNodeLens = 3;     // per-node row lengths, varint
constexpr uint32_t kSecNodeEntries = 4;  // concatenated node rows (hot)
constexpr uint32_t kSecPairKeys = 5;     // sorted pair keys, delta/varint
constexpr uint32_t kSecPairLens = 6;     // per-pair row lengths, varint
constexpr uint32_t kSecPairEntries = 7;  // concatenated pair rows (hot)

constexpr size_t kMetaSize = 24;

using Entry = std::pair<uint32_t, float>;
using Row = std::span<const Entry>;
// Raw (aligned-layout) entry sections are reinterpreted in place when
// mapped; the wire layout IS the in-memory layout (same precondition the
// SIMD kernels assert in core/score_kernels.h).
static_assert(sizeof(Entry) == 8 && alignof(Entry) == 4 &&
                  std::is_trivially_destructible_v<Entry>,
              "raw entry sections memcpy/map {u32 index, f32 count} pairs");

// One row onto the wire. Packed: per entry a varint index delta (first
// entry: the index itself; later: index - prev - 1, exploiting the strict
// increase) followed by the raw float32 bits. Raw: the entries verbatim.
void AppendRow(std::string* out, Row row, bool packed) {
  if (!packed) {
    out->append(reinterpret_cast<const char*>(row.data()),
                row.size() * sizeof(Entry));
    return;
  }
  uint32_t prev = 0;
  bool first = true;
  for (const auto& [i, c] : row) {
    util::AppendVarint(out, first ? uint64_t{i} : uint64_t{i} - prev - 1);
    util::AppendScalar<float>(out, c);
    prev = i;
    first = false;
  }
}

// Appends the `total` entries of one packed entries section to `out`,
// row by row per `offsets`. Indices rise strictly by construction; an
// index at or past |M| is refused here, before it could wrap.
util::Status DecodePacked(std::span<const uint8_t> bytes,
                          const std::vector<uint64_t>& offsets,
                          uint64_t num_metagraphs, const char* what,
                          std::vector<Entry>* out) {
  size_t pos = 0;
  for (size_t r = 0; r + 1 < offsets.size(); ++r) {
    uint64_t idx = 0;
    for (uint64_t e = offsets[r]; e < offsets[r + 1]; ++e) {
      uint64_t delta = 0;
      float c = 0;
      if (!util::ReadVarint(bytes, &pos, &delta) ||
          !util::ReadScalar<float>(bytes, &pos, &c)) {
        return util::Status::InvalidArgument(std::string(what) +
                                             " section truncated");
      }
      // A delta past |M| is refused before its (wrapping) sum is used.
      idx = e == offsets[r] ? delta : idx + delta + 1;
      if (delta >= num_metagraphs || idx >= num_metagraphs) {
        return util::Status::InvalidArgument(std::string(what) +
                                             " entry index out of range");
      }
      out->emplace_back(static_cast<uint32_t>(idx), c);
    }
  }
  if (pos != bytes.size()) {
    return util::Status::InvalidArgument(std::string(what) +
                                         " section has trailing bytes");
  }
  return util::Status::Ok();
}

// Everything decoded before the entry sections: dimensions, the committed
// bitmap, the sorted pair keys and both row-offset tables. All
// dimension-sized allocations are bounded by the (validated) section
// sizes first, so a corrupt META cannot drive a huge allocation.
struct ColdSections {
  uint64_t num_metagraphs = 0;
  uint64_t num_nodes = 0;
  CountTransform transform = CountTransform::kRaw;
  std::vector<uint8_t> committed;       // one 0/1 byte per metagraph
  std::vector<uint64_t> node_offsets;   // num_nodes + 1 prefix sums
  std::vector<uint64_t> pair_keys;      // sorted, packed (x << 32 | y)
  std::vector<uint64_t> pair_offsets;   // pair_keys.size() + 1 prefix sums
};

// Row offsets (in entries) from a section of `count` varint row lengths:
// count + 1 prefix sums. Both `count` (bounded by the section size) and
// each length (<= max_len <= 2^32) are checked, so the sums cannot wrap.
util::StatusOr<std::vector<uint64_t>> DecodeOffsets(
    std::span<const uint8_t> bytes, uint64_t count, uint64_t max_len,
    const char* what) {
  // Each length takes >= 1 byte, so a count beyond the section size is
  // structurally impossible — checked before the allocation it would size.
  if (count > bytes.size()) {
    return util::Status::InvalidArgument(std::string(what) +
                                         " section too small for its count");
  }
  std::vector<uint64_t> offsets(count + 1, 0);
  size_t pos = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    if (!util::ReadVarint(bytes, &pos, &len)) {
      return util::Status::InvalidArgument(std::string(what) +
                                           " section truncated");
    }
    if (len > max_len) {
      return util::Status::InvalidArgument(std::string(what) +
                                           " row length exceeds |M|");
    }
    offsets[i + 1] = offsets[i] + len;
  }
  if (pos != bytes.size()) {
    return util::Status::InvalidArgument(std::string(what) +
                                         " section has trailing bytes");
  }
  return offsets;
}

util::StatusOr<std::vector<uint64_t>> DecodePairKeys(
    std::span<const uint8_t> bytes, uint64_t num_nodes) {
  size_t pos = 0;
  uint64_t count = 0;
  if (!util::ReadVarint(bytes, &pos, &count)) {
    return util::Status::InvalidArgument("pair key section truncated");
  }
  // Each pair takes >= 2 bytes (two varints).
  if (count > bytes.size()) {
    return util::Status::InvalidArgument(
        "pair key section too small for its count");
  }
  std::vector<uint64_t> keys;
  keys.reserve(count);
  uint64_t px = 0, py = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t a = 0, b = 0;
    if (!util::ReadVarint(bytes, &pos, &a) ||
        !util::ReadVarint(bytes, &pos, &b)) {
      return util::Status::InvalidArgument("pair key section truncated");
    }
    // Endpoints ride as (delta-x, y) when x advances, (0, delta-y) within
    // one x, both deltas from (0, 0) for the first pair. Deltas of a
    // valid file are < num_nodes, which also rules out wraparound below.
    if (a >= num_nodes || b > num_nodes) {
      return util::Status::InvalidArgument("pair key delta out of range");
    }
    const uint64_t x = px + a;
    const uint64_t y = a != 0 ? b : py + b;
    if (a == 0 && b == 0) {
      return util::Status::InvalidArgument(
          "pair keys not strictly increasing");
    }
    if (x >= y || y >= num_nodes) {
      return util::Status::InvalidArgument(
          "pair key not (x, y) with x < y < num_nodes");
    }
    keys.push_back((x << 32) | y);
    px = x;
    py = y;
  }
  if (pos != bytes.size()) {
    return util::Status::InvalidArgument(
        "pair key section has trailing bytes");
  }
  return keys;
}

util::StatusOr<ColdSections> DecodeColdSections(
    const util::ContainerReader& reader) {
  ColdSections cold;

  auto meta = reader.Section(kSecMeta);
  if (!meta.ok()) return meta.status();
  if (meta->bytes.size() != kMetaSize) {
    return util::Status::InvalidArgument("index meta section malformed");
  }
  size_t pos = 0;
  uint32_t transform = 0, reserved = 0;
  util::ReadScalar(meta->bytes, &pos, &cold.num_metagraphs);
  util::ReadScalar(meta->bytes, &pos, &cold.num_nodes);
  util::ReadScalar(meta->bytes, &pos, &transform);
  util::ReadScalar(meta->bytes, &pos, &reserved);
  if (transform > 1) {
    return util::Status::InvalidArgument("unknown index count transform");
  }
  cold.transform = static_cast<CountTransform>(transform);
  // Entry indices are u32 on the wire and NodeId is 32-bit in this build;
  // wider artifacts are rejected, not wrapped. (The FORMAT allows wider —
  // endpoints are varints — so a future wide-NodeId build reads today's
  // files unchanged.)
  if (cold.num_metagraphs > 0xffffffffull) {
    return util::Status::InvalidArgument(
        "metagraph count exceeds the 32-bit entry index");
  }
  if (cold.num_nodes > 0xffffffffull) {
    return util::Status::InvalidArgument(
        "node count exceeds this build's 32-bit NodeId");
  }

  auto committed = reader.Section(kSecCommitted);
  if (!committed.ok()) return committed.status();
  if (committed->bytes.size() != (cold.num_metagraphs + 7) / 8) {
    return util::Status::InvalidArgument(
        "committed bitmap disagrees with metagraph count");
  }
  cold.committed.assign(cold.num_metagraphs, 0);
  for (uint64_t i = 0; i < cold.num_metagraphs; ++i) {
    cold.committed[i] = (committed->bytes[i / 8] >> (i % 8)) & 1u;
  }

  auto node_lens = reader.Section(kSecNodeLens);
  if (!node_lens.ok()) return node_lens.status();
  auto node_offsets = DecodeOffsets(node_lens->bytes, cold.num_nodes,
                                    cold.num_metagraphs, "node length");
  if (!node_offsets.ok()) return node_offsets.status();
  cold.node_offsets = std::move(*node_offsets);

  auto pair_keys = reader.Section(kSecPairKeys);
  if (!pair_keys.ok()) return pair_keys.status();
  auto decoded_keys = DecodePairKeys(pair_keys->bytes, cold.num_nodes);
  if (!decoded_keys.ok()) return decoded_keys.status();
  cold.pair_keys = std::move(*decoded_keys);

  auto pair_lens = reader.Section(kSecPairLens);
  if (!pair_lens.ok()) return pair_lens.status();
  auto pair_offsets = DecodeOffsets(pair_lens->bytes, cold.pair_keys.size(),
                                    cold.num_metagraphs, "pair length");
  if (!pair_offsets.ok()) return pair_offsets.status();
  cold.pair_offsets = std::move(*pair_offsets);

  return cold;
}

}  // namespace

util::Status MetagraphVectorIndex::WriteBinaryTo(std::ostream& os,
                                                 BinaryLayout layout) const {
  // Compact packs the entries and LZW-compresses every section where that
  // shrinks it; aligned stores every section raw.
  const bool packed = layout == BinaryLayout::kCompact;
  const uint32_t entry_flags = packed ? util::kSectionPacked : 0;
  const size_t num_nodes = num_graph_nodes();

  util::ContainerWriter writer(util::kIndexArtifact);

  std::string meta;
  util::AppendScalar<uint64_t>(&meta, num_metagraphs_);
  util::AppendScalar<uint64_t>(&meta, num_nodes);
  util::AppendScalar<uint32_t>(&meta, static_cast<uint32_t>(transform_));
  util::AppendScalar<uint32_t>(&meta, 0);
  MX_DCHECK(meta.size() == kMetaSize);
  writer.AddSection(kSecMeta, std::move(meta));

  std::string bits((num_metagraphs_ + 7) / 8, '\0');
  for (size_t i = 0; i < num_metagraphs_; ++i) {
    if (committed_[i] != 0) {
      bits[i / 8] = static_cast<char>(
          static_cast<uint8_t>(bits[i / 8]) | (1u << (i % 8)));
    }
  }
  writer.AddSection(kSecCommitted, std::move(bits), 0, packed);

  std::string node_lens, node_entries;
  for (NodeId v = 0; v < num_nodes; ++v) {
    const Row row = NodeRow(v);
    util::AppendVarint(&node_lens, row.size());
    AppendRow(&node_entries, row, packed);
  }
  writer.AddSection(kSecNodeLens, std::move(node_lens), 0, packed);
  writer.AddSection(kSecNodeEntries, std::move(node_entries), entry_flags,
                    packed);

  // Pairs in sorted key order, like the text writer: byte-identical for
  // any thread count, finalized or not. Keys are delta-coded from
  // (0, 0): (x - prev_x, y) when x advances, else (0, y - prev_y).
  std::string pair_keys, pair_lens, pair_entries;
  util::AppendVarint(&pair_keys, pair_keys_.size());
  uint64_t px = 0, py = 0;
  for (uint32_t slot = 0; slot < pair_keys_.size(); ++slot) {
    const uint64_t key = pair_keys_[slot];
    const uint64_t x = key >> 32;
    const uint64_t y = key & 0xffffffffu;
    util::AppendVarint(&pair_keys, x - px);
    util::AppendVarint(&pair_keys, x != px ? y : y - py);
    px = x;
    py = y;
    const Row row = PairRow(slot);
    util::AppendVarint(&pair_lens, row.size());
    AppendRow(&pair_entries, row, packed);
  }
  writer.AddSection(kSecPairKeys, std::move(pair_keys), 0, packed);
  writer.AddSection(kSecPairLens, std::move(pair_lens), 0, packed);
  writer.AddSection(kSecPairEntries, std::move(pair_entries), entry_flags,
                    packed);

  return writer.WriteTo(os);
}

util::StatusOr<MetagraphVectorIndex> MetagraphVectorIndex::LoadBinary(
    std::span<const uint8_t> bytes, std::shared_ptr<util::MmapFile> mapping) {
  auto reader = util::ContainerReader::Parse(bytes, util::kIndexArtifact);
  if (!reader.ok()) return reader.status();
  if (mapping != nullptr) {
    for (uint32_t id : {kSecNodeEntries, kSecPairEntries}) {
      if ((reader->Flags(id) &
           (util::kSectionPacked | util::kSectionLzw)) != 0) {
        return util::Status::FailedPrecondition(
            "compact-layout artifact cannot be mapped: its entry sections "
            "are packed/compressed; load it eagerly (ReadBinaryFrom) or "
            "re-encode with BinaryLayout::kAligned");
      }
    }
  }
  auto cold = DecodeColdSections(*reader);
  if (!cold.ok()) return cold.status();

  MetagraphVectorIndex index(cold->num_metagraphs, 0, cold->transform);
  index.num_graph_nodes_ = cold->num_nodes;
  index.committed_ = std::move(cold->committed);
  index.node_offsets_ = std::move(cold->node_offsets);
  index.pair_keys_ = std::move(cold->pair_keys);
  index.pair_offsets_ = std::move(cold->pair_offsets);

  // Each entries section is checked against its offsets, then aliased in
  // place (mapped) or decoded/copied into owned storage.
  struct Hot {
    uint32_t id;
    const std::vector<uint64_t>& offsets;
    std::vector<Entry>& owned;
    const char* what;
  };
  const Hot hot[2] = {{kSecNodeEntries, index.node_offsets_,
                       index.owned_node_entries_, "node entries"},
                      {kSecPairEntries, index.pair_offsets_,
                       index.owned_pair_entries_, "pair entries"}};
  std::span<const Entry> entries[2];
  for (int i = 0; i < 2; ++i) {
    const Hot& h = hot[i];
    auto section = reader->Section(h.id);
    if (!section.ok()) return section.status();
    const std::span<const uint8_t> data = section->bytes;
    const uint64_t total = h.offsets.back();
    const bool packed = (reader->Flags(h.id) & util::kSectionPacked) != 0;
    // A packed entry takes >= 5 bytes (varint + float32), a raw one 8.
    if (packed ? total > data.size() / 5
               : data.size() % sizeof(Entry) != 0 ||
                     data.size() / sizeof(Entry) != total) {
      return util::Status::InvalidArgument(
          std::string(h.what) + " section disagrees with row lengths");
    }
    if (mapping != nullptr) {
      entries[i] = {reinterpret_cast<const Entry*>(data.data()), total};
      continue;
    }
    if (packed) {
      h.owned.reserve(total);
      MX_RETURN_IF_ERROR(DecodePacked(data, h.offsets, cold->num_metagraphs,
                                      h.what, &h.owned));
    } else if (total > 0) {
      h.owned.resize(total);
      std::memcpy(static_cast<void*>(h.owned.data()), data.data(),
                  data.size());
    }
    entries[i] = h.owned;
  }
  MX_RETURN_IF_ERROR(
      index.CheckRows(entries[0], index.node_offsets_, hot[0].what));
  MX_RETURN_IF_ERROR(
      index.CheckRows(entries[1], index.pair_offsets_, hot[1].what));
  index.mapping_ = std::move(mapping);
  index.AdoptEntries(entries[0], entries[1]);
  index.Finalize();
  return index;
}

util::StatusOr<MetagraphVectorIndex> MetagraphVectorIndex::ReadBinaryFrom(
    std::span<const uint8_t> bytes) {
  return LoadBinary(bytes, nullptr);
}

util::StatusOr<MetagraphVectorIndex> MetagraphVectorIndex::MapFromFile(
    const std::string& path) {
  auto file = util::MmapFile::OpenReadOnly(path);
  if (!file.ok()) return file.status();
  const std::span<const uint8_t> bytes = (*file)->bytes();
  return LoadBinary(bytes, std::move(*file));
}

util::StatusOr<MetagraphVectorIndex> MetagraphVectorIndex::LoadFromFile(
    const std::string& path, bool use_mmap) {
  auto is_container = util::PathIsContainer(path);
  if (!is_container.ok()) return is_container.status();
  if (*is_container) {
    if (use_mmap) {
      auto mapped = MapFromFile(path);
      // kFailedPrecondition = "not an aligned-layout artifact": mmap is
      // advisory in LoadFromFile, so compact artifacts fall back to the
      // eager parse below. Any other failure (corruption, IO) surfaces.
      if (mapped.ok() ||
          mapped.status().code() != util::StatusCode::kFailedPrecondition) {
        return mapped;
      }
    }
    auto file = util::MmapFile::OpenReadOnly(path);
    if (!file.ok()) return file.status();
    return ReadBinaryFrom((*file)->bytes());
  }
  // Text artifact: the v1 debug/interop path (use_mmap is advisory and
  // does not apply).
  std::ifstream in(path);
  if (!in) return util::Status::NotFound("cannot open " + path);
  return ReadFrom(in);
}

}  // namespace metaprox
