#include "util/lzw.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/binary_io.h"

namespace metaprox::util {
namespace {

// Fixed 16-bit code space. Codes 0-255 are the single-byte strings; the
// first dictionary entry is 256. When next_code reaches kMaxCodes the
// window resets: the encoder skips the add, clears its dictionary and
// starts the next phrase from a bare literal, and the decoder mirrors the
// same skip/clear at the same code count — both sides stay in lockstep
// with no explicit clear code on the wire.
constexpr uint32_t kFirstCode = 256;
constexpr uint32_t kMaxCodes = 1u << 16;
// An empty slot of the encoder's table; no packed (key, code) is all ones.
constexpr uint64_t kEmptySlot = ~uint64_t{0};

}  // namespace

std::string LzwCompress(const std::string& input) {
  std::string out;
  if (input.empty()) return out;
  out.reserve(input.size() / 2);
  // The dictionary, (current code << 8 | next byte) -> extended code, as
  // one flat open-addressing table with linear probing: a key is at most
  // 24 bits and a code 16, so a slot packs both into one word (key << 16 |
  // code). The table holds at most one entry per input byte and never more
  // than the code space, and is sized to stay at most half full.
  const size_t max_entries =
      std::min<size_t>(input.size(), kMaxCodes - kFirstCode);
  int bits = 8;
  while ((size_t{1} << bits) < 2 * max_entries) ++bits;
  std::vector<uint64_t> table(size_t{1} << bits, kEmptySlot);
  const size_t mask = table.size() - 1;
  uint32_t next_code = kFirstCode;
  uint32_t w = static_cast<uint8_t>(input[0]);
  for (size_t i = 1; i < input.size(); ++i) {
    const uint8_t c = static_cast<uint8_t>(input[i]);
    const uint32_t probe = (w << 8) | c;
    size_t slot = static_cast<uint32_t>(probe * 0x9e3779b1u) >> (32 - bits);
    while (table[slot] != kEmptySlot && (table[slot] >> 16) != probe) {
      slot = (slot + 1) & mask;
    }
    if (table[slot] != kEmptySlot) {
      w = static_cast<uint32_t>(table[slot] & 0xffffu);
      continue;
    }
    AppendScalar<uint16_t>(&out, static_cast<uint16_t>(w));
    if (next_code == kMaxCodes) {
      std::fill(table.begin(), table.end(), kEmptySlot);
      next_code = kFirstCode;
    } else {
      table[slot] = (static_cast<uint64_t>(probe) << 16) | next_code++;
    }
    w = c;
  }
  AppendScalar<uint16_t>(&out, static_cast<uint16_t>(w));
  return out;
}

StatusOr<std::string> LzwDecompress(const std::string& input,
                                    size_t expected_size) {
  if (input.empty()) {
    if (expected_size != 0) {
      return Status::InvalidArgument("lzw: empty stream for non-empty data");
    }
    return std::string();
  }
  if (input.size() % 2 != 0) {
    return Status::InvalidArgument("lzw: truncated 16-bit code unit");
  }
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(input.data()), input.size());

  // Dictionary as (prefix code, appended byte) chains; phrases are emitted
  // by walking the chain backwards, so adversarial inputs cannot force the
  // quadratic memory of a string-per-entry table.
  struct Entry {
    uint32_t prefix;
    uint8_t byte;
    uint32_t length;
  };
  std::vector<Entry> entries;
  entries.reserve(4096);

  std::string out;
  // Cap the up-front reservation: `expected_size` comes from an artifact
  // and a crafted value must not drive a giant allocation before a single
  // byte decodes (the append loop below grows organically and fails fast).
  out.reserve(std::min<size_t>(expected_size, size_t{1} << 20));
  std::vector<uint8_t> phrase;  // scratch, reversed chain walk

  auto phrase_length = [&](uint32_t code) -> uint32_t {
    return code < kFirstCode ? 1 : entries[code - kFirstCode].length;
  };
  auto first_byte = [&](uint32_t code) -> uint8_t {
    while (code >= kFirstCode) code = entries[code - kFirstCode].prefix;
    return static_cast<uint8_t>(code);
  };
  auto emit = [&](uint32_t code) -> bool {
    const uint32_t length = phrase_length(code);
    if (out.size() + length > expected_size) return false;
    phrase.clear();
    while (code >= kFirstCode) {
      const Entry& e = entries[code - kFirstCode];
      phrase.push_back(e.byte);
      code = e.prefix;
    }
    phrase.push_back(static_cast<uint8_t>(code));
    out.append(phrase.rbegin(), phrase.rend());
    return true;
  };

  size_t pos = 0;
  uint16_t code = 0;
  ReadScalar<uint16_t>(bytes, &pos, &code);
  if (code >= kFirstCode) {
    return Status::InvalidArgument("lzw: first code is not a literal");
  }
  if (!emit(code)) return Status::InvalidArgument("lzw: output overruns size");
  uint32_t prev = code;

  while (pos < bytes.size()) {
    ReadScalar<uint16_t>(bytes, &pos, &code);
    const uint32_t next_code = kFirstCode + static_cast<uint32_t>(
                                                entries.size());
    if (next_code == kMaxCodes) {
      // Window reset: mirrors the encoder's skipped add. The code that
      // follows a reset is always the bare literal the encoder restarted
      // from.
      entries.clear();
      if (code >= kFirstCode) {
        return Status::InvalidArgument("lzw: non-literal code after reset");
      }
      if (!emit(code)) {
        return Status::InvalidArgument("lzw: output overruns size");
      }
      prev = code;
      continue;
    }
    if (code > next_code) {
      return Status::InvalidArgument("lzw: code beyond dictionary");
    }
    // Add the deferred entry for the previous phrase. In the KwKwK case
    // (code == next_code) the entry being added is the one decoded.
    entries.push_back(Entry{prev, first_byte(code == next_code ? prev : code),
                            phrase_length(prev) + 1});
    if (!emit(code)) return Status::InvalidArgument("lzw: output overruns size");
    prev = code;
  }
  if (out.size() != expected_size) {
    return Status::InvalidArgument("lzw: decoded size mismatch");
  }
  return out;
}

}  // namespace metaprox::util
