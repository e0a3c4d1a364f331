// FlatCountMap: the counting path's hash table. A metagraph vector is a
// count of embeddings per node and per node pair (Eq. 1-2); matching
// produces those counts one embedding at a time, several increments per
// embedding, so this table is on the inner loop of every index build and
// every refresh (SymPairCountingSink -> IndexMaintainer ledger ->
// MetagraphVectorIndex::Commit).
//
// Open addressing with linear probing over one flat slot array:
// power-of-two capacity, a multiplicative (Fibonacci) hash taking the top
// bits, at most half full while it is being counted into. The all-ones
// key is the reserved empty-slot sentinel; operator[] refuses it
// (MX_CHECK). There is no erase — counts only grow. A table that is kept
// after counting and then only merged into (the maintainer's ledger)
// calls Pack(): it is repacked up to 3/4 full and from then on grows only
// past 3/4. A copy keeps its source's capacity and packing.
//
// Why half: the hot operation is incrementing a key already present, and
// its cost is set by how often that key sits past its home slot (a branch
// the CPU then mispredicts), not by cache misses. On the capped
// metagraphs of the serving benchmark's graphs, a 3/4 maximum load left
// about a fifth of the increments displaced and counted no faster than
// std::unordered_map; at 1/2 it is under a tenth. Memory per entry (16
// bytes a slot, 2-4 slots an entry while counting, 4/3-8/3 packed) is on
// par with or below a node-based std::unordered_map's.
//
// Iteration yields every key once, in slot (hash) order — an order no
// caller may let escape into committed output (tools/lint/determinism_lint.sh
// tracks range-fors over this type like those over std::unordered_map).
#ifndef METAPROX_UTIL_FLAT_COUNT_MAP_H_
#define METAPROX_UTIL_FLAT_COUNT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/macros.h"

namespace metaprox::util {

template <typename K>
class FlatCountMap {
  static_assert(std::is_unsigned_v<K> && sizeof(K) <= 8,
                "FlatCountMap keys are unsigned integers of at most 64 bits");

 public:
  /// Marks an empty slot; never a valid key.
  static constexpr K kEmptyKey = std::numeric_limits<K>::max();

  struct Slot {
    K key;
    uint64_t count;
  };

  /// Forward iterator over the occupied slots.
  class const_iterator {
   public:
    const_iterator(const Slot* at, const Slot* end) : at_(at), end_(end) {
      SkipEmpty();
    }
    const Slot& operator*() const { return *at_; }
    const Slot* operator->() const { return at_; }
    const_iterator& operator++() {
      ++at_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return at_ == other.at_;
    }

   private:
    void SkipEmpty() {
      while (at_ != end_ && at_->key == kEmptyKey) ++at_;
    }
    const Slot* at_;
    const Slot* end_;
  };

  /// The count of `key`, inserted at 0 when absent.
  uint64_t& operator[](K key) {
    MX_CHECK_MSG(key != kEmptyKey, "FlatCountMap: the sentinel key");
    if (!slots_.empty()) {
      Slot& slot = slots_[Probe(key)];
      if (slot.key == key) return slot.count;
      const size_t room = packed_ ? 3 * slots_.size() / 4 : slots_.size() / 2;
      if (size_ + 1 <= room) return Claim(slot, key);
    }
    Rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    return Claim(slots_[Probe(key)], key);
  }

  size_t size() const { return size_; }

  /// Repacks into the smallest power-of-two capacity that holds size()
  /// keys at most 3/4 full (none when empty), and keeps the table packed:
  /// later inserts grow it only past 3/4. Increments probe further, so
  /// pack a table only once it is done being counted into.
  void Pack() {
    packed_ = true;
    size_t capacity = size_ == 0 ? 0 : kMinCapacity;
    while (4 * size_ > 3 * capacity) capacity *= 2;
    if (capacity < slots_.size()) Rehash(capacity);
  }

  const_iterator begin() const {
    return const_iterator(slots_.data(), slots_.data() + slots_.size());
  }
  const_iterator end() const {
    const Slot* end = slots_.data() + slots_.size();
    return const_iterator(end, end);
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  /// The slot holding `key`, or the empty slot where it would go.
  size_t Probe(K key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull) >> shift_);
    while (slots_[i].key != key && slots_[i].key != kEmptyKey) {
      i = (i + 1) & mask;
    }
    return i;
  }

  uint64_t& Claim(Slot& slot, K key) {
    slot.key = key;
    ++size_;
    return slot.count;
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old(capacity, Slot{kEmptyKey, 0});
    old.swap(slots_);
    if (capacity == 0) return;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Slot& slot : old) {
      if (slot.key != kEmptyKey) slots_[Probe(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity)
  bool packed_ = false;  // see Pack()
};

}  // namespace metaprox::util

#endif  // METAPROX_UTIL_FLAT_COUNT_MAP_H_
