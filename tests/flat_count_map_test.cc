// util::FlatCountMap — the counting path's open-addressing table — against
// a std::map oracle: contents across several growths, once-per-key
// iteration, copies and assignments, and the refused sentinel key.
#include "util/flat_count_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "util/rng.h"

namespace metaprox::util {
namespace {

/// The map's contents as iteration reports them; fails the test if a key
/// is yielded twice.
template <typename K>
std::map<K, uint64_t> Walk(const FlatCountMap<K>& map) {
  std::map<K, uint64_t> seen;
  for (const auto& [key, count] : map) {
    EXPECT_TRUE(seen.emplace(key, count).second) << "key " << key << " twice";
  }
  EXPECT_EQ(seen.size(), map.size());
  return seen;
}

template <typename K>
void CheckAgainstOracle(uint64_t seed, uint64_t key_space, int key_shift) {
  Rng rng(seed);
  FlatCountMap<K> map;
  std::map<K, uint64_t> oracle;
  for (int op = 1; op <= 20000; ++op) {
    const K key = static_cast<K>(rng.UniformInt(key_space) << key_shift);
    const uint64_t add = 1 + rng.UniformInt(3);
    map[key] += add;
    oracle[key] += add;
    if (op % 997 == 0) {
      ASSERT_EQ(Walk(map), oracle) << "op " << op;
    }
  }
  // The table starts at 16 slots and fills at most half of them, so more
  // than 32 keys means at least three growths happened.
  EXPECT_GT(map.size(), 32u);
  EXPECT_EQ(Walk(map), oracle);
  // operator[] on a present key returns its count and inserts nothing.
  for (const auto& [key, count] : oracle) {
    ASSERT_EQ(map[key], count) << "key " << key;
  }
  EXPECT_EQ(map.size(), oracle.size());
}

TEST(FlatCountMap, MatchesAStdMapOracleAcrossGrowths) {
  // Dense low keys, like node ids, and keys that differ only in their
  // high 32 bits, like the pair keys of one node's pairs.
  CheckAgainstOracle<uint32_t>(1, 3000, 0);
  CheckAgainstOracle<uint64_t>(2, 3000, 0);
  CheckAgainstOracle<uint64_t>(3, 3000, 32);
}

TEST(FlatCountMap, OperatorBracketInsertsAtZero) {
  FlatCountMap<uint64_t> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.begin(), map.end());
  EXPECT_EQ(map[0], 0u);  // key 0 is an ordinary key
  EXPECT_EQ(map.size(), 1u);
  ++map[0];
  map[FlatCountMap<uint64_t>::kEmptyKey - 1] = 5;
  EXPECT_EQ(Walk(map), (std::map<uint64_t, uint64_t>{
                           {0, 1}, {FlatCountMap<uint64_t>::kEmptyKey - 1, 5}}));
}

TEST(FlatCountMap, CopiesAndAssignmentsHoldTheSameCounts) {
  Rng rng(4);
  FlatCountMap<uint32_t> original;
  for (int i = 0; i < 500; ++i) {
    original[static_cast<uint32_t>(rng.UniformInt(200))] += 1;
  }
  const auto contents = Walk(original);

  FlatCountMap<uint32_t> copy(original);
  EXPECT_EQ(Walk(copy), contents);

  FlatCountMap<uint32_t> assigned;
  assigned[12345] = 1;
  assigned = original;
  EXPECT_EQ(Walk(assigned), contents);

  // The copies are independent of the original and of each other.
  ++copy[contents.begin()->first];
  assigned[1000] = 1;
  EXPECT_EQ(Walk(original), contents);
  EXPECT_EQ(copy[contents.begin()->first], contents.begin()->second + 1);
  EXPECT_EQ(assigned.size(), contents.size() + 1);

  // The same counts inserted in reverse key order, into a table that grew
  // along a different path, iterate to the same contents.
  FlatCountMap<uint32_t> reversed;
  for (auto it = contents.rbegin(); it != contents.rend(); ++it) {
    reversed[it->first] = it->second;
  }
  EXPECT_EQ(Walk(reversed), contents);
}

TEST(FlatCountMap, PackKeepsCountsAndKeepsCounting) {
  Rng rng(5);
  FlatCountMap<uint64_t> map;
  std::map<uint64_t, uint64_t> oracle;
  auto count = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      const uint64_t key = rng.UniformInt(5000);
      ++map[key];
      ++oracle[key];
    }
  };
  count(4000);
  map.Pack();
  EXPECT_EQ(Walk(map), oracle);
  map.Pack();  // already packed: no change
  EXPECT_EQ(Walk(map), oracle);
  count(4000);  // new keys grow the packed table again
  EXPECT_EQ(Walk(map), oracle);
  const FlatCountMap<uint64_t> copy(map);  // copies stay packed
  EXPECT_EQ(Walk(copy), oracle);

  FlatCountMap<uint32_t> empty;
  empty.Pack();
  EXPECT_EQ(empty.begin(), empty.end());
  empty[7] = 2;
  empty.Pack();
  EXPECT_EQ(Walk(empty), (std::map<uint32_t, uint64_t>{{7, 2}}));
}

TEST(FlatCountMapDeathTest, RefusesTheSentinelKey) {
  FlatCountMap<uint64_t> pairs;
  EXPECT_DEATH(pairs[FlatCountMap<uint64_t>::kEmptyKey] += 1, "sentinel");
  FlatCountMap<uint32_t> nodes;
  nodes[1] = 1;
  EXPECT_DEATH(nodes[FlatCountMap<uint32_t>::kEmptyKey] += 1, "sentinel");
}

}  // namespace
}  // namespace metaprox::util
