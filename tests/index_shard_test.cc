// Concurrent vector-index commits: the sealed and the finalized index (and
// their serialized form) must be byte-identical to the serial build for
// any number of committing threads and any commit order/interleaving, and
// the Commit/Seal/Finalize lifecycle guards must hold.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/facebook.h"
#include "index/metagraph_vectors.h"
#include "matching/matcher.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace metaprox {
namespace {

std::string SerializeIndex(const MetagraphVectorIndex& index) {
  std::ostringstream out;
  auto status = index.WriteTo(out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out.str();
}

datagen::Dataset MakeDataset(uint32_t num_users = 140, uint64_t seed = 31) {
  datagen::FacebookConfig cfg;
  cfg.num_users = num_users;
  return datagen::GenerateFacebook(cfg, seed);
}

EngineOptions MakeOptions(const datagen::Dataset& ds, unsigned num_threads) {
  EngineOptions options;
  options.miner.anchor_type = ds.user_type;
  options.miner.min_support = 3;
  options.miner.max_nodes = 4;
  options.num_threads = num_threads;
  return options;
}

// ---- engine-level determinism across thread counts -----------------------

class ThreadDeterminism : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadDeterminism, SerialBuildEqualsParallelBuild) {
  const unsigned threads = GetParam();
  datagen::Dataset ds = MakeDataset();

  SearchEngine serial(ds.graph, MakeOptions(ds, /*threads=*/1));
  serial.Mine();
  serial.MatchAll();
  const std::string reference = SerializeIndex(serial.index());
  ASSERT_GT(serial.metagraphs().size(), 5u);

  SearchEngine engine(ds.graph, MakeOptions(ds, threads));
  engine.Mine();
  engine.MatchAll();
  ASSERT_EQ(engine.metagraphs().size(), serial.metagraphs().size());
  EXPECT_EQ(SerializeIndex(engine.index()), reference)
      << "index built with " << threads
      << " threads diverged from the serial build";
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ThreadDeterminism,
                         ::testing::Values<unsigned>(2, 3, 8));

// ---- index-level concurrent commits --------------------------------------

// Builds the per-metagraph sinks once (serially), then commits them into a
// fresh index, optionally from many pool threads at once and in reverse
// order. Whatever the interleaving, Seal() + Finalize() must converge to
// the same bytes.
class SinkSet {
 public:
  explicit SinkSet(const testing::ToyGraph& toy) : toy_(toy) {
    metagraphs_ = {MakePath({toy.user, toy.address, toy.user}),
                   MakePath({toy.user, toy.school, toy.user}),
                   MakePath({toy.user, toy.major, toy.user}),
                   MakePath({toy.user, toy.employer, toy.user}),
                   MakePath({toy.user, toy.hobby, toy.user})};
    auto matcher = CreateMatcher(MatcherKind::kSymISO);
    for (const Metagraph& m : metagraphs_) {
      syms_.push_back(AnalyzeSymmetry(m));
    }
    for (size_t i = 0; i < metagraphs_.size(); ++i) {
      sinks_.push_back(
          std::make_unique<SymPairCountingSink>(syms_[i], UINT64_MAX));
      matcher->Match(toy.graph, metagraphs_[i], sinks_.back().get());
    }
  }

  size_t size() const { return metagraphs_.size(); }

  void Commit(MetagraphVectorIndex& index, size_t i) const {
    index.Commit(static_cast<uint32_t>(i), *sinks_[i], syms_[i].aut_size());
  }

  MetagraphVectorIndex MakeIndex() const {
    return MetagraphVectorIndex(size(), toy_.graph.num_nodes(),
                                CountTransform::kRaw);
  }

 private:
  const testing::ToyGraph& toy_;
  std::vector<Metagraph> metagraphs_;
  std::vector<SymmetryInfo> syms_;
  std::vector<std::unique_ptr<SymPairCountingSink>> sinks_;
};

TEST(IndexCommit, ConcurrentCommitsMatchSerialBytes) {
  auto toy = testing::MakeToyGraph();
  SinkSet sinks(toy);

  MetagraphVectorIndex serial = sinks.MakeIndex();
  for (size_t i = 0; i < sinks.size(); ++i) sinks.Commit(serial, i);
  serial.Seal();
  serial.Finalize();
  const std::string reference = SerializeIndex(serial);

  for (size_t threads : {1u, 2u, 3u, 8u}) {
    util::ThreadPool pool(threads);
    MetagraphVectorIndex index = sinks.MakeIndex();
    std::vector<std::future<void>> futures;
    // Reverse order, all in flight at once.
    for (size_t i = sinks.size(); i-- > 0;) {
      futures.push_back(
          pool.Submit([&index, &sinks, i] { sinks.Commit(index, i); }));
    }
    for (auto& f : futures) f.get();
    index.Seal();
    EXPECT_EQ(SerializeIndex(index), reference)
        << "pre-finalize serialization diverged with " << threads
        << " committing threads";
    index.Finalize();
    EXPECT_EQ(SerializeIndex(index), reference)
        << "finalized serialization diverged with " << threads
        << " committing threads";
    EXPECT_EQ(index.num_pairs(), serial.num_pairs());
  }
}

TEST(IndexCommit, RoundTripThroughReadFrom) {
  auto toy = testing::MakeToyGraph();
  SinkSet sinks(toy);
  MetagraphVectorIndex index = sinks.MakeIndex();
  for (size_t i = 0; i < sinks.size(); ++i) sinks.Commit(index, i);
  index.Seal();
  index.Finalize();

  std::istringstream is(SerializeIndex(index));
  auto loaded = MetagraphVectorIndex::ReadFrom(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->finalized());
  EXPECT_EQ(SerializeIndex(*loaded), SerializeIndex(index));
}

// ---- lifecycle guards ----------------------------------------------------

TEST(IndexCommitDeathTest, FinalizeTwiceAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto toy = testing::MakeToyGraph();
  MetagraphVectorIndex index(1, toy.graph.num_nodes(), CountTransform::kRaw);
  index.Finalize();
  EXPECT_DEATH(index.Finalize(), "Finalize\\(\\) called twice");
}

TEST(IndexCommitDeathTest, CommitAfterFinalizeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto toy = testing::MakeToyGraph();
  SinkSet sinks(toy);
  MetagraphVectorIndex index = sinks.MakeIndex();
  sinks.Commit(index, 0);
  index.Finalize();
  EXPECT_DEATH(sinks.Commit(index, 1), "Commit\\(\\) after Finalize\\(\\)");
}

TEST(IndexCommitDeathTest, DoubleCommitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto toy = testing::MakeToyGraph();
  SinkSet sinks(toy);
  MetagraphVectorIndex index = sinks.MakeIndex();
  sinks.Commit(index, 0);
  EXPECT_DEATH(sinks.Commit(index, 0), "committed twice");
}

TEST(IndexCommit, SealIsIdempotentAndSafeAfterFinalize) {
  auto toy = testing::MakeToyGraph();
  SinkSet sinks(toy);
  MetagraphVectorIndex index = sinks.MakeIndex();
  for (size_t i = 0; i < sinks.size(); ++i) sinks.Commit(index, i);
  index.Seal();
  index.Seal();  // no-op
  const std::string sealed = SerializeIndex(index);
  index.Finalize();
  index.Seal();  // no-op after finalize
  EXPECT_EQ(SerializeIndex(index), sealed);
}

}  // namespace
}  // namespace metaprox
