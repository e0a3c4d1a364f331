#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/engine.h"
#include "datagen/facebook.h"
#include "matching/matcher.h"
#include "mining/mined_set_io.h"
#include "test_helpers.h"

namespace metaprox {
namespace {

TEST(MinedSetIo, RoundTrip) {
  auto toy = testing::MakeToyGraph();
  MinerOptions options;
  options.anchor_type = toy.user;
  options.min_support = 1;
  options.max_nodes = 4;
  auto mined = MineMetagraphs(toy.graph, options);
  ASSERT_FALSE(mined.empty());

  std::ostringstream os;
  ASSERT_TRUE(WriteMinedMetagraphs(mined, os).ok());
  std::istringstream is(os.str());
  auto loaded = ReadMinedMetagraphs(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded->size(), mined.size());
  for (size_t i = 0; i < mined.size(); ++i) {
    EXPECT_TRUE((*loaded)[i].graph == mined[i].graph);
    EXPECT_EQ((*loaded)[i].support, mined[i].support);
    EXPECT_EQ((*loaded)[i].is_path, mined[i].is_path);
    EXPECT_EQ((*loaded)[i].symmetry.symmetric_pairs,
              mined[i].symmetry.symmetric_pairs);
    EXPECT_EQ((*loaded)[i].symmetry.aut_size(), mined[i].symmetry.aut_size());
  }
}

TEST(MinedSetIo, RejectsGarbage) {
  std::istringstream is("not a metagraph file\n");
  EXPECT_FALSE(ReadMinedMetagraphs(is).ok());
  std::istringstream is2("metaprox-metagraphs v1\n1\n99 0 0\n");
  EXPECT_FALSE(ReadMinedMetagraphs(is2).ok());
}

// ---- index round trips, one per persistence format -------------------------
//
// Both formats are exact: text prints float counts with 9 significant
// digits (lossless for binary32) and binary stores the raw bits, so a
// restored index must agree with the original BITWISE — hence EXPECT_EQ
// on the dots, not EXPECT_NEAR.
class IndexIoTest : public ::testing::TestWithParam<testing::IndexRoundTrip> {};

INSTANTIATE_TEST_SUITE_P(
    Formats, IndexIoTest,
    ::testing::Values(testing::IndexRoundTrip::kText,
                      testing::IndexRoundTrip::kBinaryCompact,
                      testing::IndexRoundTrip::kBinaryAligned,
                      testing::IndexRoundTrip::kMapped),
    [](const ::testing::TestParamInfo<testing::IndexRoundTrip>& info) {
      return testing::IndexRoundTripName(info.param);
    });

TEST_P(IndexIoTest, RoundTripPreservesDots) {
  auto toy = testing::MakeToyGraph();
  std::vector<Metagraph> metagraphs = {
      MakePath({toy.user, toy.school, toy.user}),
      MakePath({toy.user, toy.address, toy.user}),
      MakePath({toy.user, toy.employer, toy.user})};
  auto build = [&] {
    MetagraphVectorIndex index(metagraphs.size(), toy.graph.num_nodes(),
                               CountTransform::kLog1p);
    auto matcher = CreateMatcher(MatcherKind::kSymISO);
    for (uint32_t i = 0; i < 2; ++i) {  // leave metagraph 2 uncommitted
      SymmetryInfo sym = AnalyzeSymmetry(metagraphs[i]);
      SymPairCountingSink sink(sym, UINT64_MAX);
      matcher->Match(toy.graph, metagraphs[i], &sink);
      index.Commit(i, sink, sym.aut_size());
    }
    index.Finalize();
    return index;
  };
  MetagraphVectorIndex index = build();
  MetagraphVectorIndex loaded = testing::ApplyRoundTrip(build(), GetParam());

  EXPECT_EQ(loaded.num_metagraphs(), index.num_metagraphs());
  EXPECT_EQ(loaded.num_graph_nodes(), index.num_graph_nodes());
  EXPECT_EQ(loaded.num_pairs(), index.num_pairs());
  EXPECT_TRUE(loaded.finalized());
  EXPECT_TRUE(loaded.IsCommitted(0));
  EXPECT_TRUE(loaded.IsCommitted(1));
  EXPECT_FALSE(loaded.IsCommitted(2));
  EXPECT_EQ(loaded.is_mapped(), GetParam() == testing::IndexRoundTrip::kMapped);

  std::vector<double> w = {0.5, 0.9, 0.3};
  for (NodeId x = 0; x < toy.graph.num_nodes(); ++x) {
    EXPECT_EQ(loaded.NodeDot(x, w), index.NodeDot(x, w)) << "node " << x;
    for (NodeId y = 0; y < toy.graph.num_nodes(); ++y) {
      EXPECT_EQ(loaded.PairDot(x, y, w), index.PairDot(x, y, w))
          << "pair (" << x << ", " << y << ")";
    }
  }
  // Candidate postings rebuilt identically (as sets).
  for (NodeId x = 0; x < toy.graph.num_nodes(); ++x) {
    auto a = loaded.Candidates(x);
    auto b = index.Candidates(x);
    std::vector<NodeId> va(a.begin(), a.end()), vb(b.begin(), b.end());
    std::sort(va.begin(), va.end());
    std::sort(vb.begin(), vb.end());
    EXPECT_EQ(va, vb);
  }
}

TEST(IndexIo, RejectsBadHeader) {
  std::istringstream is("wrong\n");
  EXPECT_FALSE(MetagraphVectorIndex::ReadFrom(is).ok());
}

// ---- engine save/load, one per (format, layout, load mode) -----------------

struct SaveLoadParam {
  const char* name;
  util::ArtifactFormat format;
  BinaryLayout layout;
  bool use_mmap;     // ArtifactOptions.use_mmap on restore
  bool expect_mmap;  // restored.index().is_mapped()
};

class EngineOfflineTest : public ::testing::TestWithParam<SaveLoadParam> {};

INSTANTIATE_TEST_SUITE_P(
    Formats, EngineOfflineTest,
    ::testing::Values(
        SaveLoadParam{"Text", util::ArtifactFormat::kText,
                      BinaryLayout::kCompact, false, false},
        SaveLoadParam{"BinaryCompact", util::ArtifactFormat::kBinary,
                      BinaryLayout::kCompact, false, false},
        SaveLoadParam{"BinaryAligned", util::ArtifactFormat::kBinary,
                      BinaryLayout::kAligned, false, false},
        SaveLoadParam{"BinaryAlignedMmap", util::ArtifactFormat::kBinary,
                      BinaryLayout::kAligned, true, true},
        // --mmap on a compact artifact falls back to the eager load.
        SaveLoadParam{"BinaryCompactMmapFallback", util::ArtifactFormat::kBinary,
                      BinaryLayout::kCompact, true, false},
        // --mmap on a text artifact likewise.
        SaveLoadParam{"TextMmapFallback", util::ArtifactFormat::kText,
                      BinaryLayout::kCompact, true, false}),
    [](const ::testing::TestParamInfo<SaveLoadParam>& info) {
      return info.param.name;
    });

TEST_P(EngineOfflineTest, SaveLoadRoundTrip) {
  const SaveLoadParam& param = GetParam();
  datagen::FacebookConfig cfg;
  cfg.num_users = 150;
  auto ds = datagen::GenerateFacebook(cfg, 5);

  EngineOptions options;
  options.miner.anchor_type = ds.user_type;
  options.miner.min_support = 3;
  options.miner.max_nodes = 4;
  SearchEngine engine(ds.graph, options);
  engine.Mine();
  engine.MatchAll();

  const std::string prefix = testing::UniqueTempPath("offline_phase");
  ArtifactOptions artifact_options;
  artifact_options.format = param.format;
  artifact_options.layout = param.layout;
  ASSERT_TRUE(engine.SaveOffline(prefix, artifact_options).ok());

  SearchEngine restored(ds.graph, options);
  artifact_options.use_mmap = param.use_mmap;
  ASSERT_TRUE(restored.LoadOffline(prefix, artifact_options).ok());
  ASSERT_EQ(restored.metagraphs().size(), engine.metagraphs().size());
  EXPECT_EQ(restored.index().is_mapped(), param.expect_mmap);

  // Queries against the restored engine match the original EXACTLY: both
  // formats round-trip the stored counts bit for bit and the scoring path
  // is shared, so node order, scores and tie-breaks must all agree.
  std::vector<double> w(engine.metagraphs().size(), 1.0);
  MgpModel model{w};
  auto users = ds.graph.NodesOfType(ds.user_type);
  int compared = 0;
  for (size_t i = 0; i < users.size() && compared < 20; i += 7, ++compared) {
    auto a = engine.Query(model, users[i], 5);
    auto b = restored.Query(model, users[i], 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].first, b[j].first);
      EXPECT_EQ(a[j].second, b[j].second);
    }
  }
}

TEST(EngineOffline, LoadMissingFilesFails) {
  datagen::FacebookConfig cfg;
  cfg.num_users = 80;
  auto ds = datagen::GenerateFacebook(cfg, 6);
  EngineOptions options;
  options.miner.anchor_type = ds.user_type;
  SearchEngine engine(ds.graph, options);
  EXPECT_FALSE(engine.LoadOffline("/nonexistent/prefix").ok());
}

}  // namespace
}  // namespace metaprox
