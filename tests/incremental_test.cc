// The incremental-maintenance path end to end, offline side: GraphDelta
// append/apply determinism, the affected-metagraph computation that makes
// a refresh sound, IndexMaintainer refreshes that must be byte-identical
// to full rebuilds, snapshot pinning across generations, builder misuse
// errors, and the time-sliced arrival replay that feeds the bench and the
// server smoke.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/index_maintainer.h"
#include "datagen/arrival.h"
#include "datagen/facebook.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "test_helpers.h"

namespace metaprox {
namespace {

// A small matched engine over the facebook generator — the shared base
// of the maintainer tests (each test builds its own maintainer; the
// engine itself is never mutated).
struct Base {
  datagen::Dataset ds;
  std::unique_ptr<SearchEngine> engine;
  std::vector<NodeId> users;
};

const Base& SharedBase() {
  static const Base* base = [] {
    auto* b = new Base();
    datagen::FacebookConfig cfg;
    cfg.num_users = 100;
    b->ds = datagen::GenerateFacebook(cfg, 11);
    EngineOptions options;
    options.miner.anchor_type = b->ds.user_type;
    options.miner.min_support = 3;
    options.miner.max_nodes = 4;
    b->engine = std::make_unique<SearchEngine>(b->ds.graph, options);
    b->engine->Mine();
    b->engine->MatchAll();
    auto pool = b->ds.graph.NodesOfType(b->ds.user_type);
    b->users.assign(pool.begin(), pool.end());
    return b;
  }();
  return *base;
}

std::string IndexBytes(const MetagraphVectorIndex& index) {
  std::ostringstream os;
  EXPECT_TRUE(index.WriteTo(os).ok());
  return os.str();
}

/// Re-matches every metagraph of `engine` over `graph` from scratch — the
/// oracle a refresh must be indistinguishable from.
MetagraphVectorIndex RebuildAll(const SearchEngine& engine,
                                const Graph& graph) {
  const auto& mined = engine.metagraphs();
  MetagraphVectorIndex index(mined.size(), graph.num_nodes(),
                             engine.index().transform());
  auto matcher = CreateMatcher(engine.options().matcher);
  for (uint32_t i = 0; i < mined.size(); ++i) {
    SymPairCountingSink sink(mined[i].symmetry,
                             engine.options().embedding_cap);
    matcher->Match(graph, mined[i].graph, &sink);
    index.Commit(i, sink, mined[i].symmetry.aut_size());
  }
  index.Seal();
  index.Finalize();
  return index;
}

// ---- GraphDelta -----------------------------------------------------------

TEST(GraphDelta, AssignsIdsUpFrontAndValidatesEdges) {
  auto t = testing::MakeToyGraph();
  GraphDelta delta(t.graph.num_nodes());
  const NodeId a = delta.AddNode("user", "Zoe");
  const NodeId b = delta.AddNode("hobby", "Chess");
  EXPECT_EQ(a, t.graph.num_nodes());
  EXPECT_EQ(b, t.graph.num_nodes() + 1);

  EXPECT_TRUE(delta.AddEdge(t.alice, a).ok());   // existing <-> new
  EXPECT_TRUE(delta.AddEdge(a, b).ok());         // new <-> new
  EXPECT_FALSE(delta.AddEdge(a, a).ok());        // self-loop
  EXPECT_FALSE(delta.AddEdge(b + 1, a).ok());    // beyond the delta
  EXPECT_EQ(delta.edges.size(), 2u);
}

TEST(GraphDelta, ApplyEqualsFromScratchBuild) {
  auto t = testing::MakeToyGraph();
  GraphDelta delta(t.graph.num_nodes());
  const NodeId zoe = delta.AddNode("user", "Zoe");
  ASSERT_TRUE(delta.AddEdge(zoe, t.alice).ok());
  ASSERT_TRUE(delta.AddEdge(zoe, t.college_a).ok());
  ASSERT_TRUE(delta.AddEdge(t.tom, t.music).ok());  // between existing nodes

  auto grown = ApplyDelta(t.graph, delta);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();

  // From scratch: the toy graph's content plus the delta's, one builder.
  auto t2 = testing::MakeToyGraph();  // fresh builder state, same content
  GraphBuilder scratch;
  for (const std::string& name : t.graph.type_registry().names()) {
    scratch.InternType(name);
  }
  for (NodeId v = 0; v < t.graph.num_nodes(); ++v) {
    scratch.AddNode(t.graph.TypeOf(v), t.graph.NameOf(v));
  }
  const NodeId zoe2 = scratch.AddNode(t2.user, "Zoe");
  for (NodeId v = 0; v < t.graph.num_nodes(); ++v) {
    for (NodeId w : t.graph.Neighbors(v)) {
      if (v < w) {
        ASSERT_TRUE(scratch.AddEdge(v, w).ok());
      }
    }
  }
  ASSERT_TRUE(scratch.AddEdge(zoe2, t2.alice).ok());
  ASSERT_TRUE(scratch.AddEdge(zoe2, t2.college_a).ok());
  ASSERT_TRUE(scratch.AddEdge(t2.tom, t2.music).ok());
  Graph expected = scratch.Build();

  ASSERT_EQ(grown->num_nodes(), expected.num_nodes());
  ASSERT_EQ(grown->num_edges(), expected.num_edges());
  for (NodeId v = 0; v < expected.num_nodes(); ++v) {
    EXPECT_EQ(grown->TypeOf(v), expected.TypeOf(v)) << "node " << v;
    auto a = grown->Neighbors(v);
    auto b = expected.Neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "node " << v;
  }
}

TEST(GraphDelta, ApplyRefusesAMisprimedDelta) {
  auto t = testing::MakeToyGraph();
  GraphDelta delta(t.graph.num_nodes() + 3);  // primed against a bigger graph
  delta.AddNode("user");
  auto grown = ApplyDelta(t.graph, delta);
  EXPECT_FALSE(grown.ok());
}

// ---- GraphBuilder misuse --------------------------------------------------

TEST(GraphBuilder, AddEdgeAfterBuildIsAStructuredError) {
  GraphBuilder builder;
  const TypeId user = builder.InternType("user");
  const NodeId a = builder.AddNode(user);
  const NodeId b = builder.AddNode(user);
  ASSERT_TRUE(builder.AddEdge(a, b).ok());
  Graph g = builder.Build();
  EXPECT_EQ(g.num_edges(), 1u);

  auto status = builder.AddEdge(a, b);
  EXPECT_FALSE(status.ok());
  // The error must route the caller to the supported path.
  EXPECT_NE(status.ToString().find("GraphDelta"), std::string::npos)
      << status.ToString();

  // Build() hands its content to the graph; a fresh AddNode re-arms the
  // builder for a NEW graph from scratch (types re-interned).
  const TypeId user_again = builder.InternType("user");
  const NodeId c = builder.AddNode(user_again);
  const NodeId d = builder.AddNode(user_again);
  EXPECT_TRUE(builder.AddEdge(c, d).ok());
}

// ---- AffectedMetagraphs ---------------------------------------------------

TEST(AffectedMetagraphs, ExactlyTheTypePairMatches) {
  const Base& base = SharedBase();
  const Graph& g = base.ds.graph;
  const auto& mined = base.engine->metagraphs();
  ASSERT_FALSE(mined.empty());

  GraphDelta delta(g.num_nodes());
  ASSERT_TRUE(delta.AddEdge(base.users[0], base.users[1]).ok());

  const auto affected =
      IndexMaintainer::AffectedMetagraphs(g, mined, delta);
  // Independent oracle: a metagraph is affected iff it has a user-user
  // edge (the only type pair the delta adds).
  const TypeId user = base.ds.user_type;
  for (uint32_t i = 0; i < mined.size(); ++i) {
    bool has_pair = false;
    for (auto [a, b] : mined[i].graph.Edges()) {
      if (mined[i].graph.TypeOf(a) == user &&
          mined[i].graph.TypeOf(b) == user) {
        has_pair = true;
      }
    }
    const bool listed =
        std::find(affected.begin(), affected.end(), i) != affected.end();
    EXPECT_EQ(listed, has_pair) << "metagraph " << i;
  }
  EXPECT_TRUE(std::is_sorted(affected.begin(), affected.end()));

  // An empty delta affects nothing.
  GraphDelta none(g.num_nodes());
  EXPECT_TRUE(IndexMaintainer::AffectedMetagraphs(g, mined, none).empty());
}

// ---- IndexMaintainer ------------------------------------------------------

TEST(IndexMaintainer, RefreshIsByteIdenticalToFullRebuild) {
  const Base& base = SharedBase();
  IndexMaintainer maintainer(*base.engine);

  // A mixed delta: one new user wired into the graph plus a new edge
  // between existing users.
  const NodeId fresh = maintainer.AppendNode("user", "newcomer");
  EXPECT_EQ(fresh, base.ds.graph.num_nodes());
  ASSERT_TRUE(maintainer.AppendEdge(fresh, base.users[2]).ok());
  ASSERT_TRUE(maintainer.AppendEdge(fresh, base.users[5]).ok());
  ASSERT_TRUE(maintainer.AppendEdge(base.users[0], base.users[7]).ok());

  RefreshStats stats;
  auto refreshed = maintainer.Refresh(&stats);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(stats.appended_nodes, 1u);
  EXPECT_EQ(stats.appended_edges, 3u);
  EXPECT_GT(stats.affected_metagraphs, 0u);
  EXPECT_LE(stats.affected_metagraphs, base.engine->metagraphs().size());
  EXPECT_EQ((*refreshed)->generation(), 2u);
  EXPECT_EQ((*refreshed)->graph().num_nodes(),
            base.ds.graph.num_nodes() + 1);

  MetagraphVectorIndex rebuilt =
      RebuildAll(*base.engine, (*refreshed)->graph());
  EXPECT_EQ(IndexBytes((*refreshed)->index()), IndexBytes(rebuilt));
}

TEST(IndexMaintainer, RepeatedRefreshesStayByteIdentical) {
  const Base& base = SharedBase();
  IndexMaintainer maintainer(*base.engine);
  for (int round = 0; round < 3; ++round) {
    // Built in two steps: `"r" + std::to_string(...)` trips GCC 12's
    // bogus -Wrestrict on the rvalue operator+ overload.
    std::string name = "r";
    name += std::to_string(round);
    const NodeId fresh = maintainer.AppendNode("user", name);
    ASSERT_TRUE(
        maintainer.AppendEdge(fresh, base.users[round * 3]).ok());
    auto refreshed = maintainer.Refresh();
    ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    MetagraphVectorIndex rebuilt =
        RebuildAll(*base.engine, (*refreshed)->graph());
    ASSERT_EQ(IndexBytes((*refreshed)->index()), IndexBytes(rebuilt))
        << "round " << round;
  }
  EXPECT_EQ(maintainer.snapshot()->generation(), 4u);
}

TEST(IndexMaintainer, PinnedSnapshotsOutliveRefreshes) {
  const Base& base = SharedBase();
  IndexMaintainer maintainer(*base.engine);
  std::vector<double> w(base.engine->metagraphs().size(), 1.0);
  MgpModel model{w};

  auto pinned = maintainer.snapshot();
  const QueryResult before = pinned->Query(model, base.users[0], 10);

  ASSERT_TRUE(maintainer.AppendEdge(base.users[0], base.users[9]).ok());
  auto refreshed = maintainer.Refresh();
  ASSERT_TRUE(refreshed.ok());
  ASSERT_NE(pinned.get(), refreshed->get());

  // The pinned generation answers exactly as before the refresh.
  const QueryResult after = pinned->Query(model, base.users[0], 10);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].first, before[i].first);
    EXPECT_EQ(after[i].second, before[i].second);
  }
}

TEST(IndexMaintainer, AppendValidatesAgainstBufferedState) {
  const Base& base = SharedBase();
  IndexMaintainer maintainer(*base.engine);
  const size_t n = base.ds.graph.num_nodes();

  EXPECT_FALSE(maintainer.AppendEdge(0, 0).ok());
  EXPECT_FALSE(maintainer.AppendEdge(0, static_cast<NodeId>(n)).ok());

  // A delta primed against a stale node count is refused whole.
  GraphDelta stale(n + 5);
  stale.AddNode("user");
  EXPECT_FALSE(maintainer.Append(stale).ok());

  // Primed correctly, the same content is accepted — including an edge to
  // a node buffered by AppendNode before it.
  const NodeId buffered = maintainer.AppendNode("user");
  GraphDelta delta(maintainer.num_nodes());
  const NodeId added = delta.AddNode("user");
  ASSERT_TRUE(delta.AddEdge(buffered, added).ok());
  EXPECT_TRUE(maintainer.Append(delta).ok());
  EXPECT_EQ(maintainer.pending_nodes(), 2u);
  EXPECT_EQ(maintainer.pending_edges(), 1u);
}

TEST(IndexMaintainer, CapTruncatedRefreshesStayByteIdentical) {
  // An engine cap far below the 3M default, so cap-truncated metagraphs go
  // through Refresh: some saturate at the base (their ledgers are never
  // valid), and some outgrow the cap headroom their ledger leaves on a
  // later slice (the delta run saturates and falls back to a full
  // re-match). The maintainer inherits the cap from the engine.
  constexpr uint64_t kCap = 1000;
  const Base& base = SharedBase();
  datagen::ArrivalConfig config;
  config.num_slices = 3;
  auto timeline =
      datagen::SliceByArrival(base.ds.graph, base.ds.user_type, config);
  EngineOptions options = base.engine->options();
  options.embedding_cap = kCap;
  SearchEngine engine(timeline.base, options);
  engine.Mine();
  engine.MatchAll();
  const auto& mined = engine.metagraphs();

  // Uncapped embedding counts on every graph state of the timeline.
  std::vector<Graph> states = {timeline.base};
  for (const GraphDelta& slice : timeline.slices) {
    auto next = ApplyDelta(states.back(), slice);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    states.push_back(std::move(*next));
  }
  auto matcher = CreateMatcher(options.matcher);
  auto embeddings = [&](uint32_t i, size_t state) {
    CountingSink sink;
    matcher->Match(states[state], mined[i].graph, &sink);
    return sink.count();
  };

  IndexMaintainer maintainer(engine);
  EXPECT_EQ(maintainer.options().embedding_cap, kCap);
  // Mirrors the maintainer's ledger policy to predict the full re-matches:
  // one is due when the ledger is invalid or the grown count reaches the
  // cap; the ledger is valid afterwards iff the count stayed below it.
  std::vector<bool> ledger_valid(mined.size(), false);
  size_t saturated_at_base = 0;
  size_t headroom_fallbacks = 0;
  for (uint32_t i = 0; i < mined.size(); ++i) {
    saturated_at_base += embeddings(i, 0) >= kCap;
  }
  for (size_t r = 0; r < timeline.slices.size(); ++r) {
    size_t expected_full = 0;
    for (uint32_t i : IndexMaintainer::AffectedMetagraphs(
             states[r], mined, timeline.slices[r])) {
      const bool saturated = embeddings(i, r + 1) >= kCap;
      expected_full += !ledger_valid[i] || saturated;
      headroom_fallbacks += ledger_valid[i] && saturated;
      ledger_valid[i] = !saturated;
    }

    ASSERT_TRUE(maintainer.Append(timeline.slices[r]).ok());
    RefreshStats stats;
    auto refreshed = maintainer.Refresh(&stats);
    ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    ASSERT_EQ(IndexBytes((*refreshed)->index()),
              IndexBytes(RebuildAll(engine, (*refreshed)->graph())))
        << "refresh " << r;
    EXPECT_EQ(stats.affected_metagraphs - stats.delta_metagraphs,
              expected_full)
        << "refresh " << r;
    if (r > 0) {
      EXPECT_GT(stats.delta_metagraphs, 0u) << "refresh " << r;
      EXPECT_GT(stats.affected_metagraphs - stats.delta_metagraphs, 0u)
          << "refresh " << r;
    }
  }
  EXPECT_GT(saturated_at_base, 0u);
  EXPECT_GT(headroom_fallbacks, 0u);
}

// ---- the refresh merge, at the index level ---------------------------------

// The merge's semantics on hand-made counts: a two-node metagraph whose
// nodes are one symmetric pair (|Aut| = 1 here), so an "embedding" {a, b}
// adds 1 to the (a, b) pair row and to the a and b node rows. Each case
// builds a base index, refreshes it through OpenRefresh — the base owned
// or memory-mapped — and compares the result byte for byte with a
// from-scratch build of the new counts.
using Embeddings = std::vector<std::pair<NodeId, NodeId>>;

const SymmetryInfo& PairSymmetry() {
  static const SymmetryInfo* sym = [] {
    auto* s = new SymmetryInfo();
    s->automorphisms.resize(1);
    s->symmetric_pairs = {{0, 1}};
    s->is_symmetric = true;
    return s;
  }();
  return *sym;
}

std::unique_ptr<SymPairCountingSink> SinkOf(const Embeddings& embeddings) {
  auto sink = std::make_unique<SymPairCountingSink>(PairSymmetry(), UINT64_MAX);
  for (const auto& [a, b] : embeddings) {
    const NodeId e[2] = {a, b};
    sink->OnEmbedding(e);
  }
  return sink;
}

/// A finalized from-scratch build: metagraph i committed from counts[i].
MetagraphVectorIndex BuildFromCounts(size_t num_nodes,
                                     const std::vector<Embeddings>& counts) {
  MetagraphVectorIndex index(counts.size(), num_nodes, CountTransform::kRaw);
  for (uint32_t i = 0; i < counts.size(); ++i) {
    index.Commit(i, *SinkOf(counts[i]), 1);
  }
  index.Finalize();
  return index;
}

std::string BinaryBytes(const MetagraphVectorIndex& index) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(index.WriteBinaryTo(os, BinaryLayout::kAligned).ok());
  return os.str();
}

/// Upserts into `build` the keys that `delta` touches in metagraph i, each
/// at its total over `total` — what the maintainer's delta path commits.
void UpsertTouched(MetagraphVectorIndex& build, uint32_t i,
                   const Embeddings& delta, const Embeddings& total) {
  auto delta_sink = SinkOf(delta);
  auto total_sink = SinkOf(total);
  util::FlatCountMap<uint64_t> all_pairs = total_sink->pair_counts();
  util::FlatCountMap<NodeId> all_nodes = total_sink->node_counts();
  util::FlatCountMap<uint64_t> pairs;
  util::FlatCountMap<NodeId> nodes;
  for (const auto& slot : delta_sink->pair_counts()) {
    pairs[slot.key] = all_pairs[slot.key];
  }
  for (const auto& slot : delta_sink->node_counts()) {
    nodes[slot.key] = all_nodes[slot.key];
  }
  build.Upsert(i, pairs, nodes, 1);
}

class RefreshMerge : public ::testing::TestWithParam<testing::IndexRoundTrip> {
 protected:
  /// The base index over `num_nodes`, owned or mapped per the parameter.
  std::shared_ptr<const MetagraphVectorIndex> Base(
      size_t num_nodes, const std::vector<Embeddings>& counts) const {
    return std::make_shared<const MetagraphVectorIndex>(testing::ApplyRoundTrip(
        BuildFromCounts(num_nodes, counts), GetParam()));
  }

  static void ExpectSameBytes(const MetagraphVectorIndex& refreshed,
                              const MetagraphVectorIndex& rebuilt) {
    EXPECT_EQ(IndexBytes(refreshed), IndexBytes(rebuilt));
    EXPECT_EQ(BinaryBytes(refreshed), BinaryBytes(rebuilt));
    EXPECT_EQ(refreshed.num_pairs(), rebuilt.num_pairs());
  }
};

INSTANTIATE_TEST_SUITE_P(
    Bases, RefreshMerge,
    ::testing::Values(testing::IndexRoundTrip::kDirect,
                      testing::IndexRoundTrip::kMapped),
    [](const ::testing::TestParamInfo<testing::IndexRoundTrip>& info) {
      return testing::IndexRoundTripName(info.param);
    });

TEST_P(RefreshMerge, UpsertOfAnExistingKey) {
  const std::vector<Embeddings> before = {{{0, 1}, {1, 2}}, {{0, 1}, {2, 3}}};
  const Embeddings delta = {{0, 1}};
  std::vector<Embeddings> after = before;
  after[0].insert(after[0].end(), delta.begin(), delta.end());

  auto base = Base(4, before);
  MetagraphVectorIndex build = MetagraphVectorIndex::OpenRefresh(base, 4);
  UpsertTouched(build, 0, delta, after[0]);
  build.Finalize();
  EXPECT_FLOAT_EQ(build.PairRow(0)[0].second, 2.0f);  // (0, 1), metagraph 0
  ExpectSameBytes(build, BuildFromCounts(4, after));
}

TEST_P(RefreshMerge, NewKeysIncludingAppendedNodes) {
  const std::vector<Embeddings> before = {{{0, 1}}, {{1, 2}, {2, 3}}};
  // New keys between old nodes, and between old and appended nodes 4, 5.
  const Embeddings delta = {{0, 3}, {2, 5}, {4, 5}, {1, 2}};
  std::vector<Embeddings> after = before;
  after[1].insert(after[1].end(), delta.begin(), delta.end());

  auto base = Base(4, before);
  MetagraphVectorIndex build = MetagraphVectorIndex::OpenRefresh(base, 6);
  UpsertTouched(build, 1, delta, after[1]);
  build.Finalize();
  EXPECT_EQ(build.num_graph_nodes(), 6u);
  EXPECT_EQ(build.Candidates(5).size(), 2u);
  ExpectSameBytes(build, BuildFromCounts(6, after));
}

TEST_P(RefreshMerge, ReplacedMetagraphDropsRowsAndSlots) {
  // Pair (1, 3) and node 3 carry only metagraph 1; its new run drops them
  // and moves to (4, 5) on appended nodes.
  const std::vector<Embeddings> before = {{{0, 1}, {0, 2}},
                                          {{0, 1}, {1, 3}, {1, 3}},
                                          {{0, 2}}};
  std::vector<Embeddings> after = before;
  after[1] = {{0, 1}, {0, 1}, {4, 5}};

  auto base = Base(4, before);
  ASSERT_EQ(base->num_pairs(), 3u);
  MetagraphVectorIndex build = MetagraphVectorIndex::OpenRefresh(base, 6);
  build.Commit(1, *SinkOf(after[1]), 1);
  build.Finalize();
  EXPECT_TRUE(build.NodeRow(3).empty());
  EXPECT_TRUE(build.Candidates(3).empty());
  EXPECT_EQ(build.num_pairs(), 3u);  // (0,1), (0,2), (4,5): (1,3) is gone
  ExpectSameBytes(build, BuildFromCounts(6, after));

  // Emptied completely, the metagraph's rows and slots all vanish.
  after[1].clear();
  MetagraphVectorIndex emptied = MetagraphVectorIndex::OpenRefresh(base, 6);
  emptied.Commit(1, *SinkOf({}), 1);
  emptied.Finalize();
  ExpectSameBytes(emptied, BuildFromCounts(6, after));
}

TEST_P(RefreshMerge, RefreshWithoutAppendsRepublishesIdenticalBytes) {
  const std::vector<Embeddings> counts = {{{0, 1}, {1, 2}}, {{2, 3}}, {}};
  auto base = Base(4, counts);
  MetagraphVectorIndex build = MetagraphVectorIndex::OpenRefresh(base, 4);
  build.Finalize();
  ExpectSameBytes(build, *base);
  ExpectSameBytes(build, BuildFromCounts(4, counts));
  for (uint32_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(build.IsCommitted(i), base->IsCommitted(i));
  }
}

// ---- arrival timelines ----------------------------------------------------

TEST(ArrivalTimeline, ReplayReconstructsTheFullDataset) {
  const Base& base = SharedBase();
  const Graph& full = base.ds.graph;
  datagen::ArrivalConfig config;
  config.num_slices = 3;
  config.base_fraction = 0.5;
  auto timeline =
      datagen::SliceByArrival(full, base.ds.user_type, config);
  ASSERT_EQ(timeline.slices.size(), 3u);
  EXPECT_LT(timeline.base.num_nodes(), full.num_nodes());

  // Only anchor-type nodes arrive late; infrastructure is in the base.
  for (TypeId t = 0; t < full.num_types(); ++t) {
    if (t == base.ds.user_type) continue;
    EXPECT_EQ(timeline.base.CountOfType(t), full.CountOfType(t))
        << "type " << t;
  }

  Graph grown = timeline.base;
  for (const GraphDelta& slice : timeline.slices) {
    EXPECT_FALSE(slice.empty());
    ASSERT_EQ(slice.base_nodes(), grown.num_nodes());
    auto next = ApplyDelta(grown, slice);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    grown = std::move(*next);
  }

  // Fully replayed, the graph is the full dataset under a renumbering:
  // same sizes, same per-type node counts, same per-type-pair edge
  // counts, same sorted degree sequence.
  ASSERT_EQ(grown.num_nodes(), full.num_nodes());
  ASSERT_EQ(grown.num_edges(), full.num_edges());
  for (TypeId t = 0; t < full.num_types(); ++t) {
    EXPECT_EQ(grown.CountOfType(t), full.CountOfType(t)) << "type " << t;
    for (TypeId u = t; u < full.num_types(); ++u) {
      EXPECT_EQ(grown.EdgeCountBetweenTypes(t, u),
                full.EdgeCountBetweenTypes(t, u))
          << "types " << t << "," << u;
    }
  }
  std::vector<size_t> a(grown.num_nodes()), b(full.num_nodes());
  for (NodeId v = 0; v < full.num_nodes(); ++v) {
    a[v] = grown.Degree(v);
    b[v] = full.Degree(v);
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(ArrivalTimeline, RefreshingThroughATimelineMatchesRebuilds) {
  // The bench's gate in miniature: maintain the base engine through every
  // slice and byte-check against a rebuild at the end state.
  const Base& base = SharedBase();
  datagen::ArrivalConfig config;
  config.num_slices = 2;
  auto timeline =
      datagen::SliceByArrival(base.ds.graph, base.ds.user_type, config);

  EngineOptions options = base.engine->options();
  SearchEngine engine(timeline.base, options);
  engine.Mine();
  engine.MatchAll();
  IndexMaintainer maintainer(engine);
  for (const GraphDelta& slice : timeline.slices) {
    ASSERT_TRUE(maintainer.Append(slice).ok());
    auto refreshed = maintainer.Refresh();
    ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    MetagraphVectorIndex rebuilt =
        RebuildAll(engine, (*refreshed)->graph());
    ASSERT_EQ(IndexBytes((*refreshed)->index()), IndexBytes(rebuilt));
  }
  EXPECT_EQ(maintainer.snapshot()->graph().num_nodes(),
            base.ds.graph.num_nodes());
}

}  // namespace
}  // namespace metaprox
