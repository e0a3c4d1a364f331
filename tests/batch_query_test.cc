// The batched online path's determinism contract for single-model batches:
// the one batch path (IndexSnapshot::BatchQueryMulti /
// BatchRankByProximityMulti) with one weight vector and an all-zero
// model_of must return results IDENTICAL — same nodes, same (bitwise)
// scores, same tie-break order — to N independent Query() calls, for every
// batch size, batch composition (duplicates, empty, no-candidate queries,
// k beyond the candidate set, windows of mostly-mutual candidates) and
// thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "baselines/simple.h"
#include "core/engine.h"
#include "core/query_batch.h"
#include "datagen/facebook.h"
#include "eval/splits.h"
#include "test_helpers.h"

namespace metaprox {
namespace {

struct Pipeline {
  datagen::Dataset ds;
  std::unique_ptr<SearchEngine> engine;
  MgpModel model;
  std::vector<NodeId> users;
};

// One matched engine + a trained model, shared by every test (the batch
// path only reads the finalized index, so reuse is safe).
const Pipeline& SharedPipeline() {
  static const Pipeline* pipeline = [] {
    auto* p = new Pipeline();
    datagen::FacebookConfig cfg;
    cfg.num_users = 220;
    p->ds = datagen::GenerateFacebook(cfg, 47);

    EngineOptions options;
    options.miner.anchor_type = p->ds.user_type;
    options.miner.min_support = 3;
    options.miner.max_nodes = 4;
    options.num_threads = 4;
    p->engine = std::make_unique<SearchEngine>(p->ds.graph, options);
    p->engine->Mine();
    p->engine->MatchAll();

    const GroundTruth* family = p->ds.FindClass("family");
    MX_CHECK(family != nullptr);
    util::Rng rng(9);
    QuerySplit split = SplitQueries(*family, 0.2, rng);
    auto pool = p->ds.graph.NodesOfType(p->ds.user_type);
    std::vector<NodeId> pool_vec(pool.begin(), pool.end());
    auto examples = SampleExamples(*family, split.train, pool_vec, 150, rng);
    TrainOptions train;
    train.max_iterations = 200;
    p->model = p->engine->Train(examples, train);

    p->users.assign(pool.begin(), pool.end());
    return p;
  }();
  return *pipeline;
}

// First `n` user nodes, cycling when n exceeds the pool.
std::vector<NodeId> QueriesOf(size_t n) {
  const Pipeline& p = SharedPipeline();
  std::vector<NodeId> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) queries.push_back(p.users[i % p.users.size()]);
  return queries;
}

// The one batch path at N = 1: one weight vector, every query on model 0.
std::vector<QueryResult> BatchOneModel(std::span<const NodeId> queries,
                                       size_t k,
                                       util::ThreadPool* pool = nullptr,
                                       BatchMultiStats* stats = nullptr) {
  const Pipeline& p = SharedPipeline();
  const std::span<const double> weights[] = {p.model.weights};
  const std::vector<uint32_t> model_of(queries.size(), 0);
  return p.engine->Snapshot()->BatchQueryMulti(weights, queries, model_of, k,
                                               pool, nullptr, stats);
}

// Exact equality, element for element: same nodes, bitwise-same scores.
void ExpectIdenticalToSequential(std::span<const NodeId> queries, size_t k,
                                 const std::vector<QueryResult>& batched) {
  const Pipeline& p = SharedPipeline();
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult sequential = p.engine->Query(p.model, queries[i], k);
    ASSERT_EQ(batched[i].size(), sequential.size())
        << "query #" << i << " (node " << queries[i] << ")";
    for (size_t r = 0; r < sequential.size(); ++r) {
      EXPECT_EQ(batched[i][r].first, sequential[r].first)
          << "query #" << i << " rank " << r;
      EXPECT_EQ(batched[i][r].second, sequential[r].second)
          << "query #" << i << " rank " << r;
    }
  }
}

TEST(BatchQuery, IdenticalToSequentialAcrossBatchSizesAndThreads) {
  util::ThreadPool one_thread(1);
  util::ThreadPool four_threads(4);
  const std::vector<std::pair<const char*, util::ThreadPool*>> pools = {
      {"no pool", nullptr}, {"1 thread", &one_thread},
      {"4 threads", &four_threads}};
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
    const std::vector<NodeId> queries = QueriesOf(batch_size);
    for (const auto& [name, pool] : pools) {
      SCOPED_TRACE(::testing::Message()
                   << "batch " << batch_size << ", " << name);
      auto batched = BatchOneModel(queries, /*k=*/10, pool);
      ExpectIdenticalToSequential(queries, 10, batched);
    }
  }
}

TEST(BatchQuery, EmptyBatchReturnsEmpty) {
  util::ThreadPool four_threads(4);
  BatchMultiStats stats;
  stats.rows_gathered = 99;  // must be reset even on the empty path
  EXPECT_TRUE(BatchOneModel({}, 10, &four_threads, &stats).empty());
  EXPECT_EQ(stats.rows_gathered, 0u);
}

TEST(BatchQuery, DuplicateQueryNodesEachGetTheSharedResult) {
  const Pipeline& p = SharedPipeline();
  // Every duplicate must carry the full result, aligned with its position.
  const std::vector<NodeId> queries = {p.users[3], p.users[8], p.users[3],
                                       p.users[3], p.users[8]};
  auto batched = BatchOneModel(queries, 10);
  ExpectIdenticalToSequential(queries, 10, batched);
  EXPECT_EQ(batched[0], batched[2]);
  EXPECT_EQ(batched[0], batched[3]);
  EXPECT_EQ(batched[1], batched[4]);
}

TEST(BatchQuery, KLargerThanAnyCandidateSet) {
  const Pipeline& p = SharedPipeline();
  const std::vector<NodeId> queries = QueriesOf(7);
  const size_t huge_k = p.ds.graph.num_nodes() * 10;
  auto batched = BatchOneModel(queries, huge_k);
  ExpectIdenticalToSequential(queries, huge_k, batched);
  for (const auto& result : batched) {
    EXPECT_LT(result.size(), p.ds.graph.num_nodes());
  }
}

TEST(BatchQuery, QueryWithoutCandidatesRanksEmpty) {
  const Pipeline& p = SharedPipeline();
  // Non-anchor nodes never occupy symmetric positions, so they have no
  // pair slots and an empty candidate set.
  NodeId no_candidates = kInvalidNode;
  for (NodeId v = 0; v < p.ds.graph.num_nodes(); ++v) {
    if (p.engine->index().Candidates(v).empty()) {
      no_candidates = v;
      break;
    }
  }
  ASSERT_NE(no_candidates, kInvalidNode);
  const std::vector<NodeId> queries = {p.users[0], no_candidates, p.users[1]};
  auto batched = BatchOneModel(queries, 10);
  ExpectIdenticalToSequential(queries, 10, batched);
  EXPECT_TRUE(batched[1].empty());
}

// Large windows of users that are nearly all each other's candidates, on
// a 4-thread pool: most pair rows join two query nodes of the window, and
// each endpoint dots that row itself. Every result must be bitwise the
// per-query one.
TEST(BatchQuery, MutualWindowsOnFourThreadsMatchQuery) {
  util::ThreadPool four_threads(4);
  for (size_t window : {size_t{256}, size_t{300}}) {
    SCOPED_TRACE(::testing::Message() << "window " << window);
    const std::vector<NodeId> queries = QueriesOf(window);
    BatchMultiStats stats;
    auto batched = BatchOneModel(queries, /*k=*/10, &four_threads, &stats);
    ExpectIdenticalToSequential(queries, 10, batched);
    // One model: the union IS the per-model gather.
    EXPECT_EQ(stats.rows_per_model, stats.rows_gathered);
  }
}

TEST(BatchQuery, CandidateSlotsAlignWithCandidates) {
  const Pipeline& p = SharedPipeline();
  const MetagraphVectorIndex& index = p.engine->index();
  // SlotDot through the postings must agree with the per-pair hash path,
  // and the relation must be symmetric with one slot per pair.
  for (size_t i = 0; i < p.users.size(); i += 9) {
    const NodeId q = p.users[i];
    auto candidates = index.Candidates(q);
    auto slots = index.CandidateSlots(q);
    ASSERT_EQ(candidates.size(), slots.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      EXPECT_EQ(index.SlotDot(slots[c], p.model.weights),
                index.PairDot(q, candidates[c], p.model.weights));
      auto back = index.Candidates(candidates[c]);
      auto back_slots = index.CandidateSlots(candidates[c]);
      const auto it = std::find(back.begin(), back.end(), q);
      ASSERT_NE(it, back.end()) << q << " missing from its candidate's set";
      EXPECT_EQ(back_slots[static_cast<size_t>(it - back.begin())], slots[c]);
    }
  }
}

}  // namespace
}  // namespace metaprox
