// The shared-window multi-model batch's determinism contract:
// BatchRankByProximityMulti / IndexSnapshot::BatchQueryMulti must return,
// for every entry i, results IDENTICAL — same nodes, same (bitwise)
// scores, same tie-break order — to Query() under queries[i]'s own model,
// for every window size, model mix (including duplicates of a node across
// models), pool size and kernel. Also covers the gather-amortization
// stats and concurrent windows on distinct scratches (the TSan
// concurrency label).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

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
  // models[0] is trained; the rest are synthetic mixes that disagree with
  // it (so a query ranked under the wrong model would be caught).
  std::vector<MgpModel> models;
  std::vector<NodeId> users;
};

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
    p->models.push_back(p->engine->Train(examples, train));

    const size_t n = p->engine->index().num_metagraphs();
    MgpModel uniform, evens, odds, taper;
    uniform.weights.assign(n, 1.0);
    evens.weights.assign(n, 0.0);
    odds.weights.assign(n, 0.0);
    taper.weights.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (i % 2 == 0) evens.weights[i] = 1.0;
      if (i % 2 == 1) odds.weights[i] = 1.0;
      taper.weights[i] = 1.0 / static_cast<double>(1 + i % 7);
    }
    p->models.push_back(std::move(uniform));
    p->models.push_back(std::move(evens));
    p->models.push_back(std::move(odds));
    p->models.push_back(std::move(taper));

    p->users.assign(pool.begin(), pool.end());
    return p;
  }();
  return *pipeline;
}

// First n_models spans, as BatchRankByProximityMulti consumes them.
std::vector<std::span<const double>> WeightSpans(size_t n_models) {
  const Pipeline& p = SharedPipeline();
  MX_CHECK(n_models <= p.models.size());
  std::vector<std::span<const double>> spans;
  spans.reserve(n_models);
  for (size_t m = 0; m < n_models; ++m) spans.push_back(p.models[m].weights);
  return spans;
}

// A window of `n` queries cycling the user pool, striping models round
// robin over `n_models` so every window mixes every model.
struct Window {
  std::vector<NodeId> queries;
  std::vector<uint32_t> model_of;
};

Window WindowOf(size_t n, size_t n_models) {
  const Pipeline& p = SharedPipeline();
  Window w;
  for (size_t i = 0; i < n; ++i) {
    w.queries.push_back(p.users[i % p.users.size()]);
    w.model_of.push_back(static_cast<uint32_t>(i % n_models));
  }
  return w;
}

// Exact equality against the per-query path under each query's OWN model.
void ExpectIdenticalToQuery(const Window& w, size_t k,
                            const std::vector<QueryResult>& multi) {
  const Pipeline& p = SharedPipeline();
  ASSERT_EQ(multi.size(), w.queries.size());
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const QueryResult sequential =
        p.engine->Query(p.models[w.model_of[i]], w.queries[i], k);
    ASSERT_EQ(multi[i].size(), sequential.size())
        << "query #" << i << " (node " << w.queries[i] << ", model "
        << w.model_of[i] << ")";
    for (size_t r = 0; r < sequential.size(); ++r) {
      EXPECT_EQ(multi[i][r].first, sequential[r].first)
          << "query #" << i << " rank " << r;
      EXPECT_EQ(multi[i][r].second, sequential[r].second)
          << "query #" << i << " rank " << r;
    }
  }
}

TEST(MultiBatchQuery, MixedWindowsIdenticalToQueryAcrossSizesModelsThreads) {
  const Pipeline& p = SharedPipeline();
  util::ThreadPool one_thread(1);
  util::ThreadPool four_threads(4);
  const std::vector<std::pair<const char*, util::ThreadPool*>> pools = {
      {"no pool", nullptr}, {"1 thread", &one_thread},
      {"4 threads", &four_threads}};
  for (size_t window : {size_t{1}, size_t{7}, size_t{40}, size_t{64}}) {
    for (size_t n_models : {size_t{1}, size_t{2}, size_t{5}}) {
      const Window w = WindowOf(window, n_models);
      const auto spans = WeightSpans(n_models);
      for (const auto& [name, pool] : pools) {
        SCOPED_TRACE(::testing::Message() << "window " << window << ", "
                                          << n_models << " models, " << name);
        auto multi = BatchRankByProximityMulti(
            p.engine->index(), spans, w.queries, w.model_of, /*k=*/10, pool);
        ExpectIdenticalToQuery(w, 10, multi);
      }
    }
  }
}

TEST(MultiBatchQuery, DuplicateNodesAcrossModelsScoreUnderTheirOwnModel) {
  const Pipeline& p = SharedPipeline();
  // The SAME node queried under several models in one window (the serving
  // case this path exists for), plus exact (node, model) duplicates that
  // must share one result.
  Window w;
  const NodeId a = p.users[3];
  const NodeId b = p.users[8];
  w.queries = {a, a, a, b, a, b};
  w.model_of = {0, 2, 0, 1, 4, 1};
  auto multi = BatchRankByProximityMulti(p.engine->index(), WeightSpans(5),
                                         w.queries, w.model_of, /*k=*/10);
  ExpectIdenticalToQuery(w, 10, multi);
  EXPECT_EQ(multi[0], multi[2]);  // (a, model 0) duplicated
  EXPECT_EQ(multi[3], multi[5]);  // (b, model 1) duplicated
}

TEST(MultiBatchQuery, SnapshotReusesCallerScratchAcrossMixedCalls) {
  const Pipeline& p = SharedPipeline();
  const std::shared_ptr<const IndexSnapshot> snap = p.engine->Snapshot();
  util::ThreadPool four_threads(4);
  BatchScratch scratch;
  // Alternate windows of different model counts with one-model calls on
  // ONE caller-owned scratch: it must expire cleanly between layouts
  // (wrong expiry would surface as stale dots, i.e. wrong scores).
  for (size_t n_models : {size_t{5}, size_t{1}, size_t{3}}) {
    const Window w = WindowOf(30, n_models);
    auto multi = snap->BatchQueryMulti(WeightSpans(n_models), w.queries,
                                       w.model_of, 10, &four_threads,
                                       &scratch);
    ExpectIdenticalToQuery(w, 10, multi);
    const Window w0 = WindowOf(30, 1);
    auto single = snap->BatchQueryMulti(WeightSpans(1), w0.queries,
                                        w0.model_of, 10, &four_threads,
                                        &scratch);
    ExpectIdenticalToQuery(w0, 10, single);
  }
}

// The rows {q} U Candidates(q) of the window's queries under `model`
// (every model when `model` is negative), built without the batch path.
std::set<NodeId> RowsOf(const Window& w, int model) {
  const MetagraphVectorIndex& index = SharedPipeline().engine->index();
  std::set<NodeId> rows;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    if (model >= 0 && w.model_of[i] != static_cast<uint32_t>(model)) continue;
    rows.insert(w.queries[i]);
    for (NodeId y : index.Candidates(w.queries[i])) rows.insert(y);
  }
  return rows;
}

// rows_per_model is what STATS and servebench's server.rows_saved_frac
// report: it must be exactly the sum of each model's own row union, and
// rows_gathered exactly the window's union.
TEST(MultiBatchQuery, StatsAccountForSharedGather) {
  const Pipeline& p = SharedPipeline();
  const std::shared_ptr<const IndexSnapshot> snap = p.engine->Snapshot();
  util::ThreadPool four_threads(4);
  // A server-sized window of four models striped, plus an exact (node,
  // model) duplicate and users[1] (model 1 above) again under model 3,
  // where it adds rows no other model-3 query touches.
  Window w = WindowOf(8, 4);
  w.queries.push_back(p.users[2]);
  w.model_of.push_back(2);
  const size_t model3_rows = RowsOf(w, 3).size();
  w.queries.push_back(p.users[1]);
  w.model_of.push_back(3);
  ASSERT_GT(RowsOf(w, 3).size(), model3_rows);
  BatchMultiStats stats;
  auto multi = snap->BatchQueryMulti(WeightSpans(4), w.queries, w.model_of,
                                     10, &four_threads, nullptr, &stats);
  ExpectIdenticalToQuery(w, 10, multi);
  uint64_t per_model = 0;
  for (int m = 0; m < 4; ++m) per_model += RowsOf(w, m).size();
  EXPECT_EQ(stats.rows_per_model, per_model);
  EXPECT_EQ(stats.rows_gathered, RowsOf(w, -1).size());
  // With the user pool striped round robin the models' candidate sets
  // overlap heavily — the shared window must actually save.
  EXPECT_GT(stats.rows_per_model, stats.rows_gathered);
  EXPECT_EQ(stats.shared_pair_rows, 0u);

  // One model: the union IS the per-model gather; nothing to save.
  const Window w1 = WindowOf(16, 1);
  BatchMultiStats stats1;
  (void)snap->BatchQueryMulti(WeightSpans(1), w1.queries, w1.model_of, 10,
                              &four_threads, nullptr, &stats1);
  EXPECT_EQ(stats1.rows_gathered, RowsOf(w1, -1).size());
  EXPECT_EQ(stats1.rows_per_model, stats1.rows_gathered);
}

TEST(MultiBatchQuery, EmptyWindowReturnsEmpty) {
  const Pipeline& p = SharedPipeline();
  BatchMultiStats stats;
  stats.rows_gathered = 99;  // must be reset even on the empty path
  EXPECT_TRUE(p.engine->Snapshot()
                  ->BatchQueryMulti(WeightSpans(2), {}, {}, 10, nullptr,
                                    nullptr, &stats)
                  .empty());
  EXPECT_EQ(stats.rows_gathered, 0u);
}

// Concurrent windows on DISTINCT scratches and pools (the documented
// contract: a scratch belongs to one caller at a time, but nothing else is
// shared mutably). Run under TSan via the concurrency label.
TEST(MultiBatchQuery, ConcurrentWindowsOnDistinctScratches) {
  const Pipeline& p = SharedPipeline();
  constexpr size_t kThreads = 4;
  std::vector<std::vector<QueryResult>> results(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t n_models = 1 + t % 5;
      const Window w = WindowOf(24 + t, n_models);
      const auto spans = WeightSpans(n_models);
      util::ThreadPool pool(2);
      BatchScratch scratch;
      for (int round = 0; round < 3; ++round) {
        results[t] = BatchRankByProximityMulti(p.engine->index(), spans,
                                               w.queries, w.model_of,
                                               /*k=*/10, &pool, &scratch);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    const size_t n_models = 1 + t % 5;
    const Window w = WindowOf(24 + t, n_models);
    SCOPED_TRACE(::testing::Message() << "thread " << t);
    ExpectIdenticalToQuery(w, 10, results[t]);
  }
}

}  // namespace
}  // namespace metaprox
