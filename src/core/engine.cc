#include "core/engine.h"

#include <algorithm>
#include <fstream>
#include <future>
#include <numeric>
#include <utility>

#include "mining/mined_set_io.h"
#include "util/macros.h"
#include "util/stopwatch.h"

namespace metaprox {

SearchEngine::SearchEngine(const Graph& graph, EngineOptions options)
    : graph_(graph),
      options_(options),
      matcher_(CreateMatcher(options.matcher)) {}

void SearchEngine::Mine() {
  util::Stopwatch timer;
  const size_t workers = util::ResolveNumThreads(options_.num_threads);
  metagraphs_ = MineMetagraphs(graph_, options_.miner, &mining_stats_,
                               workers > 1 ? &Pool(workers) : nullptr);
  timings_.mine_seconds = timer.ElapsedSeconds();
  index_ = std::make_shared<MetagraphVectorIndex>(
      metagraphs_.size(), graph_.num_nodes(), options_.transform);
  snapshot_ = nullptr;  // a new build starts a new snapshot lineage
  match_stats_.assign(metagraphs_.size(), MetagraphMatchStats{});
}

void SearchEngine::MatchAll() {
  MX_CHECK_MSG(index_ != nullptr, "Mine() must run before MatchAll()");
  std::vector<uint32_t> all(metagraphs_.size());
  std::iota(all.begin(), all.end(), 0);
  MatchSubset(all);
  FinalizeIndex();
}

// Everything one matching task produces; built and committed on the same
// worker thread (the sink dies as soon as its counts are in the index).
struct SearchEngine::MatchTaskResult {
  std::unique_ptr<SymPairCountingSink> sink;
  MatchStats stats;
  double seconds = 0.0;
};

SearchEngine::MatchTaskResult SearchEngine::RunMatchTask(
    uint32_t metagraph_index) const {
  // Reads only immutable state (graph_, metagraphs_, options_) and the
  // stateless matcher, so concurrent tasks need no synchronization.
  util::Stopwatch timer;
  MatchTaskResult result;
  const MinedMetagraph& mined = metagraphs_[metagraph_index];
  result.sink = std::make_unique<SymPairCountingSink>(mined.symmetry,
                                                      options_.embedding_cap);
  result.stats = matcher_->Match(graph_, mined.graph, result.sink.get());
  result.seconds = timer.ElapsedSeconds();
  return result;
}

void SearchEngine::CommitMatchTask(uint32_t metagraph_index,
                                   MatchTaskResult result) {
  index_->Commit(metagraph_index, *result.sink,
                 metagraphs_[metagraph_index].symmetry.aut_size());
  MetagraphMatchStats& record = match_stats_[metagraph_index];
  record.matched = true;
  record.embeddings = result.sink->num_embeddings();
  record.search_nodes = result.stats.search_nodes;
  record.saturated = result.sink->saturated();
  record.seconds = result.seconds;
}

util::ThreadPool& SearchEngine::Pool(size_t num_threads) {
  if (pool_ == nullptr) pool_ = std::make_unique<util::ThreadPool>(num_threads);
  return *pool_;
}

void SearchEngine::MatchSubset(std::span<const uint32_t> indices) {
  MX_CHECK_MSG(index_ != nullptr, "Mine() must run before MatchSubset()");
  util::Stopwatch timer;

  // Drop already-committed metagraphs and duplicates; order ascending so
  // the serial path commits in metagraph-index (= canonical row) order.
  std::vector<uint32_t> todo;
  todo.reserve(indices.size());
  for (uint32_t i : indices) {
    MX_CHECK(i < metagraphs_.size());
    if (!index_->IsCommitted(i)) todo.push_back(i);
  }
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  if (todo.empty()) {  // nothing committed: skip the Seal() merge
    timings_.match_seconds += timer.ElapsedSeconds();
    return;
  }

  const size_t workers = util::ResolveNumThreads(options_.num_threads);
  if (workers <= 1 || todo.size() <= 1) {
    for (uint32_t i : todo) CommitMatchTask(i, RunMatchTask(i));
  } else {
    // Each task matches AND commits on its worker: a Commit writes only its
    // metagraph's own run slot, so there is no lock, no serial commit
    // funnel and no backlog of completed-but-uncommitted sinks. Seal()
    // below merges the runs in metagraph order, whatever order they
    // arrived in.
    util::ThreadPool& pool = Pool(workers);
    std::vector<std::future<void>> futures;
    futures.reserve(todo.size());
    for (uint32_t i : todo) {
      futures.push_back(
          pool.Submit([this, i] { CommitMatchTask(i, RunMatchTask(i)); }));
    }
    // Wait for every task before get() can rethrow: tasks mutate the
    // index, so none may still be running once MatchSubset unwinds.
    for (auto& f : futures) f.wait();
    for (auto& f : futures) f.get();
  }
  timings_.match_seconds += timer.ElapsedSeconds();
  util::Stopwatch merge_timer;
  index_->Seal();
  timings_.finalize_seconds += merge_timer.ElapsedSeconds();
}

void SearchEngine::FinalizeIndex() {
  MX_CHECK(index_ != nullptr);
  util::Stopwatch timer;
  index_->Finalize();
  timings_.finalize_seconds += timer.ElapsedSeconds();
  PublishSnapshot();
}

void SearchEngine::PublishSnapshot() {
  // The engine's graph is a caller-owned reference, so the snapshot holds
  // a non-owning alias; see Snapshot()'s lifetime note. The mined set is
  // copied: it is small, and the snapshot must not see later re-mines.
  snapshot_ = std::make_shared<IndexSnapshot>(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &graph_),
      std::make_shared<std::vector<MinedMetagraph>>(metagraphs_), index_,
      /*generation=*/1);
}

MgpModel SearchEngine::Train(std::span<const Example> examples,
                             const TrainOptions& options) const {
  MX_CHECK(index_ != nullptr);
  TrainResult result = TrainMgp(*index_, examples, options);
  return MgpModel{std::move(result.weights)};
}

DualStageResult SearchEngine::TrainDualStage(
    std::span<const Example> examples, const DualStageOptions& options,
    StructuralSimilarityCache* ss_cache) {
  MX_CHECK(index_ != nullptr);
  return metaprox::TrainDualStage(
      metagraphs_, *index_, examples, options,
      [this](std::span<const uint32_t> indices) { MatchSubset(indices); },
      ss_cache);
}

std::vector<std::pair<NodeId, double>> SearchEngine::Query(
    const MgpModel& model, NodeId q, size_t k) const {
  MX_CHECK_MSG(snapshot_ != nullptr, "Query() needs a finalized index");
  return snapshot_->Query(model, q, k);
}

double SearchEngine::Proximity(const MgpModel& model, NodeId x,
                               NodeId y) const {
  MX_CHECK(index_ != nullptr);
  return MgpProximity(*index_, model.weights, x, y);
}

util::Status SearchEngine::SaveOffline(const std::string& path_prefix,
                                       const ArtifactOptions& options) const {
  MX_CHECK_MSG(index_ != nullptr, "nothing to save before Mine()");
  {
    std::ofstream out(path_prefix + ".metagraphs");
    if (!out) return util::Status::IoError("cannot write metagraph set");
    MX_RETURN_IF_ERROR(WriteMinedMetagraphs(metagraphs_, out));
  }
  {
    std::ofstream out(path_prefix + ".index", std::ios::binary);
    if (!out) return util::Status::IoError("cannot write index");
    MX_RETURN_IF_ERROR(options.format == util::ArtifactFormat::kBinary
                           ? index_->WriteBinaryTo(out, options.layout)
                           : index_->WriteTo(out));
  }
  return util::Status::Ok();
}

util::Status SearchEngine::LoadOffline(const std::string& path_prefix,
                                       const ArtifactOptions& options) {
  std::ifstream mg_in(path_prefix + ".metagraphs");
  if (!mg_in) return util::Status::IoError("cannot read metagraph set");
  auto mined = ReadMinedMetagraphs(mg_in);
  if (!mined.ok()) return mined.status();

  auto index = MetagraphVectorIndex::LoadFromFile(path_prefix + ".index",
                                                  options.use_mmap);
  if (!index.ok()) return index.status();
  if (index->num_metagraphs() != mined->size()) {
    return util::Status::InvalidArgument(
        "index/metagraph-set cardinality mismatch");
  }
  if (index->num_graph_nodes() != graph_.num_nodes()) {
    return util::Status::InvalidArgument(
        "index built over " + std::to_string(index->num_graph_nodes()) +
        " nodes but the engine's graph has " +
        std::to_string(graph_.num_nodes()));
  }

  metagraphs_ = std::move(*mined);
  index_ = std::make_shared<MetagraphVectorIndex>(std::move(*index));
  // The artifacts carry no per-task stats; anything matched later (e.g. an
  // uncommitted remainder) records fresh entries.
  match_stats_.assign(metagraphs_.size(), MetagraphMatchStats{});
  PublishSnapshot();
  return util::Status::Ok();
}

}  // namespace metaprox
