#include "core/index_maintainer.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <unordered_set>
#include <utility>

#include "core/engine.h"
#include "matching/delta_match.h"
#include "util/macros.h"
#include "util/stopwatch.h"

namespace metaprox {

namespace {

/// Unordered type pair -> one canonical 32-bit key.
uint32_t TypePairKey(TypeId a, TypeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint32_t>(a) << 16) | b;
}

/// `options` with the re-match settings taken from the engine's build.
MaintainerOptions InheritMatchSettings(const SearchEngine& engine,
                                       MaintainerOptions options) {
  options.matcher = engine.options().matcher;
  options.embedding_cap = engine.options().embedding_cap;
  return options;
}

}  // namespace

IndexMaintainer::IndexMaintainer(const SearchEngine& engine,
                                 MaintainerOptions options)
    : IndexMaintainer(std::make_shared<Graph>(engine.graph()),
                      std::make_shared<std::vector<MinedMetagraph>>(
                          engine.metagraphs()),
                      engine.shared_index(),
                      InheritMatchSettings(engine, options)) {}

IndexMaintainer::IndexMaintainer(
    std::shared_ptr<const Graph> graph,
    std::shared_ptr<const std::vector<MinedMetagraph>> metagraphs,
    std::shared_ptr<const MetagraphVectorIndex> index,
    MaintainerOptions options)
    : options_(options),
      matcher_(CreateMatcher(options.matcher)),
      graph_(std::move(graph)),
      metagraphs_(std::move(metagraphs)),
      index_(std::move(index)),
      pending_(graph_->num_nodes()),
      ledger_(metagraphs_ == nullptr ? 0 : metagraphs_->size()) {
  MX_CHECK(graph_ != nullptr && metagraphs_ != nullptr && index_ != nullptr);
  MX_CHECK_MSG(index_->finalized(),
               "IndexMaintainer maintains finalized indexes");
  snapshot_ = std::make_shared<IndexSnapshot>(graph_, metagraphs_, index_,
                                              generation_);
}

std::shared_ptr<const IndexSnapshot> IndexMaintainer::snapshot() const {
  mx::MutexLock lock(mu_);
  return snapshot_;
}

NodeId IndexMaintainer::AppendNode(const std::string& type_name,
                                   std::string name) {
  return pending_.AddNode(type_name, std::move(name));
}

util::Status IndexMaintainer::AppendEdge(NodeId u, NodeId v) {
  return pending_.AddEdge(u, v);
}

util::Status IndexMaintainer::Append(const GraphDelta& delta) {
  if (delta.base_nodes() != num_nodes()) {
    return util::Status::FailedPrecondition(
        "delta primed against " + std::to_string(delta.base_nodes()) +
        " nodes; the maintainer is at " + std::to_string(num_nodes()));
  }
  // Stage edges through the validating path before mutating pending_ for
  // the nodes, so a bad delta leaves the buffer untouched.
  const size_t limit = num_nodes() + delta.nodes.size();
  for (const auto& [u, v] : delta.edges) {
    if (u >= limit || v >= limit || u == v) {
      return util::Status::InvalidArgument(
          "delta contains an invalid edge {" + std::to_string(u) + ", " +
          std::to_string(v) + "}");
    }
  }
  for (const GraphDelta::Node& node : delta.nodes) {
    pending_.AddNode(node.type, node.name);
  }
  for (const auto& [u, v] : delta.edges) {
    MX_RETURN_IF_ERROR(pending_.AddEdge(u, v));
  }
  return util::Status::Ok();
}

std::vector<uint32_t> IndexMaintainer::AffectedMetagraphs(
    const Graph& graph, const std::vector<MinedMetagraph>& metagraphs,
    const GraphDelta& delta) {
  // Resolve each delta edge's unordered endpoint-type pair. Endpoints can
  // be existing nodes, delta nodes of existing types, or delta nodes of
  // brand-new types (which no mined metagraph can reference — skip).
  const TypeRegistry& registry = graph.type_registry();
  auto type_of = [&](NodeId v) -> TypeId {
    if (v < graph.num_nodes()) return graph.TypeOf(v);
    return registry.Find(delta.nodes[v - graph.num_nodes()].type);
  };
  std::unordered_set<uint32_t> touched;
  for (const auto& [u, v] : delta.edges) {
    TypeId a = type_of(u);
    TypeId b = type_of(v);
    if (a == kInvalidType || b == kInvalidType) continue;
    touched.insert(TypePairKey(a, b));
  }

  std::vector<uint32_t> affected;
  if (touched.empty()) return affected;
  for (uint32_t i = 0; i < metagraphs.size(); ++i) {
    const Metagraph& m = metagraphs[i].graph;
    for (const auto& [a, b] : m.Edges()) {
      if (touched.count(TypePairKey(m.TypeOf(a), m.TypeOf(b))) != 0) {
        affected.push_back(i);
        break;
      }
    }
  }
  return affected;
}

util::ThreadPool* IndexMaintainer::Pool() {
  const size_t workers = util::ResolveNumThreads(options_.num_threads);
  if (workers <= 1) return nullptr;
  if (pool_ == nullptr) pool_ = std::make_unique<util::ThreadPool>(workers);
  return pool_.get();
}

util::StatusOr<std::shared_ptr<const IndexSnapshot>> IndexMaintainer::Refresh(
    RefreshStats* stats) {
  util::Stopwatch total;
  RefreshStats local;
  local.appended_nodes = pending_.nodes.size();
  local.appended_edges = pending_.edges.size();

  std::vector<uint32_t> affected =
      AffectedMetagraphs(*graph_, *metagraphs_, pending_);
  affected.erase(std::remove_if(affected.begin(), affected.end(),
                                [&](uint32_t i) {
                                  return !index_->IsCommitted(i);
                                }),
                 affected.end());
  local.affected_metagraphs = affected.size();

  // Canonical (min, max) list of the edges that are NEW in the grown
  // graph — the roots of delta enumeration. Buffered duplicates of
  // existing edges (legal no-ops) and of each other are dropped, so the
  // list is exactly the grown graph's edge set minus the old one.
  const NodeId old_num_nodes = static_cast<NodeId>(graph_->num_nodes());
  std::vector<std::pair<NodeId, NodeId>> new_edges;
  {
    std::unordered_set<uint64_t> seen;
    seen.reserve(pending_.edges.size());
    for (const auto& [u, v] : pending_.edges) {
      const NodeId a = std::min(u, v);
      const NodeId b = std::max(u, v);
      if (b < old_num_nodes && graph_->HasEdge(a, b)) continue;
      const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
      if (!seen.insert(key).second) continue;
      new_edges.emplace_back(a, b);
    }
  }

  auto new_graph_or = ApplyDelta(*graph_, pending_);
  if (!new_graph_or.ok()) return new_graph_or.status();
  auto new_graph =
      std::make_shared<const Graph>(std::move(*new_graph_or));

  const size_t workers = util::ResolveNumThreads(options_.num_threads);
  const size_t shards =
      options_.num_shards != 0
          ? options_.num_shards
          : (workers > 1 ? std::min<size_t>(4 * workers, 64) : 1);
  MetagraphVectorIndex work =
      index_->CloneForRefresh(new_graph->num_nodes(), affected, shards);

  util::Stopwatch rematch_timer;
  std::atomic<size_t> delta_refreshed{0};

  // Full re-match: the byte-identity oracle itself. Also (re)captures the
  // metagraph's raw-count ledger so the NEXT refresh can go delta-only —
  // unless the counts are cap-truncated (then they depend on enumeration
  // order and cannot be merged onto) or the metagraph is outside
  // DeltaMatch's connectivity precondition.
  auto full_rematch = [&](uint32_t i) {
    const MinedMetagraph& mined = (*metagraphs_)[i];
    SymPairCountingSink sink(mined.symmetry, options_.embedding_cap);
    matcher_->Match(*new_graph, mined.graph, &sink);
    work.Commit(i, sink, mined.symmetry.aut_size());
    RawCounts& led = ledger_[i];
    const Metagraph& m = mined.graph;
    if (!sink.saturated() && m.num_nodes() >= 2 && m.IsConnected()) {
      led = RawCounts{sink.pair_counts(), sink.node_counts(),
                      sink.num_embeddings(), /*valid=*/true};
      // The ledger lives as long as the maintainer and is only merged
      // into from here on, so it is kept packed.
      led.pair_counts.Pack();
      led.node_counts.Pack();
    } else {
      led = RawCounts{};
    }
  };

  auto rematch_one = [&](uint32_t i) {
    const MinedMetagraph& mined = (*metagraphs_)[i];
    RawCounts& led = ledger_[i];
    if (options_.incremental && led.valid) {
      // Enumerate only the embeddings using >= 1 new edge. The delta sink
      // gets the cap headroom the ledger left; if it saturates, the grown
      // total would reach the cap, where full-match counts turn
      // order-dependent — fall back to the oracle (which also rebuilds
      // the ledger or marks it invalid).
      SymPairCountingSink sink(mined.symmetry,
                               options_.embedding_cap - led.num_embeddings);
      DeltaMatch(*new_graph, mined.graph, new_edges, &sink);
      if (!sink.saturated()) {
        // lint:allow-unordered-iter — += merges are commutative, so the
        // ledger ends identical whatever order the sink is walked in.
        for (const auto& [key, count] : sink.pair_counts()) {
          led.pair_counts[key] += count;
        }
        // lint:allow-unordered-iter — same commutative merge.
        for (const auto& [node, count] : sink.node_counts()) {
          led.node_counts[node] += count;
        }
        led.num_embeddings += sink.num_embeddings();
        work.Commit(i, led.pair_counts, led.node_counts,
                    mined.symmetry.aut_size());
        delta_refreshed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      led.valid = false;
    }
    full_rematch(i);
  };
  util::ThreadPool* pool = affected.size() > 1 ? Pool() : nullptr;
  if (pool == nullptr) {
    for (uint32_t i : affected) rematch_one(i);
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(affected.size());
    for (uint32_t i : affected) {
      futures.push_back(pool->Submit([&rematch_one, i] { rematch_one(i); }));
    }
    for (auto& f : futures) f.wait();
    for (auto& f : futures) f.get();
  }
  work.Seal();
  work.Finalize();
  local.rematch_seconds = rematch_timer.ElapsedSeconds();
  local.delta_metagraphs = delta_refreshed.load(std::memory_order_relaxed);

  auto new_index =
      std::make_shared<const MetagraphVectorIndex>(std::move(work));
  ++generation_;
  auto snapshot = std::make_shared<const IndexSnapshot>(
      new_graph, metagraphs_, new_index, generation_);

  graph_ = std::move(new_graph);
  index_ = std::move(new_index);
  pending_ = GraphDelta(graph_->num_nodes());
  {
    mx::MutexLock lock(mu_);
    snapshot_ = snapshot;
  }

  local.total_seconds = total.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return snapshot;
}

}  // namespace metaprox
