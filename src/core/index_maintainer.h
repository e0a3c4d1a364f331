// IndexMaintainer: the write side of the incremental-maintenance split.
//
// SearchEngine builds the offline state; IndexSnapshot is the immutable
// generation the online phase pins; IndexMaintainer sits between them. It
// buffers graph appends (GraphDelta), and on Refresh():
//
//   1. applies the delta (ApplyDelta — the grown graph is bit-identical
//      to a from-scratch build of the same content),
//   2. computes the AFFECTED metagraphs: appends only ever create new
//      instances through a new edge, and an instance of M_i can use a new
//      edge only if some edge of M_i has the same unordered endpoint-type
//      pair — every other metagraph's counts are provably unchanged,
//   3. seeds a fresh build-state index with the unaffected rows
//      (MetagraphVectorIndex::CloneForRefresh), refreshes ONLY the
//      affected metagraphs against the grown graph, and commits them into
//      the sharded index concurrently (the one place the
//      one-commit-per-metagraph contract relaxes),
//   4. publishes the result as a new IndexSnapshot generation.
//
// Step 3 is incremental: the maintainer keeps a per-metagraph
// LEDGER of raw (pre-|Aut|-division) counts, and an affected metagraph
// with a valid ledger is refreshed by delta-rooted enumeration
// (matching/delta_match.h) — only the embeddings using at least one
// appended edge are enumerated, and the merged raw counts
// (old + delta, plain uint64 addition) are committed. Cost scales with
// the delta, not the graph. A metagraph without a valid ledger (first
// refresh after construction, a disconnected/trivial metagraph, or one
// whose embedding count reached the cap) takes a full re-match, which
// also captures its ledger for the next refresh.
//
// The refreshed index — and its serialization — is byte-identical to a
// from-scratch rebuild that re-matched EVERY committed metagraph against
// the grown graph (bench_incremental gates on this at every refresh
// point). The mined metagraph set is fixed across refreshes: re-mining is
// a rebuild, not a refresh.
//
// Thread-safety: snapshot() is safe from any thread at any time (it is
// how the query server pins a generation). The mutating methods
// (AppendNode/AppendEdge/Append/Refresh) are single-writer: one thread —
// e.g. the server's admin worker — at a time.
#ifndef METAPROX_CORE_INDEX_MAINTAINER_H_
#define METAPROX_CORE_INDEX_MAINTAINER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/index_snapshot.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "index/metagraph_vectors.h"
#include "matching/matcher.h"
#include "mining/miner.h"
#include "util/flat_count_map.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace metaprox {

class SearchEngine;

struct MaintainerOptions {
  /// Matching kernel for refresh re-matches. Use the kernel the base index
  /// was built with, or refreshed counts may differ from the base ones for
  /// saturated metagraphs. The engine-taking constructor overrides it (and
  /// embedding_cap) with the engine's own setting.
  MatcherKind matcher = MatcherKind::kSymISO;
  /// Embedding cap per re-matched metagraph (see EngineOptions).
  uint64_t embedding_cap = 3'000'000;
  /// Worker threads for re-matching. 0 = hardware concurrency; 1 = serial.
  unsigned num_threads = 1;
  /// Build-time shards of the refreshed index. 0 = auto (scales with
  /// num_threads). Never affects the published index bytes.
  size_t num_shards = 0;
};

/// Counters of one Refresh() call.
struct RefreshStats {
  size_t appended_nodes = 0;
  size_t appended_edges = 0;
  /// Committed metagraphs whose candidate regions the delta touched (the
  /// re-matched set).
  size_t affected_metagraphs = 0;
  /// Of the affected ones, how many were refreshed via the delta-rooted
  /// ledger path (the rest took a full re-match).
  size_t delta_metagraphs = 0;
  double rematch_seconds = 0.0;
  double total_seconds = 0.0;
};

class IndexMaintainer {
 public:
  /// Takes over a built engine's offline state: copies the graph and
  /// mined set into owned shared state and shares the finalized index.
  /// Re-matches run under the engine's matcher and embedding cap (those
  /// two fields of `options` are ignored), so a refresh stays equal to
  /// that engine's rebuild. The engine remains usable (its reads keep
  /// serving its own snapshot).
  explicit IndexMaintainer(const SearchEngine& engine,
                           MaintainerOptions options = {});

  /// Assembles a maintainer from parts (e.g. artifacts loaded off disk).
  IndexMaintainer(std::shared_ptr<const Graph> graph,
                  std::shared_ptr<const std::vector<MinedMetagraph>> metagraphs,
                  std::shared_ptr<const MetagraphVectorIndex> index,
                  MaintainerOptions options = {});

  /// The current published generation. Thread-safe; callers pin it for as
  /// long as they read through it.
  std::shared_ptr<const IndexSnapshot> snapshot() const MX_EXCLUDES(mu_);

  /// Nodes in the current graph plus buffered appends — the id the next
  /// AppendNode() returns.
  size_t num_nodes() const { return graph_->num_nodes() + pending_.nodes.size(); }
  size_t pending_nodes() const { return pending_.nodes.size(); }
  size_t pending_edges() const { return pending_.edges.size(); }

  /// Buffers one appended node; returns the id it will have once a
  /// Refresh() publishes it. Unknown type names are interned on refresh.
  NodeId AppendNode(const std::string& type_name, std::string name = "");

  /// Buffers one appended undirected edge. Endpoints may be existing or
  /// buffered nodes; self-loops and out-of-range ids are structured
  /// errors. Duplicates of existing edges are legal no-ops (deduplicated
  /// on refresh, like GraphBuilder).
  util::Status AppendEdge(NodeId u, NodeId v);

  /// Buffers a whole delta. It must be primed at num_nodes() — i.e. built
  /// against the current graph plus anything already buffered.
  util::Status Append(const GraphDelta& delta);

  /// Applies the buffered appends and publishes a new snapshot generation
  /// (also returned). With no buffered appends this still republishes —
  /// the result is an identical index one generation later. On error the
  /// buffered appends are kept and the published snapshot is unchanged.
  util::StatusOr<std::shared_ptr<const IndexSnapshot>> Refresh(
      RefreshStats* stats = nullptr) MX_EXCLUDES(mu_);

  /// The metagraphs of `metagraphs` whose instance sets can grow under
  /// `delta` against `graph`: those with an edge whose unordered
  /// endpoint-type pair matches some delta edge's. Sorted ascending.
  /// Exposed for tests and bench_incremental; Refresh() further drops the
  /// uncommitted ones.
  static std::vector<uint32_t> AffectedMetagraphs(
      const Graph& graph, const std::vector<MinedMetagraph>& metagraphs,
      const GraphDelta& delta);

  const MaintainerOptions& options() const { return options_; }

 private:
  /// Raw (pre-|Aut|-division) counts of one metagraph's full embedding
  /// set against the CURRENT graph — the base the delta path adds onto.
  /// `valid` only when the counts are complete (not cap-truncated) and
  /// the metagraph is delta-enumerable (connected, >= 2 nodes).
  struct RawCounts {
    util::FlatCountMap<uint64_t> pair_counts;
    util::FlatCountMap<NodeId> node_counts;
    uint64_t num_embeddings = 0;
    bool valid = false;
  };

  util::ThreadPool* Pool();

  MaintainerOptions options_;
  std::unique_ptr<Matcher> matcher_;
  std::unique_ptr<util::ThreadPool> pool_;  // lazy; refresh re-matching

  // Writer-side state (single mutator thread).
  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const std::vector<MinedMetagraph>> metagraphs_;
  std::shared_ptr<const MetagraphVectorIndex> index_;
  GraphDelta pending_;
  // Indexed like metagraphs_. Refresh workers touch disjoint entries, so
  // no lock; stays in lockstep with index_ (SWAPINDEX publishes around
  // the maintainer and never disturbs this lineage).
  std::vector<RawCounts> ledger_;
  uint64_t generation_ = 1;

  // The ONLY cross-thread state: everything above is single-writer (see
  // the file comment); snapshot_ is read by any thread via snapshot().
  mutable mx::Mutex mu_;
  std::shared_ptr<const IndexSnapshot> snapshot_ MX_GUARDED_BY(mu_);
};

}  // namespace metaprox

#endif  // METAPROX_CORE_INDEX_MAINTAINER_H_
