// SearchEngine: the public facade implementing the paper's overall
// framework (Fig. 3).
//
// Offline phase:   Mine() -> MatchAll()/MatchSubset() -> (Finalize)
// Learning:        Train() (Sect. III-B) or TrainDualStage() (Sect. III-C)
// Online phase:    Query(): evaluates pi(q, .) against the precomputed
//                  metagraph vectors and ranks candidates.
#ifndef METAPROX_CORE_ENGINE_H_
#define METAPROX_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/index_snapshot.h"
#include "graph/graph.h"
#include "index/metagraph_vectors.h"
#include "learning/dual_stage.h"
#include "learning/proximity.h"
#include "learning/trainer.h"
#include "matching/matcher.h"
#include "mining/miner.h"
#include "util/container.h"
#include "util/thread_pool.h"

namespace metaprox {

struct EngineOptions {
  MinerOptions miner;
  MatcherKind matcher = MatcherKind::kSymISO;
  CountTransform transform = CountTransform::kLog1p;
  /// Embedding cap per metagraph while indexing; instances beyond it are
  /// dropped (counts of a saturated metagraph are a lower bound).
  uint64_t embedding_cap = 3'000'000;
  /// Worker threads for the whole offline phase: mining (Mine()) and
  /// matching (MatchAll/MatchSubset, including dual-stage training's
  /// on-demand matching). 0 = hardware concurrency; 1 = serial, no pool.
  /// The mined set and the built index are bit-identical for any value:
  /// mining is level-synchronous with deterministic deduplication, and
  /// each metagraph commits a run that Seal()/Finalize() merge in
  /// metagraph order (see index/metagraph_vectors.h).
  unsigned num_threads = 1;
};

/// Per-metagraph record of the matching task that committed it.
struct MetagraphMatchStats {
  bool matched = false;       // a matching task has run for this metagraph
  uint64_t embeddings = 0;    // embeddings delivered to the counting sink
  uint64_t search_nodes = 0;  // candidate extensions attempted
  bool saturated = false;     // embedding cap hit; counts are a lower bound
  double seconds = 0.0;       // wall-clock of this metagraph's task alone
};

/// End-to-end semantic proximity search over one graph.
class SearchEngine {
 public:
  SearchEngine(const Graph& graph, EngineOptions options);

  /// Offline subproblem 1: mines the metagraph set M. With
  /// options().num_threads != 1 the per-level frequency/support checks run
  /// on the engine's ThreadPool; the mined set is identical regardless.
  void Mine();

  /// Offline subproblem 2: matches every mined metagraph and builds the
  /// vector index. Finalizes the index (ready for queries).
  void MatchAll();

  /// Matches only the given metagraphs (dual-stage workflows). Does not
  /// finalize; call FinalizeIndex() before querying.
  ///
  /// Idempotent: already-committed metagraphs (and duplicates within
  /// `indices`) are skipped. With options().num_threads != 1 the matching
  /// tasks run on a reusable ThreadPool and each task commits its counts
  /// as a run straight from its worker thread — no serial commit funnel.
  /// The batch ends with MetagraphVectorIndex::Seal(), which merges the
  /// runs in metagraph order, so the index state after every MatchSubset
  /// — and the finalized, serialized index — is byte-identical for any
  /// thread count.
  void MatchSubset(std::span<const uint32_t> indices);

  /// Finalizes the index (exactly once; see MetagraphVectorIndex).
  void FinalizeIndex();

  /// Offline subproblem 3 (Sect. III-B): learns w* from examples.
  MgpModel Train(std::span<const Example> examples,
                 const TrainOptions& options) const;

  /// Dual-stage training (Sect. III-C, Alg. 1). Matches seeds/candidates on
  /// demand through this engine.
  DualStageResult TrainDualStage(std::span<const Example> examples,
                                 const DualStageOptions& options,
                                 StructuralSimilarityCache* ss_cache = nullptr);

  /// Online phase: top-k nodes by pi(q, .; w). Requires a finalized index.
  /// Routes through the engine's current IndexSnapshot (see Snapshot()).
  /// Batches go straight to Snapshot()->BatchQueryMulti with a
  /// caller-owned pool and scratch: one model is one weight vector and an
  /// all-zero model_of.
  std::vector<std::pair<NodeId, double>> Query(const MgpModel& model, NodeId q,
                                               size_t k) const;

  /// Proximity between two specific nodes.
  double Proximity(const MgpModel& model, NodeId x, NodeId y) const;

  /// The engine's current immutable snapshot — the unit every batched and
  /// served read pins, and what serving infrastructure shares
  /// (IndexMaintainer, server::IndexRegistry). Created by
  /// FinalizeIndex()/LoadOffline(); null before the index is finalized.
  /// The snapshot aliases the caller-owned graph without owning it: the
  /// graph must outlive any snapshot obtained here (IndexMaintainer copies
  /// the graph into owned state for exactly this reason).
  std::shared_ptr<const IndexSnapshot> Snapshot() const { return snapshot_; }

  /// Shared handle to the built index (finalized or not), for maintenance
  /// infrastructure that outlives this engine's build phase.
  std::shared_ptr<const MetagraphVectorIndex> shared_index() const {
    MX_CHECK(index_ != nullptr);
    return index_;
  }

  // ---- introspection ----------------------------------------------------
  const Graph& graph() const { return graph_; }
  const EngineOptions& options() const { return options_; }
  const std::vector<MinedMetagraph>& metagraphs() const { return metagraphs_; }
  const MetagraphVectorIndex& index() const { return *index_; }
  const MiningStats& mining_stats() const { return mining_stats_; }

  /// Per-metagraph matching stats, indexed like metagraphs(). Entries are
  /// default (matched == false) for metagraphs not yet matched by this
  /// engine instance (e.g. after LoadOffline()).
  const std::vector<MetagraphMatchStats>& match_stats() const {
    return match_stats_;
  }

  struct Timings {
    double mine_seconds = 0.0;
    double match_seconds = 0.0;      // includes the workers' Commit() time
    double finalize_seconds = 0.0;   // Seal() merges + Finalize(): the store
  };
  const Timings& timings() const { return timings_; }

  /// Persists the offline phase (mined metagraphs + vector index) to
  /// `<path_prefix>.metagraphs` and `<path_prefix>.index`. The metagraph
  /// set is always text (it is small and diff-friendly); `options.format`
  /// picks the index artifact's format, and `options.layout` its physical
  /// layout when binary (kAligned makes it mmap-able, kCompact the
  /// smallest). One ArtifactOptions bag covers save and load, shared with
  /// mgps_cli and metaprox_server.
  util::Status SaveOffline(const std::string& path_prefix,
                           const ArtifactOptions& options = {}) const;

  /// Restores a persisted offline phase; replaces any mined/matched state.
  /// The graph must be the same one the artifacts were built from. The
  /// index format is autodetected by magic; `options.use_mmap` maps an
  /// aligned binary artifact instead of parsing it.
  util::Status LoadOffline(const std::string& path_prefix,
                           const ArtifactOptions& options = {});

 private:
  struct MatchTaskResult;

  MatchTaskResult RunMatchTask(uint32_t metagraph_index) const;
  // Thread-safe for distinct metagraph indices: Commit() writes its own
  // run slot and each task writes its own match_stats_ element.
  void CommitMatchTask(uint32_t metagraph_index, MatchTaskResult result);
  util::ThreadPool& Pool(size_t num_threads);

  /// (Re)publishes snapshot_ from the current graph/metagraphs/index.
  /// Called whenever the index reaches a finalized state.
  void PublishSnapshot();

  const Graph& graph_;
  EngineOptions options_;
  std::unique_ptr<Matcher> matcher_;
  std::vector<MinedMetagraph> metagraphs_;
  /// Shared (not unique) so snapshots and maintainers can pin it past
  /// this engine's next rebuild.
  std::shared_ptr<MetagraphVectorIndex> index_;
  /// The published generation all read paths pin; see Snapshot().
  std::shared_ptr<const IndexSnapshot> snapshot_;
  MiningStats mining_stats_;
  std::vector<MetagraphMatchStats> match_stats_;
  Timings timings_;
  /// Lazily created by the first parallel stage (usually Mine(), else the
  /// first parallel MatchSubset), then reused across mining, MatchAll and
  /// dual-stage rounds.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace metaprox

#endif  // METAPROX_CORE_ENGINE_H_
