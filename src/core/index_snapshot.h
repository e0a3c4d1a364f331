// IndexSnapshot: one immutable, shareable generation of the servable
// state — graph + mined metagraph set + finalized vector index.
//
// The snapshot is the unit the online phase pins: every read path (Query /
// BatchQueryMulti, whether called through SearchEngine, the query
// server's batcher, or a bench) holds a shared_ptr<const
// IndexSnapshot> for the duration of the call, so an IndexMaintainer can
// publish a refreshed generation at any moment without invalidating
// in-flight work — the same RCU discipline server::ModelRegistry applies
// to models. A snapshot is deeply immutable after construction; all
// methods are const and safe from any number of threads.
#ifndef METAPROX_CORE_INDEX_SNAPSHOT_H_
#define METAPROX_CORE_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/query_batch.h"
#include "graph/graph.h"
#include "index/metagraph_vectors.h"
#include "learning/proximity.h"
#include "mining/miner.h"
#include "util/thread_pool.h"

namespace metaprox {

class IndexSnapshot {
 public:
  /// All three components are shared: a snapshot may alias its
  /// predecessor's metagraph set (the mined set is fixed across refreshes)
  /// or a caller-owned graph. The index must be finalized.
  IndexSnapshot(std::shared_ptr<const Graph> graph,
                std::shared_ptr<const std::vector<MinedMetagraph>> metagraphs,
                std::shared_ptr<const MetagraphVectorIndex> index,
                uint64_t generation);

  const Graph& graph() const { return *graph_; }
  const std::vector<MinedMetagraph>& metagraphs() const { return *metagraphs_; }
  const MetagraphVectorIndex& index() const { return *index_; }
  /// Monotonically increasing per maintainer lineage; the base build is 1.
  uint64_t generation() const { return generation_; }

  /// The shared handles, for building a successor snapshot that aliases
  /// unchanged components (e.g. SWAPINDEX reuses the live graph).
  const std::shared_ptr<const Graph>& shared_graph() const { return graph_; }
  const std::shared_ptr<const std::vector<MinedMetagraph>>& shared_metagraphs()
      const {
    return metagraphs_;
  }
  const std::shared_ptr<const MetagraphVectorIndex>& shared_index() const {
    return index_;
  }

  /// Online phase: top-k nodes by pi(q, .; w). Same contract as
  /// SearchEngine::Query (which now routes through its snapshot).
  QueryResult Query(const MgpModel& model, NodeId q, size_t k) const;

  /// Batched online phase, the one batch entry point: ranks queries[i]
  /// under models[model_of[i]] (see BatchRankByProximityMulti; one model
  /// is one weight vector and an all-zero model_of). Pool and scratch are
  /// caller-owned arguments — the snapshot itself holds no mutable state,
  /// which is what makes it shareable. Result i is bitwise identical to
  /// per-query Query() under its own model for any pool/scratch.
  std::vector<QueryResult> BatchQueryMulti(
      std::span<const std::span<const double>> models,
      std::span<const NodeId> queries, std::span<const uint32_t> model_of,
      size_t k, util::ThreadPool* pool = nullptr,
      BatchScratch* scratch = nullptr, BatchMultiStats* stats = nullptr) const;

  /// Proximity between two specific nodes.
  double Proximity(const MgpModel& model, NodeId x, NodeId y) const;

 private:
  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const std::vector<MinedMetagraph>> metagraphs_;
  std::shared_ptr<const MetagraphVectorIndex> index_;
  uint64_t generation_;
};

}  // namespace metaprox

#endif  // METAPROX_CORE_INDEX_SNAPSHOT_H_
