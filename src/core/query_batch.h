// Batched online phase: ranks a window of queries — each under its own
// weight vector — against the finalized metagraph vector index in one
// pass, amortizing the index walks a per-query SearchEngine::Query()
// repays on every call. BatchRankByProximityMulti is the ONE batch entry
// point: a single-model batch is the same call with one weight vector and
// an all-zero model_of.
//
// What a window amortizes:
//   * duplicate (query, model) pairs are scored once and their result
//     copied;
//   * every node row touched by the window (queries plus all their
//     candidates) is walked exactly once, however many candidate sets and
//     models share it: its N dots m_x . w_m come out of one walk through
//     the multi-weight score kernels (core/score_kernels.h; interleaved
//     weights, one count transform per entry, so an extra model costs
//     about one fma per row entry; at N = 1 the kernel is the
//     single-weight one);
//   * each query node's pair rows are read once for all the models it is
//     queried under, through the index's candidate-slot postings
//     (MetagraphVectorIndex::CandidateSlots), a direct array walk with no
//     per-pair search;
//   * distinct query nodes score independently, so the gather and scoring
//     passes fan out over a util::ThreadPool.
//
// Determinism contract (the batched counterpart of the offline pipeline's
// contract in docs/ARCHITECTURE.md): for any window composition, model
// mix and thread count, result i is IDENTICAL — same nodes, same
// (bitwise) scores, same tie-break order — to RankByProximity(index,
// models[model_of[i]], queries[i], Candidates(queries[i]), k), i.e. to
// what SearchEngine::Query(model, queries[i], k) returns under queries[i]'s
// OWN model. Every dot product — per-query, batched, scalar or SIMD,
// single- or multi-weight — evaluates through the same score kernel with
// the same canonical accumulation, and the shared ProximityRankBefore
// order is total, so neither parallelism, scoring order nor kernel
// dispatch has anything to reorder.
#ifndef METAPROX_CORE_QUERY_BATCH_H_
#define METAPROX_CORE_QUERY_BATCH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "index/metagraph_vectors.h"
#include "util/macros.h"
#include "util/thread_pool.h"

namespace metaprox {

/// Top-k results for one query of a batch: (node, proximity) entries in
/// ProximityRankBefore order, proximity > 0 only.
using QueryResult = std::vector<std::pair<NodeId, double>>;

/// Reusable epoch-marked scratch for the batched online path: the
/// batch-wide node dedup mark and node-dot cache, dense over the graph's
/// nodes but allocated once and never cleared between batches.
/// BeginBatch() bumps an epoch instead of zeroing, so a long-lived caller
/// (the query server's batcher, a bench's replay loop) pays O(rows
/// touched) per batch — not O(|V|) — which is what makes tiny batches on
/// multi-million-node graphs cheap.
///
/// BeginBatch(n, m) lays the dot cache out as node_dots_[x * m + model],
/// epoch-marked per NODE (one gather fills a row's m dots together). Both
/// tables grow monotonically to the largest graph and (nodes x models)
/// seen and the epoch, which only ever increases, expires stale layouts,
/// so alternating one- and many-model batches, or batches over two index
/// generations of different sizes, never reallocate back and forth.
///
/// A scratch belongs to ONE caller at a time: concurrent batch calls must
/// use distinct scratches. (The gather pass's workers may write dots of
/// distinct nodes concurrently; marking stays on the coordinating
/// thread.)
class BatchScratch {
 public:
  BatchScratch() = default;
  // Movable (so owners stay movable) but not copyable — a copy would
  // silently double the O(|V|) tables.
  BatchScratch(BatchScratch&&) = default;
  BatchScratch& operator=(BatchScratch&&) = default;
  MX_DISALLOW_COPY_AND_ASSIGN(BatchScratch);

  /// Starts a new batch over a graph of `num_nodes` nodes, caching
  /// `num_models` dots per touched node. Previous marks and cached dots
  /// expire in O(1) (epoch bump, no per-node clear); tables grow only
  /// when `num_nodes` or the dot layout exceeds every earlier batch's. The
  /// touched list's capacity is pre-reserved to the high-water mark of
  /// earlier batches, so a long-lived serving scratch stops paying
  /// re-growth churn after warm-up.
  void BeginBatch(size_t num_nodes, size_t num_models);

  /// Marks x as touched by the current batch; returns true on x's first
  /// touch since BeginBatch(). Stale marks from earlier batches are
  /// invisible (their epoch differs), so no state leaks across calls.
  bool MarkTouched(NodeId x) {
    if (epoch_of_[x] == epoch_) return false;
    epoch_of_[x] = epoch_;
    touched_.push_back(x);
    return true;
  }

  /// Rows marked since BeginBatch(), in first-touch order.
  std::span<const NodeId> touched() const { return touched_; }
  /// Current capacity of the touched list (>= the high-water mark of past
  /// batches; exposed so tests can pin the no-regrowth behavior).
  size_t touched_capacity() const { return touched_.capacity(); }

  /// Models per node this batch caches (BeginBatch's num_models).
  size_t num_models() const { return num_models_; }

  /// The num_models()-wide dot row of a marked node: NodeDots(x)[m] is
  /// m_x . w_m. MutableNodeDots is the gather pass's write target (rows of
  /// distinct nodes may be written concurrently). Reading an unmarked row
  /// is a bug (it may hold a stale dot from an earlier batch); debug
  /// builds check (MX_DCHECK).
  double* MutableNodeDots(NodeId x) {
    return node_dots_.data() + static_cast<size_t>(x) * num_models_;
  }
  const double* NodeDots(NodeId x) const {
    MX_DCHECK(epoch_of_[x] == epoch_);
    return node_dots_.data() + static_cast<size_t>(x) * num_models_;
  }

 private:
  uint64_t epoch_ = 0;  // 0 = no batch yet; epoch_of_ entries start at 0
  std::vector<uint64_t> epoch_of_;  // epoch_of_[x] == epoch_ <=> x touched
  std::vector<double> node_dots_;   // [x * num_models_ + m], valid if marked
  std::vector<NodeId> touched_;
  size_t num_models_ = 1;
  size_t touched_high_water_ = 0;  // max touched_.size() across batches
};

/// Gather-amortization accounting of one BatchRankByProximityMulti call,
/// for callers (the query server, benches) that surface the shared-window
/// saving. Filled only when requested (with two or more models the what-if
/// pass costs extra candidate walks).
struct BatchMultiStats {
  /// Node rows the shared window gathered (dotted once, all models).
  uint64_t rows_gathered = 0;
  /// Node rows N one-model calls would have gathered for the same window
  /// (the sum over models of each model's own union). rows_per_model -
  /// rows_gathered is the saving; equal when one model.
  uint64_t rows_per_model = 0;
  /// Always 0: every query node dots its own pair rows, so no pair row is
  /// shared between two query nodes of a window. Kept only because the
  /// serving benchmark (servebench/main.cc) still reads it; it goes with
  /// the next change to that benchmark.
  uint64_t shared_pair_rows = 0;
};

/// The batch: ranks queries[i] under models[model_of[i]] (N >= 1 weight
/// vectors, each of the index's weight count), gathering the union of
/// touched node rows ONCE and scoring every gathered row under all N
/// models through the multi-weight score kernels, returning one
/// QueryResult per query (aligned with `queries`, duplicates included).
/// Result i is identical — same nodes, same bitwise scores, same tie-break
/// order — to the per-query path under model_of[i]'s weights, for any
/// window composition, model mix, thread count and kernel. `model_of` is
/// aligned with `queries`; duplicates of a (query, model) pair share one
/// scored result. Requires a finalized index.
///
/// With a non-null `pool` the gather and scoring passes run on its
/// workers; the results are identical for any pool size, including none.
/// With a non-null `scratch` the batch reuses that scratch's tables
/// instead of allocating O(|V|) fresh ones — results are identical either
/// way, whatever earlier batches the scratch served.
std::vector<QueryResult> BatchRankByProximityMulti(
    const MetagraphVectorIndex& index,
    std::span<const std::span<const double>> models,
    std::span<const NodeId> queries, std::span<const uint32_t> model_of,
    size_t k, util::ThreadPool* pool = nullptr, BatchScratch* scratch = nullptr,
    BatchMultiStats* stats = nullptr);

}  // namespace metaprox

#endif  // METAPROX_CORE_QUERY_BATCH_H_
