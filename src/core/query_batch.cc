#include "core/query_batch.h"

#include <algorithm>
#include <cstdint>

#include "core/score_kernels.h"
#include "learning/proximity.h"
#include "util/macros.h"
#include "util/parallel_for.h"

namespace metaprox {
namespace {

using Member = std::pair<NodeId, uint32_t>;  // (query node, model)

// Scores candidate y of query node q for every member model of q's group,
// appending to members' lists (aligned with `members`). The guards and
// arithmetic are RankByProximity's term for term, which is what makes each
// member's result bitwise the per-query one under its own model.
void ScoreCandidate(NodeId y, const double* pair_dots, const double* q_dots,
                    const double* y_dots, std::span<const Member> members,
                    QueryResult* scored) {
  for (size_t j = 0; j < members.size(); ++j) {
    const uint32_t m = members[j].second;
    const double numer = 2.0 * pair_dots[m];
    if (numer <= 0.0) continue;
    const double denom = q_dots[m] + y_dots[m];
    if (denom <= 0.0) continue;
    scored[j].emplace_back(y, numer / denom);
  }
}

}  // namespace

void BatchScratch::BeginBatch(size_t num_nodes, size_t num_models) {
  MX_CHECK(num_models >= 1);
  num_models_ = num_models;
  // Both tables only ever grow (to the largest graph and nodes x models
  // layout seen); stale contents need no zeroing. New epoch_of_ entries
  // start at 0 and old ones hold earlier epochs, so the ever-increasing
  // epoch gates every read.
  if (epoch_of_.size() < num_nodes) epoch_of_.resize(num_nodes);
  if (node_dots_.size() < num_nodes * num_models_) {
    node_dots_.resize(num_nodes * num_models_);
  }
  ++epoch_;
  touched_high_water_ = std::max(touched_high_water_, touched_.size());
  touched_.clear();
  touched_.reserve(touched_high_water_);
}

std::vector<QueryResult> BatchRankByProximityMulti(
    const MetagraphVectorIndex& index,
    std::span<const std::span<const double>> models,
    std::span<const NodeId> queries, std::span<const uint32_t> model_of,
    size_t k, util::ThreadPool* pool, BatchScratch* scratch,
    BatchMultiStats* stats) {
  MX_CHECK(model_of.size() == queries.size());
  MX_CHECK(!models.empty());
  const size_t n_models = models.size();
  for (std::span<const double> w : models) {
    MX_CHECK(w.size() == index.num_metagraphs());
  }
  if (stats != nullptr) *stats = BatchMultiStats{};

  std::vector<QueryResult> results(queries.size());
  if (queries.empty()) return results;

  const size_t num_nodes = index.num_graph_nodes();
  for (size_t i = 0; i < queries.size(); ++i) {
    MX_CHECK(queries[i] < num_nodes);
    MX_CHECK(model_of[i] < n_models);
  }

  // One-shot callers pay a fresh O(|V|) allocation here; callers in a
  // serving loop pass a long-lived scratch and pay only for the rows each
  // batch actually touches.
  BatchScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;

  // Duplicates of a (query, model) pair share one scored result: collapse
  // to sorted unique pairs. Sorting by (node, model) also groups a node's
  // model memberships contiguously for the scoring passes, and keeps the
  // scatter a binary search.
  std::vector<Member> uniq;
  uniq.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    uniq.emplace_back(queries[i], model_of[i]);
  }
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());

  // One group per unique query NODE (a node queried under several models
  // still gathers and walks its candidates once): qnodes[g] is the node,
  // uniq[group_begin[g] .. group_begin[g + 1]) its members.
  std::vector<NodeId> qnodes;
  std::vector<size_t> group_begin;
  qnodes.reserve(uniq.size());
  group_begin.reserve(uniq.size() + 1);
  for (size_t i = 0; i < uniq.size(); ++i) {
    if (i == 0 || uniq[i].first != uniq[i - 1].first) {
      qnodes.push_back(uniq[i].first);
      group_begin.push_back(i);
    }
  }
  group_begin.push_back(uniq.size());
  const uint32_t num_groups = static_cast<uint32_t>(qnodes.size());
  auto members_of = [&](uint32_t g) {
    return std::span<const Member>(uniq).subspan(
        group_begin[g], group_begin[g + 1] - group_begin[g]);
  };

  // Optional what-if accounting: how many rows N one-model calls would
  // have gathered for this same window. With two or more models that costs
  // one extra marking walk per model, no dots; with one it is the union.
  if (stats != nullptr && n_models > 1) {
    for (uint32_t m = 0; m < n_models; ++m) {
      scratch->BeginBatch(num_nodes, 1);
      for (const auto& [q, qm] : uniq) {
        if (qm != m) continue;
        scratch->MarkTouched(q);
        for (NodeId y : index.Candidates(q)) scratch->MarkTouched(y);
      }
      stats->rows_per_model += scratch->touched().size();
    }
  }

  // The shared window: mark the UNION of every query's touched rows, once.
  scratch->BeginBatch(num_nodes, n_models);
  for (NodeId q : qnodes) {
    scratch->MarkTouched(q);
    for (NodeId y : index.Candidates(q)) scratch->MarkTouched(y);
  }

  kernels::MultiWeightSet wset;
  wset.Assign(models);

  // Gather pass, all models at once: each touched node row is walked (and
  // its count transform computed) exactly once, filling its n_models dots.
  // Chunks write disjoint rows (the list is duplicate-free), so no
  // synchronization.
  const std::span<const NodeId> nodes = scratch->touched();
  if (stats != nullptr) {
    stats->rows_gathered = nodes.size();
    if (n_models == 1) stats->rows_per_model = nodes.size();
  }
  const kernels::RowTransform transform = index.row_transform();
  util::ParallelChunks(pool, nodes.size(), [&](size_t begin, size_t end) {
    std::vector<double> lanes(wset.lane_scratch_size());
    for (size_t i = begin; i < end; ++i) {
      kernels::RowDotMulti(index.NodeRow(nodes[i]), wset, transform,
                           scratch->MutableNodeDots(nodes[i]), lanes.data());
    }
  });

  // Scoring pass: one group per query node, walking its candidate postings
  // ONCE for all its member models. Each candidate's pair row yields its
  // n_models dots in one kernel call.
  std::vector<QueryResult> uniq_results(uniq.size());
  util::ParallelChunks(pool, num_groups, [&](size_t begin, size_t end) {
    std::vector<double> lanes(wset.lane_scratch_size());
    std::vector<double> pair_dots(n_models);
    // Lists grow in worker-local vectors and move out when ranked:
    // growing them in place would put neighbouring groups' vector headers,
    // written on every append, in one cache line across workers.
    std::vector<QueryResult> scored;
    for (uint32_t g = static_cast<uint32_t>(begin); g < end; ++g) {
      const NodeId q = qnodes[g];
      const std::span<const NodeId> candidates = index.Candidates(q);
      const std::span<const uint32_t> slots = index.CandidateSlots(q);
      const double* q_dots = scratch->NodeDots(q);
      const std::span<const Member> members = members_of(g);
      scored.resize(members.size());
      for (QueryResult& s : scored) s.reserve(candidates.size());
      for (size_t i = 0; i < candidates.size(); ++i) {
        const NodeId y = candidates[i];
        if (y == q) continue;
        kernels::RowDotMulti(index.PairRow(slots[i]), wset, transform,
                             pair_dots.data(), lanes.data());
        ScoreCandidate(y, pair_dots.data(), q_dots, scratch->NodeDots(y),
                       members, scored.data());
      }
      // ProximityRankBefore is total, so the top k do not depend on the
      // order the candidates were scored in.
      for (size_t j = 0; j < members.size(); ++j) {
        QueryResult& s = scored[j];
        const size_t take = std::min(k, s.size());
        std::partial_sort(s.begin(), s.begin() + static_cast<int64_t>(take),
                          s.end(), ProximityRankBefore);
        s.resize(take);
        uniq_results[group_begin[g] + j] = std::move(s);
      }
    }
  });

  // Scatter back into batch order; duplicates copy the shared result.
  for (size_t i = 0; i < queries.size(); ++i) {
    const Member key(queries[i], model_of[i]);
    const size_t pos = static_cast<size_t>(
        std::lower_bound(uniq.begin(), uniq.end(), key) - uniq.begin());
    results[i] = uniq_results[pos];
  }
  return results;
}

}  // namespace metaprox
