// Metagraph-based proximity MGP (Def. 3, Eq. 3):
//
//   pi(x, y; w) = 2 (m_xy . w) / (m_x . w + m_y . w)
//
// with non-negative characteristic weights w over the metagraph set. The
// measure is symmetric, self-maximal (pi in [0,1], pi(x,x)=1), and
// scale-invariant in w (Theorem 1).
#ifndef METAPROX_LEARNING_PROXIMITY_H_
#define METAPROX_LEARNING_PROXIMITY_H_

#include <span>
#include <vector>

#include "graph/types.h"
#include "index/metagraph_vectors.h"

namespace metaprox {

/// A trained proximity model for one semantic class: one weight per
/// metagraph in the mined set (zero for metagraphs never matched).
struct MgpModel {
  std::vector<double> weights;
};

/// Computes pi(x, y; w). Returns 1 when x == y and 0 when the denominator
/// vanishes (the nodes share no matched metagraph occurrences).
double MgpProximity(const MetagraphVectorIndex& index,
                    std::span<const double> weights, NodeId x, NodeId y);

/// The one ranking order of the online phase: descending proximity, ties
/// broken by ascending node id. Shared by the sequential (RankByProximity)
/// and batched (BatchRankByProximityMulti) paths — it is a strict total order
/// over (node, score) entries with distinct nodes, which is what makes
/// their top-k outputs comparable entry-for-entry.
inline bool ProximityRankBefore(const std::pair<NodeId, double>& a,
                                const std::pair<NodeId, double>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

/// Ranks `candidates` by descending pi(q, .; w), ties broken by node id.
/// Returns up to `k` (node, proximity) entries with proximity > 0.
std::vector<std::pair<NodeId, double>> RankByProximity(
    const MetagraphVectorIndex& index, std::span<const double> weights,
    NodeId q, std::span<const NodeId> candidates, size_t k);

}  // namespace metaprox

#endif  // METAPROX_LEARNING_PROXIMITY_H_
