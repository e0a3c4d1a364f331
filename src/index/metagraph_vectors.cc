#include "index/metagraph_vectors.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <string>

#include "core/score_kernels.h"
#include "util/macros.h"

namespace metaprox {

// row_transform() maps CountTransform onto the kernels enum by value.
static_assert(static_cast<int>(CountTransform::kRaw) ==
                      static_cast<int>(kernels::RowTransform::kRaw) &&
                  static_cast<int>(CountTransform::kLog1p) ==
                      static_cast<int>(kernels::RowTransform::kLog1p),
              "CountTransform and kernels::RowTransform must correspond");

SymPairCountingSink::SymPairCountingSink(const SymmetryInfo& sym,
                                         uint64_t embedding_cap)
    : sym_(sym), cap_(embedding_cap) {
  uint8_t seen = 0;
  for (auto [a, b] : sym_.symmetric_pairs) {
    if (!((seen >> a) & 1u)) sym_nodes_.push_back(a);
    if (!((seen >> b) & 1u)) sym_nodes_.push_back(b);
    seen |= static_cast<uint8_t>((1u << a) | (1u << b));
  }
}

bool SymPairCountingSink::OnEmbedding(std::span<const NodeId> embedding) {
  ++num_embeddings_;
  for (auto [a, b] : sym_.symmetric_pairs) {
    ++pair_counts_[PairKey(embedding[a], embedding[b])];
  }
  // Injectivity of embeddings means each graph node occupies exactly one
  // position, so no within-embedding dedup is needed for Eq. 2.
  for (MetaNodeId u : sym_nodes_) ++node_counts_[embedding[u]];
  return num_embeddings_ < cap_;
}

namespace {

// The one canonical row order: by metagraph index, which is unique within
// a row, so this is a total order. Seal()/SortRow and WriteRow must agree
// on it — it is the order the byte-identical-serialization contract
// compares.
constexpr auto kRowOrder = [](const std::pair<uint32_t, float>& a,
                              const std::pair<uint32_t, float>& b) {
  return a.first < b.first;
};

void SortRow(std::vector<std::pair<uint32_t, float>>& row) {
  if (!std::is_sorted(row.begin(), row.end(), kRowOrder)) {
    std::sort(row.begin(), row.end(), kRowOrder);
  }
}

}  // namespace

MetagraphVectorIndex::MetagraphVectorIndex(size_t num_metagraphs,
                                           size_t num_graph_nodes,
                                           CountTransform transform,
                                           size_t num_shards)
    : num_metagraphs_(num_metagraphs),
      transform_(transform),
      num_shards_(std::clamp<size_t>(num_shards, 1, kMaxShards)),
      committed_(num_metagraphs, 0),
      node_vectors_(num_graph_nodes) {
  shards_.reserve(num_shards_);
  node_stripes_.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    node_stripes_.push_back(std::make_unique<NodeStripe>());
  }
}

void MetagraphVectorIndex::Commit(uint32_t metagraph_index,
                                  const SymPairCountingSink& sink,
                                  size_t aut_size) {
  Commit(metagraph_index, sink.pair_counts(), sink.node_counts(), aut_size);
}

void MetagraphVectorIndex::Commit(
    uint32_t metagraph_index, const util::FlatCountMap<uint64_t>& pair_counts,
    const util::FlatCountMap<NodeId>& node_counts, size_t aut_size) {
  MX_CHECK(metagraph_index < num_metagraphs_);
  MX_CHECK_MSG(committed_[metagraph_index] == 0, "metagraph committed twice");
  MX_CHECK(aut_size > 0);
  MX_CHECK_MSG(!finalized_, "Commit() after Finalize()");
  committed_[metagraph_index] = 1;

  const double inv_aut = 1.0 / static_cast<double>(aut_size);

  // Bucket the sink's counts by destination shard/stripe first, so each
  // shard mutex is taken once per commit instead of once per entry.
  std::vector<std::vector<std::pair<uint64_t, float>>> pair_buckets(
      num_shards_);
  // lint:allow-unordered-iter — each key appears once per commit, so row
  // contents are order-independent; entry order is erased at Seal/Finalize.
  for (const auto& [key, count] : pair_counts) {
    pair_buckets[ShardOf(key)].emplace_back(
        key, static_cast<float>(count * inv_aut));
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    if (pair_buckets[s].empty()) continue;
    Shard& shard = *shards_[s];
    mx::MutexLock lock(shard.mu);
    for (const auto& [key, value] : pair_buckets[s]) {
      shard.pairs[key].emplace_back(metagraph_index, value);
      shard.dirty.push_back(key);
    }
  }

  std::vector<std::vector<std::pair<NodeId, float>>> node_buckets(num_shards_);
  // lint:allow-unordered-iter — same argument as the pair loop above.
  for (const auto& [node, count] : node_counts) {
    MX_CHECK(node < node_vectors_.size());
    node_buckets[node % num_shards_].emplace_back(
        node, static_cast<float>(count * inv_aut));
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    if (node_buckets[s].empty()) continue;
    NodeStripe& stripe = *node_stripes_[s];
    mx::MutexLock lock(stripe.mu);
    for (const auto& [node, value] : node_buckets[s]) {
      node_vectors_[node].emplace_back(metagraph_index, value);
      stripe.dirty.push_back(node);
    }
  }
}

void MetagraphVectorIndex::Seal() {
  if (finalized_) return;  // finalized rows are already sorted
  // Only rows touched since the last Seal(). The dirty lists carry one
  // entry per (row, metagraph) append, so dedupe first — a hub row
  // touched by m metagraphs would otherwise be re-scanned m times. Seal
  // runs with no concurrent Commits (see the class comment), so each
  // shard/stripe lock is uncontended — taken once per shard on this cold
  // path purely to keep the guarded accesses inside the contract the
  // annotations state.
  auto dedupe = [](auto& dirty) {
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  };
  for (const auto& shard : shards_) {
    mx::MutexLock lock(shard->mu);
    dedupe(shard->dirty);
    for (uint64_t key : shard->dirty) SortRow(shard->pairs[key]);
    shard->dirty.clear();
  }
  for (const auto& stripe : node_stripes_) {
    mx::MutexLock lock(stripe->mu);
    dedupe(stripe->dirty);
    for (NodeId node : stripe->dirty) SortRow(node_vectors_[node]);
    stripe->dirty.clear();
  }
}

void MetagraphVectorIndex::Finalize() {
  MX_CHECK_MSG(!finalized_, "Finalize() called twice");
  // Full sweep, not Seal(): one-time O(index) cost that also covers rows
  // that never went through Commit (ReadFrom's direct row loads). Each
  // shard is drained under its (uncontended — Finalize runs with no
  // concurrent Commits) lock into one flat list, which is then merged in
  // globally sorted key order. The order is a pure function of the
  // committed keys, so the finalized layout is independent of the shard
  // count and of commit interleaving.
  for (SparseVec& row : node_vectors_) SortRow(row);

  std::vector<std::pair<uint64_t, SparseVec>> drained;
  {
    size_t total = 0;
    for (const auto& shard : shards_) {
      mx::MutexLock lock(shard->mu);
      total += shard->pairs.size();
    }
    drained.reserve(total);
  }
  for (const auto& shard : shards_) {
    mx::MutexLock lock(shard->mu);
    // lint:allow-unordered-iter — drain order is erased by the sort below.
    for (auto& [key, row] : shard->pairs) {
      SortRow(row);
      drained.emplace_back(key, std::move(row));
    }
    shard->pairs.clear();
    shard->dirty.clear();
  }
  std::sort(drained.begin(), drained.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  pair_keys_.reserve(drained.size());
  pair_vectors_.reserve(drained.size());
  pair_slots_.reserve(drained.size());
  for (auto& [key, row] : drained) {
    pair_slots_.emplace(key, static_cast<uint32_t>(pair_vectors_.size()));
    pair_keys_.push_back(key);
    pair_vectors_.push_back(std::move(row));
  }
  shards_.clear();
  node_stripes_.clear();

  BuildPostings();
  finalized_ = true;
}

void MetagraphVectorIndex::BuildPostings() {
  // CSR candidate postings, walked in sorted key order (deterministic).
  const size_t n = num_graph_nodes();
  std::vector<uint32_t> degree(n, 0);
  for (uint64_t key : pair_keys_) {
    ++degree[static_cast<NodeId>(key >> 32)];
    ++degree[static_cast<NodeId>(key & 0xffffffffu)];
  }
  cand_offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    cand_offsets_[i + 1] = cand_offsets_[i] + degree[i];
  }
  candidates_.resize(cand_offsets_[n]);
  cand_slots_.resize(cand_offsets_[n]);
  std::vector<uint64_t> cursor(cand_offsets_.begin(), cand_offsets_.end() - 1);
  for (size_t slot = 0; slot < pair_keys_.size(); ++slot) {
    const uint64_t key = pair_keys_[slot];
    NodeId x = static_cast<NodeId>(key >> 32);
    NodeId y = static_cast<NodeId>(key & 0xffffffffu);
    cand_slots_[cursor[x]] = static_cast<uint32_t>(slot);
    candidates_[cursor[x]++] = y;
    cand_slots_[cursor[y]] = static_cast<uint32_t>(slot);
    candidates_[cursor[y]++] = x;
  }
}

MetagraphVectorIndex MetagraphVectorIndex::CloneForRefresh(
    size_t new_num_graph_nodes, std::span<const uint32_t> rematch,
    size_t num_shards) const {
  MX_CHECK_MSG(finalized_, "CloneForRefresh() requires a finalized index");
  MX_CHECK_MSG(new_num_graph_nodes >= num_graph_nodes(),
               "the refresh path only grows graphs");

  std::vector<uint8_t> drop(num_metagraphs_, 0);
  for (uint32_t i : rematch) {
    MX_CHECK(i < num_metagraphs_);
    drop[i] = 1;
  }

  MetagraphVectorIndex out(num_metagraphs_, new_num_graph_nodes, transform_,
                           num_shards);
  out.committed_ = committed_;
  for (uint32_t i : rematch) out.committed_[i] = 0;

  // Seed the surviving entries. Rows (and pair slots) left empty by the
  // filter are dropped — a from-scratch rebuild would never create them.
  // NodeRow/PairRow serve owned and mapped indexes alike, and the source
  // rows are already in canonical (ascending metagraph) order, so the
  // seeded rows need no Seal of their own.
  SparseVec filtered;
  const size_t old_nodes = num_graph_nodes();
  for (NodeId x = 0; x < old_nodes; ++x) {
    filtered.clear();
    for (const auto& entry : NodeRow(x)) {
      if (!drop[entry.first]) filtered.push_back(entry);
    }
    if (!filtered.empty()) out.node_vectors_[x] = filtered;
  }
  for (uint32_t slot = 0; slot < pair_keys_.size(); ++slot) {
    filtered.clear();
    for (const auto& entry : PairRow(slot)) {
      if (!drop[entry.first]) filtered.push_back(entry);
    }
    if (!filtered.empty()) out.AppendPairRow(pair_keys_[slot], filtered);
  }
  return out;
}

size_t MetagraphVectorIndex::num_pairs() const {
  if (finalized_) return pair_keys_.size();
  size_t total = 0;
  for (const auto& shard : shards_) {
    mx::MutexLock lock(shard->mu);
    total += shard->pairs.size();
  }
  return total;
}

double MetagraphVectorIndex::Transform(double raw) const {
  switch (transform_) {
    case CountTransform::kRaw:
      return raw;
    case CountTransform::kLog1p:
      return std::log1p(raw);
  }
  return raw;
}

std::span<const std::pair<uint32_t, float>> MetagraphVectorIndex::FindPairRow(
    NodeId x, NodeId y) const {
  const uint64_t key = PairKey(x, y);
  if (mapped_ != nullptr) {
    // No hash table in mapped mode: binary search the sorted keys.
    auto it = std::lower_bound(pair_keys_.begin(), pair_keys_.end(), key);
    if (it == pair_keys_.end() || *it != key) return {};
    return PairRow(static_cast<uint32_t>(it - pair_keys_.begin()));
  }
  if (finalized_) {
    auto it = pair_slots_.find(key);
    if (it == pair_slots_.end()) return {};
    return pair_vectors_[it->second];
  }
  return ProbeShardRowUnlocked(key);
}

// Unlocked by design — the justification lives on the declaration.
std::span<const std::pair<uint32_t, float>>
MetagraphVectorIndex::ProbeShardRowUnlocked(uint64_t key) const {
  // Pre-Finalize read: consult the owning shard. Callers must not race
  // this with a commit batch (see the class comment).
  const Shard& shard = *shards_[ShardOf(key)];
  auto it = shard.pairs.find(key);
  if (it == shard.pairs.end()) return {};
  return it->second;
}

void MetagraphVectorIndex::AppendPairRow(uint64_t key, SparseVec vec) {
  Shard& shard = *shards_[ShardOf(key)];
  mx::MutexLock lock(shard.mu);
  shard.pairs.emplace(key, std::move(vec));
}

kernels::RowTransform MetagraphVectorIndex::row_transform() const {
  return static_cast<kernels::RowTransform>(transform_);
}

double MetagraphVectorIndex::NodeDot(NodeId x,
                                     std::span<const double> w) const {
  MX_DCHECK(w.size() == num_metagraphs_);
  return kernels::RowDot(NodeRow(x), w, row_transform());
}

double MetagraphVectorIndex::PairDot(NodeId x, NodeId y,
                                     std::span<const double> w) const {
  return kernels::RowDot(FindPairRow(x, y), w, row_transform());
}

void MetagraphVectorIndex::DenseNodeVector(NodeId x,
                                           std::vector<double>* out) const {
  out->assign(num_metagraphs_, 0.0);
  for (const auto& [i, c] : NodeRow(x)) (*out)[i] = Transform(c);
}

void MetagraphVectorIndex::DensePairVector(NodeId x, NodeId y,
                                           std::vector<double>* out) const {
  out->assign(num_metagraphs_, 0.0);
  for (const auto& [i, c] : FindPairRow(x, y)) (*out)[i] = Transform(c);
}

void MetagraphVectorIndex::SparseNodeVector(
    NodeId x, std::vector<std::pair<uint32_t, double>>* out) const {
  for (const auto& [i, c] : NodeRow(x)) {
    out->emplace_back(i, Transform(c));
  }
}

void MetagraphVectorIndex::SparsePairVector(
    NodeId x, NodeId y,
    std::vector<std::pair<uint32_t, double>>* out) const {
  for (const auto& [i, c] : FindPairRow(x, y)) {
    out->emplace_back(i, Transform(c));
  }
}

std::span<const NodeId> MetagraphVectorIndex::Candidates(NodeId x) const {
  MX_CHECK_MSG(finalized_, "Finalize() must be called before Candidates()");
  return {candidates_.data() + cand_offsets_[x],
          candidates_.data() + cand_offsets_[x + 1]};
}

std::span<const uint32_t> MetagraphVectorIndex::CandidateSlots(NodeId x) const {
  MX_CHECK_MSG(finalized_,
               "Finalize() must be called before CandidateSlots()");
  return {cand_slots_.data() + cand_offsets_[x],
          cand_slots_.data() + cand_offsets_[x + 1]};
}

double MetagraphVectorIndex::SlotDot(uint32_t slot,
                                     std::span<const double> w) const {
  return kernels::RowDot(PairRow(slot), w, row_transform());
}

namespace {
constexpr char kIndexMagic[] = "metaprox-index v1";

// 9 significant digits (FLT_DECIMAL_DIG) round-trip every finite float32
// exactly through the stream extraction on read, so the text and binary
// formats of one index load to bitwise-identical counts — and therefore
// bitwise-identical query results.
void WriteCount(std::ostream& os, float c) {
  char buf[32];
  // lint:allow-float-format — pinned v1 text format, round-trip exact.
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(c));
  os << buf;
}

// Writes one sparse row in the canonical kRowOrder; sorts a copy first if
// the caller skipped Seal(), so the serialization is deterministic no
// matter what.
void WriteRow(std::ostream& os,
              std::span<const std::pair<uint32_t, float>> row) {
  if (std::is_sorted(row.begin(), row.end(), kRowOrder)) {
    for (const auto& [i, c] : row) {
      os << ' ' << i << ' ';
      WriteCount(os, c);
    }
    return;
  }
  std::vector<std::pair<uint32_t, float>> sorted(row.begin(), row.end());
  std::sort(sorted.begin(), sorted.end(), kRowOrder);
  for (const auto& [i, c] : sorted) {
    os << ' ' << i << ' ';
    WriteCount(os, c);
  }
}
}  // namespace

util::Status MetagraphVectorIndex::WriteTo(std::ostream& os) const {
  const size_t num_nodes = num_graph_nodes();
  os << kIndexMagic << '\n';
  os << num_metagraphs_ << ' ' << num_nodes << ' '
     << static_cast<int>(transform_) << '\n';
  os << "committed";
  for (size_t i = 0; i < num_metagraphs_; ++i) {
    os << ' ' << (committed_[i] != 0 ? 1 : 0);
  }
  os << '\n';
  size_t nonempty_nodes = 0;
  for (NodeId v = 0; v < num_nodes; ++v) nonempty_nodes += !NodeRow(v).empty();
  os << "nodes " << nonempty_nodes << '\n';
  for (NodeId v = 0; v < num_nodes; ++v) {
    const auto vec = NodeRow(v);
    if (vec.empty()) continue;
    os << v << ' ' << vec.size();
    WriteRow(os, vec);
    os << '\n';
  }
  // Pairs in sorted key order: byte-identical for any thread/shard count.
  std::vector<uint64_t> keys;
  if (finalized_) {
    keys = pair_keys_;
  } else {
    keys.reserve(num_pairs());
    for (const auto& shard : shards_) {
      mx::MutexLock lock(shard->mu);
      // lint:allow-unordered-iter — collection order is erased by the sort.
      for (const auto& [key, row] : shard->pairs) keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
  }
  os << "pairs " << keys.size() << '\n';
  for (uint64_t key : keys) {
    NodeId x = static_cast<NodeId>(key >> 32);
    NodeId y = static_cast<NodeId>(key & 0xffffffffu);
    const auto vec = FindPairRow(x, y);
    os << key << ' ' << vec.size();
    WriteRow(os, vec);
    os << '\n';
  }
  if (!os.good()) return util::Status::IoError("index write failed");
  return util::Status::Ok();
}

util::StatusOr<MetagraphVectorIndex> MetagraphVectorIndex::ReadFrom(
    std::istream& is) {
  // The dimension checks in ReadTextFrom bound every allocation a
  // well-formed-looking file can request, but a hostile one can still
  // claim in-range dimensions vastly larger than memory (text has no
  // section sizes to cross-check against, unlike the binary container);
  // that must surface as a structured error, not an unhandled bad_alloc.
  try {
    return ReadTextFrom(is);
  } catch (const std::bad_alloc&) {
    return util::Status::InvalidArgument(
        "index text artifact dimensions do not fit in memory");
  }
}

util::StatusOr<MetagraphVectorIndex> MetagraphVectorIndex::ReadTextFrom(
    std::istream& is) {
  std::string magic;
  std::getline(is, magic);
  if (magic != kIndexMagic) {
    return util::Status::InvalidArgument("missing metaprox-index v1 header");
  }
  size_t num_metagraphs = 0, num_nodes = 0;
  int transform = 0;
  is >> num_metagraphs >> num_nodes >> transform;
  if (!is || transform < 0 || transform > 1) {
    return util::Status::InvalidArgument("bad index dimensions");
  }
  // Same ceilings as the binary reader: metagraph indices and node ids
  // are 32-bit in memory.
  if (num_metagraphs > 0xffffffffull || num_nodes > 0xffffffffull) {
    return util::Status::InvalidArgument(
        "index text artifact declares out-of-range dimensions");
  }
  MetagraphVectorIndex index(num_metagraphs, num_nodes,
                             static_cast<CountTransform>(transform));
  std::string word;
  is >> word;
  if (word != "committed") {
    return util::Status::InvalidArgument("missing committed section");
  }
  for (size_t i = 0; i < num_metagraphs; ++i) {
    int flag = 0;
    is >> flag;
    index.committed_[i] = flag != 0 ? 1 : 0;
  }
  size_t count = 0;
  is >> word >> count;
  if (!is || word != "nodes") {
    return util::Status::InvalidArgument("missing nodes section");
  }
  for (size_t n = 0; n < count; ++n) {
    uint64_t v = 0;
    size_t entries = 0;
    is >> v >> entries;
    if (!is || v >= num_nodes || entries > num_metagraphs) {
      return util::Status::InvalidArgument("bad node vector row");
    }
    SparseVec vec;
    vec.reserve(entries);
    for (size_t e = 0; e < entries; ++e) {
      uint32_t i = 0;
      float c = 0;
      is >> i >> c;
      if (!is || i >= num_metagraphs) {
        return util::Status::InvalidArgument("bad node vector entry");
      }
      vec.emplace_back(i, c);
    }
    index.node_vectors_[v] = std::move(vec);
  }
  is >> word >> count;
  if (!is || word != "pairs") {
    return util::Status::InvalidArgument("missing pairs section");
  }
  for (size_t n = 0; n < count; ++n) {
    uint64_t key = 0;
    size_t entries = 0;
    is >> key >> entries;
    if (!is || entries > num_metagraphs) {
      return util::Status::InvalidArgument("bad pair vector row");
    }
    NodeId x = static_cast<NodeId>(key >> 32);
    NodeId y = static_cast<NodeId>(key & 0xffffffffu);
    if (x >= num_nodes || y >= num_nodes) {
      return util::Status::InvalidArgument("pair key out of range");
    }
    SparseVec vec;
    vec.reserve(entries);
    for (size_t e = 0; e < entries; ++e) {
      uint32_t i = 0;
      float c = 0;
      is >> i >> c;
      if (!is || i >= num_metagraphs) {
        return util::Status::InvalidArgument("bad pair vector entry");
      }
      vec.emplace_back(i, c);
    }
    index.AppendPairRow(key, std::move(vec));
  }
  index.Finalize();
  return index;
}

}  // namespace metaprox
