#include "index/metagraph_vectors.h"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <limits>
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

using Entry = std::pair<uint32_t, float>;
using Edit = MetagraphVectorIndex::Edit;

// Stable counting sort of the concatenated `runs` by digit(key) in
// [0, radix): edits with equal digits keep their order in the input.
template <typename Digit>
std::vector<Edit> CountingSortBy(
    size_t radix, Digit digit, const std::vector<std::span<const Edit>>& runs) {
  std::vector<uint64_t> next(radix + 1, 0);
  for (const auto run : runs) {
    for (const Edit& e : run) ++next[digit(e.key) + 1];
  }
  for (size_t d = 0; d < radix; ++d) next[d + 1] += next[d];
  std::vector<Edit> sorted(next[radix]);
  for (const auto run : runs) {
    for (const Edit& e : run) sorted[next[digit(e.key)]++] = e;
  }
  return sorted;
}

// One output row: `old` without the entries of dropped metagraphs, with
// `edits` (this row's key, ascending metagraph) upserted. Both inputs are
// in metagraph order, so the output is too.
void MergeRow(std::span<const Entry> old, std::span<const Edit> edits,
              const std::vector<uint8_t>& drop, std::vector<Entry>* out) {
  auto edit = edits.begin();
  for (const Entry& entry : old) {
    while (edit != edits.end() && edit->metagraph < entry.first) {
      out->emplace_back(edit->metagraph, edit->value);
      ++edit;
    }
    if (edit != edits.end() && edit->metagraph == entry.first) {
      out->emplace_back(edit->metagraph, edit->value);
      ++edit;
    } else if (drop[entry.first] == 0) {
      out->push_back(entry);
    }
  }
  for (; edit != edits.end(); ++edit) {
    out->emplace_back(edit->metagraph, edit->value);
  }
}

// The one linear walk behind Seal(), for node rows and pair rows alike:
// the `num_rows` source rows (keys `row_key(r)` ascending, entries
// `row(r)`) and the edits (sorted by key, then metagraph) advance
// together, key by key. Each nonempty output row is appended to `out` and
// reported as emit(key, out->size()), keys ascending.
template <typename RowKey, typename Row, typename Emit>
void MergeRows(size_t num_rows, RowKey row_key, Row row,
               std::span<const Edit> edits, const std::vector<uint8_t>& drop,
               std::vector<Entry>* out, Emit emit) {
  size_t r = 0, e = 0;
  while (r < num_rows || e < edits.size()) {
    uint64_t key = e < edits.size() ? edits[e].key
                                    : std::numeric_limits<uint64_t>::max();
    if (r < num_rows) key = std::min<uint64_t>(key, row_key(r));
    const size_t first = e;
    while (e < edits.size() && edits[e].key == key) ++e;
    std::span<const Entry> old;
    if (r < num_rows && row_key(r) == key) old = row(r++);
    const size_t begin = out->size();
    MergeRow(old, edits.subspan(first, e - first), drop, out);
    if (out->size() > begin) emit(key, out->size());
  }
}

}  // namespace

MetagraphVectorIndex::MetagraphVectorIndex(size_t num_metagraphs,
                                           size_t num_graph_nodes,
                                           CountTransform transform)
    : num_metagraphs_(num_metagraphs),
      num_graph_nodes_(num_graph_nodes),
      transform_(transform),
      committed_(num_metagraphs, 0),
      runs_(num_metagraphs),
      node_offsets_(num_graph_nodes + 1, 0),
      pair_offsets_(1, 0),
      cand_offsets_(num_graph_nodes + 1, 0) {}

MetagraphVectorIndex MetagraphVectorIndex::OpenRefresh(
    std::shared_ptr<const MetagraphVectorIndex> base,
    size_t new_num_graph_nodes) {
  MX_CHECK_MSG(base != nullptr && base->finalized(),
               "OpenRefresh() requires a finalized base index");
  MX_CHECK_MSG(new_num_graph_nodes >= base->num_graph_nodes(),
               "the refresh path only grows graphs");
  MetagraphVectorIndex build(base->num_metagraphs(), new_num_graph_nodes,
                             base->transform());
  build.committed_ = base->committed_;
  build.base_ = std::move(base);
  return build;
}

void MetagraphVectorIndex::Commit(uint32_t metagraph_index,
                                  const SymPairCountingSink& sink,
                                  size_t aut_size) {
  AddRun(metagraph_index, sink.pair_counts(), sink.node_counts(), aut_size,
         RunKind::kReplace);
}

void MetagraphVectorIndex::Upsert(
    uint32_t metagraph_index, const util::FlatCountMap<uint64_t>& pair_totals,
    const util::FlatCountMap<NodeId>& node_totals, size_t aut_size) {
  AddRun(metagraph_index, pair_totals, node_totals, aut_size,
         RunKind::kUpsert);
}

void MetagraphVectorIndex::AddRun(
    uint32_t metagraph_index, const util::FlatCountMap<uint64_t>& pair_counts,
    const util::FlatCountMap<NodeId>& node_counts, size_t aut_size,
    RunKind kind) {
  MX_CHECK_MSG(!finalized_, "Commit() after Finalize()");
  MX_CHECK(metagraph_index < num_metagraphs_);
  Run& run = runs_[metagraph_index];
  MX_CHECK_MSG(run.kind == RunKind::kNone, "metagraph committed twice");
  MX_CHECK(aut_size > 0);
  const double inv_aut = 1.0 / static_cast<double>(aut_size);
  run.pairs.reserve(pair_counts.size());
  // lint:allow-unordered-iter — each key appears once, and Seal() sorts
  // the edits by key.
  for (const auto& [key, count] : pair_counts) {
    MX_CHECK((key & 0xffffffffu) < num_graph_nodes_);
    run.pairs.push_back(
        {key, metagraph_index, static_cast<float>(count * inv_aut)});
  }
  run.nodes.reserve(node_counts.size());
  // lint:allow-unordered-iter — same argument as the pair loop above.
  for (const auto& [node, count] : node_counts) {
    MX_CHECK(node < num_graph_nodes_);
    run.nodes.push_back(
        {node, metagraph_index, static_cast<float>(count * inv_aut)});
  }
  run.kind = kind;
  committed_[metagraph_index] = 1;
}

void MetagraphVectorIndex::Seal() {
  if (finalized_) return;
  // The pending runs, in metagraph order.
  std::vector<std::span<const Edit>> pair_runs, node_runs;
  std::vector<uint8_t> drop(num_metagraphs_, 0);
  for (uint32_t i = 0; i < num_metagraphs_; ++i) {
    const Run& run = runs_[i];
    if (run.kind != RunKind::kReplace && run.kind != RunKind::kUpsert) {
      continue;
    }
    pair_runs.push_back(run.pairs);
    node_runs.push_back(run.nodes);
    drop[i] = run.kind == RunKind::kReplace;
  }
  if (pair_runs.empty() && base_ == nullptr) return;

  // The edits sorted by key, then metagraph: stable counting sorts over
  // node ids (a pair key's y, then its x) keep each key's edits in the
  // metagraph order of the runs.
  const size_t n = num_graph_nodes_;
  const std::vector<Edit> node_edits =
      CountingSortBy(n, [](uint64_t key) { return key; }, node_runs);
  std::vector<Edit> by_y = CountingSortBy(
      n, [](uint64_t key) { return key & 0xffffffffu; }, pair_runs);
  for (Run& run : runs_) {
    if (run.kind == RunKind::kReplace || run.kind == RunKind::kUpsert) {
      run = Run{RunKind::kSealed, {}, {}};
    }
  }
  const std::vector<Edit> pair_edits =
      CountingSortBy(n, [](uint64_t key) { return key >> 32; }, {by_y});
  std::vector<Edit>().swap(by_y);

  // The source rows: the refresh base on the first Seal(), else the
  // current store. The merge writes into fresh vectors, so reading the
  // current store while it runs is safe.
  const MetagraphVectorIndex& src = base_ != nullptr ? *base_ : *this;

  std::vector<Entry> node_entries;
  node_entries.reserve(src.node_entries_.size() + node_edits.size());
  std::vector<uint64_t> node_offsets(n + 1, 0);
  MergeRows(
      src.num_graph_nodes(), [](size_t r) { return r; },
      [&src](size_t r) { return src.NodeRow(static_cast<NodeId>(r)); },
      node_edits, drop, &node_entries,
      [&node_offsets](uint64_t x, size_t end) { node_offsets[x + 1] = end; });
  // Rows left empty keep the previous row's end.
  for (size_t x = 1; x <= n; ++x) {
    node_offsets[x] = std::max(node_offsets[x], node_offsets[x - 1]);
  }

  std::vector<Entry> pair_entries;
  pair_entries.reserve(src.pair_entries_.size() + pair_edits.size());
  std::vector<uint64_t> pair_keys;
  pair_keys.reserve(src.pair_keys_.size() + pair_edits.size());
  std::vector<uint64_t> pair_offsets(1, 0);
  pair_offsets.reserve(src.pair_keys_.size() + pair_edits.size() + 1);
  MergeRows(
      src.pair_keys_.size(), [&src](size_t r) { return src.pair_keys_[r]; },
      [&src](size_t r) { return src.PairRow(static_cast<uint32_t>(r)); },
      pair_edits, drop, &pair_entries,
      [&pair_keys, &pair_offsets](uint64_t key, size_t end) {
        pair_keys.push_back(key);
        pair_offsets.push_back(end);
      });

  base_ = nullptr;
  mapping_ = nullptr;
  owned_node_entries_ = std::move(node_entries);
  owned_pair_entries_ = std::move(pair_entries);
  node_offsets_ = std::move(node_offsets);
  pair_keys_ = std::move(pair_keys);
  pair_offsets_ = std::move(pair_offsets);
  AdoptEntries(owned_node_entries_, owned_pair_entries_);
}

void MetagraphVectorIndex::Finalize() {
  MX_CHECK_MSG(!finalized_, "Finalize() called twice");
  Seal();
  runs_ = {};
  finalized_ = true;
}

util::Status MetagraphVectorIndex::CheckRows(
    std::span<const Entry> entries, const std::vector<uint64_t>& offsets,
    const char* what) const {
  for (size_t r = 0; r + 1 < offsets.size(); ++r) {
    for (uint64_t e = offsets[r]; e < offsets[r + 1]; ++e) {
      if (entries[e].first >= num_metagraphs_ ||
          (e > offsets[r] && entries[e].first <= entries[e - 1].first)) {
        return util::Status::InvalidArgument(
            std::string(what) +
            " row indices not strictly increasing below |M|");
      }
    }
  }
  return util::Status::Ok();
}

void MetagraphVectorIndex::AdoptEntries(std::span<const Entry> node_entries,
                                        std::span<const Entry> pair_entries) {
  node_entries_ = node_entries;
  pair_entries_ = pair_entries;
  BuildPostings();
}

void MetagraphVectorIndex::BuildPostings() {
  // CSR candidate postings, walked in sorted key order (deterministic).
  // With keys strictly ascending and x < y, each node's candidates come
  // out ascending: first the x of every (x, node) key, then the y of
  // every (node, y) key.
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

std::span<const std::pair<uint32_t, float>> MetagraphVectorIndex::FindPairRow(
    NodeId x, NodeId y) const {
  const std::span<const NodeId> candidates = Candidates(x);
  const auto it = std::lower_bound(candidates.begin(), candidates.end(), y);
  if (it == candidates.end() || *it != y) return {};
  return PairRow(CandidateSlots(x)[it - candidates.begin()]);
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
  for (const auto& [i, c] : NodeRow(x)) {
    (*out)[i] = kernels::TransformCount(c, row_transform());
  }
}

void MetagraphVectorIndex::DensePairVector(NodeId x, NodeId y,
                                           std::vector<double>* out) const {
  out->assign(num_metagraphs_, 0.0);
  for (const auto& [i, c] : FindPairRow(x, y)) {
    (*out)[i] = kernels::TransformCount(c, row_transform());
  }
}

void MetagraphVectorIndex::SparseNodeVector(
    NodeId x, std::vector<std::pair<uint32_t, double>>* out) const {
  for (const auto& [i, c] : NodeRow(x)) {
    out->emplace_back(i, kernels::TransformCount(c, row_transform()));
  }
}

void MetagraphVectorIndex::SparsePairVector(
    NodeId x, NodeId y,
    std::vector<std::pair<uint32_t, double>>* out) const {
  for (const auto& [i, c] : FindPairRow(x, y)) {
    out->emplace_back(i, kernels::TransformCount(c, row_transform()));
  }
}

std::span<const NodeId> MetagraphVectorIndex::Candidates(NodeId x) const {
  return {candidates_.data() + cand_offsets_[x],
          candidates_.data() + cand_offsets_[x + 1]};
}

std::span<const uint32_t> MetagraphVectorIndex::CandidateSlots(NodeId x) const {
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

// Writes one sparse row; rows are stored in metagraph order.
void WriteRow(std::ostream& os,
              std::span<const std::pair<uint32_t, float>> row) {
  for (const auto& [i, c] : row) {
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
  // Pairs in sorted key order: byte-identical for any thread count.
  os << "pairs " << pair_keys_.size() << '\n';
  for (uint32_t slot = 0; slot < pair_keys_.size(); ++slot) {
    const auto row = PairRow(slot);
    os << pair_keys_[slot] << ' ' << row.size();
    WriteRow(os, row);
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
  MetagraphVectorIndex index(num_metagraphs, 0,
                             static_cast<CountTransform>(transform));
  index.num_graph_nodes_ = num_nodes;
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
  // Rows are appended straight into the store.
  auto read_row = [&is](size_t len, std::vector<Entry>* entries) {
    for (size_t e = 0; e < len && is; ++e) {
      uint32_t i = 0;
      float c = 0;
      is >> i >> c;
      entries->emplace_back(i, c);
    }
    return static_cast<bool>(is);
  };
  size_t count = 0;
  is >> word >> count;
  if (!is || word != "nodes") {
    return util::Status::InvalidArgument("missing nodes section");
  }
  std::vector<Entry>& node_entries = index.owned_node_entries_;
  std::vector<uint64_t>& node_offsets = index.node_offsets_;
  node_offsets.assign(num_nodes + 1, 0);
  uint64_t next = 0;  // nodes below `next` have their row start set
  for (size_t n = 0; n < count; ++n) {
    uint64_t v = 0;
    size_t row_len = 0;
    is >> v >> row_len;
    if (!is || v < next || v >= num_nodes || row_len > num_metagraphs) {
      return util::Status::InvalidArgument("bad node vector row");
    }
    while (next <= v) node_offsets[next++] = node_entries.size();
    if (!read_row(row_len, &node_entries)) {
      return util::Status::InvalidArgument("bad node vector entry");
    }
  }
  while (next <= num_nodes) node_offsets[next++] = node_entries.size();

  is >> word >> count;
  if (!is || word != "pairs") {
    return util::Status::InvalidArgument("missing pairs section");
  }
  for (size_t n = 0; n < count; ++n) {
    uint64_t key = 0;
    size_t row_len = 0;
    is >> key >> row_len;
    if (!is || row_len > num_metagraphs) {
      return util::Status::InvalidArgument("bad pair vector row");
    }
    const uint64_t x = key >> 32;
    const uint64_t y = key & 0xffffffffu;
    if (x >= y || y >= num_nodes) {
      return util::Status::InvalidArgument("pair key not (x, y) with x < y");
    }
    if (!index.pair_keys_.empty() && key <= index.pair_keys_.back()) {
      return util::Status::InvalidArgument("pair keys not strictly increasing");
    }
    index.pair_keys_.push_back(key);
    if (!read_row(row_len, &index.owned_pair_entries_)) {
      return util::Status::InvalidArgument("bad pair vector entry");
    }
    index.pair_offsets_.push_back(index.owned_pair_entries_.size());
  }
  MX_RETURN_IF_ERROR(index.CheckRows(node_entries, node_offsets, "node"));
  MX_RETURN_IF_ERROR(index.CheckRows(index.owned_pair_entries_,
                                     index.pair_offsets_, "pair"));
  index.AdoptEntries(node_entries, index.owned_pair_entries_);
  index.Finalize();
  return index;
}

}  // namespace metaprox
