// Metagraph vectors (Sect. II, Eq. 1-2) and their sparse index.
//
// For a set of metagraphs M = {M_1, ..., M_|M|}:
//   m_xy[i] = #instances of M_i containing x and y at symmetric positions,
//   m_x[i]  = #instances of M_i containing x at a symmetric position.
//
// Matchers enumerate embeddings; each instance of M_i is hit by exactly
// |Aut(M_i)| embeddings and the "symmetric position" predicates are
// invariant under automorphisms, so we accumulate per-embedding counts and
// divide by |Aut(M_i)| on commit.
//
// Storage is sparse: pair rows keyed by (min(x,y), max(x,y)) plus
// per-node postings, which is what makes the online phase (Fig. 3) a pure
// lookup: the candidates for query q are exactly the nodes sharing a pair
// row with q.
//
// Build lifecycle and thread-safety (see also docs/ARCHITECTURE.md):
//
//   MetagraphVectorIndex index(|M|, |V|, transform);
//   index.Commit(i, sink_i, aut_i);   // any thread, any order, once per i
//   index.Seal();                     // one thread, after a commit batch
//   ... read accessors (NodeDot, PairDot, Candidates, WriteTo, ...) ...
//   index.Commit(j, ...); index.Seal();   // more batches are fine
//   index.Finalize();                 // exactly once; forbids commits
//
// Commit() turns one metagraph's counts into a RUN of (key, metagraph,
// value) entries and parks it in that metagraph's own slot. Slots are
// disjoint, so Commit() takes no lock and is safe to call concurrently
// for distinct metagraphs. Seal() sorts the pending runs' entries by key
// with stable counting sorts over node ids, taking the runs in metagraph
// order, merges them with the current rows in one linear walk and
// rebuilds the candidate postings. Every row comes out in metagraph
// order, so the store is a pure function of WHICH runs were committed:
// the same bytes for any number of committing threads and any commit
// interleaving.
// Reads see the last sealed store; a sealed store is read exactly like a
// finalized one. Finalize() seals what is pending and drops the build
// state. Committing after Finalize(), finalizing twice or committing one
// metagraph twice in one build aborts (MX_CHECK).
//
// A refresh is the same merge over an older store: OpenRefresh() starts a
// build over a finalized (owned or mapped) base index for a grown graph,
// without copying it. A re-matched metagraph Commit()s a run that REPLACES
// all of its base entries; a metagraph refreshed from its delta Upsert()s
// only the keys the delta touched. The first Seal() walks the base rows
// once, minus the replaced metagraphs' entries, merged with the runs;
// rows left empty are dropped.
//
// A finalized index is one CSR store however it was made: row offsets
// plus node and pair entry spans. The spans point into owned storage
// (the Seal() merge, the text reader, ReadBinaryFrom) or into a pinned
// read-only mapping of an aligned artifact (MapFromFile); the row
// accessors do not tell the two apart.
//
// Read accessors are safe from multiple threads as long as no Commit /
// Seal / Finalize runs concurrently; they must not race a commit batch.
//
// Persistence: the index serializes to the v1 text format (WriteTo /
// ReadFrom, debug/interop path) and to the v2 binary container
// (WriteBinaryTo / ReadBinaryFrom / MapFromFile; byte-level spec in
// docs/ARCHITECTURE.md "Persistence formats"). A binary artifact written
// with the aligned layout can be memory-MAPPED instead of parsed: the
// index then serves its row entries zero-copy out of the page cache.
// Like every finalized index, a mapped one is read-only — Commit and
// Finalize abort on it.
#ifndef METAPROX_INDEX_METAGRAPH_VECTORS_H_
#define METAPROX_INDEX_METAGRAPH_VECTORS_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "matching/instance_sink.h"
#include "metagraph/automorphism.h"
#include "util/container.h"
#include "util/flat_count_map.h"
#include "util/macros.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace metaprox::kernels {
// From core/score_kernels.h (a dependency-free leaf this layer's .cc
// routes its dot products through; forward-declared here to keep the
// header include graph pointing downward).
enum class RowTransform;
}  // namespace metaprox::kernels

namespace metaprox {

/// Packs an unordered node pair into a 64-bit key, 32 bits per endpoint.
/// The in-memory pair-slot table rides on this packing. Since the v2
/// binary format the packing is a PROCESS-LOCAL detail: artifacts carry
/// each endpoint as its own varint (up to 64 bits), so widening NodeId is
/// an in-memory key change only — existing artifacts stay readable. (The
/// v1 text format wrote the packed key verbatim and so baked the 32-bit
/// limit into files; that coupling is retired with the format bump.)
static_assert(std::is_unsigned_v<NodeId> && sizeof(NodeId) * 8 <= 32,
              "the in-memory PairKey packs two NodeIds into 64 bits; widen "
              "the key before widening NodeId (artifacts are unaffected)");

inline uint64_t PairKey(NodeId x, NodeId y) {
  if (x > y) std::swap(x, y);
  MX_DCHECK(static_cast<uint64_t>(y) <= 0xffffffffull);
  return (static_cast<uint64_t>(x) << 32) | y;
}

/// Count transform applied when vectors are read (the paper suggests e.g.
/// logarithmic transforms of the raw counts).
enum class CountTransform { kRaw, kLog1p };

/// Physical layout of a v2 binary index artifact (both parse back
/// identically; they trade file size against mappability):
///   kCompact — every section delta/varint-packed and LZW-compressed where
///     that shrinks it: the smallest files, for artifact distribution and
///     cold storage. Must be loaded eagerly (ReadBinaryFrom).
///   kAligned — every section stored raw, row entries as 64-byte-aligned
///     {u32 index, f32 count} arrays: larger, but MapFromFile serves them
///     zero-copy straight out of the page cache (instant start, pages
///     shared across processes).
enum class BinaryLayout { kCompact, kAligned };

/// One bag of knobs for saving and loading offline artifacts, shared by
/// SearchEngine::SaveOffline/LoadOffline, mgps_cli and metaprox_server.
/// Save paths read `format` and `layout`; load paths read `use_mmap`.
struct ArtifactOptions {
  util::ArtifactFormat format = util::ArtifactFormat::kText;
  BinaryLayout layout = BinaryLayout::kCompact;
  /// Map an aligned binary artifact instead of parsing it (text and
  /// compact artifacts fall back to an eager load).
  bool use_mmap = false;
};

/// Accumulates the per-embedding contributions of one metagraph's matching
/// run (to be committed into MetagraphVectorIndex afterwards). One sink is
/// private to one matching task; it is not shared across threads.
class SymPairCountingSink : public InstanceSink {
 public:
  /// `sym` must outlive the sink. `embedding_cap` bounds the number of
  /// embeddings processed; the run aborts (saturated) beyond it.
  SymPairCountingSink(const SymmetryInfo& sym, uint64_t embedding_cap);

  bool OnEmbedding(std::span<const NodeId> embedding) override;

  /// Raw (pre-|Aut|-division) embedding counts per PairKey and per node.
  const util::FlatCountMap<uint64_t>& pair_counts() const {
    return pair_counts_;
  }
  const util::FlatCountMap<NodeId>& node_counts() const {
    return node_counts_;
  }
  uint64_t num_embeddings() const { return num_embeddings_; }
  bool saturated() const { return num_embeddings_ >= cap_; }

 private:
  const SymmetryInfo& sym_;
  uint64_t cap_;
  uint64_t num_embeddings_ = 0;
  std::vector<MetaNodeId> sym_nodes_;  // nodes in >= 1 symmetric pair
  util::FlatCountMap<uint64_t> pair_counts_;
  util::FlatCountMap<NodeId> node_counts_;
};

/// The committed, queryable index of metagraph vectors. See the file
/// comment for the Commit -> Seal -> Finalize lifecycle and the
/// thread-safety / determinism contract.
class MetagraphVectorIndex {
 public:
  /// An empty build: no metagraph committed, every row empty.
  MetagraphVectorIndex(size_t num_metagraphs, size_t num_graph_nodes,
                       CountTransform transform = CountTransform::kLog1p);

  /// Commits one metagraph's accumulated counts, dividing by aut_size:
  /// its run replaces every entry the metagraph has in the store (none,
  /// outside a refresh). Thread-safe for distinct metagraphs. Each
  /// metagraph is committed at most once per build, and never after
  /// Finalize() (aborts).
  void Commit(uint32_t metagraph_index, const SymPairCountingSink& sink,
              size_t aut_size);

  /// The delta-path commit of a refresh: upserts only the given keys of
  /// the metagraph, each to float(total / aut_size); its other entries
  /// keep their stored values. The maintainer passes the ledger's new
  /// raw totals of the keys its delta run touched, so every entry is
  /// bitwise-equal to what a from-scratch re-match delivering the same
  /// totals commits. Same contract as Commit() otherwise.
  void Upsert(uint32_t metagraph_index,
              const util::FlatCountMap<uint64_t>& pair_totals,
              const util::FlatCountMap<NodeId>& node_totals, size_t aut_size);

  /// Merges the runs committed since the last Seal() (and, on the first
  /// Seal() of a refresh, the base rows) into the store and rebuilds the
  /// candidate postings. Call from ONE thread after a batch of (possibly
  /// concurrent) Commits has completed, before reading the index. Costs
  /// one pass over the store plus the pending runs; a no-op when nothing
  /// is pending.
  void Seal();

  /// Seals what is pending and ends the build: later Commit()s and a
  /// second Finalize() abort.
  void Finalize();

  /// Opens a refresh build over the finalized (owned or mapped) `base`
  /// for the graph grown to `new_num_graph_nodes` (>= the base's). The
  /// build starts with the base's committed set; any metagraph may be
  /// committed (replacing its entries) or upserted once. Nothing is
  /// copied here: the first Seal() merges the base rows with the runs,
  /// and until then the build reads as empty. Unaffected metagraphs gain
  /// no instances from appended nodes/edges, so after the re-matched
  /// metagraphs are committed and the build is finalized its contents —
  /// and its serialization — are byte-identical to a from-scratch rebuild
  /// that committed every metagraph against the new graph.
  static MetagraphVectorIndex OpenRefresh(
      std::shared_ptr<const MetagraphVectorIndex> base,
      size_t new_num_graph_nodes);

  size_t num_metagraphs() const { return num_metagraphs_; }
  size_t num_graph_nodes() const { return num_graph_nodes_; }
  CountTransform transform() const { return transform_; }
  bool finalized() const { return finalized_; }
  /// True when the row entries are served zero-copy from a mapped artifact
  /// (MapFromFile). A mapped index is always finalized.
  bool is_mapped() const { return mapping_ != nullptr; }
  /// Number of distinct (x, y) pair slots in the sealed store.
  size_t num_pairs() const { return pair_keys_.size(); }
  bool IsCommitted(uint32_t metagraph_index) const {
    return committed_[metagraph_index] != 0;
  }

  /// m_x . w (transformed counts).
  ///
  /// NodeDot/PairDot/SlotDot all evaluate through the shared score
  /// kernels (core/score_kernels.h) — one canonical accumulation, scalar
  /// or SIMD per runtime dispatch, bitwise-identical either way — so the
  /// per-query, batched and shared-window multi-model paths agree bit for
  /// bit by construction.
  double NodeDot(NodeId x, std::span<const double> w) const;

  /// m_xy . w (transformed counts).
  double PairDot(NodeId x, NodeId y, std::span<const double> w) const;

  /// Writes the transformed dense m_x into `out` (resized to |M|, zeroed).
  void DenseNodeVector(NodeId x, std::vector<double>* out) const;

  /// Writes the transformed dense m_xy into `out`.
  void DensePairVector(NodeId x, NodeId y, std::vector<double>* out) const;

  /// Appends (metagraph index, transformed count) entries of m_x to `out`.
  /// Sparse accessor used by the trainer's hot loop.
  void SparseNodeVector(NodeId x,
                        std::vector<std::pair<uint32_t, double>>* out) const;

  /// Appends (metagraph index, transformed count) entries of m_xy to `out`.
  void SparsePairVector(NodeId x, NodeId y,
                        std::vector<std::pair<uint32_t, double>>* out) const;

  /// Nodes that co-occur with x in at least one instance at symmetric
  /// positions — the online candidate set for query x, in ascending node
  /// order.
  std::span<const NodeId> Candidates(NodeId x) const;

  /// Pair-row slots aligned with Candidates(x): CandidateSlots(x)[i] is the
  /// finalized pair-table slot of the (x, Candidates(x)[i]) row, usable with
  /// SlotDot(). Lets the online path walk a query's pair rows directly with
  /// no per-pair hash probe. The relation is symmetric: y is a candidate of
  /// x exactly when x is one of y, and both entries carry the same slot
  /// (the batch path dots a pair row once for both endpoints on that
  /// basis).
  std::span<const uint32_t> CandidateSlots(NodeId x) const;

  /// m_xy . w for the pair row in finalized slot `slot` (as returned by
  /// CandidateSlots). Accumulates in the same row order as PairDot(), so the
  /// result is bitwise-equal to PairDot(x, y, w) of the slot's pair.
  double SlotDot(uint32_t slot, std::span<const double> w) const;

  /// Raw sparse rows — (metagraph index, raw count) entries in canonical
  /// order — for callers that evaluate several weight vectors per row
  /// through the multi-weight score kernels (kernels::RowDotMulti with
  /// transform_kind()). NodeRow(x) is m_x; PairRow(slot) is the pair
  /// row of `slot`. Spans are invalidated by Seal/Finalize, like every
  /// other read.
  std::span<const std::pair<uint32_t, float>> NodeRow(NodeId x) const {
    return node_entries_.subspan(node_offsets_[x],
                                 node_offsets_[x + 1] - node_offsets_[x]);
  }
  std::span<const std::pair<uint32_t, float>> PairRow(uint32_t slot) const {
    MX_DCHECK(slot < pair_keys_.size());
    return pair_entries_.subspan(pair_offsets_[slot],
                                 pair_offsets_[slot + 1] - pair_offsets_[slot]);
  }
  /// This index's transform as the score kernels' enum, for passing index
  /// rows to kernels::RowDot/RowDotMulti directly.
  kernels::RowTransform row_transform() const;

  /// Serializes the sealed store (finalized or not) to a text stream.
  /// Pairs are written in sorted PairKey order and rows in metagraph-index
  /// order, so the output is byte-identical for any thread count.
  /// Counts are printed with 9 significant digits, which round-trips every
  /// finite float32 exactly — text and binary loads of the same index give
  /// bitwise-identical query results. The postings are rebuilt on load, so
  /// only the raw stores are written.
  util::Status WriteTo(std::ostream& os) const;

  /// Reads an index written by WriteTo. The result is finalized. Rows
  /// must come as the writer emits them — node ids and pair keys strictly
  /// increasing, each key with x < y, each row's metagraph indices
  /// strictly increasing — or the read fails.
  static util::StatusOr<MetagraphVectorIndex> ReadFrom(std::istream& is);

  /// Serializes to the v2 binary container (open `os` in binary mode).
  /// Like WriteTo, works finalized or not and is byte-deterministic: the
  /// same committed contents produce the same bytes for any thread count
  /// — the property the golden-file test pins.
  util::Status WriteBinaryTo(
      std::ostream& os, BinaryLayout layout = BinaryLayout::kCompact) const;

  /// Parses a v2 binary artifact (either layout) into a fully owned,
  /// finalized index. Every structural invariant is checked and every
  /// section CRC verified; any corruption or truncation is a structured
  /// error, never a crash.
  static util::StatusOr<MetagraphVectorIndex> ReadBinaryFrom(
      std::span<const uint8_t> bytes);

  /// Maps an aligned-layout v2 artifact read-only and serves its row
  /// entries zero-copy (the cold sections — lengths, keys, bitmap — are
  /// decoded; the candidate postings are rebuilt). Checks exactly what
  /// ReadBinaryFrom checks, so a map touches every page once. Compact
  /// artifacts are refused (kFailedPrecondition).
  static util::StatusOr<MetagraphVectorIndex> MapFromFile(
      const std::string& path);

  /// Loads `path` whatever its format: binary containers are detected by
  /// magic and mapped (`use_mmap`, aligned layout only) or read via
  /// ReadBinaryFrom; other files take the v1 text path.
  static util::StatusOr<MetagraphVectorIndex> LoadFromFile(
      const std::string& path, bool use_mmap = false);

 public:
  /// One committed value on its way into the store: metagraph
  /// `metagraph`'s entry in the row keyed `key` (a PairKey or a node).
  struct Edit {
    uint64_t key;
    uint32_t metagraph;
    float value;
  };

 private:
  using Entry = std::pair<uint32_t, float>;

  /// One metagraph's slot in a build. `kind` says what its run does at
  /// the next Seal(); kSealed marks a metagraph already merged in this
  /// build (committing it again aborts).
  enum class RunKind : uint8_t { kNone, kReplace, kUpsert, kSealed };
  struct Run {
    RunKind kind = RunKind::kNone;
    std::vector<Edit> pairs;  // keyed by PairKey, each key once
    std::vector<Edit> nodes;  // keyed by node, each node once
  };

  /// Commit() and Upsert(): writes the metagraph's run into its slot.
  void AddRun(uint32_t metagraph_index,
              const util::FlatCountMap<uint64_t>& pair_counts,
              const util::FlatCountMap<NodeId>& node_counts, size_t aut_size,
              RunKind kind);

  /// The v1 text parser behind ReadFrom, which wraps it in the
  /// allocation-failure guard (a text file can claim dimensions no
  /// section size bounds, unlike the binary container).
  static util::StatusOr<MetagraphVectorIndex> ReadTextFrom(std::istream& is);

  /// The one binary loader behind ReadBinaryFrom (`mapping` null: entries
  /// decoded or copied into owned storage) and MapFromFile (`mapping` over
  /// `bytes`: raw entry sections aliased in place).
  static util::StatusOr<MetagraphVectorIndex> LoadBinary(
      std::span<const uint8_t> bytes, std::shared_ptr<util::MmapFile> mapping);

  /// The loaders' one row check: every row `offsets` delimits in
  /// `entries` has metagraph indices strictly increasing and < |M|.
  util::Status CheckRows(std::span<const Entry> entries,
                         const std::vector<uint64_t>& offsets,
                         const char* what) const;

  /// Drops the build state, points the entry spans at the filled store
  /// and builds the candidate postings: the last step of Finalize() and
  /// of every loader.
  void AdoptEntries(std::span<const Entry> node_entries,
                    std::span<const Entry> pair_entries);

  /// The (x, y) pair row, or an empty span when the pair has no slot: a
  /// binary search for y in the ascending Candidates(x) — no hash table
  /// and no search of the global key list.
  std::span<const std::pair<uint32_t, float>> FindPairRow(NodeId x,
                                                          NodeId y) const;
  /// Builds the CSR candidate postings from the (already sorted) pair
  /// keys. The tail of Seal(), shared with the loaders.
  void BuildPostings();

  size_t num_metagraphs_;
  size_t num_graph_nodes_;
  CountTransform transform_;
  // One byte per metagraph (not vector<bool>: concurrent Commits write
  // distinct elements, which is only race-free for distinct objects).
  std::vector<uint8_t> committed_;

  // ---- build state (until Finalize) -------------------------------------
  // runs_[i] is metagraph i's slot. Sized once at construction, so
  // concurrent Commits of distinct metagraphs touch disjoint objects.
  std::vector<Run> runs_;
  // The store a refresh build merges its first Seal() over.
  std::shared_ptr<const MetagraphVectorIndex> base_;

  // ---- the CSR store (sealed or finalized) ---------------------------------
  // Row x of the node store is node_entries_[node_offsets_[x] ..
  // node_offsets_[x+1]); pair slot s, keyed pair_keys_[s], likewise.
  std::vector<uint64_t> pair_keys_;  // strictly ascending, x < y
  std::vector<uint64_t> node_offsets_;  // num_graph_nodes + 1 prefix sums
  std::vector<uint64_t> pair_offsets_;  // num_pairs + 1 prefix sums
  std::span<const Entry> node_entries_;
  std::span<const Entry> pair_entries_;
  // What the entry spans point into: the owned vectors, or the mapping,
  // which stays pinned while the index lives. Moving the index moves the
  // vectors' buffers, so the spans stay valid.
  std::vector<Entry> owned_node_entries_;
  std::vector<Entry> owned_pair_entries_;
  std::shared_ptr<util::MmapFile> mapping_;

  // CSR postings: candidates_[cand_offsets_[x] .. cand_offsets_[x+1]).
  // cand_slots_ is parallel to candidates_: the pair-table slot of the
  // (x, candidate) row, so the online path can score without hash probes.
  std::vector<uint64_t> cand_offsets_;
  std::vector<NodeId> candidates_;
  std::vector<uint32_t> cand_slots_;
  bool finalized_ = false;
};

}  // namespace metaprox

#endif  // METAPROX_INDEX_METAGRAPH_VECTORS_H_
