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
// Storage is sparse: a pair slot table keyed by (min(x,y), max(x,y)) plus
// per-node postings, which is what makes the online phase (Fig. 3) a pure
// lookup: the candidates for query q are exactly the nodes sharing a pair
// slot with q.
//
// Build lifecycle and thread-safety (see also docs/ARCHITECTURE.md):
//
//   MetagraphVectorIndex index(|M|, |V|, transform, num_shards);
//   index.Commit(i, sink_i, aut_i);   // any thread, any order, once per i
//   index.Seal();                     // one thread, after a commit batch
//   ... read accessors (NodeDot, PairDot, Sparse*/Dense*, WriteTo) ...
//   index.Commit(j, ...); index.Seal();   // more batches are fine
//   index.Finalize();                 // exactly once; enables Candidates()
//
// While the index is building, the pair-slot table is split into
// `num_shards` shards by `PairKey % num_shards` and the per-node rows are
// guarded by striped locks, so Commit() is safe to call concurrently from
// many threads — each commit only locks the shards/stripes it touches.
// Seal() then sorts every touched row by metagraph index, which makes the
// observable state deterministic: after Seal(), the index contents depend
// only on WHICH (metagraph, sink) pairs were committed, not on the order or
// interleaving of the Commit() calls, nor on the shard count.
//
// Finalize() merges the shards into one table in globally sorted PairKey
// order and builds the candidate postings. Because the merge order is a
// pure function of the keys, the finalized index — including its WriteTo()
// serialization — is byte-identical for ANY number of committing threads
// and ANY num_shards. Finalize() must be called exactly once; committing
// after Finalize() or finalizing twice aborts (MX_CHECK).
//
// Read accessors are safe from multiple threads as long as no Commit /
// Seal / Finalize runs concurrently; they must not race a commit batch.
//
// Persistence: the index serializes to the v1 text format (WriteTo /
// ReadFrom, debug/interop path) and to the v2 binary container
// (WriteBinaryTo / ReadBinaryFrom / MapFromFile; byte-level spec in
// docs/ARCHITECTURE.md "Persistence formats"). A binary artifact written
// with the aligned layout can be memory-MAPPED instead of parsed: the
// index then serves its hot row arrays zero-copy out of the page cache.
// A mapped index is finalized and read-only — Commit/Finalize abort on
// it, exactly as they do on a finalized owned index.
#ifndef METAPROX_INDEX_METAGRAPH_VECTORS_H_
#define METAPROX_INDEX_METAGRAPH_VECTORS_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
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
#include "util/thread_annotations.h"

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
///   kCompact — row entries delta/varint-packed and LZW-compressed: the
///     smallest files, for artifact distribution and cold storage. Must be
///     loaded eagerly (ReadBinaryFrom).
///   kAligned — row entries as raw 64-byte-aligned {u32 index, f32 count}
///     arrays: larger, but MapFromFile serves them zero-copy straight out
///     of the page cache (instant start, pages shared across processes).
/// Cold sections (lengths, pair keys, committed bitmap) are packed and
/// compressed in both layouts.
enum class BinaryLayout { kCompact, kAligned };

/// How LoadFromFile materializes a binary artifact.
struct IndexLoadOptions {
  /// Map the file instead of parsing it (aligned-layout artifacts only;
  /// text and compact artifacts fall back to an eager load).
  bool use_mmap = false;
  /// Verify section CRCs — and, for mapped loads, deep-validate the row
  /// entries. Turning this off is the documented trusted-file fast path:
  /// a mapped open then touches no payload pages at all.
  bool verify_checksums = true;
};

/// One bag of knobs for saving and loading offline artifacts, shared by
/// SearchEngine::SaveOffline/LoadOffline, mgps_cli and metaprox_server
/// (replaces the loose ArtifactFormat / BinaryLayout / IndexLoadOptions
/// parameter lists those paths used to take). Save paths read `format` and
/// `layout`; load paths read `use_mmap` and `verify_checksums`.
struct ArtifactOptions {
  util::ArtifactFormat format = util::ArtifactFormat::kText;
  BinaryLayout layout = BinaryLayout::kCompact;
  bool use_mmap = false;
  bool verify_checksums = true;

  IndexLoadOptions load_options() const {
    return IndexLoadOptions{use_mmap, verify_checksums};
  }
};

/// Upper bound on build-time pair-table shards, applied by the index
/// constructor. Guards against nonsense requests (e.g. a huge --shards
/// value) allocating one mutex + hash map per shard until the process
/// dies; contention is flat long before this (cf. util::kMaxThreads).
inline constexpr size_t kMaxShards = 4096;

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
  /// `num_shards` splits the build-time pair-slot table; it bounds commit
  /// contention but never changes the finalized index (clamped to
  /// [1, kMaxShards]).
  MetagraphVectorIndex(size_t num_metagraphs, size_t num_graph_nodes,
                       CountTransform transform = CountTransform::kLog1p,
                       size_t num_shards = 1);

  /// Commits one metagraph's accumulated counts, dividing by aut_size.
  /// Thread-safe: concurrent Commits of DIFFERENT metagraphs only contend
  /// on the pair shards / node stripes they touch. Each metagraph must be
  /// committed at most once, and never after Finalize() (aborts).
  void Commit(uint32_t metagraph_index, const SymPairCountingSink& sink,
              size_t aut_size);

  /// Raw-count overload of Commit(): same contract, but the counts arrive
  /// as the maps a sink would hold rather than as a sink. This is the
  /// incremental-refresh entry point — the maintainer merges a ledger of
  /// old raw counts with a delta run's counts (plain uint64 addition) and
  /// commits the sum, which makes the committed float rows bitwise-equal
  /// to a from-scratch re-match delivering the same totals.
  void Commit(uint32_t metagraph_index,
              const util::FlatCountMap<uint64_t>& pair_counts,
              const util::FlatCountMap<NodeId>& node_counts, size_t aut_size);

  /// Sorts every pair/node row touched since the last Seal() by metagraph
  /// index. Call from ONE thread after a batch of (possibly concurrent)
  /// Commits has completed, before reading the index; it erases any trace
  /// of commit-arrival order. Cost is proportional to the batch's rows,
  /// not the whole index, so frequent small batches (dual-stage rounds)
  /// stay cheap.
  void Seal();

  /// Merges the shards in globally sorted PairKey order and builds the
  /// per-node candidate postings. Call exactly once, after all Commits;
  /// a second Finalize() — or any later Commit() — aborts.
  void Finalize();

  /// The incremental-refresh seed: a fresh BUILD-state index over
  /// `new_num_graph_nodes` (>= the current node count) carrying every row
  /// entry of this finalized (owned or mapped) index EXCEPT those of the
  /// metagraphs in `rematch`, which return to uncommitted so they can be
  /// Commit()ed again against the grown graph. Rows left empty by the
  /// filter are dropped entirely, so after the re-matched metagraphs are
  /// committed and the clone is Sealed + Finalized its contents — and its
  /// serialization — are byte-identical to a from-scratch rebuild that
  /// committed every metagraph against the new graph (unaffected
  /// metagraphs gain no instances from appended nodes/edges, so their old
  /// rows are exactly what a rebuild recomputes). This is the one place
  /// the one-commit-per-metagraph contract relaxes: a metagraph may be
  /// re-committed, but only through a clone that first dropped its rows.
  MetagraphVectorIndex CloneForRefresh(size_t new_num_graph_nodes,
                                       std::span<const uint32_t> rematch,
                                       size_t num_shards) const;

  size_t num_metagraphs() const { return num_metagraphs_; }
  size_t num_graph_nodes() const {
    return mapped_ != nullptr ? mapped_->num_nodes : node_vectors_.size();
  }
  size_t num_shards() const { return num_shards_; }
  CountTransform transform() const { return transform_; }
  bool finalized() const { return finalized_; }
  /// True when the row arrays are served zero-copy from a mapped artifact
  /// (MapFromFile). A mapped index is always finalized.
  bool is_mapped() const { return mapped_ != nullptr; }
  /// Number of distinct (x, y) pair slots committed so far.
  size_t num_pairs() const;
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
  /// positions — the online candidate set for query x. Requires Finalize().
  std::span<const NodeId> Candidates(NodeId x) const;

  /// Pair-row slots aligned with Candidates(x): CandidateSlots(x)[i] is the
  /// finalized pair-table slot of the (x, Candidates(x)[i]) row, usable with
  /// SlotDot(). Lets the online path walk a query's pair rows directly with
  /// no per-pair hash probe. The relation is symmetric: y is a candidate of
  /// x exactly when x is one of y, and both entries carry the same slot
  /// (the batch path dots a pair row once for both endpoints on that
  /// basis). Requires Finalize().
  std::span<const uint32_t> CandidateSlots(NodeId x) const;

  /// m_xy . w for the pair row in finalized slot `slot` (as returned by
  /// CandidateSlots). Accumulates in the same row order as PairDot(), so the
  /// result is bitwise-equal to PairDot(x, y, w) of the slot's pair.
  /// Requires Finalize().
  double SlotDot(uint32_t slot, std::span<const double> w) const;

  /// Raw sparse rows — (metagraph index, raw count) entries in canonical
  /// order — for callers that evaluate several weight vectors per row
  /// through the multi-weight score kernels (kernels::RowDotMulti with
  /// transform_kind()). NodeRow(x) is m_x; PairRow(slot) is the finalized
  /// pair row of `slot` (requires Finalize()). Spans are invalidated by
  /// Commit/Seal/Finalize, like every other read.
  std::span<const std::pair<uint32_t, float>> NodeRow(NodeId x) const {
    if (mapped_ != nullptr) {
      const std::vector<uint64_t>& off = mapped_->node_offsets;
      return mapped_->node_entries.subspan(off[x], off[x + 1] - off[x]);
    }
    return node_vectors_[x];
  }
  std::span<const std::pair<uint32_t, float>> PairRow(uint32_t slot) const {
    MX_DCHECK(finalized_ && slot < pair_keys_.size());
    if (mapped_ != nullptr) {
      const std::vector<uint64_t>& off = mapped_->pair_offsets;
      return mapped_->pair_entries.subspan(off[slot], off[slot + 1] - off[slot]);
    }
    return pair_vectors_[slot];
  }
  /// This index's transform as the score kernels' enum, for passing index
  /// rows to kernels::RowDot/RowDotMulti directly.
  kernels::RowTransform row_transform() const;

  double Transform(double raw) const;

  /// Serializes the committed vectors (finalized or not) to a text stream.
  /// Pairs are written in sorted PairKey order and rows in metagraph-index
  /// order, so the output is byte-identical for any thread/shard count.
  /// Counts are printed with 9 significant digits, which round-trips every
  /// finite float32 exactly — text and binary loads of the same index give
  /// bitwise-identical query results. The postings are rebuilt on load, so
  /// only the raw stores are written.
  util::Status WriteTo(std::ostream& os) const;

  /// Reads an index written by WriteTo. The result is finalized.
  static util::StatusOr<MetagraphVectorIndex> ReadFrom(std::istream& is);

  /// Serializes to the v2 binary container (open `os` in binary mode).
  /// Like WriteTo, works finalized or not and is byte-deterministic: the
  /// same committed contents produce the same bytes for any thread/shard
  /// count — the property the golden-file test pins.
  util::Status WriteBinaryTo(
      std::ostream& os, BinaryLayout layout = BinaryLayout::kCompact) const;

  /// Parses a v2 binary artifact (either layout) into a fully owned,
  /// finalized index. Every structural invariant is checked and every
  /// section CRC verified; any corruption or truncation is a structured
  /// error, never a crash.
  static util::StatusOr<MetagraphVectorIndex> ReadBinaryFrom(
      std::span<const uint8_t> bytes);

  /// Maps an aligned-layout v2 artifact read-only and serves its row
  /// arrays zero-copy (cold sections — lengths, keys, bitmap — are still
  /// decoded eagerly; the candidate postings are rebuilt). Compact-layout
  /// artifacts are refused with a pointer at ReadBinaryFrom.
  static util::StatusOr<MetagraphVectorIndex> MapFromFile(
      const std::string& path, const IndexLoadOptions& options = {});

  /// Loads `path` whatever its format: binary containers are detected by
  /// magic and read via ReadBinaryFrom / MapFromFile per `options`; other
  /// files take the v1 text path.
  static util::StatusOr<MetagraphVectorIndex> LoadFromFile(
      const std::string& path, const IndexLoadOptions& options = {});

 private:
  using SparseVec = std::vector<std::pair<uint32_t, float>>;

  /// One build-time shard of the pair-slot table: the pairs whose PairKey
  /// satisfies `key % num_shards_ == shard index`. `dirty` records the
  /// keys appended to since the last Seal() (duplicates allowed).
  struct Shard {
    mutable mx::Mutex mu;
    std::unordered_map<uint64_t, SparseVec> pairs MX_GUARDED_BY(mu);
    std::vector<uint64_t> dirty MX_GUARDED_BY(mu);
  };

  /// One stripe of the per-node rows: nodes with `node % num_shards_ ==
  /// stripe index`. Guards node_vectors_ writes and the dirty list.
  /// (node_vectors_ itself cannot carry a MX_GUARDED_BY: its guard is a
  /// striped SET of mutexes, one per `node % num_shards_` class, which
  /// the annotation language cannot express — the write-side contract is
  /// enforced by construction in Commit() and documented in
  /// docs/STATIC_ANALYSIS.md.)
  struct NodeStripe {
    mutable mx::Mutex mu;
    std::vector<NodeId> dirty MX_GUARDED_BY(mu);
  };

  /// Zero-copy backing of a mapped artifact: the container file plus spans
  /// into its raw entries sections, and the (small, decoded) row-offset
  /// tables that delimit rows within them. The shared_ptr pins the mapping
  /// for as long as any returned row span may be dereferenced.
  struct MappedStore {
    std::shared_ptr<util::MmapFile> file;
    std::span<const std::pair<uint32_t, float>> node_entries;
    std::span<const std::pair<uint32_t, float>> pair_entries;
    std::vector<uint64_t> node_offsets;  // num_nodes + 1 prefix sums
    std::vector<uint64_t> pair_offsets;  // num_pairs + 1 prefix sums
    size_t num_nodes = 0;
  };

  /// The v1 text parser behind ReadFrom, which wraps it in the
  /// allocation-failure guard (a text file can claim dimensions no
  /// section size bounds, unlike the binary container).
  static util::StatusOr<MetagraphVectorIndex> ReadTextFrom(std::istream& is);

  size_t ShardOf(uint64_t key) const { return key % num_shards_; }
  /// The (x, y) pair row, or an empty span when the pair has no slot. In
  /// mapped mode the lookup is a binary search over the sorted pair keys
  /// (no hash table is materialized for a mapped artifact).
  std::span<const std::pair<uint32_t, float>> FindPairRow(NodeId x,
                                                          NodeId y) const;
  /// The pre-Finalize branch of FindPairRow: probes the owning shard's
  /// table WITHOUT its lock. Escape hatch 1 of <=3 (see
  /// docs/STATIC_ANALYSIS.md): this probe is the dual-stage trainer's hot
  /// loop — SparsePairVector/PairDot against a Sealed-but-not-Finalized
  /// index, one call per scored pair — and the class contract already
  /// phase-separates reads from commit batches ("read accessors must not
  /// race a commit batch"), so a per-call shard lock would add cost to
  /// the training inner loop without excluding any legal schedule.
  std::span<const std::pair<uint32_t, float>> ProbeShardRowUnlocked(
      uint64_t key) const MX_NO_THREAD_SAFETY_ANALYSIS;
  void AppendPairRow(uint64_t key, SparseVec vec);  // binary/text read backdoor
  /// Builds the CSR candidate postings from the (already sorted) pair
  /// keys. The tail of Finalize(), shared with the mapped-load path.
  void BuildPostings();

  size_t num_metagraphs_;
  CountTransform transform_;
  size_t num_shards_ = 1;
  // One byte per metagraph (not vector<bool>: concurrent Commits write
  // distinct elements, which is only race-free for distinct objects).
  std::vector<uint8_t> committed_;

  // ---- build-time state (until Finalize) --------------------------------
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<NodeStripe>> node_stripes_;

  // node_vectors_[x] is m_x; rows live here in both phases.
  std::vector<SparseVec> node_vectors_;  // indexed by NodeId

  // ---- finalized state --------------------------------------------------
  std::vector<uint64_t> pair_keys_;  // sorted ascending
  std::unordered_map<uint64_t, uint32_t> pair_slots_;
  std::vector<SparseVec> pair_vectors_;  // indexed in pair_keys_ order

  // CSR postings: candidates_[cand_offsets_[x] .. cand_offsets_[x+1]).
  // cand_slots_ is parallel to candidates_: the pair-table slot of the
  // (x, candidate) row, so the online path can score without hash probes.
  std::vector<uint64_t> cand_offsets_;
  std::vector<NodeId> candidates_;
  std::vector<uint32_t> cand_slots_;
  bool finalized_ = false;

  // Set only by MapFromFile; see MappedStore. When set, node_vectors_,
  // pair_vectors_ and pair_slots_ stay empty and the row accessors serve
  // spans into the mapping instead.
  std::unique_ptr<MappedStore> mapped_;
};

}  // namespace metaprox

#endif  // METAPROX_INDEX_METAGRAPH_VECTORS_H_
