// Test battery for the v2 binary artifact stack (util/binary_io.h,
// util/lzw.h, util/container.h, the index's WriteBinaryTo/ReadBinaryFrom/
// MapFromFile and the model's binary format):
//
//   * unit tests of the primitives at their boundary values (varints at
//     0, 2^31-1, 2^31, 2^63-1, UINT64_MAX; CRC-32 known vectors; LZW
//     across a dictionary reset),
//   * cross-format property tests — text, binary-compact, binary-aligned
//     and memory-mapped loads of the same index must agree BITWISE on
//     every dot product and candidate set,
//   * a corruption battery: every artifact byte is flipped and every
//     truncation length tried, and each load must either fail with a
//     structured Status or succeed with results identical to the
//     reference — never crash, hang, or silently answer wrong (CI runs
//     this under ASan+UBSan, so "never crash" includes "never reads out
//     of bounds"),
//   * golden-file tests pinning the exact encoded bytes (regeneration:
//     see tests/golden/README.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "index/metagraph_vectors.h"
#include "learning/model_io.h"
#include "matching/matcher.h"
#include "test_helpers.h"
#include "util/binary_io.h"
#include "util/container.h"
#include "util/lzw.h"
#include "util/rng.h"

namespace metaprox {
namespace {

std::span<const uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// ---- varints ---------------------------------------------------------------

TEST(Varint, RoundTripsBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (uint64_t{1} << 31) - 1,
                             uint64_t{1} << 31,
                             (uint64_t{1} << 32) - 1,
                             uint64_t{1} << 32,
                             (uint64_t{1} << 63) - 1,
                             uint64_t{1} << 63,
                             UINT64_MAX};
  for (uint64_t v : values) {
    std::string buf;
    util::AppendVarint(&buf, v);
    size_t pos = 0;
    uint64_t out = 0;
    ASSERT_TRUE(util::ReadVarint(AsBytes(buf), &pos, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size()) << v;
  }
  // Encoded lengths at the 7-bit group boundaries.
  auto encoded_len = [](uint64_t v) {
    std::string buf;
    util::AppendVarint(&buf, v);
    return buf.size();
  };
  EXPECT_EQ(encoded_len(0), 1u);
  EXPECT_EQ(encoded_len(127), 1u);
  EXPECT_EQ(encoded_len(128), 2u);
  EXPECT_EQ(encoded_len((uint64_t{1} << 63) - 1), 9u);
  EXPECT_EQ(encoded_len(UINT64_MAX), 10u);

  // A concatenated stream decodes value by value.
  std::string stream;
  for (uint64_t v : values) util::AppendVarint(&stream, v);
  size_t pos = 0;
  for (uint64_t v : values) {
    uint64_t out = 0;
    ASSERT_TRUE(util::ReadVarint(AsBytes(stream), &pos, &out));
    EXPECT_EQ(out, v);
  }
  EXPECT_EQ(pos, stream.size());
}

TEST(Varint, RejectsEveryTruncation) {
  std::string buf;
  util::AppendVarint(&buf, UINT64_MAX);
  ASSERT_EQ(buf.size(), 10u);
  for (size_t len = 0; len < buf.size(); ++len) {
    size_t pos = 0;
    uint64_t out = 0;
    EXPECT_FALSE(
        util::ReadVarint(AsBytes(buf).subspan(0, len), &pos, &out))
        << "prefix of length " << len << " decoded";
  }
}

TEST(Varint, RejectsOverlongAndOverflowingEncodings) {
  size_t pos = 0;
  uint64_t out = 0;
  // Eleven continuation bytes: longer than any encoding AppendVarint emits.
  std::string overlong(11, '\x80');
  overlong.push_back('\x01');
  pos = 0;
  EXPECT_FALSE(util::ReadVarint(AsBytes(overlong), &pos, &out));
  // Ten bytes whose 10th carries bits beyond 2^64 (UINT64_MAX's encoding
  // ends in 0x01; 0x03 would need a 65th bit).
  std::string overflow(9, '\xff');
  overflow.push_back('\x03');
  pos = 0;
  EXPECT_FALSE(util::ReadVarint(AsBytes(overflow), &pos, &out));
}

// ---- CRC-32 ----------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  // The IEEE 802.3 check value ("123456789" -> 0xCBF43926, cf. zlib).
  EXPECT_EQ(util::Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(util::Crc32(std::string("")), 0u);
  EXPECT_NE(util::Crc32(std::string("a")), util::Crc32(std::string("b")));
}

// ---- LZW -------------------------------------------------------------------

TEST(Lzw, RoundTripsVariedPayloads) {
  std::vector<std::string> payloads;
  payloads.emplace_back("");
  payloads.emplace_back("a");
  payloads.emplace_back(100000, 'x');  // maximally repetitive
  {
    std::string all_bytes;
    for (int r = 0; r < 16; ++r) {
      for (int b = 0; b < 256; ++b) all_bytes.push_back(static_cast<char>(b));
    }
    payloads.push_back(std::move(all_bytes));
  }
  {
    // Incompressible random bytes (compressed form is larger; the codec
    // must still round-trip it).
    util::Rng rng(11);
    std::string random_bytes;
    for (int i = 0; i < 50000; ++i) {
      random_bytes.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    payloads.push_back(std::move(random_bytes));
  }
  {
    // Long enough that the 2^16-entry dictionary RESETS mid-stream (each
    // emitted code consumes at least one input byte, so ~400KB of
    // low-entropy-but-varied content crosses the window at least once);
    // encoder and decoder must reset in lockstep.
    util::Rng rng(12);
    std::string long_mixed;
    while (long_mixed.size() < 400000) {
      long_mixed.append(std::string(rng.UniformInt(20) + 1,
                                    static_cast<char>(rng.Next() & 0x0f)));
    }
    payloads.push_back(std::move(long_mixed));
  }
  for (const std::string& payload : payloads) {
    const std::string packed = util::LzwCompress(payload);
    auto unpacked = util::LzwDecompress(packed, payload.size());
    ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
    EXPECT_TRUE(*unpacked == payload)
        << "round trip lost " << payload.size() << " bytes";
  }
}

TEST(Lzw, DeclaredSizeMismatchIsAnError) {
  const std::string payload(1000, 'q');
  const std::string packed = util::LzwCompress(payload);
  EXPECT_TRUE(util::LzwDecompress(packed, payload.size()).ok());
  EXPECT_FALSE(util::LzwDecompress(packed, payload.size() - 1).ok());
  EXPECT_FALSE(util::LzwDecompress(packed, payload.size() + 1).ok());
  EXPECT_FALSE(util::LzwDecompress(packed, 0).ok());
}

TEST(Lzw, GarbageInputNeverCrashes) {
  util::Rng rng(13);
  for (int round = 0; round < 300; ++round) {
    std::string garbage;
    const size_t len = rng.UniformInt(64);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    for (size_t declared : {size_t{0}, size_t{1}, len, size_t{1000}}) {
      auto result = util::LzwDecompress(garbage, declared);
      // Either a structured error or exactly the declared size — and a
      // huge declared size must not preallocate the claimed bytes.
      if (result.ok()) {
        EXPECT_EQ(result->size(), declared);
      }
    }
    auto huge = util::LzwDecompress(garbage, size_t{1} << 60);
    EXPECT_FALSE(huge.ok());
  }
}

// ---- container -------------------------------------------------------------

std::string WriteContainer(uint32_t kind, bool compressible_payload = true) {
  util::ContainerWriter writer(kind);
  // Section 1: compressible, asked to compress -> stored LZW.
  writer.AddSection(1, std::string(4096, 'z'), 0, compressible_payload);
  // Section 2: marked packed, stored raw.
  writer.AddSection(2, "packed-bytes", util::kSectionPacked);
  // Section 3: empty payload.
  writer.AddSection(3, "");
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(writer.WriteTo(os).ok());
  return os.str();
}

TEST(Container, RoundTripsSectionsAndFlags) {
  const std::string bytes = WriteContainer(util::kIndexArtifact);
  auto reader =
      util::ContainerReader::Parse(AsBytes(bytes), util::kIndexArtifact);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  ASSERT_TRUE(reader->Has(1));
  ASSERT_TRUE(reader->Has(2));
  ASSERT_TRUE(reader->Has(3));
  EXPECT_FALSE(reader->Has(4));
  EXPECT_TRUE(reader->Flags(1) & util::kSectionLzw);  // 4KB of 'z' shrinks
  EXPECT_EQ(reader->Flags(2), util::kSectionPacked);

  auto s1 = reader->Section(1);
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->bytes.size(), 4096u);
  auto s2 = reader->Section(2);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(std::string(s2->bytes.begin(), s2->bytes.end()), "packed-bytes");
  auto s3 = reader->Section(3);
  ASSERT_TRUE(s3.ok());
  EXPECT_TRUE(s3->bytes.empty());
  EXPECT_FALSE(reader->Section(4).ok());
}

TEST(Container, IncompressibleSectionStaysRaw) {
  util::Rng rng(14);
  std::string noise;
  for (int i = 0; i < 4096; ++i) {
    noise.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  util::ContainerWriter writer(util::kModelArtifact);
  writer.AddSection(1, noise, 0, /*try_compress=*/true);
  std::ostringstream os(std::ios::binary);
  ASSERT_TRUE(writer.WriteTo(os).ok());
  const std::string bytes = os.str();
  auto reader =
      util::ContainerReader::Parse(AsBytes(bytes), util::kModelArtifact);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->Flags(1) & util::kSectionLzw, 0u);
  auto section = reader->Section(1);
  ASSERT_TRUE(section.ok());
  EXPECT_EQ(std::string(section->bytes.begin(), section->bytes.end()), noise);
}

TEST(Container, OutputIsByteDeterministic) {
  EXPECT_EQ(WriteContainer(util::kIndexArtifact),
            WriteContainer(util::kIndexArtifact));
}

TEST(Container, RejectsStructuralCorruption) {
  const std::string good = WriteContainer(util::kIndexArtifact);
  auto parse = [](const std::string& bytes, uint32_t kind) {
    return util::ContainerReader::Parse(AsBytes(bytes), kind);
  };
  ASSERT_TRUE(parse(good, util::kIndexArtifact).ok());

  // Wrong expected kind (an index artifact fed to the model loader).
  EXPECT_FALSE(parse(good, util::kModelArtifact).ok());

  // Header field corruption, one field at a time (offsets per the spec in
  // util/container.h): magic, kind, version, section_count, table_crc,
  // total_size.
  for (size_t offset : {size_t{0}, size_t{8}, size_t{12}, size_t{16},
                        size_t{20}, size_t{24}}) {
    std::string bad = good;
    bad[offset] ^= 0x01;
    EXPECT_FALSE(parse(bad, util::kIndexArtifact).ok())
        << "header byte " << offset;
  }

  // A flipped section-table byte must trip the table CRC.
  {
    std::string bad = good;
    bad[32] ^= 0x01;  // first table entry's id
    EXPECT_FALSE(parse(bad, util::kIndexArtifact).ok());
  }

  // Too short / too long both violate total_size.
  EXPECT_FALSE(parse(good.substr(0, good.size() - 1),
                     util::kIndexArtifact).ok());
  EXPECT_FALSE(parse(good + 'x', util::kIndexArtifact).ok());
  EXPECT_FALSE(parse(std::string(), util::kIndexArtifact).ok());
  EXPECT_FALSE(parse(std::string("short"), util::kIndexArtifact).ok());
}

TEST(Container, PayloadCorruptionCaughtByChecksums) {
  const std::string good = WriteContainer(util::kIndexArtifact);
  // Flip a byte inside a payload (section 2 is stored raw, so its bytes
  // appear verbatim in the file). Alignment PADDING is deliberately not
  // checksummed — the corruption battery covers that distinction — but a
  // payload flip must be caught.
  const size_t payload_pos = good.find("packed-bytes");
  ASSERT_NE(payload_pos, std::string::npos);
  std::string bad = good;
  bad[payload_pos] ^= 0xff;
  EXPECT_FALSE(
      util::ContainerReader::Parse(AsBytes(bad), util::kIndexArtifact).ok());
}

TEST(Container, MagicDetection) {
  const std::string good = WriteContainer(util::kIndexArtifact);
  EXPECT_TRUE(util::StartsWithContainerMagic(good));
  EXPECT_FALSE(util::StartsWithContainerMagic(std::string("metaprox-index")));
  EXPECT_FALSE(util::StartsWithContainerMagic(std::string()));

  const std::string path = testing::UniqueTempPath("container_magic");
  { std::ofstream(path, std::ios::binary) << good; }
  auto is_container = util::PathIsContainer(path);
  ASSERT_TRUE(is_container.ok());
  EXPECT_TRUE(*is_container);
  { std::ofstream(path) << "metaprox-index v1\n"; }
  is_container = util::PathIsContainer(path);
  ASSERT_TRUE(is_container.ok());
  EXPECT_FALSE(*is_container);
  EXPECT_EQ(util::PathIsContainer(path + ".does-not-exist").status().code(),
            util::StatusCode::kNotFound);
}

// ---- index: cross-format bitwise agreement ---------------------------------

// The canonical small index every format/corruption test uses: toy graph,
// three metagraphs (the third left uncommitted), log1p transform.
MetagraphVectorIndex BuildReferenceIndex(const testing::ToyGraph& toy) {
  std::vector<Metagraph> metagraphs = {
      MakePath({toy.user, toy.school, toy.user}),
      MakePath({toy.user, toy.address, toy.user}),
      MakePath({toy.user, toy.employer, toy.user})};
  MetagraphVectorIndex index(metagraphs.size(), toy.graph.num_nodes(),
                             CountTransform::kLog1p);
  auto matcher = CreateMatcher(MatcherKind::kSymISO);
  for (uint32_t i = 0; i + 1 < metagraphs.size(); ++i) {
    SymmetryInfo sym = AnalyzeSymmetry(metagraphs[i]);
    SymPairCountingSink sink(sym, UINT64_MAX);
    matcher->Match(toy.graph, metagraphs[i], &sink);
    index.Commit(i, sink, sym.aut_size());
  }
  index.Finalize();
  return index;
}

std::string BinaryBytes(const MetagraphVectorIndex& index,
                        BinaryLayout layout) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(index.WriteBinaryTo(os, layout).ok());
  return os.str();
}

// Full observable behavior of an index, flattened for exact comparison:
// dimensions, commit flags, every dot product under a fixed weight vector,
// and every (sorted) candidate list.
std::vector<double> IndexSignature(const MetagraphVectorIndex& index) {
  std::vector<double> sig;
  sig.push_back(static_cast<double>(index.num_metagraphs()));
  sig.push_back(static_cast<double>(index.num_graph_nodes()));
  sig.push_back(static_cast<double>(index.num_pairs()));
  std::vector<double> w(index.num_metagraphs());
  for (size_t i = 0; i < w.size(); ++i) w[i] = 0.25 + 0.5 * i;
  for (uint32_t m = 0; m < index.num_metagraphs(); ++m) {
    sig.push_back(index.IsCommitted(m) ? 1.0 : 0.0);
  }
  const NodeId n = static_cast<NodeId>(index.num_graph_nodes());
  for (NodeId x = 0; x < n; ++x) {
    sig.push_back(index.NodeDot(x, w));
    for (NodeId y = x + 1; y < n; ++y) sig.push_back(index.PairDot(x, y, w));
    auto cands = index.Candidates(x);
    std::vector<NodeId> sorted(cands.begin(), cands.end());
    std::sort(sorted.begin(), sorted.end());
    sig.push_back(static_cast<double>(sorted.size()));
    for (NodeId c : sorted) sig.push_back(static_cast<double>(c));
  }
  return sig;
}

TEST(IndexBinaryFormat, AllFormatsAgreeBitwise) {
  auto toy = testing::MakeToyGraph();
  MetagraphVectorIndex reference = BuildReferenceIndex(toy);
  const std::vector<double> expected = IndexSignature(reference);

  for (auto mode : {testing::IndexRoundTrip::kText,
                    testing::IndexRoundTrip::kBinaryCompact,
                    testing::IndexRoundTrip::kBinaryAligned,
                    testing::IndexRoundTrip::kMapped}) {
    MetagraphVectorIndex loaded =
        testing::ApplyRoundTrip(BuildReferenceIndex(toy), mode);
    // operator== on doubles: the formats are exact, so the agreement must
    // be bitwise, not approximate.
    EXPECT_EQ(IndexSignature(loaded), expected)
        << testing::IndexRoundTripName(mode);
  }
}

// A matched index over a random graph: `num_nodes` nodes, 5 random
// 3-node metagraphs, log1p transform.
MetagraphVectorIndex BuildRandomIndex(size_t num_nodes) {
  Graph graph = testing::MakeRandomGraph(num_nodes, 4, 3.0, 7);
  util::Rng rng(21);
  MetagraphVectorIndex index(5, graph.num_nodes(), CountTransform::kLog1p);
  auto matcher = CreateMatcher(MatcherKind::kSymISO);
  for (uint32_t i = 0; i < 5; ++i) {
    Metagraph metagraph = testing::MakeRandomMetagraph(3, 4, rng);
    SymmetryInfo sym = AnalyzeSymmetry(metagraph);
    SymPairCountingSink sink(sym, UINT64_MAX);
    matcher->Match(graph, metagraph, &sink);
    index.Commit(i, sink, sym.aut_size());
  }
  index.Finalize();
  return index;
}

TEST(IndexBinaryFormat, RandomGraphFormatsAgree) {
  const std::vector<double> expected = IndexSignature(BuildRandomIndex(80));
  for (auto mode : {testing::IndexRoundTrip::kText,
                    testing::IndexRoundTrip::kBinaryCompact,
                    testing::IndexRoundTrip::kBinaryAligned,
                    testing::IndexRoundTrip::kMapped}) {
    EXPECT_EQ(IndexSignature(testing::ApplyRoundTrip(BuildRandomIndex(80),
                                                     mode)),
              expected)
        << testing::IndexRoundTripName(mode);
  }
}

TEST(IndexBinaryFormat, EmptyIndexRoundTrips) {
  // Zero metagraphs over a few nodes: every section is present but empty.
  for (auto mode : {testing::IndexRoundTrip::kText,
                    testing::IndexRoundTrip::kBinaryCompact,
                    testing::IndexRoundTrip::kBinaryAligned,
                    testing::IndexRoundTrip::kMapped}) {
    MetagraphVectorIndex empty(0, 4, CountTransform::kRaw);
    empty.Finalize();
    MetagraphVectorIndex loaded =
        testing::ApplyRoundTrip(std::move(empty), mode);
    EXPECT_EQ(loaded.num_metagraphs(), 0u);
    EXPECT_EQ(loaded.num_graph_nodes(), 4u);
    EXPECT_EQ(loaded.num_pairs(), 0u);
    EXPECT_TRUE(loaded.Candidates(0).empty());
  }
}

TEST(IndexBinaryFormat, MmapRequiresAlignedLayout) {
  auto toy = testing::MakeToyGraph();
  MetagraphVectorIndex index = BuildReferenceIndex(toy);

  const std::string compact_path = testing::UniqueTempPath("compact_index");
  { std::ofstream(compact_path, std::ios::binary)
        << BinaryBytes(index, BinaryLayout::kCompact); }
  const std::string aligned_path = testing::UniqueTempPath("aligned_index");
  { std::ofstream(aligned_path, std::ios::binary)
        << BinaryBytes(index, BinaryLayout::kAligned); }

  // Mapping a compact artifact is refused outright...
  auto refused = MetagraphVectorIndex::MapFromFile(compact_path);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);

  // ...but LoadFromFile falls back to the eager path, and only an aligned
  // artifact actually ends up mapped.
  auto compact = MetagraphVectorIndex::LoadFromFile(compact_path,
                                                    /*use_mmap=*/true);
  ASSERT_TRUE(compact.ok()) << compact.status().ToString();
  EXPECT_FALSE(compact->is_mapped());
  auto aligned = MetagraphVectorIndex::LoadFromFile(aligned_path,
                                                    /*use_mmap=*/true);
  ASSERT_TRUE(aligned.ok()) << aligned.status().ToString();
  EXPECT_TRUE(aligned->is_mapped());
  EXPECT_EQ(IndexSignature(*aligned), IndexSignature(index));
}

// ---- index: the one finalized store ----------------------------------------
//
// However a finalized index was made — Finalize() or any of the four
// loads — it is one CSR store, and these properties hold over it.

constexpr testing::IndexRoundTrip kAllRoundTrips[] = {
    testing::IndexRoundTrip::kDirect, testing::IndexRoundTrip::kText,
    testing::IndexRoundTrip::kBinaryCompact,
    testing::IndexRoundTrip::kBinaryAligned, testing::IndexRoundTrip::kMapped};

TEST(IndexStore, CandidatesAscendAndPairLookupsMatchSlots) {
  for (auto mode : kAllRoundTrips) {
    SCOPED_TRACE(testing::IndexRoundTripName(mode));
    MetagraphVectorIndex index =
        testing::ApplyRoundTrip(BuildRandomIndex(80), mode);
    ASSERT_GT(index.num_pairs(), 0u);
    std::vector<double> w(index.num_metagraphs());
    for (size_t i = 0; i < w.size(); ++i) w[i] = 0.5 + 0.25 * i;
    std::vector<std::pair<uint32_t, double>> sparse;
    const NodeId n = static_cast<NodeId>(index.num_graph_nodes());
    for (NodeId x = 0; x < n; ++x) {
      const auto cands = index.Candidates(x);
      const auto slots = index.CandidateSlots(x);
      ASSERT_EQ(cands.size(), slots.size());
      for (size_t i = 0; i < cands.size(); ++i) {
        if (i > 0) {
          ASSERT_LT(cands[i - 1], cands[i]) << "node " << x;
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(index.PairDot(x, cands[i], w)),
                  std::bit_cast<uint64_t>(index.SlotDot(slots[i], w)))
            << "pair (" << x << ", " << cands[i] << ")";
      }
      // Sampled non-candidates, x itself included, have no pair row.
      for (NodeId y = x % 7; y < n; y += 7) {
        if (std::binary_search(cands.begin(), cands.end(), y)) continue;
        EXPECT_EQ(index.PairDot(x, y, w), 0.0) << x << ", " << y;
        sparse.clear();
        index.SparsePairVector(x, y, &sparse);
        EXPECT_TRUE(sparse.empty()) << x << ", " << y;
      }
    }
  }
}

template <typename T>
std::string RowBytes(std::span<const T> row) {
  return std::string(reinterpret_cast<const char*>(row.data()),
                     row.size() * sizeof(T));
}

TEST(IndexStore, OwnedAndMappedLoadsServeIdenticalRows) {
  const MetagraphVectorIndex index = BuildRandomIndex(80);
  const std::string bytes = BinaryBytes(index, BinaryLayout::kAligned);
  const std::string path = testing::UniqueTempPath("store_rows");
  { std::ofstream(path, std::ios::binary) << bytes; }
  auto owned = MetagraphVectorIndex::ReadBinaryFrom(AsBytes(bytes));
  auto mapped = MetagraphVectorIndex::MapFromFile(path);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_FALSE(owned->is_mapped());
  EXPECT_TRUE(mapped->is_mapped());
  ASSERT_EQ(owned->num_graph_nodes(), index.num_graph_nodes());
  ASSERT_EQ(mapped->num_pairs(), index.num_pairs());
  for (NodeId x = 0; x < index.num_graph_nodes(); ++x) {
    EXPECT_EQ(RowBytes(owned->NodeRow(x)), RowBytes(index.NodeRow(x)));
    EXPECT_EQ(RowBytes(mapped->NodeRow(x)), RowBytes(index.NodeRow(x)));
    EXPECT_EQ(RowBytes(mapped->Candidates(x)), RowBytes(index.Candidates(x)));
    EXPECT_EQ(RowBytes(mapped->CandidateSlots(x)),
              RowBytes(index.CandidateSlots(x)));
  }
  for (uint32_t slot = 0; slot < index.num_pairs(); ++slot) {
    EXPECT_EQ(RowBytes(owned->PairRow(slot)), RowBytes(index.PairRow(slot)));
    EXPECT_EQ(RowBytes(mapped->PairRow(slot)), RowBytes(index.PairRow(slot)));
  }
}

TEST(IndexStore, AlignedStoresEverySectionRawAndCompactPacks) {
  // Large enough that LZW shrinks the compact layout's sections.
  const MetagraphVectorIndex index = BuildRandomIndex(1200);
  const std::string aligned = BinaryBytes(index, BinaryLayout::kAligned);
  auto reader =
      util::ContainerReader::Parse(AsBytes(aligned), util::kIndexArtifact);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (const auto& entry : reader->entries()) {
    EXPECT_EQ(entry.flags, 0u) << "aligned section " << entry.id;
  }

  const std::string compact = BinaryBytes(index, BinaryLayout::kCompact);
  reader = util::ContainerReader::Parse(AsBytes(compact), util::kIndexArtifact);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  bool any_lzw = false;
  for (const auto& entry : reader->entries()) {
    any_lzw |= (entry.flags & util::kSectionLzw) != 0;
  }
  EXPECT_TRUE(any_lzw);
  for (uint32_t entries_id : {4u, 7u}) {  // NODE_ENTRIES, PAIR_ENTRIES
    EXPECT_NE(reader->Flags(entries_id) & util::kSectionPacked, 0u)
        << "compact section " << entries_id;
  }
}

// ---- model binary format ---------------------------------------------------

MgpModel NastyModel() {
  // Weights chosen to break any decimal round trip that is not exact:
  // signed zero, a non-terminating binary fraction, subnormals, extremes.
  return MgpModel{{0.0, -0.0, 1.0 / 3.0, -2.5, 1e-300, 5e-324,
                   1.7976931348623157e308, 3.141592653589793}};
}

std::string ModelBinaryBytes(const MgpModel& model) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(WriteMgpModelBinary(model, os).ok());
  return os.str();
}

void ExpectBitEqual(const std::vector<double>& a,
                    const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << "weight " << i;
  }
}

TEST(ModelBinaryFormat, RoundTripsWeightsBitwise) {
  const MgpModel model = NastyModel();
  const std::string bytes = ModelBinaryBytes(model);
  auto loaded = ReadMgpModelBinary(AsBytes(bytes), model.weights.size());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitEqual(loaded->weights, model.weights);

  // Wrong expected weight count is a structured mismatch error.
  EXPECT_FALSE(ReadMgpModelBinary(AsBytes(bytes), 3).ok());
}

TEST(ModelBinaryFormat, SaveLoadAutodetectsBothFormats) {
  const MgpModel model = NastyModel();
  const std::string text_path = testing::UniqueTempPath("model_text");
  const std::string bin_path = testing::UniqueTempPath("model_bin");
  ASSERT_TRUE(SaveModel(model, text_path, util::ArtifactFormat::kText).ok());
  ASSERT_TRUE(SaveModel(model, bin_path, util::ArtifactFormat::kBinary).ok());

  for (const std::string& path : {text_path, bin_path}) {
    auto loaded = LoadModel(path, model.weights.size());
    ASSERT_TRUE(loaded.ok()) << path << ": " << loaded.status().ToString();
    ExpectBitEqual(loaded->weights, model.weights);
  }
  EXPECT_EQ(LoadModel(bin_path + ".missing").status().code(),
            util::StatusCode::kNotFound);
}

// ---- corruption battery ----------------------------------------------------
//
// Contract: a corrupt or truncated artifact must produce a structured
// Status — or, for bytes no content rides on (alignment padding), load
// with results IDENTICAL to the pristine artifact. Crashing, hanging, or
// silently answering differently all fail the battery; ASan/UBSan in CI
// additionally veto any out-of-bounds read on these hostile inputs.

void ExpectLoadRobust(const std::string& bytes,
                      const std::vector<double>& reference,
                      const std::string& what) {
  auto loaded = MetagraphVectorIndex::ReadBinaryFrom(AsBytes(bytes));
  if (loaded.ok()) {
    EXPECT_EQ(IndexSignature(*loaded), reference) << what;
  }
}

TEST(CorruptionBattery, IndexTruncationAlwaysFails) {
  auto toy = testing::MakeToyGraph();
  MetagraphVectorIndex index = BuildReferenceIndex(toy);
  for (BinaryLayout layout : {BinaryLayout::kCompact, BinaryLayout::kAligned}) {
    const std::string bytes = BinaryBytes(index, layout);
    // The header's total_size makes EVERY truncation (and any appended
    // tail) structurally detectable, so these must all fail, not merely
    // not-crash.
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(
          MetagraphVectorIndex::ReadBinaryFrom(
              AsBytes(bytes).subspan(0, len)).ok())
          << "length " << len;
    }
    EXPECT_FALSE(MetagraphVectorIndex::ReadBinaryFrom(
                     AsBytes(bytes + '\0')).ok());
  }
}

TEST(CorruptionBattery, IndexByteFlipsNeverCrashOrLie) {
  auto toy = testing::MakeToyGraph();
  MetagraphVectorIndex index = BuildReferenceIndex(toy);
  const std::vector<double> reference = IndexSignature(index);
  for (BinaryLayout layout : {BinaryLayout::kCompact, BinaryLayout::kAligned}) {
    const std::string bytes = BinaryBytes(index, layout);
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (char mask : {char(0x01), char(0xff)}) {
        std::string bad = bytes;
        bad[i] ^= mask;
        ExpectLoadRobust(bad, reference,
                         "byte " + std::to_string(i) + " ^ " +
                             std::to_string(int(mask)));
      }
    }
  }
}

TEST(CorruptionBattery, MappedLoadSurvivesCorruptFiles) {
  auto toy = testing::MakeToyGraph();
  MetagraphVectorIndex index = BuildReferenceIndex(toy);
  const std::vector<double> reference = IndexSignature(index);
  const std::string bytes = BinaryBytes(index, BinaryLayout::kAligned);
  const std::string path = testing::UniqueTempPath("corrupt_mapped");

  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] ^= 0xff;
    { std::ofstream(path, std::ios::binary) << bad; }
    auto mapped = MetagraphVectorIndex::MapFromFile(path);
    if (mapped.ok()) {
      EXPECT_EQ(IndexSignature(*mapped), reference) << "byte " << i;
    }
  }
  // Truncations through the mapped path (every 7th length keeps the file
  // churn reasonable; ReadBinaryFrom above already covers every length).
  for (size_t len = 0; len < bytes.size(); len += 7) {
    { std::ofstream(path, std::ios::binary) << bytes.substr(0, len); }
    EXPECT_FALSE(MetagraphVectorIndex::MapFromFile(path).ok())
        << "length " << len;
  }
}

TEST(CorruptionBattery, ModelArtifactBattery) {
  const MgpModel model = NastyModel();
  const std::string bytes = ModelBinaryBytes(model);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        ReadMgpModelBinary(AsBytes(bytes).subspan(0, len)).ok())
        << "length " << len;
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] ^= 0xff;
    auto loaded = ReadMgpModelBinary(AsBytes(bad));
    if (loaded.ok()) ExpectBitEqual(loaded->weights, model.weights);
  }
}

TEST(CorruptionBattery, TextIndexRefusesNonCanonicalKeysAndRows) {
  // Two metagraphs over three nodes. A pair key is x << 32 | y:
  // 1 = (0, 1), 2 = (0, 2), 4294967296 = (1, 0), 8589934594 = (2, 2).
  auto text = [](const std::string& nodes, const std::string& pairs) {
    return "metaprox-index v1\n2 3 0\ncommitted 1 1\n" + nodes + pairs;
  };
  auto read = [](const std::string& artifact) {
    std::istringstream is(artifact);
    return MetagraphVectorIndex::ReadFrom(is);
  };
  const std::string no_nodes = "nodes 0\n";
  const std::string no_pairs = "pairs 0\n";
  ASSERT_TRUE(read(text("nodes 2\n0 2 0 1 1 2\n2 1 1 3\n",
                        "pairs 2\n1 1 0 1\n2 2 0 1 1 5\n"))
                  .ok());
  for (const auto& [name, artifact] :
       std::vector<std::pair<std::string, std::string>>{
           {"key with x > y", text(no_nodes, "pairs 1\n4294967296 1 0 1\n")},
           {"key with x == y", text(no_nodes, "pairs 1\n8589934594 1 0 5\n")},
           {"keys descending", text(no_nodes, "pairs 2\n2 1 0 1\n1 1 0 1\n")},
           {"key repeated", text(no_nodes, "pairs 2\n1 1 0 1\n1 1 0 2\n")},
           {"pair row descending", text(no_nodes, "pairs 1\n1 2 1 1 0 1\n")},
           {"pair row repeats", text(no_nodes, "pairs 1\n1 2 0 1 0 2\n")},
           {"node row descending", text("nodes 1\n0 2 1 1 0 1\n", no_pairs)},
           {"node row repeats", text("nodes 1\n0 2 1 1 1 1\n", no_pairs)},
           {"nodes descending",
            text("nodes 2\n1 1 0 1\n0 1 0 1\n", no_pairs)},
           {"node repeated", text("nodes 2\n1 1 0 1\n1 1 1 1\n", no_pairs)},
       }) {
    EXPECT_FALSE(read(artifact).ok()) << name;
  }
}

TEST(CorruptionBattery, BinaryIndexRefusesSelfPairKey) {
  // A hand-built aligned artifact, one metagraph over two nodes, whose
  // only pair key is (x, y) as given (sections per ARCHITECTURE.md).
  auto artifact = [](uint64_t x, uint64_t y) {
    util::ContainerWriter writer(util::kIndexArtifact);
    std::string meta;
    util::AppendScalar<uint64_t>(&meta, 1);  // num_metagraphs
    util::AppendScalar<uint64_t>(&meta, 2);  // num_nodes
    util::AppendScalar<uint32_t>(&meta, 0);  // transform
    util::AppendScalar<uint32_t>(&meta, 0);
    writer.AddSection(1, meta);
    writer.AddSection(2, std::string(1, '\x01'));  // committed bitmap
    writer.AddSection(3, std::string(2, '\0'));    // empty node rows
    writer.AddSection(4, "");
    std::string keys;
    util::AppendVarint(&keys, 1);
    util::AppendVarint(&keys, x);
    util::AppendVarint(&keys, y);
    writer.AddSection(5, keys);
    writer.AddSection(6, std::string(1, '\x01'));  // one entry
    std::string entry;
    util::AppendScalar<uint32_t>(&entry, 0);
    util::AppendScalar<float>(&entry, 1.0f);
    writer.AddSection(7, entry);
    std::ostringstream os(std::ios::binary);
    EXPECT_TRUE(writer.WriteTo(os).ok());
    return os.str();
  };
  const std::string good = artifact(0, 1);
  ASSERT_TRUE(MetagraphVectorIndex::ReadBinaryFrom(AsBytes(good)).ok());
  EXPECT_FALSE(
      MetagraphVectorIndex::ReadBinaryFrom(AsBytes(artifact(1, 1))).ok());
  EXPECT_FALSE(
      MetagraphVectorIndex::ReadBinaryFrom(AsBytes(artifact(0, 0))).ok());
}

TEST(CorruptionBattery, TextIndexGarbageIsStructuredError) {
  // The autodetecting loader must route non-container bytes to the text
  // parser and fail cleanly there, whatever the garbage looks like.
  const std::string path = testing::UniqueTempPath("garbage_index");
  for (const std::string& garbage :
       {std::string("not an index"), std::string("metaprox-index v1\n-3\n"),
        std::string("metaprox-index v1\n4 999999999999 0\n"),
        std::string(64, '\0')}) {
    { std::ofstream(path, std::ios::binary) << garbage; }
    EXPECT_FALSE(MetagraphVectorIndex::LoadFromFile(path).ok());
  }
}

// ---- golden files ----------------------------------------------------------
//
// Pins the exact encoded bytes of the canonical toy artifacts. A failure
// here means the on-disk format changed: if that is intentional, bump the
// container version and regenerate per tests/golden/README.md
// (METAPROX_REGEN_GOLDEN=1 ./binary_format_test).

std::string GoldenDir() { return std::string(METAPROX_TEST_DATA_DIR) + "/golden"; }

util::StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::NotFound("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void CheckGolden(const std::string& name, const std::string& fresh) {
  const std::string path = GoldenDir() + "/" + name;
  if (std::getenv("METAPROX_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot regenerate " << path;
    out << fresh;
    return;
  }
  auto pinned = ReadFileBytes(path);
  ASSERT_TRUE(pinned.ok())
      << pinned.status().ToString()
      << " — regenerate with METAPROX_REGEN_GOLDEN=1 (see tests/golden/"
         "README.md)";
  if (*pinned == fresh) return;
  size_t first_diff = 0;
  while (first_diff < pinned->size() && first_diff < fresh.size() &&
         (*pinned)[first_diff] == fresh[first_diff]) {
    ++first_diff;
  }
  FAIL() << name << ": freshly encoded bytes diverge from the pinned golden "
         << "file (sizes " << fresh.size() << " vs " << pinned->size()
         << ", first difference at byte " << first_diff
         << "). The on-disk format changed — if intentional, bump the "
         << "container version and regenerate (tests/golden/README.md).";
}

TEST(GoldenFiles, IndexArtifactsAreBitExact) {
  auto toy = testing::MakeToyGraph();
  MetagraphVectorIndex index = BuildReferenceIndex(toy);
  CheckGolden("toy_index_compact.mxc",
              BinaryBytes(index, BinaryLayout::kCompact));
  CheckGolden("toy_index_aligned.mxc",
              BinaryBytes(index, BinaryLayout::kAligned));

  // Decode-compat leg: the pinned files must also still LOAD to the same
  // observable index (both eagerly and mapped), independent of whether a
  // fresh encode happens to match them.
  if (std::getenv("METAPROX_REGEN_GOLDEN") != nullptr) return;
  const std::vector<double> reference = IndexSignature(index);
  for (const char* name : {"toy_index_compact.mxc", "toy_index_aligned.mxc"}) {
    auto bytes = ReadFileBytes(GoldenDir() + "/" + name);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto loaded = MetagraphVectorIndex::ReadBinaryFrom(AsBytes(*bytes));
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
    EXPECT_EQ(IndexSignature(*loaded), reference) << name;
  }
  auto mapped =
      MetagraphVectorIndex::MapFromFile(GoldenDir() + "/toy_index_aligned.mxc");
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(IndexSignature(*mapped), reference);
}

TEST(GoldenFiles, ModelArtifactIsBitExact) {
  const MgpModel model = NastyModel();
  CheckGolden("nasty_model.mxc", ModelBinaryBytes(model));
  if (std::getenv("METAPROX_REGEN_GOLDEN") != nullptr) return;
  auto bytes = ReadFileBytes(GoldenDir() + "/nasty_model.mxc");
  ASSERT_TRUE(bytes.ok());
  auto loaded = ReadMgpModelBinary(AsBytes(*bytes), model.weights.size());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitEqual(loaded->weights, model.weights);
}

}  // namespace
}  // namespace metaprox
