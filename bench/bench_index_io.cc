// Index artifact IO bench: file size and save/load wall clock of every
// persistence path over one matched offline index — v1 text, v2 binary
// compact (delta/varint + LZW), v2 binary aligned, and the memory-mapped
// load of the aligned artifact — plus each binary section's raw and
// stored bytes in both layouts (what LZW buys, section by section), and
// the compact write split into its two stages: varint packing and LZW.
//
// Hard gates (exit 1), not just numbers:
//   * the compact binary artifact must be >= 3x smaller than text,
//   * every load — eager or mapped, any format — must re-serialize to
//     text bytes IDENTICAL to the original index (lossless round trip),
//   * the mapped load must be faster than the eager text parse (the
//     zero-copy startup claim).
//
// Flags/env: --threads=N offline build threads, --json=PATH machine-
// readable report (BENCH_index_io.json in CI); METAPROX_BENCH_SCALE=full
// for a paper-sized graph.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "index/metagraph_vectors.h"
#include "util/container.h"
#include "util/lzw.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

using namespace metaprox;         // NOLINT
using namespace metaprox::bench;  // NOLINT

namespace {

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "FATAL: %s\n", message.c_str());
  std::exit(1);
}

double MedianSeconds(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct LoadTiming {
  double load_s = 0.0;        // LoadFromFile/MapFromFile alone
  double load_query_s = 0.0;  // load + one query-shaped index walk
};

// Times `load()` and, on the loaded index, one candidate walk + dots for
// a fixed node (the "time to first answer" a restarting server cares
// about). Medians over `rounds` runs.
template <typename LoadFn>
LoadTiming TimeLoads(const LoadFn& load, int rounds, NodeId probe,
                     const std::vector<double>& weights) {
  std::vector<double> load_samples, query_samples;
  for (int r = 0; r < rounds; ++r) {
    util::Stopwatch timer;
    auto index = load();
    if (!index.ok()) Fatal("load failed: " + index.status().ToString());
    load_samples.push_back(timer.ElapsedSeconds());
    double acc = index->NodeDot(probe, weights);
    for (NodeId c : index->Candidates(probe)) {
      acc += index->PairDot(probe, c, weights);
    }
    query_samples.push_back(timer.ElapsedSeconds());
    if (acc < 0.0) std::printf(" ");  // keep the walk observable
  }
  return {MedianSeconds(load_samples), MedianSeconds(query_samples)};
}

std::string SerializeText(const MetagraphVectorIndex& index) {
  std::ostringstream os;
  auto status = index.WriteTo(os);
  if (!status.ok()) Fatal("text serialization: " + status.ToString());
  return os.str();
}

std::string FmtMs(double seconds) {
  return util::FormatDouble(seconds * 1e3, 3);
}

// Section names of an index artifact, by id (docs/ARCHITECTURE.md).
const char* SectionName(uint32_t id) {
  static const char* const kNames[] = {
      "?",         "META",      "COMMITTED", "NODE_LENS", "NODE_ENTRIES",
      "PAIR_KEYS", "PAIR_LENS", "PAIR_ENTRIES"};
  return id < std::size(kNames) ? kNames[id] : "?";
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  SetBenchThreads(std::max(BenchThreads(), 1u));
  std::printf("== index artifact IO: text vs binary vs mmap ==\n");

  Bundle b = MakeFacebook(4, 500, 1200);
  b.engine->MatchAll();
  const MetagraphVectorIndex& index = b.engine->index();
  std::printf("index: %zu metagraphs, %zu nodes, %zu pair rows\n\n",
              index.num_metagraphs(), index.num_graph_nodes(),
              index.num_pairs());

  // The lossless-round-trip reference: whatever the load path, the loaded
  // index must reproduce these exact bytes.
  const std::string reference_text = SerializeText(index);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "metaprox_bench_index_io";
  std::filesystem::create_directories(dir);

  struct Artifact {
    const char* name;
    std::filesystem::path path;
    double write_s = 0.0;
    uintmax_t bytes = 0;
  };
  std::vector<Artifact> artifacts = {
      {"text", dir / "index_text", 0.0, 0},
      {"binary-compact", dir / "index_compact", 0.0, 0},
      {"binary-aligned", dir / "index_aligned", 0.0, 0},
  };
  for (Artifact& artifact : artifacts) {
    util::Stopwatch timer;
    std::ofstream out(artifact.path, std::ios::binary);
    util::Status written =
        std::string(artifact.name) == "text"
            ? index.WriteTo(out)
        : std::string(artifact.name) == "binary-compact"
            ? index.WriteBinaryTo(out, BinaryLayout::kCompact)
            : index.WriteBinaryTo(out, BinaryLayout::kAligned);
    out.close();
    if (!written.ok() || !out) {
      Fatal(std::string(artifact.name) + " write failed");
    }
    artifact.write_s = timer.ElapsedSeconds();
    artifact.bytes = std::filesystem::file_size(artifact.path);
  }

  const NodeId probe = b.user_pool.empty() ? 0 : b.user_pool.front();
  const std::vector<double> weights(index.num_metagraphs(), 1.0);
  const int kRounds = 7;

  // Eager loads of each artifact + the mapped load of the aligned one.
  struct LoadRow {
    std::string name;
    double write_s;
    uintmax_t bytes;
    LoadTiming timing;
  };
  std::vector<LoadRow> rows;
  for (const Artifact& artifact : artifacts) {
    rows.push_back({artifact.name, artifact.write_s, artifact.bytes,
                    TimeLoads(
                        [&] {
                          return MetagraphVectorIndex::LoadFromFile(
                              artifact.path.string());
                        },
                        kRounds, probe, weights)});
  }
  rows.push_back({"aligned-mmap", 0.0, artifacts[2].bytes,
                  TimeLoads(
                      [&] {
                        return MetagraphVectorIndex::LoadFromFile(
                            artifacts[2].path.string(), /*use_mmap=*/true);
                      },
                      kRounds, probe, weights)});

  // ---- lossless round trip, every path ------------------------------------
  for (const LoadRow& row : rows) {
    const std::filesystem::path& path = row.name == "text" ? artifacts[0].path
                                        : row.name == "binary-compact"
                                            ? artifacts[1].path
                                            : artifacts[2].path;
    auto loaded = MetagraphVectorIndex::LoadFromFile(
        path.string(), /*use_mmap=*/row.name == "aligned-mmap");
    if (!loaded.ok()) Fatal(row.name + ": " + loaded.status().ToString());
    if (SerializeText(*loaded) != reference_text) {
      Fatal(row.name + ": loaded index re-serializes differently — the "
                       "round trip lost information");
    }
  }
  std::printf("all load paths re-serialize to identical text bytes\n\n");

  util::TablePrinter table({"artifact", "bytes", "write (ms)", "load (ms)",
                            "load+query (ms)"});
  for (const LoadRow& row : rows) {
    table.AddRow({row.name, std::to_string(row.bytes),
                  row.write_s > 0.0 ? FmtMs(row.write_s) : "-",
                  FmtMs(row.timing.load_s), FmtMs(row.timing.load_query_s)});
  }
  table.Print(std::cout);

  // ---- per-section bytes: raw (after packing) vs stored (after LZW) -------
  struct SectionRow {
    std::string layout;
    util::ContainerReader::Entry entry;
  };
  std::vector<SectionRow> sections;
  for (const Artifact& artifact : {artifacts[1], artifacts[2]}) {
    std::ifstream in(artifact.path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    auto reader = util::ContainerReader::Parse(
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()),
        util::kIndexArtifact);
    if (!reader.ok()) Fatal("section table: " + reader.status().ToString());
    for (const auto& entry : reader->entries()) {
      sections.push_back({artifact.name, entry});
    }
  }
  // ---- the compact write, split: packing vs LZW ----------------------------
  // The compact writer packs every section, then tries LZW on each. Timing
  // LzwCompress over the packed sections (read back from the artifact)
  // isolates the LZW stage; the rest of the write is packing and IO.
  std::vector<std::string> packed_sections;
  {
    std::ifstream in(artifacts[1].path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    auto reader = util::ContainerReader::Parse(
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()),
        util::kIndexArtifact);
    if (!reader.ok()) Fatal("compact sections: " + reader.status().ToString());
    for (const auto& entry : reader->entries()) {
      auto section = reader->Section(entry.id);
      if (!section.ok()) Fatal("section: " + section.status().ToString());
      packed_sections.emplace_back(section->bytes.begin(),
                                   section->bytes.end());
    }
  }
  std::vector<double> lzw_samples, write_samples;
  for (int r = 0; r < kRounds; ++r) {
    util::Stopwatch lzw_timer;
    size_t lzw_bytes = 0;
    for (const std::string& section : packed_sections) {
      lzw_bytes += util::LzwCompress(section).size();
    }
    lzw_samples.push_back(lzw_timer.ElapsedSeconds());
    util::Stopwatch write_timer;
    std::ostringstream out;
    if (!index.WriteBinaryTo(out, BinaryLayout::kCompact).ok()) {
      Fatal("compact write failed");
    }
    write_samples.push_back(write_timer.ElapsedSeconds());
    if (lzw_bytes == 0) std::printf(" ");  // keep the encode observable
  }
  const double compact_write_s = MedianSeconds(write_samples);
  const double lzw_s = MedianSeconds(lzw_samples);
  std::printf(
      "\ncompact write (in memory, median of %d): %.3f ms = packing %.3f ms "
      "+ LZW %.3f ms\n",
      kRounds, compact_write_s * 1e3, (compact_write_s - lzw_s) * 1e3,
      lzw_s * 1e3);

  util::TablePrinter section_table(
      {"artifact", "section", "raw bytes", "stored bytes", "flags"});
  for (const SectionRow& row : sections) {
    const uint32_t flags = row.entry.flags;
    section_table.AddRow(
        {row.layout, SectionName(row.entry.id),
         std::to_string(row.entry.raw_size),
         std::to_string(row.entry.stored_size),
         std::string((flags & util::kSectionPacked) != 0 ? "packed " : "") +
             ((flags & util::kSectionLzw) != 0 ? "lzw" : "")});
  }
  std::printf("\n");
  section_table.Print(std::cout);

  const double compression =
      static_cast<double>(artifacts[0].bytes) /
      static_cast<double>(artifacts[1].bytes);
  const double text_load_s = rows[0].timing.load_s;
  const double mmap_load_s = rows[3].timing.load_s;
  const double mmap_speedup = text_load_s / mmap_load_s;
  std::printf("\ncompact vs text size: %.2fx smaller\n", compression);
  std::printf("mmap vs eager text load: %.1fx faster (%.3f ms vs %.3f ms)\n",
              mmap_speedup, mmap_load_s * 1e3, text_load_s * 1e3);

  // ---- hard gates ----------------------------------------------------------
  if (compression < 3.0) {
    Fatal("compact artifact is only " + util::FormatDouble(compression, 2) +
          "x smaller than text (gate: >= 3x)");
  }
  if (mmap_load_s >= text_load_s) {
    Fatal("mapped load is not faster than the eager text parse");
  }

  JsonReport report("index_io");
  for (const LoadRow& row : rows) {
    report.BeginRecord()
        .Str("artifact", row.name)
        .Num("bytes", static_cast<double>(row.bytes))
        .Num("write_s", row.write_s)
        .Num("load_s", row.timing.load_s)
        .Num("load_query_s", row.timing.load_query_s);
  }
  for (const SectionRow& row : sections) {
    report.BeginRecord()
        .Str("artifact", row.layout)
        .Str("section", SectionName(row.entry.id))
        .Num("raw_bytes", static_cast<double>(row.entry.raw_size))
        .Num("stored_bytes", static_cast<double>(row.entry.stored_size))
        .Num("lzw", (row.entry.flags & util::kSectionLzw) != 0 ? 1.0 : 0.0);
  }
  report.BeginRecord()
      .Str("artifact", "summary")
      .Num("compact_vs_text_compression", compression)
      .Num("mmap_vs_text_load_speedup", mmap_speedup)
      .Num("compact_write_s", compact_write_s)
      .Num("compact_pack_s", compact_write_s - lzw_s)
      .Num("compact_lzw_s", lzw_s);
  if (!report.WriteIfRequested()) return 1;

  std::filesystem::remove_all(dir);
  std::printf("\nPASS\n");
  return 0;
}
