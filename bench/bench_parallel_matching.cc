// Parallel offline matching: match-phase wall clock and speedup of the
// ThreadPool fan-out (core/engine.cc) vs. the serial baseline on the
// synthetic Facebook benchmark graph, for 1/2/4/8 worker threads.
//
// Also verifies the determinism contract on every run: whatever the thread
// count, the serialized index must be byte-identical to the serial build
// (concurrent commits land in a sharded table whose canonical order is
// restored at Seal()/Finalize(); see index/metagraph_vectors.h). For the
// full mine+match+finalize breakdown and the shard sweep, see
// bench_offline_pipeline.
//
// A second table splits the serial match time of the metagraphs with the
// most embeddings into its two layers: the matcher alone (CountingSink)
// and the matcher feeding the counting sink that builds the metagraph
// vectors (SymPairCountingSink). The difference over the embedding count
// is the sink's cost per embedding.
//
// Flags/env: --threads is ignored here (the sweep sets its own counts);
// METAPROX_BENCH_SCALE=full for paper-sized graphs.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

using namespace metaprox;        // NOLINT
using namespace metaprox::bench; // NOLINT

namespace {

constexpr size_t kSplitRows = 16;

/// Best-of-two seconds of matching `metagraph` into a fresh sink.
template <typename MakeSink>
double BestMatchSeconds(const Matcher& matcher, const Graph& graph,
                        const Metagraph& metagraph, MakeSink make_sink) {
  double best = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    auto sink = make_sink();
    util::Stopwatch sw;
    matcher.Match(graph, metagraph, &sink);
    best = std::min(best, sw.ElapsedSeconds());
  }
  return best;
}

/// The matcher / counting-sink split of the kSplitRows metagraphs with the
/// most embeddings, plus the sum over all metagraphs.
util::TablePrinter SinkSplit(const SearchEngine& engine, JsonReport& report) {
  const auto& mined = engine.metagraphs();
  const auto& stats = engine.match_stats();
  const uint64_t cap = engine.options().embedding_cap;
  auto matcher = CreateMatcher(engine.options().matcher);

  std::vector<uint32_t> order(mined.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return stats[a].embeddings > stats[b].embeddings;
  });

  util::TablePrinter table({"metagraph", "embeddings", "saturated",
                            "matcher (ms)", "+ counting sink (ms)",
                            "sink ns/embedding"});
  auto add_row = [&](const std::string& name, uint64_t embeddings,
                     const std::string& saturated, double matcher_s,
                     double sink_s) {
    const double ns = embeddings > 0
                          ? 1e9 * (sink_s - matcher_s) / embeddings
                          : 0.0;
    table.AddRow({name, std::to_string(embeddings), saturated,
                  util::FormatDouble(1e3 * matcher_s, 1),
                  util::FormatDouble(1e3 * sink_s, 1),
                  util::FormatDouble(ns, 1)});
    report.BeginRecord()
        .Str("metagraph", name)
        .Num("embeddings", static_cast<double>(embeddings))
        .Num("matcher_seconds", matcher_s)
        .Num("sink_seconds", sink_s)
        .Num("sink_ns_per_embedding", ns);
  };

  double matcher_total = 0.0, sink_total = 0.0;
  uint64_t embeddings_total = 0;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const uint32_t i = order[rank];
    const double matcher_s =
        BestMatchSeconds(*matcher, engine.graph(), mined[i].graph,
                         [&] { return CountingSink(cap); });
    const double sink_s =
        BestMatchSeconds(*matcher, engine.graph(), mined[i].graph, [&] {
          return SymPairCountingSink(mined[i].symmetry, cap);
        });
    matcher_total += matcher_s;
    sink_total += sink_s;
    embeddings_total += stats[i].embeddings;
    if (rank < kSplitRows) {
      add_row(std::to_string(i), stats[i].embeddings,
              stats[i].saturated ? "yes" : "no", matcher_s, sink_s);
    }
  }
  add_row("all " + std::to_string(mined.size()), embeddings_total, "",
          matcher_total, sink_total);
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  // --threads is ignored (the sweep sets its own); --json and
  // METAPROX_BENCH_JSON select the machine-readable report.
  ParseBenchArgs(argc, argv);
  std::printf("== parallel offline matching: speedup vs. serial ==\n");
  std::printf("hardware concurrency: %zu\n\n",
              util::ResolveNumThreads(0));

  const std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  util::TablePrinter table(
      {"threads", "match (s)", "speedup", "embeddings", "saturated",
       "index identical"});
  JsonReport report("parallel_matching");

  std::string reference_serialization;
  double serial_seconds = 0.0;
  std::optional<util::TablePrinter> split;
  for (unsigned threads : thread_counts) {
    SetBenchThreads(threads);
    Bundle b = MakeFacebook(5, 450, 1200);
    b.engine->MatchAll();

    uint64_t embeddings = 0, saturated = 0;
    for (const MetagraphMatchStats& s : b.engine->match_stats()) {
      embeddings += s.embeddings;
      saturated += s.saturated;
    }

    std::ostringstream serialized;
    auto status = b.engine->index().WriteTo(serialized);
    if (!status.ok()) {
      std::fprintf(stderr, "index serialization failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    bool identical = true;
    if (threads == 1) {
      reference_serialization = serialized.str();
      serial_seconds = b.engine->timings().match_seconds;
    } else {
      identical = serialized.str() == reference_serialization;
    }

    const double seconds = b.engine->timings().match_seconds;
    table.AddRow({std::to_string(threads), util::FormatDouble(seconds, 2),
                  util::FormatDouble(serial_seconds / seconds, 2) + "x",
                  std::to_string(embeddings), std::to_string(saturated),
                  identical ? "yes" : "NO — BUG"});
    report.BeginRecord()
        .Num("threads", threads)
        .Num("match_seconds", seconds)
        .Num("speedup", seconds > 0.0 ? serial_seconds / seconds : 0.0)
        .Num("embeddings", static_cast<double>(embeddings))
        .Num("identical", identical ? 1 : 0);
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: index built with %u threads differs from serial\n",
                   threads);
      return 1;
    }
    if (threads == 1) split = SinkSplit(*b.engine, report);
  }
  table.Print(std::cout);
  std::printf(
      "\nexpected shape: monotone speedup up to the core count, flat "
      "beyond it; the \"index identical\" column must read yes "
      "everywhere.\n");

  std::printf("\n-- 1 thread: matcher vs. counting sink, the %zu "
              "metagraphs with the most embeddings --\n",
              split->num_rows() - 1);
  split->Print(std::cout);
  if (!report.WriteIfRequested()) return 1;
  return 0;
}
