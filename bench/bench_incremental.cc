// Incremental index refresh vs full rebuild under streaming graph
// updates (the IndexMaintainer path), across datasets and update rates.
//
// Setup per (dataset, rate): SliceByArrival splits the generated graph
// into a base plus `slices` arrival batches; the base is mined + matched
// once, then each batch is Append()ed and Refresh()ed — affected
// metagraphs refresh via delta-rooted enumeration over the new edges
// once their raw-count ledgers are warm (the first refresh full-matches
// them to capture the ledgers) — while a from-scratch rebuild (re-match
// EVERY metagraph over the same grown graph) is timed alongside as the
// baseline.
//
// Hard gates (exit 1), not just numbers:
//   * at EVERY refresh point the refreshed index must serialize to text
//     bytes IDENTICAL to the full rebuild's — the affected-set soundness
//     contract (unaffected metagraphs provably kept their counts);
//   * at the lowest update rate (most slices, smallest deltas) the total
//     delta-refresh time must beat the total rebuild time — incremental
//     maintenance must actually pay for itself where it claims to.
//
// Both the refresh re-match and the rebuild run single-threaded so the
// comparison is compute-fair; --threads only accelerates the one-time
// base offline build. --json=PATH writes BENCH_incremental.json in CI;
// METAPROX_BENCH_SCALE=full for paper-sized graphs.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/index_maintainer.h"
#include "datagen/arrival.h"
#include "util/stopwatch.h"

using namespace metaprox;         // NOLINT
using namespace metaprox::bench;  // NOLINT

namespace {

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "FATAL: %s\n", message.c_str());
  std::exit(1);
}

std::string SerializeText(const MetagraphVectorIndex& index) {
  std::ostringstream os;
  auto status = index.WriteTo(os);
  if (!status.ok()) Fatal("text serialization: " + status.ToString());
  return os.str();
}

struct Case {
  std::string name;
  datagen::Dataset ds;
};

std::vector<Case> MakeCases() {
  std::vector<Case> cases;
  {
    datagen::FacebookConfig cfg;
    cfg.num_users = FullScale() ? 1200 : 300;
    cases.push_back({"facebook", datagen::GenerateFacebook(cfg, 7)});
  }
  {
    datagen::LinkedInConfig cfg;
    cfg.num_users = FullScale() ? 2500 : 400;
    cases.push_back({"linkedin", datagen::GenerateLinkedIn(cfg, 7)});
  }
  {
    datagen::CitationConfig cfg;
    cfg.num_papers = FullScale() ? 1500 : 400;
    cases.push_back({"citation", datagen::GenerateCitation(cfg, 7)});
  }
  return cases;
}

/// Re-matches every metagraph over `graph` into a fresh index — what a
/// maintenance-free deployment would do on each update batch.
MetagraphVectorIndex FullRebuild(const Graph& graph,
                                 const std::vector<MinedMetagraph>& mined,
                                 const Matcher& matcher,
                                 CountTransform transform,
                                 uint64_t embedding_cap) {
  MetagraphVectorIndex index(mined.size(), graph.num_nodes(), transform);
  for (uint32_t i = 0; i < mined.size(); ++i) {
    SymPairCountingSink sink(mined[i].symmetry, embedding_cap);
    matcher.Match(graph, mined[i].graph, &sink);
    index.Commit(i, sink, mined[i].symmetry.aut_size());
  }
  index.Seal();
  index.Finalize();
  return index;
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  std::printf("== incremental refresh vs full rebuild ==\n");
  JsonReport report("incremental");

  // Update rates: few slices = big deltas per refresh (high rate), many
  // slices = small deltas (low rate) — where incremental refresh must win.
  const std::vector<size_t> slice_counts = {2, 8};
  const size_t low_rate_slices = slice_counts.back();
  bool low_rate_gate_ok = true;

  for (Case& c : MakeCases()) {
    for (size_t slices : slice_counts) {
      datagen::ArrivalConfig arrival;
      arrival.num_slices = slices;
      arrival.base_fraction = 0.6;
      datagen::ArrivalTimeline timeline =
          datagen::SliceByArrival(c.ds.graph, c.ds.user_type, arrival);

      EngineOptions options;
      options.miner.anchor_type = c.ds.user_type;
      options.miner.min_support = 3;
      options.miner.max_nodes = 4;
      options.num_threads = BenchThreads();
      SearchEngine engine(timeline.base, options);
      engine.Mine();
      engine.MatchAll();

      MaintainerOptions mopts;
      mopts.num_threads = 1;  // compute-fair vs the serial rebuild
      IndexMaintainer maintainer(engine, mopts);
      auto matcher = CreateMatcher(options.matcher);

      double refresh_total = 0.0;
      double rebuild_total = 0.0;
      for (size_t i = 0; i < timeline.slices.size(); ++i) {
        auto appended = maintainer.Append(timeline.slices[i]);
        if (!appended.ok()) Fatal("append: " + appended.ToString());
        RefreshStats rstats;
        auto snapshot = maintainer.Refresh(&rstats);
        if (!snapshot.ok()) {
          Fatal("refresh: " + snapshot.status().ToString());
        }
        refresh_total += rstats.total_seconds;

        util::Stopwatch rebuild_timer;
        MetagraphVectorIndex rebuilt = FullRebuild(
            (*snapshot)->graph(), engine.metagraphs(), *matcher,
            engine.index().transform(), options.embedding_cap);
        const double rebuild_seconds = rebuild_timer.ElapsedSeconds();
        rebuild_total += rebuild_seconds;

        // The correctness gate: the refreshed index and the from-scratch
        // rebuild must be indistinguishable on disk.
        if (SerializeText((*snapshot)->index()) != SerializeText(rebuilt)) {
          Fatal(c.name + " slices=" + std::to_string(slices) + " batch " +
                std::to_string(i) +
                ": refreshed index differs from full rebuild");
        }

        std::printf(
            "%-9s slices=%zu batch %zu: +%zu nodes +%zu edges, "
            "%zu/%zu affected (%zu delta), refresh %.1f ms (match %.1f, "
            "merge %.1f) vs rebuild %.1f ms (%.1fx)\n",
            c.name.c_str(), slices, i, rstats.appended_nodes,
            rstats.appended_edges, rstats.affected_metagraphs,
            engine.metagraphs().size(), rstats.delta_metagraphs,
            rstats.total_seconds * 1e3, rstats.rematch_seconds * 1e3,
            rstats.merge_seconds * 1e3, rebuild_seconds * 1e3,
            rstats.total_seconds > 0.0
                ? rebuild_seconds / rstats.total_seconds
                : 0.0);
        report.BeginRecord()
            .Str("dataset", c.name)
            .Num("slices", static_cast<double>(slices))
            .Num("batch", static_cast<double>(i))
            .Num("appended_nodes",
                 static_cast<double>(rstats.appended_nodes))
            .Num("appended_edges",
                 static_cast<double>(rstats.appended_edges))
            .Num("affected_metagraphs",
                 static_cast<double>(rstats.affected_metagraphs))
            .Num("delta_metagraphs",
                 static_cast<double>(rstats.delta_metagraphs))
            .Num("num_metagraphs",
                 static_cast<double>(engine.metagraphs().size()))
            .Num("refresh_s", rstats.total_seconds)
            .Num("rematch_s", rstats.rematch_seconds)
            .Num("merge_s", rstats.merge_seconds)
            .Num("rebuild_s", rebuild_seconds);
      }
      std::printf("%-9s slices=%zu total: refresh %.1f ms, rebuild %.1f ms\n",
                  c.name.c_str(), slices, refresh_total * 1e3,
                  rebuild_total * 1e3);
      if (slices == low_rate_slices && refresh_total >= rebuild_total) {
        std::fprintf(stderr,
                     "GATE: %s at %zu slices: refresh total %.1f ms did "
                     "not beat rebuild total %.1f ms\n",
                     c.name.c_str(), slices, refresh_total * 1e3,
                     rebuild_total * 1e3);
        low_rate_gate_ok = false;
      }
    }
  }

  if (!low_rate_gate_ok) {
    Fatal("incremental refresh lost to full rebuild at the lowest "
          "update rate");
  }
  if (!report.WriteIfRequested()) return 1;
  std::printf("all refresh points byte-identical to full rebuilds; "
              "incremental wins at the lowest update rate\n");
  return 0;
}
