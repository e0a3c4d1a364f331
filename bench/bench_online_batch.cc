// Batched online phase: throughput of the one batch path
// (BatchRankByProximityMulti with one model, as every single-model caller
// runs it) vs. the sequential per-query path, swept over batch size and
// worker threads on the synthetic Facebook benchmark graph.
//
// The batched path amortizes four per-query costs: duplicate queries are
// scored once, every touched node row's m_x . w is gathered once per batch,
// pair rows are read through the candidate-slot postings instead of a
// hash probe per pair, and a pair row between two queries of the batch is
// dotted once for both — plus the fan-out over the thread pool.
//
// A second table replays the same stream the way the query server does:
// one thread, one reused BatchScratch, windows of 1, 4, 8 and 16 queries,
// under one model or four striped across the queries. It prints the
// batch's cost per query beside sequential Query() over the same stream
// and models — whether a server window costs more per query than the
// queries it holds.
//
// Also verifies the batched determinism contract on every configuration:
// whatever the batch size and thread count, every query's result must be
// identical (nodes, bitwise scores, order) to the sequential Query path.
//
// Flags/env: --threads applies to the offline build only (the
// online sweep sets its own thread counts); METAPROX_BENCH_SCALE=full for
// paper-sized graphs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "baselines/simple.h"
#include "bench_common.h"
#include "core/query_batch.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

using namespace metaprox;         // NOLINT
using namespace metaprox::bench;  // NOLINT

namespace {

constexpr size_t kTopK = 10;
constexpr int kReps = 3;  // best-of reps: timing noise, not results
constexpr size_t kWindowQueries = 1000;  // stream prefix the window table runs

// Best-of-kReps seconds for one full pass over the query stream.
template <typename Fn>
double TimeBest(const Fn& fn) {
  double best = -1.0;
  for (int rep = 0; rep < kReps; ++rep) {
    util::Stopwatch timer;
    fn();
    const double seconds = timer.ElapsedSeconds();
    if (best < 0.0 || seconds < best) best = seconds;
  }
  return best;
}

bool Identical(const std::vector<QueryResult>& a,
               const std::vector<QueryResult>& b) {
  return a == b;  // exact: same nodes, bitwise-same scores, same order
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  std::printf("== batched online queries: batch size x threads sweep ==\n");
  std::printf("hardware concurrency: %zu\n\n", util::ResolveNumThreads(0));

  Bundle b = MakeFacebook(5, 450, 1200);
  b.engine->MatchAll();
  const MetagraphVectorIndex& index = b.engine->index();
  const std::vector<double> weights = UniformWeights(index);
  const MgpModel model{weights};
  const std::span<const double> one_model[] = {weights};

  // Query stream: the user pool cycled to a fixed length, so batches mix
  // repeat visitors (service-style traffic) once the stream wraps.
  const size_t num_queries = FullScale() ? 20000 : 4000;
  std::vector<NodeId> stream;
  stream.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    stream.push_back(b.user_pool[i % b.user_pool.size()]);
  }

  // Sequential baseline (and the reference results for the identity check).
  std::vector<QueryResult> reference(stream.size());
  const double sequential_seconds = TimeBest([&] {
    for (size_t i = 0; i < stream.size(); ++i) {
      reference[i] = b.engine->Query(model, stream[i], kTopK);
    }
  });
  std::printf("%zu queries, sequential Query(): %.3fs (%.0f q/s)\n\n",
              stream.size(), sequential_seconds,
              static_cast<double>(stream.size()) / sequential_seconds);

  const std::vector<size_t> batch_sizes = {1, 8, 64, 512};
  const std::vector<unsigned> thread_counts = {1, 4};

  util::TablePrinter table(
      {"batch", "threads", "time (s)", "queries/s", "speedup", "identical"});
  JsonReport report("online_batch");
  report.BeginRecord()
      .Str("config", "sequential")
      .Num("queries", static_cast<double>(stream.size()))
      .Num("seconds", sequential_seconds)
      .Num("queries_per_second",
           static_cast<double>(stream.size()) / sequential_seconds);
  bool all_identical = true;
  bool batched_wins_from_8 = true;
  for (size_t batch : batch_sizes) {
    double best_speedup = 0.0;
    for (unsigned threads : thread_counts) {
      util::ThreadPool pool(threads);
      util::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
      std::vector<QueryResult> results(stream.size());
      const std::vector<uint32_t> model_of(batch, 0);
      const double seconds = TimeBest([&] {
        for (size_t begin = 0; begin < stream.size(); begin += batch) {
          const size_t end = std::min(stream.size(), begin + batch);
          auto chunk = BatchRankByProximityMulti(
              index, one_model,
              std::span<const NodeId>(stream.data() + begin, end - begin),
              std::span<const uint32_t>(model_of.data(), end - begin), kTopK,
              pool_ptr);
          std::move(chunk.begin(), chunk.end(), results.begin() + begin);
        }
      });
      const bool identical = Identical(results, reference);
      all_identical &= identical;
      const double speedup = sequential_seconds / seconds;
      best_speedup = std::max(best_speedup, speedup);
      table.AddRow({std::to_string(batch), std::to_string(threads),
                    util::FormatDouble(seconds, 3),
                    util::FormatDouble(
                        static_cast<double>(stream.size()) / seconds, 0),
                    util::FormatDouble(speedup, 2) + "x",
                    identical ? "yes" : "NO — BUG"});
      report.BeginRecord()
          .Str("config", "batched")
          .Num("batch", static_cast<double>(batch))
          .Num("threads", threads)
          .Num("seconds", seconds)
          .Num("queries_per_second",
               static_cast<double>(stream.size()) / seconds)
          .Num("speedup", speedup)
          .Num("identical", identical ? 1 : 0);
    }
    if (batch >= 8 && best_speedup <= 1.0) batched_wins_from_8 = false;
  }
  table.Print(std::cout);

  // Server-sized windows: model 0 is the uniform model above, models 1-3
  // draw random non-negative weights; query i runs under model i % N.
  std::vector<MgpModel> window_models = {model};
  util::Rng rng(7);
  for (size_t m = 1; m < 4; ++m) {
    std::vector<double> w(weights.size());
    for (double& x : w) x = rng.UniformDouble(0.0, 1.0);
    window_models.push_back(MgpModel{std::move(w)});
  }
  // The stream's first kWindowQueries queries: per-query costs settle
  // well before that, and a one-query window under four models is slow.
  const std::span<const NodeId> prefix(
      stream.data(), std::min(stream.size(), kWindowQueries));
  const std::vector<size_t> window_sizes = {1, 4, 8, 16};
  util::TablePrinter window_table({"window", "models", "batch us/query",
                                   "Query() us/query", "batch/Query()",
                                   "identical"});
  for (size_t n_models : {size_t{1}, size_t{4}}) {
    std::vector<std::span<const double>> spans;
    for (size_t m = 0; m < n_models; ++m) {
      spans.push_back(window_models[m].weights);
    }
    std::vector<uint32_t> model_of(prefix.size());
    for (size_t i = 0; i < prefix.size(); ++i) {
      model_of[i] = static_cast<uint32_t>(i % n_models);
    }
    std::vector<QueryResult> expected(prefix.size());
    const double query_seconds = TimeBest([&] {
      for (size_t i = 0; i < prefix.size(); ++i) {
        expected[i] =
            b.engine->Query(window_models[model_of[i]], prefix[i], kTopK);
      }
    });
    const double query_us = query_seconds * 1e6 / prefix.size();
    for (size_t window : window_sizes) {
      BatchScratch scratch;
      std::vector<QueryResult> results(prefix.size());
      const double seconds = TimeBest([&] {
        for (size_t begin = 0; begin < prefix.size(); begin += window) {
          const size_t end = std::min(prefix.size(), begin + window);
          auto chunk = BatchRankByProximityMulti(
              index, spans,
              std::span<const NodeId>(prefix.data() + begin, end - begin),
              std::span<const uint32_t>(model_of.data() + begin,
                                        end - begin),
              kTopK, nullptr, &scratch);
          std::move(chunk.begin(), chunk.end(), results.begin() + begin);
        }
      });
      const bool identical = Identical(results, expected);
      all_identical &= identical;
      const double batch_us = seconds * 1e6 / prefix.size();
      window_table.AddRow({std::to_string(window), std::to_string(n_models),
                           util::FormatDouble(batch_us, 1),
                           util::FormatDouble(query_us, 1),
                           util::FormatDouble(batch_us / query_us, 2) + "x",
                           identical ? "yes" : "NO — BUG"});
      report.BeginRecord()
          .Str("config", "window")
          .Num("window", static_cast<double>(window))
          .Num("models", static_cast<double>(n_models))
          .Num("batch_us_per_query", batch_us)
          .Num("query_us_per_query", query_us)
          .Num("batch_over_query", batch_us / query_us)
          .Num("identical", identical ? 1 : 0);
    }
  }
  std::printf("\nserver-sized windows (1 thread, reused scratch, models "
              "striped across queries):\n");
  window_table.Print(std::cout);
  if (!report.WriteIfRequested()) return 1;

  std::printf(
      "\nexpected shape: speedup rises with batch size (more node-row "
      "reuse per batch) and with threads at large batches; batch 1 "
      "roughly matches sequential; the \"identical\" column must read "
      "yes everywhere. In the window table a ratio above 1x means a "
      "server window costs more per query than Query() does.\n");

  if (!all_identical) {
    std::fprintf(stderr,
                 "FATAL: batched results differ from sequential Query\n");
    return 1;
  }
  if (!batched_wins_from_8) {
    std::fprintf(stderr,
                 "FATAL: batched throughput does not beat sequential at "
                 "batch >= 8\n");
    return 1;
  }
  return 0;
}
