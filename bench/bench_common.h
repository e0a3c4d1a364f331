// Shared harness for the paper-reproduction benchmarks (Table II/III,
// Fig. 4 and Fig. 6-11). Each bench binary regenerates one table or figure;
// this header centralizes dataset construction, method training/evaluation
// and scale selection.
//
// Scale: the default ("small") finishes the whole bench suite in minutes on
// a laptop while preserving every qualitative shape the paper reports. Set
// METAPROX_BENCH_SCALE=full for paper-sized runs.
#ifndef METAPROX_BENCH_BENCH_COMMON_H_
#define METAPROX_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/simple.h"
#include "baselines/srw.h"
#include "core/engine.h"
#include "datagen/citation.h"
#include "datagen/facebook.h"
#include "datagen/linkedin.h"
#include "eval/evaluate.h"
#include "eval/splits.h"

namespace metaprox::bench {

/// True when METAPROX_BENCH_SCALE=full.
bool FullScale();

/// Offline worker threads (mining + matching) used by every bench engine
/// (EngineOptions::num_threads; 0 = hardware concurrency). Resolution
/// order: SetBenchThreads() / ParseBenchArgs(--threads=N) >
/// METAPROX_BENCH_THREADS env var > 1. The default stays serial so
/// per-metagraph timings remain comparable to the paper's single-threaded
/// evaluation environment.
unsigned BenchThreads();
void SetBenchThreads(unsigned num_threads);

/// Path for the machine-readable JSON report (`BENCH_<name>.json`
/// convention in CI). Resolution order: SetBenchJsonPath() /
/// ParseBenchArgs(--json=PATH) > METAPROX_BENCH_JSON env var > "" (write
/// nothing). See JsonReport.
const std::string& BenchJsonPath();
void SetBenchJsonPath(std::string path);

/// Parses the shared bench flags (`--threads=N`, `--json=PATH`) from
/// argv. Unknown arguments are left alone; malformed
/// known flags exit(2).
void ParseBenchArgs(int argc, char** argv);

/// Accumulates one bench binary's per-configuration results and writes
/// them as one JSON document, so CI can archive BENCH_*.json artifacts
/// and a perf trajectory accumulates across runs (the human tables print
/// regardless). Shape:
///
///   {"bench": "<name>", "scale": "small"|"full",
///    "records": [{"<key>": <num>|"<str>", ...}, ...]}
///
/// Usage:
///   JsonReport report("online_batch");
///   report.BeginRecord().Num("batch", 8).Num("speedup", 6.2);
///   ...
///   report.WriteIfRequested();   // no-op unless --json / env set
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name);

  /// Starts a new record; subsequent Num/Str calls land in it.
  JsonReport& BeginRecord();
  /// Adds a numeric field (full %.17g precision; non-finite -> null).
  JsonReport& Num(const std::string& key, double value);
  /// Adds a string field (JSON-escaped).
  JsonReport& Str(const std::string& key, const std::string& value);

  /// Writes the document to BenchJsonPath(). Returns false (with a
  /// message on stderr) only on IO failure; disabled == trivially true.
  bool WriteIfRequested() const;

 private:
  std::string bench_name_;
  // Field values are stored pre-serialized as JSON fragments.
  std::vector<std::vector<std::pair<std::string, std::string>>> records_;
};

/// One benchmark dataset with its (mined, not yet matched) engine.
struct Bundle {
  datagen::Dataset ds;
  std::unique_ptr<SearchEngine> engine;
  std::vector<NodeId> user_pool;

  const GroundTruth& cls(size_t i) const { return ds.classes[i]; }
};

/// Facebook-like bundle. Defaults: small = 500 users, full = 1200.
Bundle MakeFacebook(int max_nodes = 5, uint32_t users_small = 500,
                    uint32_t users_full = 1200, uint64_t seed = 1);

/// LinkedIn-like bundle. Defaults: small = 800 users, full = 2500.
Bundle MakeLinkedIn(int max_nodes = 5, uint32_t users_small = 800,
                    uint32_t users_full = 2500, uint64_t seed = 1);

/// Mean NDCG@10 / MAP@10 of an MGP weight vector over test queries.
struct Scores {
  double ndcg = 0.0;
  double map = 0.0;
};
Scores EvalWeights(const SearchEngine& engine, const GroundTruth& gt,
                   std::span<const NodeId> test_queries,
                   const std::vector<double>& weights, size_t k = 10);

/// Trains and evaluates SRW on (a subsample of) the examples.
/// `max_queries` caps the number of distinct training queries used by SRW's
/// expensive differentiated power iteration.
Scores EvalSrw(const Graph& graph, TypeId user_type, const GroundTruth& gt,
               std::span<const Example> examples,
               std::span<const NodeId> test_queries, size_t max_queries,
               size_t k = 10);

/// The five accuracy methods of Fig. 6/7.
enum class Method { kMgp, kMpp, kMgpU, kMgpB, kSrw };
const char* MethodName(Method m);

/// Indices of path metagraphs (the MPP active set / dual-stage seeds).
std::vector<uint32_t> PathIndices(const SearchEngine& engine);

/// Standard training options used across benches.
TrainOptions DefaultTrainOptions();

// ---- dual-stage sweep machinery (Fig. 8 / Fig. 10) -----------------------
//
// To sweep many candidate-set sizes |K| without re-matching, the bundle is
// matched once with *per-metagraph* wall-clock timing; a configuration's
// matching cost is then the sum of its members' times, and its accuracy is
// obtained by training with the corresponding `active` set (equivalent to
// matching only that subset, since inactive metagraphs contribute nothing).

struct SweepContext {
  std::vector<double> per_metagraph_seconds;  // indexed by metagraph
  std::vector<uint32_t> seeds;                // metapath indices
  double seed_seconds = 0.0;                  // sum over seeds
  double total_seconds = 0.0;                 // sum over all metagraphs
  StructuralSimilarityCache ss_cache;
};

/// Matches every mined metagraph of `b` individually (timing each) and
/// finalizes the index.
SweepContext PrepareSweep(Bundle& b);

/// Trains on `active` and evaluates; `seconds` is the matching cost of the
/// active set under `ctx`.
struct SweepPoint {
  double ndcg = 0.0;
  double map = 0.0;
  double seconds = 0.0;
};
SweepPoint EvalActiveSet(const Bundle& b, const SweepContext& ctx,
                         const GroundTruth& gt,
                         std::span<const Example> examples,
                         std::span<const NodeId> test_queries,
                         const std::vector<uint32_t>& active);

/// Non-seed metagraphs ordered by descending candidate heuristic H
/// (Eq. 7) given trained seed weights; `reversed` yields the RCH ablation.
std::vector<uint32_t> RankCandidates(const Bundle& b, SweepContext& ctx,
                                     const std::vector<double>& seed_weights,
                                     bool reversed);

}  // namespace metaprox::bench

#endif  // METAPROX_BENCH_BENCH_COMMON_H_
