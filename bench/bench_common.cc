#include "bench_common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "util/macros.h"
#include "util/parse.h"
#include "util/rng.h"

namespace metaprox::bench {

bool FullScale() {
  const char* scale = std::getenv("METAPROX_BENCH_SCALE");
  return scale != nullptr && std::strcmp(scale, "full") == 0;
}

namespace {
int g_bench_threads = -1;  // -1 = not set via flag/API

// Function-local static: no global-construction ordering to worry about.
struct JsonPathState {
  bool set = false;
  std::string path;
};
JsonPathState& BenchJsonState() {
  static JsonPathState state;
  return state;
}
}  // namespace

// Strict count parsing lives in util::ParseCount (util/parse.h), shared
// with mgps_cli; strtoul alone accepts "-1" (wrapping to ~4e9 worker
// threads) and trailing garbage.

unsigned BenchThreads() {
  if (g_bench_threads >= 0) return static_cast<unsigned>(g_bench_threads);
  if (const char* env = std::getenv("METAPROX_BENCH_THREADS")) {
    unsigned value = 0;
    if (!util::ParseCount(env, &value)) {
      std::fprintf(stderr,
                   "bad METAPROX_BENCH_THREADS value: %s (expected a "
                   "non-negative integer)\n",
                   env);
      std::exit(2);
    }
    return value;
  }
  return 1;
}

void SetBenchThreads(unsigned num_threads) {
  g_bench_threads = static_cast<int>(num_threads);
}

const std::string& BenchJsonPath() {
  JsonPathState& state = BenchJsonState();
  if (!state.set) {
    if (const char* env = std::getenv("METAPROX_BENCH_JSON")) {
      SetBenchJsonPath(env);
    }
  }
  return state.path;
}

void SetBenchJsonPath(std::string path) {
  JsonPathState& state = BenchJsonState();
  state.set = true;
  state.path = std::move(path);
}

void ParseBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      unsigned value = 0;
      if (!util::ParseCount(arg + 10, &value)) {
        std::fprintf(stderr, "bad flag: %s (expected --threads=N)\n", arg);
        std::exit(2);
      }
      SetBenchThreads(value);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      if (arg[7] == '\0') {
        std::fprintf(stderr, "bad flag: %s (expected --json=PATH)\n", arg);
        std::exit(2);
      }
      SetBenchJsonPath(arg + 7);
    }
  }
}

JsonReport::JsonReport(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

JsonReport& JsonReport::BeginRecord() {
  records_.emplace_back();
  return *this;
}

namespace {

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

JsonReport& JsonReport::Num(const std::string& key, double value) {
  MX_CHECK_MSG(!records_.empty(), "call BeginRecord() before Num()");
  records_.back().emplace_back(key, JsonNumber(value));
  return *this;
}

JsonReport& JsonReport::Str(const std::string& key, const std::string& value) {
  MX_CHECK_MSG(!records_.empty(), "call BeginRecord() before Str()");
  records_.back().emplace_back(key, JsonQuote(value));
  return *this;
}

bool JsonReport::WriteIfRequested() const {
  const std::string& path = BenchJsonPath();
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write bench JSON to %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\"bench\": %s, \"scale\": \"%s\", \"records\": [",
               JsonQuote(bench_name_).c_str(), FullScale() ? "full" : "small");
  for (size_t r = 0; r < records_.size(); ++r) {
    std::fprintf(f, "%s\n  {", r == 0 ? "" : ",");
    for (size_t i = 0; i < records_[r].size(); ++i) {
      std::fprintf(f, "%s%s: %s", i == 0 ? "" : ", ",
                   JsonQuote(records_[r][i].first).c_str(),
                   records_[r][i].second.c_str());
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  const bool write_ok = std::ferror(f) == 0;
  const bool ok = (std::fclose(f) == 0) && write_ok;
  if (!ok) {
    std::fprintf(stderr, "short write of bench JSON %s\n", path.c_str());
    return false;
  }
  std::printf("wrote bench JSON: %s\n", path.c_str());
  return true;
}

namespace {

Bundle FinishBundle(datagen::Dataset ds, int max_nodes) {
  Bundle b;
  b.ds = std::move(ds);
  EngineOptions options;
  options.miner.anchor_type = b.ds.user_type;
  options.miner.min_support = 5;
  options.miner.max_nodes = max_nodes;
  options.num_threads = BenchThreads();
  b.engine = std::make_unique<SearchEngine>(b.ds.graph, options);
  b.engine->Mine();
  auto pool = b.ds.graph.NodesOfType(b.ds.user_type);
  b.user_pool.assign(pool.begin(), pool.end());
  return b;
}

}  // namespace

Bundle MakeFacebook(int max_nodes, uint32_t users_small, uint32_t users_full,
                    uint64_t seed) {
  datagen::FacebookConfig cfg;
  cfg.num_users = FullScale() ? users_full : users_small;
  return FinishBundle(datagen::GenerateFacebook(cfg, seed), max_nodes);
}

Bundle MakeLinkedIn(int max_nodes, uint32_t users_small, uint32_t users_full,
                    uint64_t seed) {
  datagen::LinkedInConfig cfg;
  cfg.num_users = FullScale() ? users_full : users_small;
  return FinishBundle(datagen::GenerateLinkedIn(cfg, seed), max_nodes);
}

Scores EvalWeights(const SearchEngine& engine, const GroundTruth& gt,
                   std::span<const NodeId> test_queries,
                   const std::vector<double>& weights, size_t k) {
  Ranker ranker = [&](NodeId q) {
    auto scored = engine.Query(MgpModel{weights}, q, k);
    std::vector<NodeId> out;
    out.reserve(scored.size());
    for (auto& [node, score] : scored) out.push_back(node);
    return out;
  };
  EvalResult r = EvaluateRanker(gt, test_queries, ranker, k);
  return {r.ndcg, r.map};
}

Scores EvalSrw(const Graph& graph, TypeId user_type, const GroundTruth& gt,
               std::span<const Example> examples,
               std::span<const NodeId> test_queries, size_t max_queries,
               size_t k) {
  // Subsample examples to at most `max_queries` distinct queries: SRW's
  // gradient costs a differentiated power iteration per distinct query.
  std::vector<Example> subset;
  std::unordered_map<NodeId, size_t> seen;
  for (const Example& e : examples) {
    auto it = seen.find(e.q);
    if (it == seen.end()) {
      if (seen.size() >= max_queries) continue;
      seen.emplace(e.q, 1);
    }
    subset.push_back(e);
  }

  SrwOptions options;
  options.train_iterations = 8;
  options.power_iterations = 10;
  SupervisedRandomWalk srw(graph, options);
  srw.Train(subset);

  Ranker ranker = [&](NodeId q) {
    auto scored = srw.Rank(q, user_type, k);
    std::vector<NodeId> out;
    out.reserve(scored.size());
    for (auto& [node, score] : scored) out.push_back(node);
    return out;
  };
  EvalResult r = EvaluateRanker(gt, test_queries, ranker, k);
  return {r.ndcg, r.map};
}

const char* MethodName(Method m) {
  switch (m) {
    case Method::kMgp:
      return "MGP";
    case Method::kMpp:
      return "MPP";
    case Method::kMgpU:
      return "MGP-U";
    case Method::kMgpB:
      return "MGP-B";
    case Method::kSrw:
      return "SRW";
  }
  return "?";
}

std::vector<uint32_t> PathIndices(const SearchEngine& engine) {
  std::vector<uint32_t> paths;
  const auto& metagraphs = engine.metagraphs();
  for (uint32_t i = 0; i < metagraphs.size(); ++i) {
    if (metagraphs[i].is_path) paths.push_back(i);
  }
  return paths;
}

SweepContext PrepareSweep(Bundle& b) {
  SweepContext ctx;
  const size_t m = b.engine->metagraphs().size();
  // One (possibly parallel) matching pass; the engine times every
  // metagraph's task individually, which is exactly the per-metagraph cost
  // model the sweep needs.
  std::vector<uint32_t> all(m);
  std::iota(all.begin(), all.end(), 0);
  b.engine->MatchSubset(all);
  ctx.per_metagraph_seconds.resize(m, 0.0);
  for (uint32_t i = 0; i < m; ++i) {
    ctx.per_metagraph_seconds[i] = b.engine->match_stats()[i].seconds;
    ctx.total_seconds += ctx.per_metagraph_seconds[i];
  }
  b.engine->FinalizeIndex();
  ctx.seeds = PathIndices(*b.engine);
  for (uint32_t s : ctx.seeds) {
    ctx.seed_seconds += ctx.per_metagraph_seconds[s];
  }
  return ctx;
}

SweepPoint EvalActiveSet(const Bundle& b, const SweepContext& ctx,
                         const GroundTruth& gt,
                         std::span<const Example> examples,
                         std::span<const NodeId> test_queries,
                         const std::vector<uint32_t>& active) {
  TrainOptions options = DefaultTrainOptions();
  options.active = active;
  TrainResult r = TrainMgp(b.engine->index(), examples, options);
  Scores s = EvalWeights(*b.engine, gt, test_queries, r.weights);
  SweepPoint point;
  point.ndcg = s.ndcg;
  point.map = s.map;
  for (uint32_t i : active) point.seconds += ctx.per_metagraph_seconds[i];
  return point;
}

std::vector<uint32_t> RankCandidates(const Bundle& b, SweepContext& ctx,
                                     const std::vector<double>& seed_weights,
                                     bool reversed) {
  std::vector<double> h = ComputeCandidateHeuristic(
      b.engine->metagraphs(), ctx.seeds, seed_weights, &ctx.ss_cache);
  std::vector<uint32_t> ranked;
  for (uint32_t j = 0; j < h.size(); ++j) {
    if (h[j] >= 0.0) ranked.push_back(j);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](uint32_t a, uint32_t c) { return h[a] > h[c]; });
  if (reversed) std::reverse(ranked.begin(), ranked.end());
  return ranked;
}

TrainOptions DefaultTrainOptions() {
  TrainOptions options;
  options.max_iterations = FullScale() ? 500 : 300;
  options.restarts = FullScale() ? 5 : 3;
  return options;
}

}  // namespace metaprox::bench
