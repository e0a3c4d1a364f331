// servebench: the serving benchmark of metaprox.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process builds the served state from a generated graph (mine ->
// match -> train -> save -> mmap load -> QueryServer::Start), then drives
// the in-process server over loopback TCP with an open-loop load: one
// thread, one server::EpollLoop, at most nproc connections, Poisson
// arrivals from --seed. Every request is timed from the instant it was
// due, so a stall is charged to every request queued behind it. The load
// runs in rounds: a segment at the workload's light rate and one at its
// heavy rate give the latency metrics, and a climb of the workload's
// capacity ladder (workloads.h) gives the highest rate that meets the
// SLO. Index writes (APPEND + REFRESH of datagen::SliceByArrival slices)
// run beside the reads on update-mixed; on the other workloads they run
// between the rounds, on a second served instance with no query load.
//
// Every 'R' line is checked byte for byte against IndexSnapshot::Query
// under the model the request named and a generation the connection may
// legally have pinned; sent = R + E + dropped is cross-checked against
// the server's counters. A mismatch fails the run (exit 1).
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, recorded as spans around the benchmark's calls into each
// module and by replaying the served streams through the core, kernel and
// wire layers. The last stdout line is one JSON object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/index_maintainer.h"
#include "core/index_snapshot.h"
#include "core/score_kernels.h"
#include "datagen/arrival.h"
#include "datagen/facebook.h"
#include "datagen/linkedin.h"
#include "eval/splits.h"
#include "server/client.h"
#include "server/index_registry.h"
#include "server/model_registry.h"
#include "server/query_server.h"
#include "server/reactor.h"
#include "server/wire.h"
#include "stats.h"
#include "trace.h"
#include "util/parallel_for.h"
#include "util/rng.h"
#include "util/socket.h"
#include "util/thread_pool.h"
#include "workloads.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using metaprox::IndexMaintainer;
using metaprox::IndexSnapshot;
using metaprox::MgpModel;
using metaprox::NodeId;
using metaprox::QueryResult;
using metaprox::SearchEngine;
namespace server = metaprox::server;
namespace util = metaprox::util;
namespace datagen = metaprox::datagen;

constexpr uint64_t kDatasetSeed = 1;    // the graph is fixed per workload
constexpr int kSetupReps = 5;           // setup_s is the median of these
constexpr int64_t kMs = 1'000'000;      // ns per ms
// A segment is invalid when the generator's p99 lateness exceeds this share
// of the workload's latency limit: then the offered load was not the
// nominal one. (Lateness itself is charged to latency, timed from due.)
constexpr double kMaxLateShare = 0.25;
constexpr int64_t kDrainNs = 20'000 * kMs;  // wait for late replies
constexpr size_t kReplayQueries = 200;  // per-query core replay sample
constexpr size_t kWireReplay = 500;     // wire format/parse replay sample
constexpr size_t kRefreshReplay = 3;    // slices through a shadow maintainer
// The load runs in this many rounds of (light, heavy, capacity climb), so
// a slow spell of the host hits every measurement alike.
constexpr size_t kRounds = 5;
// A probe's first share of time is warm-up: replies to it are not yet
// due back, so the served-rate test skips it.
constexpr double kProbeWarmup = 0.25;
constexpr int kGeneratorNice = -10;     // driver thread priority while sending

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::exit(1);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

// ---- generated inputs ------------------------------------------------------

/// One (model, node, k) combination; requests refer to it by index so
/// reference answers are computed once per combination.
struct Combo {
  uint32_t model;
  uint32_t k;
  NodeId node;
};

struct Req {
  int64_t due_ns;  // offset from the segment's start
  uint32_t combo;
  uint32_t conn;
};

struct Inputs {
  datagen::Dataset full;
  datagen::ArrivalTimeline timeline;
  std::vector<NodeId> users;  // base-graph user pool
  std::vector<NodeId> by_rank;  // users in Zipf rank order
  std::vector<metaprox::Example> examples;
};

/// Maps full-graph node ids to base-graph ids under SliceByArrival's
/// documented renumbering (base = every non-anchor node plus the first
/// anchors in id order, ids by original order), and checks the result
/// against the base graph's types and adjacency.
std::vector<NodeId> BaseIdMap(const metaprox::Graph& full,
                              const metaprox::Graph& base,
                              metaprox::TypeId anchor) {
  const size_t base_anchors = base.CountOfType(anchor);
  std::vector<NodeId> map(full.num_nodes(), metaprox::kInvalidNode);
  std::vector<NodeId> inverse;
  size_t anchors = 0;
  for (NodeId v = 0; v < full.num_nodes(); ++v) {
    if (full.TypeOf(v) == anchor && anchors++ >= base_anchors) continue;
    map[v] = static_cast<NodeId>(inverse.size());
    inverse.push_back(v);
  }
  if (inverse.size() != base.num_nodes()) Die("arrival base size mismatch");
  for (NodeId b = 0; b < base.num_nodes(); ++b) {
    const NodeId v = inverse[b];
    size_t in_base = 0;
    for (NodeId u : full.Neighbors(v)) in_base += map[u] != metaprox::kInvalidNode;
    if (base.TypeOf(b) != full.TypeOf(v) || base.Degree(b) != in_base) {
      Die("arrival base renumbering differs from the documented order");
    }
  }
  return map;
}

/// Query connections: nproc in all, one of them the slice writer's when
/// writes run beside reads.
size_t QueryConnections(const Workload& w) {
  const size_t nproc = util::ResolveNumThreads(0);
  return w.writes_during_load ? std::max<size_t>(1, nproc - 1) : nproc;
}

double LadderRate(const Workload& w, size_t rung) {
  return w.heavy_rate * std::pow(kLadderStep, static_cast<double>(rung));
}

Inputs MakeInputs(const Workload& w) {
  Inputs in;
  if (w.dataset == DatasetKind::kFacebook) {
    datagen::FacebookConfig cfg;
    cfg.num_users = w.users;
    in.full = datagen::GenerateFacebook(cfg, kDatasetSeed);
  } else {
    datagen::LinkedInConfig cfg;
    cfg.num_users = w.users;
    in.full = datagen::GenerateLinkedIn(cfg, kDatasetSeed);
  }
  datagen::ArrivalConfig arrival;
  arrival.num_slices = w.num_slices;
  arrival.base_fraction = w.base_fraction;
  in.timeline =
      datagen::SliceByArrival(in.full.graph, in.full.user_type, arrival);
  const metaprox::Graph& base = in.timeline.base;
  auto pool = base.NodesOfType(in.full.user_type);
  in.users.assign(pool.begin(), pool.end());

  // Training examples of the first relationship class, restricted to the
  // base graph.
  const std::vector<NodeId> map =
      BaseIdMap(in.full.graph, base, in.full.user_type);
  const metaprox::GroundTruth& full_gt = in.full.classes[0];
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId q : full_gt.queries()) {
    for (NodeId y : full_gt.RelevantTo(q)) {
      if (map[q] != metaprox::kInvalidNode &&
          map[y] != metaprox::kInvalidNode && q < y) {
        pairs.emplace_back(map[q], map[y]);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  metaprox::GroundTruth gt(full_gt.class_name());
  for (const auto& [x, y] : pairs) gt.AddPositivePair(x, y);
  gt.Finalize();
  util::Rng train_rng(kDatasetSeed + 1);
  metaprox::QuerySplit split = metaprox::SplitQueries(gt, 0.2, train_rng);
  in.examples =
      metaprox::SampleExamples(gt, split.train, in.users, 300, train_rng);

  // The Zipf rank -> user mapping is a fixed shuffle: the hot set is part
  // of the workload, not of the seed.
  in.by_rank = in.users;
  util::Rng fixed(kDatasetSeed + 2);
  fixed.Shuffle(in.by_rank);
  return in;
}

/// Request streams, drawn from --seed: Poisson arrival times, node draws,
/// k and the model stripe. Each stream has its own generator, derived
/// from the seed and the stream's place in the run (round, step), so the
/// capacity climb can draw the probes it decides to run and the same
/// seed still gives the same streams.
class Traffic {
 public:
  Traffic(const Workload& w, const Inputs& in, uint64_t seed)
      : w_(w), in_(in), seed_(seed), conns_(QueryConnections(w)) {}

  /// Stream `step` of round `round` at `rate` q/s for `seconds`.
  std::vector<Req> Stream(size_t round, size_t step, double rate,
                          double seconds) {
    util::Rng rng((seed_ * 0x9e3779b97f4a7c15ULL) ^
                  ((uint64_t{round} << 32) | (step + 1)));
    std::vector<double> due = PoissonSchedule(
        rate, seconds, [&rng] { return rng.UniformDouble(); });
    uint64_t stripe = rng.UniformInt(w_.models.size());
    std::vector<Req> stream;
    stream.reserve(due.size());
    for (size_t i = 0; i < due.size(); ++i) {
      Combo c;
      c.model = static_cast<uint32_t>(stripe++ % w_.models.size());
      c.k = w_.ks[rng.UniformInt(w_.ks.size())];
      c.node = in_.by_rank[rng.Zipf(in_.by_rank.size(), w_.zipf_alpha)];
      const uint64_t key =
          (uint64_t{c.model} << 48) | (uint64_t{c.k} << 32) | c.node;
      auto [it, fresh] =
          combo_of_.emplace(key, static_cast<uint32_t>(combos_.size()));
      if (fresh) combos_.push_back(c);
      stream.push_back(Req{static_cast<int64_t>(due[i] * 1e9), it->second,
                           static_cast<uint32_t>(i % conns_)});
    }
    return stream;
  }

  const Combo& combo(uint32_t i) const { return combos_[i]; }

 private:
  const Workload& w_;
  const Inputs& in_;
  const uint64_t seed_;
  const size_t conns_;
  std::vector<Combo> combos_;
  std::unordered_map<uint64_t, uint32_t> combo_of_;
};

// ---- setup: the offline phase and a restart --------------------------------

/// The served instance of the last setup.
struct Served {
  std::unique_ptr<SearchEngine> engine;  // loaded from the artifacts
  std::vector<MgpModel> models;
  std::unique_ptr<server::ModelRegistry> registry;
  std::unique_ptr<IndexMaintainer> maintainer;
  std::unique_ptr<server::IndexRegistry> indexes;
  std::unique_ptr<server::QueryServer> server;

  void Stop() {
    if (server != nullptr) server->Stop();
    server.reset();
    indexes.reset();
    maintainer.reset();
    registry.reset();
    engine.reset();
  }
};

struct SetupStats {
  double total_s = 0;
  double mine_s = 0, match_s = 0, finalize_s = 0, train_s = 0;
  double save_s = 0, load_s = 0, start_s = 0;
  double span_self_s = 0;  // traced: sum of the setup spans' self times
  metaprox::MiningStats mining;
  uint64_t embeddings = 0, search_nodes = 0;
  size_t saturated = 0, metagraphs = 0;
  double artifact_mb = 0;
};

metaprox::EngineOptions EngineOptionsFor(const Workload& w,
                                         metaprox::TypeId anchor) {
  metaprox::EngineOptions options;
  options.miner.anchor_type = anchor;
  options.miner.min_support = kMinSupport;
  options.miner.max_nodes = w.max_nodes;
  options.num_threads = 0;  // the offline phase uses every core
  return options;
}

metaprox::TrainOptions TrainOptionsFor(const ModelSpec& spec,
                                       const SearchEngine& engine) {
  metaprox::TrainOptions options;
  options.max_iterations = 300;
  const auto& metagraphs = engine.metagraphs();
  for (uint32_t i = 0; i < metagraphs.size(); ++i) {
    const bool keep = spec.active == ActiveSet::kEvens   ? i % 2 == 0
                      : spec.active == ActiveSet::kOdds  ? i % 2 == 1
                      : spec.active == ActiveSet::kPaths ? metagraphs[i].is_path
                                                         : false;
    if (keep) options.active.push_back(i);
  }
  return options;
}

/// Cold start until the first PING answers. setup_s is timed from its own
/// start and end; each module call is also timed on its own, as a span
/// (request id = rep), so the traced run can check that the spans account
/// for the whole of setup_s.
SetupStats RunSetup(const Workload& w, const Inputs& in, int rep,
                    const std::string& dir, Tracer& tracer, Served* out) {
  SetupStats s;
  const metaprox::Graph& graph = in.timeline.base;
  const metaprox::EngineOptions eopts =
      EngineOptionsFor(w, in.full.user_type);
  const std::string prefix = dir + "/setup" + std::to_string(rep);
  const uint64_t id = static_cast<uint64_t>(rep + 1);
  std::vector<uint32_t> spans;
  // Runs `call` as one span; returns its seconds.
  auto timed = [&](const char* name, auto&& call) {
    const uint32_t n = tracer.Name(name);
    const int64_t a = NowNs();
    call();
    const int64_t b = NowNs();
    spans.push_back(tracer.Record(n, a, b, Span::kNoParent, id));
    return Seconds(b - a);
  };
  metaprox::ArtifactOptions artifacts;
  artifacts.format = util::ArtifactFormat::kBinary;
  artifacts.layout = metaprox::BinaryLayout::kAligned;
  artifacts.use_mmap = true;
  metaprox::MaintainerOptions mopts;
  mopts.matcher = eopts.matcher;
  mopts.embedding_cap = eopts.embedding_cap;
  mopts.num_threads = kPoolThreads;
  server::ServerOptions options;
  options.max_batch = kMaxBatch;
  options.window_micros = kWindowMicros;
  options.default_k = w.ks[0];
  options.default_model = w.models[0].name;
  options.admin = true;
  options.num_threads = kPoolThreads;
  Served served;
  std::unique_ptr<SearchEngine> builder;

  const int64_t t0 = NowNs();
  timed("core.engine", [&] {
    builder = std::make_unique<SearchEngine>(graph, eopts);
  });
  s.mine_s = timed("mining.mine", [&] { builder->Mine(); });
  s.match_s = timed("matching.match_all", [&] { builder->MatchAll(); });
  for (const ModelSpec& spec : w.models) {
    s.train_s += timed("learning.train", [&] {
      served.models.push_back(
          builder->Train(in.examples, TrainOptionsFor(spec, *builder)));
    });
  }
  s.save_s = timed("index.save", [&] {
    if (auto st = builder->SaveOffline(prefix, artifacts); !st.ok()) {
      Die("SaveOffline: " + st.ToString());
    }
  });
  timed("core.engine", [&] {
    served.engine = std::make_unique<SearchEngine>(graph, eopts);
  });
  s.load_s = timed("index.load", [&] {
    if (auto st = served.engine->LoadOffline(prefix, artifacts); !st.ok()) {
      Die("LoadOffline: " + st.ToString());
    }
  });
  s.start_s += timed("server.model_registry", [&] {
    served.registry = std::make_unique<server::ModelRegistry>(
        served.engine->index().num_metagraphs());
    for (size_t m = 0; m < w.models.size(); ++m) {
      if (!served.registry->Load(w.models[m].name, served.models[m]).ok()) {
        Die("model registry refused a trained model");
      }
    }
  });
  s.start_s += timed("core.index_maintainer", [&] {
    served.maintainer =
        std::make_unique<IndexMaintainer>(*served.engine, mopts);
  });
  s.start_s += timed("server.start", [&] {
    served.indexes = std::make_unique<server::IndexRegistry>(
        served.maintainer->snapshot());
    served.server = std::make_unique<server::QueryServer>(
        served.indexes.get(), served.registry.get(), options,
        served.maintainer.get());
    if (auto st = served.server->Start(); !st.ok()) {
      Die("server start: " + st.ToString());
    }
  });
  s.start_s += timed("server.first_ping", [&] {
    auto client =
        server::QueryClient::Connect("127.0.0.1", served.server->port());
    if (!client.ok() || !client->Ping().ok()) Die("first PING failed");
  });
  const int64_t t1 = NowNs();

  s.total_s = Seconds(t1 - t0);
  s.finalize_s = builder->timings().finalize_seconds;
  s.mining = builder->mining_stats();
  s.metagraphs = builder->metagraphs().size();
  for (const auto& m : builder->match_stats()) {
    s.embeddings += m.embeddings;
    s.search_nodes += m.search_nodes;
    s.saturated += m.saturated ? 1 : 0;
  }
  std::error_code ec;
  s.artifact_mb =
      static_cast<double>(std::filesystem::file_size(prefix + ".index", ec) +
                          std::filesystem::file_size(prefix + ".metagraphs", ec)) /
      (1024.0 * 1024.0);
  if (tracer.enabled()) {
    const std::vector<int64_t> self = SelfTimes(tracer.spans());
    for (uint32_t i : spans) s.span_self_s += Seconds(self[i]);
  }
  *out = std::move(served);
  return s;
}

// ---- the open-loop driver --------------------------------------------------

enum class Outcome : uint8_t { kPending, kOk, kRefused, kDropped, kMissing, kMismatch };

struct ReqResult {
  int64_t sent_ns = 0;   // absolute
  int64_t recv_ns = 0;   // absolute
  int64_t format_ns = 0;  // traced: BuildQueryRequest
  int64_t parse_ns = 0;   // traced: ParseQueryResponse
  uint64_t send_gen = 0;
  uint64_t recv_gen = 0;
  uint32_t bytes = 0;
  Outcome outcome = Outcome::kPending;
};

struct RefreshEvent {
  int64_t first_append_ns = 0;
  int64_t reply_ns = 0;
  uint64_t generation = 0;
  size_t affected = 0;
};

struct StepRun {
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  std::vector<ReqResult> results;
  // Stored replies for the post-segment check: one arena reserved up front,
  // so storing them does not grow the heap while the segment is timed.
  std::string arena;
  std::vector<std::pair<uint32_t, uint32_t>> lines;  // (offset, length)
  std::string_view line(size_t i) const {
    return std::string_view(arena).substr(lines[i].first, lines[i].second);
  }
  size_t backlog_end = 0;
  server::ServerStats before, after;
  std::string error;  // transport failure: fails the run
};

/// Pins every index generation the benchmark sees published, so replies
/// can be checked against the generation they were ranked on. Shared by
/// the driver thread and the slice writer.
class SnapshotPins {
 public:
  explicit SnapshotPins(server::IndexRegistry* indexes) : indexes_(indexes) {}

  /// Pins the generation served now and returns it.
  uint64_t Observe() {
    std::shared_ptr<const IndexSnapshot> snap = indexes_->Get();
    const uint64_t gen = snap->generation();
    std::lock_guard<std::mutex> lock(mu_);
    pins_.try_emplace(gen, std::move(snap));
    return gen;
  }
  std::shared_ptr<const IndexSnapshot> Find(uint64_t gen) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pins_.find(gen);
    return it == pins_.end() ? nullptr : it->second;
  }
  /// Unpins every generation older than the newest and returns the
  /// newest: once a segment's replies are checked, later requests can
  /// only pin the newest or a later one.
  uint64_t DropOlderThanNewest() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pins_.empty()) return 0;
    pins_.erase(pins_.begin(), std::prev(pins_.end()));
    return pins_.begin()->first;
  }

 private:
  server::IndexRegistry* indexes_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const IndexSnapshot>> pins_;
};

/// Replays arrival slices through the admin verbs on its own connection
/// and thread, so a refresh is timed to the instant its reply arrives
/// whatever the query driver is doing: each slice is pipelined as
/// `APPEND N`/`APPEND E` lines plus `REFRESH`, and its time runs from the
/// first APPEND sent to the `OK REFRESH` read.
class SliceWriter {
 public:
  /// With `pins`, each refresh's generation must also be the one the
  /// pinned registry serves.
  SliceWriter(const std::vector<metaprox::GraphDelta>& slices,
              SnapshotPins* pins)
      : slices_(slices), pins_(pins) {}
  ~SliceWriter() { Finish(); }
  SliceWriter(const SliceWriter&) = delete;
  SliceWriter& operator=(const SliceWriter&) = delete;

  /// Replays up to `count` further slices to the server at `port`, one
  /// every `interval_ns` (or right after the previous reply, if that is
  /// later).
  void Start(uint16_t port, size_t count, int64_t interval_ns) {
    Finish();
    stop_ = false;
    thread_ = std::thread([this, port, count, interval_ns] {
      Loop(port, count, interval_ns);
    });
  }
  /// Lets the slice in flight finish, starts no further one, and joins.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    Finish();
  }
  /// Joins once every requested slice is replayed.
  void Finish() {
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<RefreshEvent>& events() const { return events_; }
  const std::string& error() const { return error_; }

 private:
  void Loop(uint16_t port, size_t count, int64_t interval_ns) {
    auto socket = util::ConnectTcp("127.0.0.1", port);
    if (!socket.ok() || !util::SetTcpNoDelay(*socket).ok()) {
      error_ = "admin connect failed";
      return;
    }
    util::LineReader reader(*socket);
    int64_t due = NowNs();
    for (size_t n = 0; n < count && next_ < slices_.size(); ++n) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_for(lock, std::chrono::nanoseconds(std::max<int64_t>(0, due - NowNs())),
                     [this] { return stop_; });
        if (stop_) return;
      }
      const metaprox::GraphDelta& delta = slices_[next_++];
      std::string batch;
      for (const auto& node : delta.nodes) {
        batch += server::BuildAppendNodeRequest(node.type);
      }
      for (const auto& [u, v] : delta.edges) {
        batch += server::BuildAppendEdgeRequest(u, v);
      }
      batch += server::BuildRefreshRequest();
      RefreshEvent e;
      e.first_append_ns = NowNs();
      if (!util::SendAll(*socket, batch).ok()) {
        error_ = "admin send failed";
        return;
      }
      std::string line;
      for (size_t j = 0; j < delta.nodes.size() + delta.edges.size(); ++j) {
        const std::string want =
            j < delta.nodes.size()
                ? "OK APPEND N " + std::to_string(delta.base_nodes() + j)
                : "OK APPEND E ";
        if (!reader.ReadLine(&line) || line.rfind(want, 0) != 0 ||
            (j < delta.nodes.size() && line != want)) {
          error_ = "APPEND reply: " + line;
          return;
        }
      }
      unsigned long long gen = 0;
      if (!reader.ReadLine(&line) ||
          std::sscanf(line.c_str(), "OK REFRESH %llu %zu", &gen,
                      &e.affected) != 2) {
        error_ = "REFRESH reply: " + line;
        return;
      }
      e.reply_ns = NowNs();
      e.generation = gen;
      // The reply follows the publish, and this thread is the only writer.
      if (gen != (events_.empty() ? 1 : events_.back().generation) + 1 ||
          (pins_ != nullptr && pins_->Observe() != gen)) {
        error_ = "REFRESH generation is not the next or the served one";
        return;
      }
      events_.push_back(e);
      due = std::max(due + interval_ns, e.reply_ns);
    }
  }

  const std::vector<metaprox::GraphDelta>& slices_;
  SnapshotPins* pins_;
  size_t next_ = 0;
  std::vector<RefreshEvent> events_;
  std::string error_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Bytes a stored k-result reply can take: "R <node> <k>" and k pairs of
/// an id and a %.17g score (at most 24 characters), space-separated.
size_t ReplyBytesBound(uint32_t k) { return 32 + size_t{k} * 36; }

class Driver {
 public:
  Driver(const Workload& w, const Traffic& traffic, Served& served,
         Tracer& tracer, SnapshotPins* pins)
      : w_(w), traffic_(traffic), served_(served), tracer_(tracer),
        pins_(pins) {}

  /// Opens `num_conns` query connections on one epoll loop.
  void Connect(size_t num_conns) {
    auto loop = server::EpollLoop::Create();
    if (!loop.ok()) Die("epoll: " + loop.status().ToString());
    loop_.emplace(std::move(*loop));
    conns_.resize(num_conns);
    for (size_t c = 0; c < conns_.size(); ++c) {
      auto socket = util::ConnectTcp("127.0.0.1", served_.server->port());
      if (!socket.ok()) Die("connect: " + socket.status().ToString());
      conns_[c].socket = std::move(*socket);
      if (!util::SetTcpNoDelay(conns_[c].socket).ok() ||
          !util::SetNonBlocking(conns_[c].socket).ok() ||
          !loop_->Add(conns_[c].socket.fd(), c, true, false).ok()) {
        Die("socket setup failed");
      }
    }
    n_request_ = tracer_.Name("request");
    n_format_ = tracer_.Name("wire.format_request");
    n_roundtrip_ = tracer_.Name("server.roundtrip");
    n_parse_ = tracer_.Name("wire.parse_response");
  }

  /// Runs one segment: sends `reqs` on schedule and waits for every
  /// reply. Replies are stored, with the generations they may have
  /// pinned, for CheckStoredReplies.
  StepRun Run(const std::vector<Req>& reqs, int64_t duration_ns,
              bool traced) {
    // The generator stands in for clients on other machines: it runs above
    // the server's threads so a busy server cannot make it send late.
    // Without the privilege this is a no-op and lateness shows instead.
    const int nice_before = ::getpriority(PRIO_PROCESS, 0);
    (void)::setpriority(PRIO_PROCESS, 0, kGeneratorNice);
    StepRun run;
    run.duration_ns = duration_ns;
    run.results.resize(reqs.size());
    run.lines.resize(reqs.size());
    size_t reserve = 0;
    for (const Req& r : reqs) {
      reserve += ReplyBytesBound(traffic_.combo(r.combo).k);
    }
    run.arena.reserve(reserve);
    run.before = served_.server->stats();
    const int64_t t0 = NowNs() + 5 * kMs;
    run.start_ns = t0;
    size_t next = 0;
    size_t resolved = 0;
    const int64_t drain_deadline =
        (reqs.empty() ? t0 : t0 + reqs.back().due_ns) + kDrainNs;
    std::vector<server::EpollLoop::Event> events;
    std::string line;

    auto resolve = [&](size_t i, Outcome o) {
      if (run.results[i].outcome == Outcome::kPending) {
        run.results[i].outcome = o;
        ++resolved;
      }
    };
    auto fail = [&](const std::string& why) {
      if (run.error.empty()) run.error = why;
    };
    auto drop_conn = [&](size_t c) {
      Conn& conn = conns_[c];
      if (conn.dead) return;
      conn.dead = true;
      (void)loop_->Del(conn.socket.fd());
      for (size_t i : conn.awaiting) resolve(i, Outcome::kDropped);
      conn.awaiting.clear();
    };
    auto flush = [&](size_t c) {
      Conn& conn = conns_[c];
      while (!conn.dead && conn.out_off < conn.out.size()) {
        auto chunk = util::SendSome(
            conn.socket, std::string_view(conn.out).substr(conn.out_off));
        if (!chunk.ok()) {
          drop_conn(c);
          return;
        }
        if (chunk->would_block) break;
        conn.out_off += chunk->bytes;
      }
      if (conn.out_off == conn.out.size()) {
        conn.out.clear();
        conn.out_off = 0;
      }
      const bool want_write = !conn.out.empty();
      if (!conn.dead && want_write != conn.want_write) {
        conn.want_write = want_write;
        (void)loop_->Mod(conn.socket.fd(), c, true, want_write);
      }
    };
    auto issue = [&](size_t i) {
      const Req& r = reqs[i];
      Conn& conn = conns_[r.conn];
      ReqResult& res = run.results[i];
      if (conn.dead) {
        res.sent_ns = NowNs();
        resolve(i, Outcome::kDropped);
        return;
      }
      const Combo& c = traffic_.combo(r.combo);
      const int64_t f0 = traced ? NowNs() : 0;
      conn.out += server::BuildQueryRequest(w_.models[c.model].name, c.node,
                                            c.k);
      res.send_gen = pins_->Observe();
      res.sent_ns = NowNs();
      res.format_ns = traced ? res.sent_ns - f0 : 0;
      conn.awaiting.push_back(i);
      flush(r.conn);
    };
    auto on_reply = [&](size_t c, const std::string& text) {
      Conn& conn = conns_[c];
      if (conn.awaiting.empty()) {
        fail("unsolicited reply: " + text.substr(0, 80));
        return;
      }
      const size_t i = conn.awaiting.front();
      conn.awaiting.pop_front();
      ReqResult& res = run.results[i];
      res.recv_ns = NowNs();
      res.recv_gen = pins_->Observe();
      res.bytes = static_cast<uint32_t>(text.size() + 1);
      const Combo& combo = traffic_.combo(reqs[i].combo);
      if (text.rfind("R ", 0) != 0) {
        resolve(i, text.rfind("E ", 0) == 0 ? Outcome::kRefused
                                            : Outcome::kMismatch);
        return;
      }
      if (traced) {
        server::RankResponse parsed;
        const int64_t p0 = NowNs();
        const bool ok = server::ParseQueryResponse(text, &parsed);
        res.parse_ns = NowNs() - p0;
        if (!ok || parsed.query != combo.node) {
          resolve(i, Outcome::kMismatch);
          return;
        }
      }
      run.lines[i] = {static_cast<uint32_t>(run.arena.size()),
                      static_cast<uint32_t>(text.size())};
      run.arena += text;
      resolve(i, Outcome::kOk);
      if (traced) {
        const uint64_t id = ++request_ids_;
        const uint32_t root = tracer_.Record(
            n_request_, run.start_ns + reqs[i].due_ns,
            res.recv_ns + res.parse_ns, Span::kNoParent, id);
        tracer_.Record(n_format_, res.sent_ns - res.format_ns, res.sent_ns,
                       root, id);
        tracer_.Record(n_roundtrip_, res.sent_ns, res.recv_ns, root, id);
        tracer_.Record(n_parse_, res.recv_ns, res.recv_ns + res.parse_ns,
                       root, id);
      }
    };
    auto on_readable = [&](size_t c) {
      Conn& conn = conns_[c];
      char buf[64 * 1024];
      while (!conn.dead) {
        auto chunk = util::RecvSome(conn.socket, buf, sizeof(buf));
        if (!chunk.ok() || chunk->eof) {
          drop_conn(c);
          return;
        }
        if (chunk->would_block) break;
        conn.input.Append(std::string_view(buf, chunk->bytes));
        while (conn.input.TakeLine(&line)) on_reply(c, line);
      }
    };

    // While requests remain the thread polls instead of sleeping: a
    // sleeping vCPU can wake milliseconds late, which would make the
    // generator, not the server, set the latency tail. Once all are sent
    // it blocks until the last replies arrive.
    while (resolved < reqs.size() && run.error.empty()) {
      const int64_t now = NowNs();
      while (next < reqs.size() && t0 + reqs[next].due_ns <= now) {
        issue(next++);
        if (next == reqs.size()) run.backlog_end = next - resolved;
      }
      if (now > drain_deadline) {
        fail("replies still missing " + std::to_string(kDrainNs / kMs) +
             " ms after the segment");
        break;
      }
      const bool spin = next < reqs.size();
      auto waited = loop_->Wait(spin ? 0 : 100, &events);
      if (!waited.ok()) Die("epoll wait: " + waited.status().ToString());
      for (const auto& e : events) {
        const size_t c = static_cast<size_t>(e.tag);
        if (e.writable) flush(c);
        if (e.readable || e.error) on_readable(c);
      }
    }
    for (Conn& conn : conns_) {
      for (size_t i : conn.awaiting) resolve(i, Outcome::kMissing);
      conn.awaiting.clear();
    }
    run.after = served_.server->stats();
    (void)::setpriority(PRIO_PROCESS, 0, nice_before);
    return run;
  }

 private:
  struct Conn {
    util::Socket socket;
    util::LineBuffer input;
    std::string out;
    size_t out_off = 0;
    std::deque<size_t> awaiting;
    bool want_write = false;
    bool dead = false;
  };

  const Workload& w_;
  const Traffic& traffic_;
  Served& served_;
  Tracer& tracer_;
  SnapshotPins* pins_;
  std::optional<server::EpollLoop> loop_;
  std::vector<Conn> conns_;
  uint64_t request_ids_ = 0;
  uint32_t n_request_ = 0, n_format_ = 0, n_roundtrip_ = 0, n_parse_ = 0;
};

// ---- reference answers -----------------------------------------------------

/// Reference replies, BuildQueryResponse(IndexSnapshot::Query(...)) under
/// the request's model, computed once per (generation, combo) and kept
/// while the generation is pinned.
class References {
 public:
  References(const Traffic& traffic, const Served& served,
             const SnapshotPins& pins, util::ThreadPool* pool)
      : traffic_(traffic), served_(served), pins_(pins), pool_(pool) {}

  /// Checks a segment's stored replies: each must equal the answer of one
  /// generation between the later of (the last generation accepted on its
  /// connection, the one published when it was sent) and the one
  /// published when it arrived. Marks and returns the mismatches.
  size_t Check(const std::vector<Req>& reqs, StepRun& run,
               std::vector<uint64_t>* last_gen) {
    std::vector<uint64_t> missing;
    for (size_t i = 0; i < reqs.size(); ++i) {
      const ReqResult& r = run.results[i];
      if (r.outcome != Outcome::kOk) continue;
      for (uint64_t g = r.send_gen; g <= r.recv_gen; ++g) {
        const uint64_t key = (g << 32) | reqs[i].combo;
        if (!refs_.contains(key)) missing.push_back(key);
      }
    }
    std::sort(missing.begin(), missing.end());
    missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
    std::vector<std::string> lines(missing.size());
    util::ParallelChunks(pool_, missing.size(), [&](size_t lo, size_t hi) {
      for (size_t j = lo; j < hi; ++j) {
        auto snap = pins_.Find(missing[j] >> 32);
        if (snap == nullptr) continue;  // unknown generation: a mismatch
        const Combo& c = traffic_.combo(missing[j] & 0xffffffffu);
        lines[j] = server::BuildQueryResponse(
            c.node, snap->Query(served_.models[c.model], c.node, c.k));
        lines[j].pop_back();  // LineBuffer strips the terminator
      }
    });
    for (size_t j = 0; j < missing.size(); ++j) {
      refs_.emplace(missing[j], std::move(lines[j]));
    }

    size_t mismatches = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
      ReqResult& r = run.results[i];
      if (r.outcome != Outcome::kOk) continue;
      uint64_t& last = (*last_gen)[reqs[i].conn];
      bool matched = false;
      for (uint64_t g = std::max(last, r.send_gen); g <= r.recv_gen; ++g) {
        auto it = refs_.find((g << 32) | reqs[i].combo);
        if (it != refs_.end() && !it->second.empty() &&
            it->second == run.line(i)) {
          last = g;
          matched = true;
          break;
        }
      }
      if (!matched) {
        r.outcome = Outcome::kMismatch;
        ++mismatches;
      }
    }
    run.lines = {};
    run.arena = {};
    return mismatches;
  }

  /// Forgets the references of generations older than `gen`.
  void DropOlderThan(uint64_t gen) {
    std::erase_if(refs_,
                  [gen](const auto& kv) { return (kv.first >> 32) < gen; });
  }

 private:
  const Traffic& traffic_;
  const Served& served_;
  const SnapshotPins& pins_;
  util::ThreadPool* pool_;
  std::unordered_map<uint64_t, std::string> refs_;
};

// ---- per-segment summary ---------------------------------------------------

struct StepSummary {
  double rate = 0;
  size_t sent = 0, ok = 0, failed = 0, mismatched = 0;
  double p50_ms = 0, p99_ms = 0, late_p99_ms = 0;
  /// After the warm-up: replies per second, and their share of the
  /// requests sent in the same interval (below 1 when the backlog grows).
  double served_qps = 0, served_share = 0;
  size_t backlog_end = 0;
  bool valid = true, meets_slo = false, counts_conserved = true;
  server::ServerStats delta;
};

/// Adds the counter movement from `a` to `b` into `sum`.
void AddDelta(const server::ServerStats& a, const server::ServerStats& b,
              server::ServerStats* sum) {
  sum->queries += b.queries - a.queries;
  sum->batches += b.batches - a.batches;
  sum->protocol_errors += b.protocol_errors - a.protocol_errors;
  sum->windows += b.windows - a.windows;
  sum->window_model_groups += b.window_model_groups - a.window_model_groups;
  sum->rows_gathered += b.rows_gathered - a.rows_gathered;
  sum->rows_saved_vs_per_model +=
      b.rows_saved_vs_per_model - a.rows_saved_vs_per_model;
  sum->slow_consumer_evictions +=
      b.slow_consumer_evictions - a.slow_consumer_evictions;
  sum->pipeline_refused += b.pipeline_refused - a.pipeline_refused;
  sum->rate_limited += b.rate_limited - a.rate_limited;
  sum->deadline_expired += b.deadline_expired - a.deadline_expired;
}

/// Pools segments at one rate into one summary.
StepSummary Summarize(const Workload& w, double rate,
                      const std::vector<const std::vector<Req>*>& segments,
                      const std::vector<const StepRun*>& runs) {
  StepSummary s;
  s.rate = rate;
  std::vector<double> latency;
  std::vector<double> late;
  int64_t served_ns = 0;
  size_t served = 0, sent_after_warmup = 0;
  for (size_t k = 0; k < runs.size(); ++k) {
    const std::vector<Req>& reqs = *segments[k];
    const StepRun& run = *runs[k];
    const int64_t warm = run.start_ns + static_cast<int64_t>(
        kProbeWarmup * static_cast<double>(run.duration_ns));
    const int64_t end = run.start_ns + run.duration_ns;
    size_t replies_r = 0, replies_e = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
      const ReqResult& r = run.results[i];
      const int64_t due = run.start_ns + reqs[i].due_ns;
      late.push_back(Millis(r.sent_ns - due));
      if (due >= warm) ++sent_after_warmup;
      if (r.recv_ns >= warm && r.recv_ns < end) ++served;
      if (r.outcome == Outcome::kOk) {
        ++s.ok;
        latency.push_back(Millis(r.recv_ns - due));
      } else {
        ++s.failed;
        latency.push_back(std::numeric_limits<double>::infinity());
      }
      if (r.outcome == Outcome::kOk || r.outcome == Outcome::kMismatch) {
        ++replies_r;
      }
      if (r.outcome == Outcome::kRefused) ++replies_e;
      if (r.outcome == Outcome::kMismatch) ++s.mismatched;
    }
    server::ServerStats d;
    AddDelta(run.before, run.after, &d);
    AddDelta(server::ServerStats{}, d, &s.delta);
    // sent = R + E + dropped, with R and E matching the server's counters.
    s.counts_conserved = s.counts_conserved && d.queries == replies_r &&
                         d.protocol_errors == replies_e;
    s.backlog_end = std::max(s.backlog_end, run.backlog_end);
    s.sent += reqs.size();
    served_ns += end - warm;
  }
  if (s.sent > 0) {
    s.p50_ms = Percentile(latency, 50);
    s.p99_ms = Percentile(latency, 99);
    s.late_p99_ms = Percentile(late, 99);
  }
  s.served_qps = static_cast<double>(served) /
                 Seconds(std::max<int64_t>(1, served_ns));
  s.served_share = static_cast<double>(served) /
                   static_cast<double>(std::max<size_t>(1, sent_after_warmup));
  s.valid = s.late_p99_ms <= kMaxLateShare * w.latency_limit_ms;
  s.meets_slo = s.valid && s.served_share >= kMinServed &&
                s.p99_ms <= w.latency_limit_ms &&
                static_cast<double>(s.failed) <=
                    kFailLimit * static_cast<double>(s.sent);
  return s;
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-30s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- per-layer replays (traced run) ----------------------------------------

struct WindowReplay {
  std::vector<double> window_ms;
  double us_per_query = 0;
  double rows_gathered_per_query = 0;
  double shared_pair_rows = 0;
};

/// Replays a stream through IndexSnapshot::BatchQueryMulti in
/// windows of `window` consecutive requests, split by k as the server's
/// batcher splits them, with the server's pool size.
WindowReplay ReplayWindows(const Workload& w, const Traffic& traffic,
                           const Served& served, const IndexSnapshot& snap,
                           const std::vector<Req>& reqs, size_t window,
                           Tracer& tracer) {
  WindowReplay out;
  std::unique_ptr<util::ThreadPool> pool;
  if (kPoolThreads > 1) pool = std::make_unique<util::ThreadPool>(kPoolThreads);
  metaprox::BatchScratch scratch;
  std::vector<std::span<const double>> models;
  for (const MgpModel& m : served.models) models.emplace_back(m.weights);
  const uint32_t n_window = tracer.Name("core.batch_window");
  const uint32_t n_call = tracer.Name("core.batch_query_multi");
  metaprox::BatchMultiStats total;
  int64_t busy = 0;
  window = std::max<size_t>(1, window);
  for (size_t lo = 0; lo < reqs.size(); lo += window) {
    const size_t hi = std::min(reqs.size(), lo + window);
    const uint32_t parent = tracer.Open(n_window);
    const int64_t t0 = NowNs();
    for (uint32_t k : w.ks) {
      std::vector<NodeId> nodes;
      std::vector<uint32_t> model_of;
      for (size_t i = lo; i < hi; ++i) {
        const Combo& c = traffic.combo(reqs[i].combo);
        if (c.k != k) continue;
        nodes.push_back(c.node);
        model_of.push_back(c.model);
      }
      if (nodes.empty()) continue;
      metaprox::BatchMultiStats stats;
      const int64_t c0 = NowNs();
      auto results = snap.BatchQueryMulti(models, nodes, model_of, k,
                                          pool.get(), &scratch, &stats);
      tracer.Record(n_call, c0, NowNs(), parent);
      total.rows_gathered += stats.rows_gathered;
      total.shared_pair_rows += stats.shared_pair_rows;
    }
    const int64_t t1 = NowNs();
    tracer.Close(parent);
    busy += t1 - t0;
    out.window_ms.push_back(Millis(t1 - t0));
  }
  const double n = static_cast<double>(std::max<size_t>(1, reqs.size()));
  out.us_per_query = static_cast<double>(busy) * 1e-3 / n;
  out.rows_gathered_per_query = static_cast<double>(total.rows_gathered) / n;
  out.shared_pair_rows = static_cast<double>(total.shared_pair_rows) /
                         static_cast<double>(out.window_ms.size());
  return out;
}

/// kernels::RowDotMulti over every node row of the served index at the
/// workload's model count; ns per row entry (all models of the entry).
double KernelNsPerEntry(const Served& served, const IndexSnapshot& snap) {
  namespace kernels = metaprox::kernels;
  std::vector<std::span<const double>> models;
  for (const MgpModel& m : served.models) models.emplace_back(m.weights);
  kernels::MultiWeightSet set;
  set.Assign(models);
  std::vector<double> lanes(set.lane_scratch_size());
  std::vector<double> dots(set.num_models());
  const auto& index = snap.index();
  const auto transform = index.row_transform();
  double sink = 0;
  uint64_t entries = 0;
  const int64_t t0 = NowNs();
  int64_t t1 = t0;
  while (t1 - t0 < 200 * kMs) {
    for (NodeId x = 0; x < index.num_graph_nodes(); ++x) {
      auto row = index.NodeRow(x);
      kernels::RowDotMulti(row, set, transform, dots.data(), lanes.data());
      sink += dots[0];
      entries += row.size();
    }
    t1 = NowNs();
  }
  if (sink == 0.12345) std::fprintf(stderr, " ");  // keep the loop live
  return static_cast<double>(t1 - t0) / static_cast<double>(std::max<uint64_t>(1, entries));
}

struct RefreshReplay {
  double refresh_ms_p50 = 0, rematch_ms_p50 = 0;
  double affected_frac = 0, delta_frac = 0;
};

/// Replays the first slices through a shadow IndexMaintainer over the
/// served base state, for RefreshStats the server does not expose.
RefreshReplay ReplayRefreshes(const Inputs& in, const Served& served,
                              size_t count, Tracer& tracer) {
  metaprox::MaintainerOptions mopts;
  mopts.num_threads = kPoolThreads;
  IndexMaintainer shadow(*served.engine, mopts);
  const uint32_t n_refresh = tracer.Name("core.refresh");
  std::vector<double> total_ms, rematch_ms, affected, delta;
  const double metagraphs =
      static_cast<double>(served.engine->metagraphs().size());
  for (size_t i = 0; i < std::min(count, in.timeline.slices.size()); ++i) {
    if (!shadow.Append(in.timeline.slices[i]).ok()) Die("shadow append");
    metaprox::RefreshStats stats;
    const int64_t t0 = NowNs();
    if (!shadow.Refresh(&stats).ok()) Die("shadow refresh");
    tracer.Record(n_refresh, t0, NowNs());
    total_ms.push_back(Millis(NowNs() - t0));
    rematch_ms.push_back(stats.rematch_seconds * 1e3);
    affected.push_back(static_cast<double>(stats.affected_metagraphs) /
                       metagraphs);
    delta.push_back(stats.affected_metagraphs == 0
                        ? 0.0
                        : static_cast<double>(stats.delta_metagraphs) /
                              static_cast<double>(stats.affected_metagraphs));
  }
  RefreshReplay out;
  if (total_ms.empty()) return out;
  out.refresh_ms_p50 = Median(total_ms);
  out.rematch_ms_p50 = Median(rematch_ms);
  out.affected_frac =
      std::accumulate(affected.begin(), affected.end(), 0.0) / affected.size();
  out.delta_frac =
      std::accumulate(delta.begin(), delta.end(), 0.0) / delta.size();
  return out;
}

// ---- main ------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
      have[1] = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
      have[2] = true;
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      have[3] = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have[0] || !have[1] || !have[2] || !have[3] || a.seconds <= 0) {
    Die("usage: servebench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* wp = FindWorkload(args.workload);
  if (wp == nullptr) Die("unknown workload " + args.workload);
  const Workload& w = *wp;
  const size_t nproc = util::ResolveNumThreads(0);
  const char* kernel =
      metaprox::kernels::KernelName(metaprox::kernels::ActiveKernel());
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("env kernel=%s nproc=%zu compiler=\"%s\" build=%s\n", kernel,
              nproc, __VERSION__, SERVEBENCH_BUILD_TYPE);

  const Inputs in = MakeInputs(w);
  // Scratch space inside the checkout's build directory (run.sh's).
  const char* build_dir = std::getenv("CARGO_TARGET_DIR");
  const std::string work = std::string(build_dir != nullptr && *build_dir
                                           ? build_dir
                                           : ".bench_build") +
                           "/servebench-work";
  const std::string dir =
      work + "/run-" + std::to_string(static_cast<long long>(::getpid()));
  std::filesystem::create_directories(dir);
  Tracer tracer(args.trace);

  // Setup, kSetupReps times (setup_s is the median). The first instance
  // serves the load; the others are set up between the rounds, so that
  // their median samples the host over the whole run as the load does.
  // Where writes do not run beside reads, the second stays up as the write
  // twin: it takes the idle refreshes, so the served index stays the
  // loaded artifact for every round.
  std::vector<SetupStats> setups;
  auto setup = [&](Served* out) {
    const int rep = static_cast<int>(setups.size());
    setups.push_back(RunSetup(w, in, rep, dir, tracer, out));
    const SetupStats& s = setups.back();
    std::printf("setup %d: %.3f s (%zu metagraphs; mine %.3f, match %.3f, "
                "train %.3f, save %.3f, load %.3f, start %.3f)\n",
                rep, s.total_s, s.metagraphs, s.mine_s, s.match_s,
                s.train_s, s.save_s, s.load_s, s.start_s);
  };
  Served served, twin;
  setup(&served);

  util::ThreadPool ref_pool(nproc);
  Traffic traffic(w, in, args.seed);
  SnapshotPins pins(served.indexes.get());
  pins.Observe();
  References refs(traffic, served, pins, &ref_pool);
  auto driver_owner =
      std::make_unique<Driver>(w, traffic, served, tracer, &pins);
  Driver& driver = *driver_owner;
  driver.Connect(QueryConnections(w));
  SliceWriter writer(in.timeline.slices,
                     w.writes_during_load ? &pins : nullptr);
  std::vector<uint64_t> last_gen(QueryConnections(w), 1);
  bool correct = true;
  size_t attempted = 0, failed = 0;
  server::ServerStats load_delta;  // counter movement over every segment

  struct Segment {
    std::vector<Req> reqs;
    StepRun run;
  };
  // Sends one segment and checks its replies.
  auto run_segment = [&](std::vector<Req> reqs, double seconds, bool traced) {
    Segment seg;
    seg.reqs = std::move(reqs);
    seg.run = driver.Run(seg.reqs, static_cast<int64_t>(seconds * 1e9), traced);
    if (!seg.run.error.empty()) {
      std::printf("segment: %s\n", seg.run.error.c_str());
      correct = false;
    }
    refs.Check(seg.reqs, seg.run, &last_gen);
    refs.DropOlderThan(pins.DropOlderThanNewest());
    return seg;
  };
  auto account = [&](const StepSummary& s) {
    attempted += s.sent;
    failed += s.failed - s.mismatched;
    AddDelta(server::ServerStats{}, s.delta, &load_delta);
    if (s.mismatched > 0 || !s.counts_conserved) correct = false;
  };
  auto summarize = [&](double rate, const std::vector<Segment>& segs) {
    std::vector<const std::vector<Req>*> reqs;
    std::vector<const StepRun*> runs;
    for (const Segment& seg : segs) {
      reqs.push_back(&seg.reqs);
      runs.push_back(&seg.run);
    }
    return Summarize(w, rate, reqs, runs);
  };
  auto print_step = [&](const char* what, const StepSummary& s) {
    std::printf(
        "%s %6.0f q/s%s: sent %zu ok %zu failed %zu mismatched %zu | "
        "p50 %.3f ms p99 %.3f ms | served %.1f q/s (%.3f of sent) "
        "late_p99 %.3f ms backlog_end %zu | q/window %.2f "
        "batches/window %.2f | %s%s%s\n",
        what, s.rate, args.trace ? " (traced)" : "", s.sent, s.ok, s.failed,
        s.mismatched, s.p50_ms, s.p99_ms, s.served_qps, s.served_share,
        s.late_p99_ms, s.backlog_end,
        s.delta.windows ? double(s.delta.queries) / s.delta.windows : 0.0,
        s.delta.windows ? double(s.delta.batches) / s.delta.windows : 0.0,
        s.valid ? "valid" : "INVALID (generator behind)",
        s.meets_slo ? ", meets SLO" : ", misses SLO",
        s.counts_conserved ? "" : ", COUNTS NOT CONSERVED");
  };

  // kRounds rounds of: light segment, heavy segment, capacity climb. Step
  // ids name the streams: 0 light, 1 heavy, 2 + i ladder rung i.
  const double light_s = args.seconds * kLightShare / kRounds;
  const double heavy_s = args.seconds * kHeavyShare / kRounds;
  const double probe_s = args.seconds * kProbeShare;
  std::vector<Segment> light_segs, heavy_segs, untraced_light_segs;
  std::vector<double> capacity;  // one estimate per round
  size_t start = 0;
  for (size_t k = 0; k < kRounds; ++k) {
    // Slices replay beside the light and heavy segments; the climb runs
    // between them, so every probe measures the same server.
    if (w.writes_during_load) {
      writer.Start(served.server->port(), in.timeline.slices.size(),
                   static_cast<int64_t>(w.slice_interval_s * 1e9));
    }
    std::vector<Req> light_reqs = traffic.Stream(k, 0, w.light_rate, light_s);
    if (args.trace) {
      untraced_light_segs.push_back(run_segment(light_reqs, light_s, false));
    }
    light_segs.push_back(
        run_segment(std::move(light_reqs), light_s, args.trace));
    heavy_segs.push_back(run_segment(
        traffic.Stream(k, 1, w.heavy_rate, heavy_s), heavy_s, args.trace));
    if (w.writes_during_load) writer.Stop();

    // The climb (ClimbLadder); each probe is one untraced segment.
    std::map<size_t, ProbeRate> probed;
    auto probe = [&](size_t rung) {
      const double rate = LadderRate(w, rung);
      std::vector<Segment> seg;
      seg.push_back(run_segment(traffic.Stream(k, 2 + rung, rate, probe_s),
                                probe_s, false));
      const StepSummary s = summarize(rate, seg);
      account(s);
      const std::string what =
          "round " + std::to_string(k) + " rung " + std::to_string(rung);
      print_step(what.c_str(), s);
      probed[rung] = ProbeRate{rate, s.served_qps, s.served_share};
      return s.meets_slo;
    };
    const Climb climb = ClimbLadder(start, w.ladder_rungs - 1, probe);
    std::optional<ProbeRate> pass, miss;
    if (climb.pass) pass = probed[*climb.pass];
    if (climb.miss) miss = probed[*climb.miss];
    const double cap = RoundCapacity(pass, miss, kMinServed);
    if (!pass) std::printf("round %zu: no rung met the SLO\n", k);
    std::printf("round %zu: capacity %.1f q/s\n", k, cap);
    capacity.push_back(cap);
    start = climb.pass && *climb.pass >= 2 ? *climb.pass - 2 : 0;

    // Between rounds, with no query load: the next setup, then the idle
    // refreshes on the twin.
    if (setups.size() < static_cast<size_t>(kSetupReps)) {
      Served next;
      setup(&next);
      if (!w.writes_during_load && twin.server == nullptr) {
        twin = std::move(next);
      } else {
        next.Stop();
      }
    }
    if (!w.writes_during_load) {
      writer.Start(twin.server->port(), w.idle_refreshes, 0);
      writer.Finish();
    }
  }
  std::vector<double> setup_totals;
  for (const SetupStats& s : setups) setup_totals.push_back(s.total_s);
  const double setup_s = Median(setup_totals);

  const StepSummary light = summarize(w.light_rate, light_segs);
  const StepSummary heavy = summarize(w.heavy_rate, heavy_segs);
  account(light);
  account(heavy);
  print_step("light", light);
  print_step("heavy", heavy);
  const double max_qps_slo = Median(capacity);
  if (!writer.error().empty()) {
    std::printf("slice writer: %s\n", writer.error().c_str());
    correct = false;
  }
  const std::vector<RefreshEvent>& refreshes = writer.events();
  std::vector<double> refresh_ms;
  for (const RefreshEvent& e : refreshes) {
    refresh_ms.push_back(Millis(e.reply_ns - e.first_append_ns));
  }
  std::printf("refreshes: %zu, generations up to %llu\n", refreshes.size(),
              static_cast<unsigned long long>(
                  refreshes.empty() ? 1 : refreshes.back().generation));
  std::printf("refresh ms:");
  for (double ms : refresh_ms) std::printf(" %.1f", ms);
  std::printf("\n");

  if (!light.valid || !heavy.valid) {
    std::printf("light or heavy step INVALID: the generator fell behind; "
                "its latencies are reported as measured\n");
  }
  double untraced_light_p50 = 0;
  if (!untraced_light_segs.empty()) {
    const StepSummary untraced = summarize(w.light_rate, untraced_light_segs);
    account(untraced);
    untraced_light_p50 = untraced.p50_ms;
  }
  if (refresh_ms.empty()) {
    std::printf("no refresh completed\n");
    correct = false;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
        {"p50_ms.light", light.p50_ms, "ms"},
        {"max_qps_slo", max_qps_slo, "q/s"},
        {"refresh_p50_ms", refresh_ms.empty() ? 0 : Median(refresh_ms), "ms"},
    };
  } else {
    // ---- per-layer metrics ----
    const StepRun& light_run = light_segs[0].run;
    const StepRun& heavy_run = heavy_segs[0].run;
    const std::vector<Req>& light_reqs = light_segs[0].reqs;
    const std::vector<Req>& heavy_reqs = heavy_segs[0].reqs;
    const server::ServerStats& hd = heavy.delta;
    const double windows = std::max<double>(1, hd.windows);
    const std::shared_ptr<const IndexSnapshot> snap = served.indexes->Get();

    // core.query: one IndexSnapshot::Query per light-rate request.
    const uint32_t n_query = tracer.Name("core.query");
    const uint32_t n_fmt = tracer.Name("wire.format_response");
    const uint32_t n_parse_request = tracer.Name("wire.parse_request");
    std::vector<double> query_ms, self_ms;
    const size_t replay = std::min(kReplayQueries, light_reqs.size());
    for (size_t i = 0; i < replay; ++i) {
      // The server's share of one round trip: its request parse, the
      // core's ranking and its response formatting, each replayed here.
      const Combo& c = traffic.combo(light_reqs[i].combo);
      const std::string request = server::BuildQueryRequest(
          w.models[c.model].name, c.node, c.k);
      server::Request parsed_request;
      const int64_t q0 = NowNs();
      const bool parsed = server::ParseRequest(
          std::string_view(request).substr(0, request.size() - 1),
          &parsed_request);
      const int64_t q1 = NowNs();
      QueryResult r = snap->Query(served.models[c.model], c.node, c.k);
      const int64_t q2 = NowNs();
      std::string line = server::BuildQueryResponse(c.node, r);
      const int64_t q3 = NowNs();
      if (!parsed) correct = false;
      tracer.Record(n_parse_request, q0, q1);
      tracer.Record(n_query, q1, q2);
      tracer.Record(n_fmt, q2, q3);
      query_ms.push_back(Millis(q2 - q1));
      const ReqResult& res = light_run.results[i];
      if (res.outcome == Outcome::kOk) {
        self_ms.push_back(
            Millis((res.recv_ns - res.sent_ns) - (q3 - q0)));
      }
    }
    // wire: format/parse over the heavy rate's answers.
    const uint32_t n_parse = tracer.Name("wire.parse_replay");
    double format_ns = 0, parse_ns = 0, bytes = 0;
    size_t wire_n = 0;
    for (size_t i = 0; i < heavy_reqs.size() && i < kWireReplay; ++i) {
      const Combo& c = traffic.combo(heavy_reqs[i].combo);
      QueryResult r = snap->Query(served.models[c.model], c.node, c.k);
      const int64_t f0 = NowNs();
      std::string line = server::BuildQueryResponse(c.node, r);
      const int64_t f1 = NowNs();
      line.pop_back();
      server::RankResponse parsed;
      const bool ok = server::ParseQueryResponse(line, &parsed);
      const int64_t f2 = NowNs();
      tracer.Record(n_fmt, f0, f1);
      tracer.Record(n_parse, f1, f2);
      if (!ok) correct = false;
      format_ns += static_cast<double>(f1 - f0);
      parse_ns += static_cast<double>(f2 - f1);
      ++wire_n;
    }
    size_t replies = 0;
    for (const ReqResult& r : heavy_run.results) {
      if (r.outcome == Outcome::kOk) {
        bytes += r.bytes;
        ++replies;
      }
    }
    const size_t mean_window = static_cast<size_t>(
        std::lround(static_cast<double>(hd.queries) / windows));
    const WindowReplay wr =
        ReplayWindows(w, traffic, served, *snap, heavy_reqs, mean_window,
                      tracer);
    const RefreshReplay rr =
        ReplayRefreshes(in, served, kRefreshReplay, tracer);
    const double ns_per_entry = KernelNsPerEntry(served, *snap);

    const uint64_t refused =
        load_delta.pipeline_refused + load_delta.rate_limited;
    const uint64_t expired = load_delta.deadline_expired;
    const uint64_t evictions = load_delta.slow_consumer_evictions;
    auto median_of = [&](auto field) {
      std::vector<double> v;
      for (const SetupStats& s : setups) v.push_back(s.*field);
      return Median(v);
    };
    const SetupStats& s0 = setups.back();
    const double overhead =
        untraced_light_p50 > 0
            ? (light.p50_ms - untraced_light_p50) / untraced_light_p50
            : 0;
    // Each setup's spans time only its module calls; whatever they leave
    // out of the independently timed setup_s is the gap.
    double worst_gap = 0;
    for (const SetupStats& s : setups) {
      worst_gap = std::max(worst_gap,
                           std::fabs(s.span_self_s - s.total_s) / s.total_s);
    }
    if (worst_gap > std::max(std::fabs(overhead), 0.01)) {
      std::printf("setup spans do not sum to setup_s (gap %.4f)\n",
                  worst_gap);
      correct = false;
    }
    const double rows_saved = static_cast<double>(hd.rows_saved_vs_per_model);
    metrics = {
        {"server.queries_per_window", static_cast<double>(hd.queries) / windows, "count"},
        {"server.batches_per_window", static_cast<double>(hd.batches) / windows, "count"},
        {"server.rows_saved_frac",
         rows_saved / std::max(1.0, rows_saved + static_cast<double>(hd.rows_gathered)),
         "ratio"},
        {"server.self_ms_p50", Median(self_ms), "ms"},
        {"server.refused", static_cast<double>(refused), "count"},
        {"server.deadline_expired", static_cast<double>(expired), "count"},
        {"server.evictions", static_cast<double>(evictions), "count"},
        {"core.query_ms_p50", Median(query_ms), "ms"},
        {"core.window_ms_p50", Percentile(wr.window_ms, 50), "ms"},
        {"core.window_ms_p99", Percentile(wr.window_ms, 99), "ms"},
        {"core.us_per_query", wr.us_per_query, "us"},
        {"core.rows_gathered_per_query", wr.rows_gathered_per_query, "count"},
        {"core.shared_pair_rows", wr.shared_pair_rows, "count"},
        {"core.refresh_ms_p50", rr.refresh_ms_p50, "ms"},
        {"core.rematch_ms_p50", rr.rematch_ms_p50, "ms"},
        {"core.affected_frac", rr.affected_frac, "ratio"},
        {"core.delta_frac", rr.delta_frac, "ratio"},
        {"kernel.ns_per_entry", ns_per_entry, "ns"},
        {"kernel.avx2", metaprox::kernels::ActiveKernel() ==
                                metaprox::kernels::KernelKind::kAvx2Fma
                            ? 1.0
                            : 0.0,
         "bool"},
        {"wire.format_us", format_ns * 1e-3 / std::max<size_t>(1, wire_n), "us"},
        {"wire.parse_us", parse_ns * 1e-3 / std::max<size_t>(1, wire_n), "us"},
        {"wire.bytes_per_response", bytes / std::max<size_t>(1, replies), "B"},
        {"mining.mine_s", median_of(&SetupStats::mine_s), "s"},
        {"mining.frequent_frac",
         static_cast<double>(s0.mining.patterns_frequent) /
             std::max<double>(1, s0.mining.patterns_enumerated),
         "ratio"},
        {"matching.match_s", median_of(&SetupStats::match_s), "s"},
        {"matching.yield",
         static_cast<double>(s0.embeddings) /
             std::max<double>(1, s0.search_nodes),
         "ratio"},
        {"matching.saturated", static_cast<double>(s0.saturated), "count"},
        {"learning.train_s", median_of(&SetupStats::train_s), "s"},
        {"index.finalize_s", median_of(&SetupStats::finalize_s), "s"},
        {"index.save_s", median_of(&SetupStats::save_s), "s"},
        {"index.load_s", median_of(&SetupStats::load_s), "s"},
        {"index.artifact_mb", s0.artifact_mb, "MB"},
        {"driver.late_ms_p99", std::max(light.late_p99_ms, heavy.late_p99_ms), "ms"},
        {"driver.backlog_end", static_cast<double>(heavy.backlog_end), "count"},
        {"driver.fail_frac",
         static_cast<double>(failed) / std::max<double>(1, attempted), "ratio"},
        {"trace.overhead_frac", overhead, "ratio"},
        {"trace.setup_gap_frac", worst_gap, "ratio"},
    };
    const std::string trace_path = work + "/trace-" +
                                   std::string(w.name) + "-seed" +
                                   std::to_string(args.seed) + ".tsv";
    if (!tracer.WriteTsv(trace_path)) {
      std::printf("could not write %s\n", trace_path.c_str());
    } else {
      std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                  trace_path.c_str());
    }
  }
  std::printf("fail_frac %.6f ratio (failed %zu of %zu sent)\n",
              static_cast<double>(failed) / std::max<double>(1, attempted),
              failed, attempted);

  driver_owner.reset();
  served.Stop();
  twin.Stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  PrintResult(correct, std::max<size_t>(1, attempted), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
