// Query-server throughput: end-to-end (TCP, wire protocol, micro-batching
// batcher) throughput of server::QueryServer over the batched online
// phase, centered on MULTI-MODEL windows: streams striping 1, 2 and 4
// registry models through the shared-window batcher (one
// IndexSnapshot::BatchQueryMulti per k group: the window's row union
// gathered once, every row scored under all its models by the
// multi-weight kernels) — plus the unbatched baseline (max_batch = 1).
//
// The bench HARD-FAILS unless batching beats the unbatched baseline and
// the shared window actually saves gathered rows at every mixed-model
// count (rows_saved_vs_per_model > 0 at 2 and 4 models): that saving is
// the shared window's reason to exist, so losing it is a regression, not
// a footnote. The gather-amortization counters (rows_gathered,
// rows_saved_vs_per_model, models_per_window) and a closed-loop per-model
// p50 latency probe land in the JSON report next to the throughput
// numbers.
//
// Also verifies the server determinism contract on every configuration:
// every response must carry exactly the nodes and bitwise-identical
// scores of an offline engine.Query() for that node UNDER THE MODEL THE
// REQUEST NAMED (scores cross the wire as %.17g text, which round-trips
// the double bits).
//
// The C10K section (reactor-era): ONE epoll-driven driver thread holds
// 512+ pipelined nonblocking connections against the server's own epoll
// reactor, with deliberately stalled connections mixed in; every normal
// response is byte-diffed against the offline reference and per-query
// p50/p99 land in the JSON next to the slow-consumer eviction count.
// `--c10k-only` runs just this section (CI smoke wiring).
//
// Flags/env: --threads/--shards apply to the engine (offline build AND
// the server's scoring pool); --json / METAPROX_BENCH_JSON write the
// machine-readable report; METAPROX_BENCH_SCALE=full for a longer stream.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "server/reactor.h"
#include "server/wire.h"
#include "util/socket.h"

#include "baselines/simple.h"
#include "bench_common.h"
#include "server/client.h"
#include "server/index_registry.h"
#include "server/model_registry.h"
#include "server/query_server.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

using namespace metaprox;         // NOLINT
using namespace metaprox::bench;  // NOLINT

namespace {

constexpr size_t kTopK = 10;
constexpr int kReps = 3;  // best-of reps: timing noise, not results
// Model 0 is the server default (v1 `Q <node>` lines); the rest arrive as
// protocol-v2 `Q <model> <node> <k>` lines.
const char* const kModelNames[] = {"uniform", "evens", "odds", "taper"};
constexpr size_t kMaxModels = 4;

struct Config {
  const char* label;
  size_t clients;
  size_t max_batch;
  uint64_t window_micros;
  /// Stream index i queries model i % num_models — every window mixes
  /// every model.
  size_t num_models;
};

size_t ModelOf(const Config& config, size_t i) {
  return i % config.num_models;
}

// One client connection's slice of the stream, fully pipelined. Returns
// false (with a message) on any transport/protocol failure or on any
// response that differs from the offline reference of the model that
// request named.
bool RunClientSlice(uint16_t port, const Config& config,
                    const std::vector<NodeId>& stream, size_t begin,
                    size_t end,
                    const std::vector<std::vector<QueryResult>>& references,
                    std::string* error) {
  auto client = server::QueryClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    *error = client.status().ToString();
    return false;
  }
  for (size_t i = begin; i < end; ++i) {
    const size_t m = ModelOf(config, i);
    auto status = m == 0
                      ? client->SendQuery(stream[i], kTopK)
                      : client->SendQuery(kModelNames[m], stream[i], kTopK);
    if (!status.ok()) {
      *error = status.ToString();
      return false;
    }
  }
  for (size_t i = begin; i < end; ++i) {
    auto response = client->ReceiveResponse();
    if (!response.ok()) {
      *error = response.status().ToString();
      return false;
    }
    const QueryResult& expected = references[ModelOf(config, i)][stream[i]];
    if (response->query != stream[i] ||
        response->entries.size() != expected.size()) {
      *error = "response shape differs from offline Query";
      return false;
    }
    for (size_t r = 0; r < expected.size(); ++r) {
      // Bitwise equality: %.17g round-trips the double exactly, so any
      // difference here is a real determinism break, not formatting.
      if (response->entries[r].node != expected[r].first ||
          response->entries[r].score != expected[r].second) {
        *error = "response differs from offline Query (rank " +
                 std::to_string(r) + " of node " +
                 std::to_string(stream[i]) + ")";
        return false;
      }
    }
  }
  return true;
}

// Closed-loop p50 round-trip latency per model: one connection, one query
// outstanding at a time (so each sample pays the full accumulation
// window — the latency a sparse client actually sees).
std::vector<double> ProbeP50Millis(uint16_t port, const Config& config,
                                   const std::vector<NodeId>& stream) {
  std::vector<double> p50(config.num_models, -1.0);
  auto client = server::QueryClient::Connect("127.0.0.1", port);
  if (!client.ok()) return p50;
  const size_t samples_per_model = 40;
  for (size_t m = 0; m < config.num_models; ++m) {
    std::vector<double> millis;
    millis.reserve(samples_per_model);
    for (size_t s = 0; s < samples_per_model; ++s) {
      const NodeId node = stream[(s * 17) % stream.size()];
      util::Stopwatch timer;
      auto status = m == 0 ? client->SendQuery(node, kTopK)
                           : client->SendQuery(kModelNames[m], node, kTopK);
      if (!status.ok()) return p50;
      auto response = client->ReceiveResponse();
      if (!response.ok()) return p50;
      millis.push_back(timer.ElapsedSeconds() * 1e3);
    }
    std::nth_element(millis.begin(), millis.begin() + millis.size() / 2,
                     millis.end());
    p50[m] = millis[millis.size() / 2];
  }
  return p50;
}

// ---- C10K: one epoll driver, hundreds of pipelined connections ------------

// The process holds both ends of every connection (client fd + server fd
// + listener + two epoll instances), so the default 1024-fd rlimit is too
// tight for 512 connections. Raise the soft limit toward the hard one.
bool RaiseFdLimit(rlim_t want) {
  struct rlimit lim;
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return false;
  if (lim.rlim_cur >= want) return true;
  lim.rlim_cur = std::min(want, lim.rlim_max);
  return setrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur >= want;
}

struct C10kConn {
  util::Socket socket;
  util::LineBuffer input;
  std::string outbuf;  // request bytes not yet accepted by the socket
  size_t out_off = 0;
  // FIFO of queries on the wire: node + the instant its request line was
  // handed to the kernel-bound buffer (the latency clock).
  std::deque<std::pair<NodeId, std::chrono::steady_clock::time_point>>
      awaiting;
  size_t issued = 0;
  size_t done = 0;
  bool want_write = false;
  bool reg_read = true;
};

struct C10kResult {
  bool ok = false;
  std::string error;
  double seconds = 0.0;
  double p50_ms = -1.0;
  double p99_ms = -1.0;
  size_t responses = 0;
};

constexpr size_t kC10kDepth = 4;  // outstanding queries per connection

// Drives `num_conns` connections to `per_conn` verified responses each
// from a single thread multiplexed over server::EpollLoop — the same
// reactor substrate the server runs on, here playing the client side.
C10kResult RunC10kDriver(uint16_t port, size_t num_conns, size_t per_conn,
                         const std::vector<NodeId>& stream,
                         const std::vector<QueryResult>& reference) {
  C10kResult result;
  auto loop = server::EpollLoop::Create();
  if (!loop.ok()) {
    result.error = loop.status().ToString();
    return result;
  }

  // Per-connection deterministic query schedule, and the exact response
  // line (sans terminator) each query must come back as.
  auto node_of = [&](size_t conn, size_t i) {
    return stream[(conn * 31 + i * 7) % stream.size()];
  };

  std::vector<C10kConn> conns(num_conns);
  for (size_t c = 0; c < num_conns; ++c) {
    auto socket = util::ConnectTcp("127.0.0.1", port);
    if (!socket.ok()) {
      result.error = "connect " + std::to_string(c) + ": " +
                     socket.status().ToString();
      return result;
    }
    conns[c].socket = std::move(*socket);
    if (!util::SetNonBlocking(conns[c].socket).ok() ||
        !loop->Add(conns[c].socket.fd(), c, /*want_read=*/true,
                   /*want_write=*/false)
             .ok()) {
      result.error = "register " + std::to_string(c);
      return result;
    }
  }

  std::vector<double> latencies_ms;
  latencies_ms.reserve(num_conns * per_conn);
  size_t total_done = 0;
  std::string failure;

  auto flush = [&](size_t c) {
    C10kConn& conn = conns[c];
    while (conn.out_off < conn.outbuf.size()) {
      auto chunk = util::SendSome(
          conn.socket, std::string_view(conn.outbuf).substr(conn.out_off));
      if (!chunk.ok()) {
        failure = "send on conn " + std::to_string(c) + ": " +
                  chunk.status().ToString();
        return;
      }
      if (chunk->would_block) break;
      conn.out_off += chunk->bytes;
    }
    if (conn.out_off == conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.out_off = 0;
    }
    const bool want_write = conn.out_off < conn.outbuf.size();
    if (want_write != conn.want_write) {
      conn.want_write = want_write;
      (void)loop->Mod(conn.socket.fd(), c, conn.reg_read, conn.want_write);
    }
  };

  auto top_up = [&](size_t c) {
    C10kConn& conn = conns[c];
    while (conn.issued < per_conn && conn.awaiting.size() < kC10kDepth) {
      const NodeId node = node_of(c, conn.issued);
      conn.outbuf += server::BuildQueryRequest(node, kTopK);
      conn.awaiting.emplace_back(node, std::chrono::steady_clock::now());
      ++conn.issued;
    }
    flush(c);
  };

  auto on_readable = [&](size_t c) {
    C10kConn& conn = conns[c];
    char buf[16 * 1024];
    while (failure.empty()) {
      auto chunk = util::RecvSome(conn.socket, buf, sizeof(buf));
      if (!chunk.ok()) {
        failure = "recv on conn " + std::to_string(c) + ": " +
                  chunk.status().ToString();
        return;
      }
      if (chunk->would_block) break;
      if (chunk->eof) {
        failure = "conn " + std::to_string(c) + " closed by server after " +
                  std::to_string(conn.done) + " responses";
        return;
      }
      conn.input.Append(std::string_view(buf, chunk->bytes));
      std::string line;
      while (conn.input.TakeLine(&line)) {
        if (conn.awaiting.empty()) {
          failure = "unsolicited response on conn " + std::to_string(c);
          return;
        }
        auto [node, sent_at] = conn.awaiting.front();
        conn.awaiting.pop_front();
        std::string expected =
            server::BuildQueryResponse(node, reference[node]);
        expected.pop_back();  // LineBuffer already stripped the '\n'
        if (line != expected) {
          failure = "conn " + std::to_string(c) +
                    ": response differs from offline Query for node " +
                    std::to_string(node);
          return;
        }
        latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - sent_at)
                .count());
        ++conn.done;
        ++total_done;
      }
      if (conn.input.overflowed()) {
        failure = "response line overflow on conn " + std::to_string(c);
        return;
      }
    }
    top_up(c);
  };

  const auto started = std::chrono::steady_clock::now();
  for (size_t c = 0; c < num_conns; ++c) {
    top_up(c);
    if (!failure.empty()) break;
  }
  std::vector<server::EpollLoop::Event> events;
  while (failure.empty() && total_done < num_conns * per_conn) {
    auto n = loop->Wait(/*timeout_millis=*/10000, &events);
    if (!n.ok()) {
      failure = n.status().ToString();
      break;
    }
    if (*n == 0) {
      failure = "driver stalled: " + std::to_string(total_done) + "/" +
                std::to_string(num_conns * per_conn) + " responses";
      break;
    }
    for (size_t e = 0; e < *n && failure.empty(); ++e) {
      const size_t c = static_cast<size_t>(events[e].tag);
      if (events[e].error) {
        failure = "socket error on conn " + std::to_string(c);
        break;
      }
      if (events[e].writable) flush(c);
      if (events[e].readable) on_readable(c);
    }
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  if (!failure.empty()) {
    result.error = failure;
    return result;
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.p50_ms = latencies_ms[latencies_ms.size() / 2];
  result.p99_ms = latencies_ms[latencies_ms.size() * 99 / 100];
  result.responses = total_done;
  result.ok = true;
  return result;
}

// The C10K section proper: one server, `num_conns` well-behaved pipelined
// connections driven by the epoll driver above, plus a couple of
// deliberately stalled connections (huge pipelined bursts, never read a
// byte) that must be evicted without the normal traffic noticing.
// Returns a process exit code.
int RunC10k(server::IndexRegistry& indexes, const MgpModel& default_model,
            const std::vector<NodeId>& stream,
            const std::vector<QueryResult>& reference, JsonReport& report) {
  const size_t num_conns = 512;
  const size_t per_conn = 16;
  const size_t num_stalled = 2;
  std::printf(
      "\n== C10K: %zu pipelined connections over one epoll driver, "
      "%zu stalled ==\n",
      num_conns, num_stalled);
  if (!RaiseFdLimit(4096)) {
    std::fprintf(stderr,
                 "warning: could not raise RLIMIT_NOFILE; the C10K section "
                 "may run out of file descriptors\n");
  }

  server::ModelRegistry registry(default_model.weights.size());
  if (!registry.Load(kModelNames[0], default_model).ok()) {
    std::fprintf(stderr, "registry load failed\n");
    return 1;
  }
  server::ServerOptions options;
  options.port = 0;
  options.max_batch = 256;
  options.window_micros = 1000;
  options.default_k = kTopK;
  options.default_model = kModelNames[0];
  options.max_connections = num_conns + num_stalled + 8;
  // Small enough that a genuinely stalled consumer is evicted during the
  // run; a draining client at depth 4 (~1KB of responses in flight) never
  // comes near it.
  options.max_response_queue_bytes = size_t{1} << 20;
  options.num_threads = BenchThreads();
  server::QueryServer server(&indexes, &registry, options);
  auto status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  // The stalled connections: each fires one enormous pipelined burst of
  // large-k queries (far more response volume than kernel socket buffers
  // can absorb) and never reads. The send may die mid-burst once the
  // server evicts — that's the expected outcome, not an error.
  std::vector<util::Socket> stalled(num_stalled);
  std::vector<std::thread> stall_threads;
  for (size_t s = 0; s < num_stalled; ++s) {
    auto sock = util::ConnectTcp("127.0.0.1", server.port());
    if (!sock.ok()) {
      std::fprintf(stderr, "stalled connect failed: %s\n",
                   sock.status().ToString().c_str());
      return 1;
    }
    stalled[s] = std::move(*sock);
    stall_threads.emplace_back([&stalled, &stream, s] {
      std::string burst;
      for (int i = 0; i < 6000; ++i) {
        burst += server::BuildQueryRequest(stream[i % stream.size()], 120);
      }
      (void)util::SendAll(stalled[s], burst);
    });
  }

  C10kResult result =
      RunC10kDriver(server.port(), num_conns, per_conn, stream, reference);
  for (std::thread& thread : stall_threads) thread.join();
  const server::ServerStats stats = server.stats();
  server.Stop();

  if (!result.ok) {
    std::fprintf(stderr, "FATAL [c10k]: %s\n", result.error.c_str());
    return 1;
  }
  const double qps = static_cast<double>(result.responses) / result.seconds;
  std::printf(
      "%zu connections x %zu queries (depth %zu): %.3f s, %.0f q/s, "
      "p50 %.2f ms, p99 %.2f ms, %llu slow-consumer evictions\n",
      num_conns, per_conn, kC10kDepth, result.seconds, qps, result.p50_ms,
      result.p99_ms,
      static_cast<unsigned long long>(stats.slow_consumer_evictions));
  report.BeginRecord()
      .Str("config", "c10k")
      .Num("connections", static_cast<double>(num_conns))
      .Num("pipeline_depth", static_cast<double>(kC10kDepth))
      .Num("queries", static_cast<double>(result.responses))
      .Num("stalled_connections", static_cast<double>(num_stalled))
      .Num("seconds", result.seconds)
      .Num("queries_per_second", qps)
      .Num("p50_ms", result.p50_ms)
      .Num("p99_ms", result.p99_ms)
      .Num("slow_consumer_evictions",
           static_cast<double>(stats.slow_consumer_evictions));

  // Every normal response was byte-diffed inside the driver; what's left
  // to assert is that the misbehaving connections were actually evicted
  // (otherwise the stall scenario silently tested nothing).
  if (stats.slow_consumer_evictions == 0) {
    std::fprintf(stderr,
                 "FATAL [c10k]: stalled connections were never evicted — "
                 "the slow-consumer bound did not engage\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  bool c10k_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--c10k-only") == 0) c10k_only = true;
  }
  std::printf(
      "== query server: shared-window batcher, 1/2/4 models ==\n");
  std::printf("hardware concurrency: %zu\n\n", util::ResolveNumThreads(0));

  Bundle b = MakeFacebook(5, 450, 1200);
  b.engine->MatchAll();
  server::IndexRegistry indexes(b.engine->Snapshot());
  // Four models over the SAME index — the multi-class point: one engine,
  // one finalized index, N weight vectors. uniform serves v1 lines;
  // evens/odds mute complementary halves (so ranking under the wrong
  // model would be caught); taper weights every metagraph differently.
  std::vector<MgpModel> models(kMaxModels);
  models[0].weights = UniformWeights(b.engine->index());
  const size_t n_weights = models[0].weights.size();
  for (size_t m = 1; m < kMaxModels; ++m) {
    models[m].weights.assign(n_weights, 0.0);
  }
  for (size_t i = 0; i < n_weights; ++i) {
    if (i % 2 == 0) models[1].weights[i] = 1.0;
    if (i % 2 == 1) models[2].weights[i] = 1.0;
    models[3].weights[i] = 1.0 / static_cast<double>(1 + i % 7);
  }

  // Query stream: the user pool cycled to a fixed length (service-style
  // repeat traffic), split contiguously across the client connections.
  const size_t num_queries = FullScale() ? 10000 : 2000;
  std::vector<NodeId> stream;
  stream.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    stream.push_back(b.user_pool[i % b.user_pool.size()]);
  }

  // Offline references, [model][node]: what every server response must
  // equal bit for bit.
  std::vector<std::vector<QueryResult>> references(kMaxModels);
  for (size_t m = 0; m < kMaxModels; ++m) {
    references[m].resize(b.ds.graph.num_nodes());
    for (NodeId u : b.user_pool) {
      references[m][u] = b.engine->Query(models[m], u, kTopK);
    }
  }

  // --c10k-only empties the grouping matrix (the CI smoke job runs just
  // the C10K section; the full matrix runs in the bench job).
  const std::vector<Config> configs =
      c10k_only ? std::vector<Config>{}
                : std::vector<Config>{
                      {"unbatched", 4, 1, 0, 1},
                      {"1 model", 4, 64, 2000, 1},
                      {"2 models", 4, 64, 2000, 2},
                      {"4 models", 4, 64, 2000, 4},
                  };

  util::TablePrinter table({"config", "models", "time (s)", "queries/s",
                            "speedup", "rows saved", "models/window"});
  JsonReport report("server_throughput");
  double unbatched_qps = 0.0;
  double batched_single_qps = 0.0;
  // rows_saved_vs_per_model by num_models, for the shared-window gate.
  std::vector<uint64_t> rows_saved(kMaxModels + 1, 0);
  bool all_ok = true;
  for (const Config& config : configs) {
    double best_seconds = -1.0;
    server::ServerStats stats;
    std::vector<uint64_t> serves(config.num_models, 0);
    std::vector<double> p50(config.num_models, -1.0);
    for (int rep = 0; rep < kReps && all_ok; ++rep) {
      // A fresh registry per rep keeps the per-model serve counters an
      // exact record of this run.
      server::ModelRegistry registry(n_weights);
      for (size_t m = 0; m < kMaxModels; ++m) {
        if (!registry.Load(kModelNames[m], models[m]).ok()) {
          std::fprintf(stderr, "registry load failed\n");
          return 1;
        }
      }
      server::ServerOptions options;
      options.port = 0;
      options.max_batch = config.max_batch;
      options.window_micros = config.window_micros;
      options.default_k = kTopK;
      options.default_model = kModelNames[0];
      options.num_threads = BenchThreads();
      server::QueryServer server(&indexes, &registry, options);
      auto status = server.Start();
      if (!status.ok()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }

      std::vector<std::string> errors(config.clients);
      std::vector<char> ok(config.clients, 1);
      std::vector<std::thread> threads;
      threads.reserve(config.clients);
      util::Stopwatch timer;
      for (size_t c = 0; c < config.clients; ++c) {
        const size_t begin = stream.size() * c / config.clients;
        const size_t end = stream.size() * (c + 1) / config.clients;
        threads.emplace_back([&, c, begin, end] {
          ok[c] = RunClientSlice(server.port(), config, stream, begin, end,
                                 references, &errors[c])
                      ? 1
                      : 0;
        });
      }
      for (std::thread& thread : threads) thread.join();
      const double seconds = timer.ElapsedSeconds();
      if (best_seconds < 0.0 || seconds < best_seconds) {
        best_seconds = seconds;
        stats = server.stats();
        for (size_t m = 0; m < config.num_models; ++m) {
          serves[m] = registry.Get(kModelNames[m])->serves_count();
        }
      }
      if (rep == kReps - 1) {
        // Latency probe on the still-running server, after the throughput
        // burst has drained.
        p50 = ProbeP50Millis(server.port(), config, stream);
      }
      server.Stop();

      for (size_t c = 0; c < config.clients; ++c) {
        if (!ok[c]) {
          std::fprintf(stderr, "FATAL [%s, client %zu]: %s\n", config.label,
                       c, errors[c].c_str());
          all_ok = false;
        }
      }
    }
    if (!all_ok) break;

    const double qps = static_cast<double>(stream.size()) / best_seconds;
    if (config.max_batch == 1) {
      unbatched_qps = qps;
    } else if (config.num_models == 1) {
      batched_single_qps = qps;
    } else {
      rows_saved[config.num_models] = stats.rows_saved_vs_per_model;
    }
    const double speedup = unbatched_qps > 0.0 ? qps / unbatched_qps : 1.0;
    const double models_per_window =
        stats.windows > 0 ? static_cast<double>(stats.window_model_groups) /
                                static_cast<double>(stats.windows)
                          : 0.0;
    table.AddRow({config.label, std::to_string(config.num_models),
                  util::FormatDouble(best_seconds, 3),
                  util::FormatDouble(qps, 0),
                  util::FormatDouble(speedup, 2) + "x",
                  std::to_string(stats.rows_saved_vs_per_model),
                  util::FormatDouble(models_per_window, 2)});
    report.BeginRecord()
        .Str("config", config.label)
        .Num("clients", static_cast<double>(config.clients))
        .Num("max_batch", static_cast<double>(config.max_batch))
        .Num("window_micros", static_cast<double>(config.window_micros))
        .Num("num_models", static_cast<double>(config.num_models))
        .Num("seconds", best_seconds)
        .Num("queries_per_second", qps)
        .Num("speedup_vs_unbatched", speedup)
        .Num("batches", static_cast<double>(stats.batches))
        .Num("windows", static_cast<double>(stats.windows))
        .Num("rows_gathered", static_cast<double>(stats.rows_gathered))
        .Num("rows_saved_vs_per_model",
             static_cast<double>(stats.rows_saved_vs_per_model))
        .Num("models_per_window", models_per_window);
    for (size_t m = 0; m < config.num_models; ++m) {
      report.Num("serves_" + std::string(kModelNames[m]),
                 static_cast<double>(serves[m]));
      report.Num("p50_ms_" + std::string(kModelNames[m]), p50[m]);
    }
  }
  int exit_code = 0;
  if (!c10k_only) {
    table.Print(std::cout);

    std::printf(
        "\nexpected shape: batching beats unbatched everywhere; at 2+ "
        "models the window's row union is gathered once and scored under "
        "all models, so rows saved is positive (it and models/window say "
        "how much sharing each window found); p50_ms_* in the JSON is the "
        "closed-loop single-client latency per model. Every response is "
        "checked bitwise against offline Query() under its model.\n");

    if (!all_ok) {
      std::fprintf(stderr,
                   "FATAL: server responses differ from offline Query\n");
      exit_code = 1;
    } else if (batched_single_qps <= unbatched_qps) {
      std::fprintf(stderr,
                   "FATAL: micro-batching does not beat "
                   "one-query-per-request throughput (%.0f vs %.0f q/s)\n",
                   batched_single_qps, unbatched_qps);
      exit_code = 1;
    } else {
      for (size_t n : {size_t{2}, size_t{4}}) {
        if (rows_saved[n] == 0) {
          std::fprintf(stderr,
                       "FATAL: the shared window saved no gathered rows "
                       "at %zu models\n",
                       n);
          exit_code = 1;
        }
      }
    }
  }

  // The C10K section reuses model 0 and its offline references; skip it
  // when the matrix already proved the responses wrong.
  if (all_ok) {
    exit_code = std::max(
        exit_code, RunC10k(indexes, models[0], stream, references[0], report));
  }

  if (!report.WriteIfRequested()) return 1;
  return exit_code;
}
