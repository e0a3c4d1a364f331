// The query server end to end over loopback TCP: responses must be
// identical (nodes + bitwise scores) to offline Query() under the model
// each request named, per-connection FIFO must hold under pipelining and
// concurrent clients, micro-batching must actually coalesce windows, the
// v2 protocol (HELLO, named models, k ceiling, admin verbs) must behave —
// with v1 lines untouched — and malformed input / registry hot-swaps /
// shutdown must be handled without wedging a connection or the process.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/simple.h"
#include "core/engine.h"
#include "datagen/facebook.h"
#include "learning/model_io.h"
#include "server/client.h"
#include "server/index_registry.h"
#include "server/model_registry.h"
#include "server/query_server.h"
#include "server/wire.h"
#include "test_helpers.h"
#include "util/socket.h"

namespace metaprox {
namespace {

using server::ModelRegistry;
using server::QueryClient;
using server::QueryServer;
using server::RankResponse;
using server::ServerOptions;

struct Pipeline {
  datagen::Dataset ds;
  std::unique_ptr<SearchEngine> engine;
  MgpModel model;      // uniform weights — registry slot "main" (default)
  MgpModel alt_model;  // odd metagraphs zeroed — registry slot "alt"
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<server::IndexRegistry> indexes;
  std::vector<NodeId> users;
};

// One matched engine + two models shared by every test. Each test runs
// its own QueryServer over the shared index registry (read paths only pin
// the immutable snapshot, so concurrent servers would even be safe — the
// per-test scoping just keeps ports and stats isolated). Tests that
// MUTATE a registry build their own instead of touching the shared one.
const Pipeline& SharedPipeline() {
  static const Pipeline* pipeline = [] {
    auto* p = new Pipeline();
    datagen::FacebookConfig cfg;
    cfg.num_users = 150;
    p->ds = datagen::GenerateFacebook(cfg, 23);

    EngineOptions options;
    options.miner.anchor_type = p->ds.user_type;
    options.miner.min_support = 3;
    options.miner.max_nodes = 4;
    options.num_threads = 2;  // the server must drive the pooled path
    p->engine = std::make_unique<SearchEngine>(p->ds.graph, options);
    p->engine->Mine();
    p->engine->MatchAll();
    p->model.weights = UniformWeights(p->engine->index());
    // A genuinely different model over the same index: every odd
    // metagraph muted, so "alt" rankings differ from "main" ones.
    p->alt_model.weights = p->model.weights;
    for (size_t i = 1; i < p->alt_model.weights.size(); i += 2) {
      p->alt_model.weights[i] = 0.0;
    }
    p->registry =
        std::make_unique<ModelRegistry>(p->model.weights.size());
    EXPECT_TRUE(p->registry->Load("main", p->model).ok());
    EXPECT_TRUE(p->registry->Load("alt", p->alt_model).ok());

    p->indexes =
        std::make_unique<server::IndexRegistry>(p->engine->Snapshot());

    auto pool = p->ds.graph.NodesOfType(p->ds.user_type);
    p->users.assign(pool.begin(), pool.end());
    return p;
  }();
  return *pipeline;
}

std::unique_ptr<QueryServer> StartServer(ServerOptions options,
                                         ModelRegistry* registry = nullptr) {
  Pipeline& p = const_cast<Pipeline&>(SharedPipeline());
  if (options.default_model == "default") options.default_model = "main";
  options.num_threads = 2;  // the server must drive the pooled path
  auto server = std::make_unique<QueryServer>(
      p.indexes.get(), registry != nullptr ? registry : p.registry.get(),
      options);
  auto status = server->Start();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(server->port(), 0);
  return server;
}

// Response == offline Query() under `model`: same nodes, bitwise-same
// scores (%.17g round-trips the double through the wire exactly).
void ExpectMatchesQuery(const RankResponse& response, NodeId q, size_t k,
                        const MgpModel* model = nullptr) {
  const Pipeline& p = SharedPipeline();
  const QueryResult expected =
      p.engine->Query(model != nullptr ? *model : p.model, q, k);
  ASSERT_EQ(response.query, q);
  ASSERT_EQ(response.entries.size(), expected.size()) << "node " << q;
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(response.entries[r].node, expected[r].first)
        << "node " << q << " rank " << r;
    EXPECT_EQ(response.entries[r].score, expected[r].second)
        << "node " << q << " rank " << r;
  }
}

TEST(QueryServer, SingleQueriesMatchOfflineQuery) {
  auto server = StartServer({});
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const Pipeline& p = SharedPipeline();
  for (size_t i = 0; i < p.users.size(); i += 13) {
    auto response = client->Rank(p.users[i], 10);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectMatchesQuery(*response, p.users[i], 10);
  }
  // Explicit k on the wire, including k beyond any candidate set.
  auto response = client->Rank(p.users[0], 3);
  ASSERT_TRUE(response.ok());
  ExpectMatchesQuery(*response, p.users[0], 3);
  response = client->Rank(p.users[0], 100000);
  ASSERT_TRUE(response.ok());
  ExpectMatchesQuery(*response, p.users[0], 100000);
}

TEST(QueryServer, HelloHandshakeAndVersioning) {
  ServerOptions options;
  options.max_k = 4096;
  auto server = StartServer(options);
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  auto hello = client->Hello();
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_EQ(hello->version, server::kWireVersion);
  EXPECT_EQ(hello->max_k, 4096u);
  EXPECT_EQ(hello->default_model, "main");

  // A v1 handshake is accepted too; a FUTURE version is refused.
  hello = client->Hello(1);
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->version, 1u);
  hello = client->Hello(server::kWireVersion + 1);
  EXPECT_FALSE(hello.ok());

  // The refusal did not break the connection.
  const Pipeline& p = SharedPipeline();
  auto response = client->Rank(p.users[0], 10);
  ASSERT_TRUE(response.ok());
  ExpectMatchesQuery(*response, p.users[0], 10);
}

TEST(QueryServer, NamedModelQueriesMatchOfflineUnderThatModel) {
  auto server = StartServer({});
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  const Pipeline& p = SharedPipeline();

  bool some_ranking_differs = false;
  for (size_t i = 0; i < p.users.size(); i += 13) {
    const NodeId q = p.users[i];
    auto main_response = client->Rank("main", q, 10);
    ASSERT_TRUE(main_response.ok()) << main_response.status().ToString();
    ExpectMatchesQuery(*main_response, q, 10, &p.model);
    auto alt_response = client->Rank("alt", q, 10);
    ASSERT_TRUE(alt_response.ok()) << alt_response.status().ToString();
    ExpectMatchesQuery(*alt_response, q, 10, &p.alt_model);
    if (main_response->entries.size() != alt_response->entries.size()) {
      some_ranking_differs = true;
    } else {
      for (size_t r = 0; r < main_response->entries.size(); ++r) {
        if (main_response->entries[r].node != alt_response->entries[r].node ||
            main_response->entries[r].score !=
                alt_response->entries[r].score) {
          some_ranking_differs = true;
        }
      }
    }
  }
  // The two models must be observably different end to end, or this test
  // could pass with the model argument ignored.
  EXPECT_TRUE(some_ranking_differs);
}

TEST(QueryServer, PipelinedResponsesArriveInSendOrder) {
  ServerOptions options;
  options.max_batch = 16;
  options.window_micros = 2000;
  auto server = StartServer(options);
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  const Pipeline& p = SharedPipeline();

  // Interleave v1 (default-model) and v2 (named-model) queries on ONE
  // connection: FIFO must hold across the mix, and each response must
  // reflect the model its request named.
  std::vector<std::pair<NodeId, bool>> sent;  // (node, used alt)
  for (size_t i = 0; i < 60; ++i) {
    const NodeId q = p.users[(7 * i) % p.users.size()];
    const bool alt = i % 3 == 1;
    ASSERT_TRUE((alt ? client->SendQuery("alt", q, 10)
                     : client->SendQuery(q, 10))
                    .ok());
    sent.push_back({q, alt});
  }
  for (const auto& [q, alt] : sent) {
    auto response = client->ReceiveResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectMatchesQuery(*response, q, 10,
                       alt ? &SharedPipeline().alt_model : nullptr);
  }
}

TEST(QueryServer, ConcurrentClientsAllGetExactResults) {
  ServerOptions options;
  options.max_batch = 32;
  options.window_micros = 1000;
  auto server = StartServer(options);
  const Pipeline& p = SharedPipeline();

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 40;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = QueryClient::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      std::vector<NodeId> sent;
      for (size_t i = 0; i < kPerClient; ++i) {
        const NodeId q = p.users[(c * 31 + i * 3) % p.users.size()];
        auto status = client->SendQuery(q, 10);
        if (!status.ok()) {
          failures[c] = status.ToString();
          return;
        }
        sent.push_back(q);
      }
      for (NodeId q : sent) {
        auto response = client->ReceiveResponse();
        if (!response.ok()) {
          failures[c] = response.status().ToString();
          return;
        }
        if (response->query != q) {
          failures[c] = "order violated";
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }

  const server::ServerStats stats = server->stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.queries, kClients * kPerClient);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(QueryServer, MicroBatchingCoalescesPipelinedQueries) {
  ServerOptions options;
  options.max_batch = 32;
  // A generous window: the client floods 100 queries over loopback well
  // inside it, so the batcher must coalesce them into few BatchQueryMulti
  // calls. (Upper bound asserted loosely to stay timing-robust.)
  options.window_micros = 50000;
  auto server = StartServer(options);
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  const Pipeline& p = SharedPipeline();

  constexpr size_t kQueries = 100;
  for (size_t i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(client->SendQuery(p.users[i % p.users.size()], 10).ok());
  }
  for (size_t i = 0; i < kQueries; ++i) {
    auto response = client->ReceiveResponse();
    ASSERT_TRUE(response.ok());
    ExpectMatchesQuery(*response, p.users[i % p.users.size()], 10);
  }
  const server::ServerStats stats = server->stats();
  EXPECT_EQ(stats.queries, kQueries);
  EXPECT_LT(stats.batches, kQueries / 2) << "micro-batching never engaged";
  EXPECT_GT(stats.largest_batch, 1u);
}

TEST(QueryServer, PerModelServeCountersAdvance) {
  const Pipeline& p = SharedPipeline();
  // Own registry: this test reasons about exact serve counts.
  ModelRegistry registry(p.model.weights.size());
  ASSERT_TRUE(registry.Load("main", p.model).ok());
  ASSERT_TRUE(registry.Load("alt", p.alt_model).ok());
  auto server = StartServer({}, &registry);
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->Rank(p.users[i], 10).ok());  // v1 -> "main"
  }
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->Rank("alt", p.users[i], 10).ok());
  }
  EXPECT_EQ(registry.Get("main")->serves_count(), 5u);
  EXPECT_EQ(registry.Get("alt")->serves_count(), 3u);
}

TEST(QueryServer, OversizedKAndUnknownModelGetStructuredErrors) {
  ServerOptions options;
  options.max_k = 50;
  auto server = StartServer(options);
  const Pipeline& p = SharedPipeline();
  auto sock = util::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(sock.ok());
  util::LineReader reader(*sock);
  std::string line;
  int code = 0;
  std::string message;

  // k over the ceiling: an explicit refusal naming the limit, not a
  // silently clamped ranking.
  ASSERT_TRUE(
      util::SendAll(*sock, server::BuildQueryRequest(p.users[0], 51)).ok());
  ASSERT_TRUE(reader.ReadLine(&line));
  ASSERT_TRUE(server::ParseErrorResponse(line, &code, &message)) << line;
  EXPECT_EQ(code, static_cast<int>(server::ErrorCode::kKTooLarge));
  EXPECT_NE(message.find("50"), std::string::npos) << message;

  // Unknown model.
  ASSERT_TRUE(util::SendAll(*sock, server::BuildQueryRequest(
                                       "nosuchmodel", p.users[0], 10))
                  .ok());
  ASSERT_TRUE(reader.ReadLine(&line));
  ASSERT_TRUE(server::ParseErrorResponse(line, &code, &message)) << line;
  EXPECT_EQ(code, static_cast<int>(server::ErrorCode::kUnknownModel));

  // At the ceiling is fine, and the connection survived both errors.
  ASSERT_TRUE(
      util::SendAll(*sock, server::BuildQueryRequest(p.users[0], 50)).ok());
  ASSERT_TRUE(reader.ReadLine(&line));
  RankResponse response;
  ASSERT_TRUE(server::ParseQueryResponse(line, &response)) << line;
  ExpectMatchesQuery(response, p.users[0], 50);
}

TEST(QueryServer, MalformedRequestsGetErrorsAndConnectionSurvives) {
  auto server = StartServer({});
  const Pipeline& p = SharedPipeline();
  auto sock = util::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(sock.ok());
  util::LineReader reader(*sock);
  std::string line;

  // Garbage, bad node ids, trailing junk, out-of-range nodes, model-ish
  // tokens that aren't legal names: each gets an 'E' line; the connection
  // keeps working.
  for (const char* bad :
       {"bogus", "Q", "Q -3", "Q 1 2 3", "Q notanode extra 1 2",
        "Q 999999999", "Q 9name 3", "HELLO", "HELLO x", "LOAD one"}) {
    ASSERT_TRUE(util::SendAll(*sock, std::string(bad) + "\n").ok());
    ASSERT_TRUE(reader.ReadLine(&line)) << bad;
    EXPECT_EQ(line.substr(0, 2), "E ") << "request: " << bad;
  }

  // PING and a real query still work on the same connection.
  ASSERT_TRUE(util::SendAll(*sock, server::BuildPingRequest()).ok());
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "PONG");
  ASSERT_TRUE(
      util::SendAll(*sock, server::BuildQueryRequest(p.users[0], 10)).ok());
  ASSERT_TRUE(reader.ReadLine(&line));
  RankResponse response;
  ASSERT_TRUE(server::ParseQueryResponse(line, &response)) << line;
  ExpectMatchesQuery(response, p.users[0], 10);

  EXPECT_GE(server->stats().protocol_errors, 10u);
}

TEST(QueryServer, AdminVerbsManageTheRegistry) {
  const Pipeline& p = SharedPipeline();
  const std::string model_path = ::testing::TempDir() + "/admin_alt.model";
  ASSERT_TRUE(SaveModel(p.alt_model, model_path).ok());

  ModelRegistry registry(p.model.weights.size());
  ASSERT_TRUE(registry.Load("main", p.model).ok());
  ServerOptions options;
  options.admin = true;
  auto server = StartServer(options, &registry);
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  // LOAD publishes a new slot from the saved artifact...
  auto reply = client->Roundtrip(server::BuildLoadRequest("hot", model_path));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "OK LOAD hot 1");
  // ...which serves bitwise what offline Query() computes for its weights.
  auto response = client->Rank("hot", p.users[0], 10);
  ASSERT_TRUE(response.ok());
  ExpectMatchesQuery(*response, p.users[0], 10, &p.alt_model);

  // Duplicate LOAD is refused; RELOAD bumps the version.
  EXPECT_FALSE(client->Roundtrip(server::BuildLoadRequest("hot", model_path))
                   .ok());
  reply = client->Roundtrip(server::BuildReloadRequest("hot", model_path));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "OK RELOAD hot 2");

  // STAT and LIST see the slot (2 queries served so far on 'hot'... only
  // the Rank above, so 1).
  reply = client->Roundtrip(server::BuildStatRequest("hot"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "STAT hot 2 " + std::to_string(p.model.weights.size()) +
                        " 1");
  reply = client->Roundtrip(server::BuildListRequest());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->substr(0, 9), "MODELS 2 ") << *reply;

  // The default model cannot be unloaded; 'hot' can, after which it is
  // unknown to queries.
  EXPECT_FALSE(client->Roundtrip(server::BuildUnloadRequest("main")).ok());
  reply = client->Roundtrip(server::BuildUnloadRequest("hot"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "OK UNLOAD hot");
  EXPECT_FALSE(client->Rank("hot", p.users[0], 10).ok());

  // A bad artifact path is an error reply, not a crash or a wedge.
  EXPECT_FALSE(
      client->Roundtrip(server::BuildLoadRequest("bad", "/nonexistent.model"))
          .ok());
  EXPECT_GE(server->stats().admin_commands, 7u);
}

TEST(QueryServer, AdminVerbsAreRefusedWithoutAdminFlag) {
  auto server = StartServer({});  // admin defaults to off
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  auto reply = client->Roundtrip(server::BuildListRequest());
  EXPECT_FALSE(reply.ok());
  EXPECT_NE(reply.status().message().find("15"), std::string::npos)
      << reply.status().ToString();
  // Queries still served.
  const Pipeline& p = SharedPipeline();
  auto response = client->Rank(p.users[0], 10);
  ASSERT_TRUE(response.ok());
  ExpectMatchesQuery(*response, p.users[0], 10);
}

// The acceptance scenario: a v1 client and a v2 client connected to the
// same server concurrently, with RELOAD hot-swaps racing the in-flight
// batches the whole time — every response must still be byte-identical to
// offline Query() under the request's model. Runs under TSan via the
// `concurrency` ctest label.
TEST(QueryServer, HotSwapRacesInFlightBatchesSafely) {
  const Pipeline& p = SharedPipeline();
  ModelRegistry registry(p.model.weights.size());
  ASSERT_TRUE(registry.Load("main", p.model).ok());
  ASSERT_TRUE(registry.Load("alt", p.alt_model).ok());

  ServerOptions options;
  options.max_batch = 16;
  options.window_micros = 1000;
  auto server = StartServer(options, &registry);

  constexpr size_t kPerClient = 120;
  std::atomic<bool> done{false};
  std::vector<std::string> failures(2);

  // Client 0: v1 lines (default model). Client 1: v2 lines naming "alt".
  auto run_client = [&](size_t c, const std::string& model) {
    auto client = QueryClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) {
      failures[c] = client.status().ToString();
      return;
    }
    std::vector<NodeId> sent;
    for (size_t i = 0; i < kPerClient; ++i) {
      const NodeId q = p.users[(c * 17 + i * 5) % p.users.size()];
      auto status = model.empty() ? client->SendQuery(q, 10)
                                  : client->SendQuery(model, q, 10);
      if (!status.ok()) {
        failures[c] = status.ToString();
        return;
      }
      sent.push_back(q);
    }
    const MgpModel& expected_model = model.empty() ? p.model : p.alt_model;
    for (NodeId q : sent) {
      auto response = client->ReceiveResponse();
      if (!response.ok()) {
        failures[c] = response.status().ToString();
        return;
      }
      if (response->query != q) {
        failures[c] = "order violated";
        return;
      }
      const QueryResult expected = p.engine->Query(expected_model, q, 10);
      if (response->entries.size() != expected.size()) {
        failures[c] = "entry count differs from offline Query";
        return;
      }
      for (size_t r = 0; r < expected.size(); ++r) {
        if (response->entries[r].node != expected[r].first ||
            response->entries[r].score != expected[r].second) {
          failures[c] = "response differs from offline Query across reload";
          return;
        }
      }
    }
  };

  std::thread v1_client(run_client, 0, "");
  std::thread v2_client(run_client, 1, "alt");
  // The swapper pushes identical weights (so responses stay checkable)
  // through the full Reload path — new snapshot objects, version bumps,
  // old snapshots retired — as fast as it can while the clients stream.
  uint64_t swaps = 0;
  std::string swap_failure;
  std::thread swapper([&] {
    while (!done.load()) {
      auto alt_version = registry.Reload("alt", p.alt_model);
      auto main_version = registry.Reload("main", p.model);
      if (!alt_version.ok() || !main_version.ok()) {
        swap_failure = (!alt_version.ok() ? alt_version : main_version)
                           .status()
                           .ToString();
        return;
      }
      ++swaps;
      std::this_thread::yield();
    }
  });

  v1_client.join();
  v2_client.join();
  done.store(true);
  swapper.join();
  EXPECT_TRUE(swap_failure.empty()) << swap_failure;
  EXPECT_GT(swaps, 0u);
  EXPECT_TRUE(failures[0].empty()) << "v1 client: " << failures[0];
  EXPECT_TRUE(failures[1].empty()) << "v2 client: " << failures[1];
  // Both names kept serving across every swap.
  EXPECT_EQ(registry.Get("main")->serves_count() +
                registry.Get("alt")->serves_count(),
            2 * kPerClient);
}

TEST(QueryServer, StatsRequestAnswers) {
  auto server = StartServer({});
  auto sock = util::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(sock.ok());
  util::LineReader reader(*sock);
  ASSERT_TRUE(util::SendAll(*sock, server::BuildStatsRequest()).ok());
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line.substr(0, 6), "STATS ") << line;
}

TEST(QueryServer, StopDisconnectsClientsWithoutHanging) {
  auto server = StartServer({});
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());
  server->Stop();
  // The connection is gone; the client sees EOF, not a hang.
  auto response = client->Rank(0, 10);
  EXPECT_FALSE(response.ok());
  server->Stop();  // idempotent
}

TEST(QueryServer, ServersRunSequentiallyOverOneEngine) {
  const Pipeline& p = SharedPipeline();
  for (int round = 0; round < 2; ++round) {
    auto server = StartServer({});
    auto client = QueryClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok());
    auto response = client->Rank(p.users[round], 10);
    ASSERT_TRUE(response.ok());
    ExpectMatchesQuery(*response, p.users[round], 10);
    server->Stop();
  }
}

TEST(QueryServer, StartRequiresRegistryMatchingTheIndex) {
  const Pipeline& p = SharedPipeline();
  // A registry sized for one more metagraph than the served index: every
  // model in it would misalign with the index rows, so Start() refuses
  // even though the default model is loaded.
  const size_t wrong = p.model.weights.size() + 1;
  ModelRegistry registry(wrong);
  MgpModel model;
  model.weights.assign(wrong, 1.0);
  ASSERT_TRUE(registry.Load("main", model).ok());
  ServerOptions options;
  options.default_model = "main";
  QueryServer server(
      const_cast<Pipeline&>(p).indexes.get(), &registry, options);
  auto status = server.Start();
  EXPECT_FALSE(status.ok());
}

TEST(QueryServer, StartRequiresTheDefaultModel) {
  const Pipeline& p = SharedPipeline();
  ModelRegistry registry(p.model.weights.size());  // empty
  ServerOptions options;
  options.default_model = "main";
  QueryServer server(
      const_cast<Pipeline&>(p).indexes.get(), &registry, options);
  auto status = server.Start();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("main"), std::string::npos);
}

}  // namespace
}  // namespace metaprox
