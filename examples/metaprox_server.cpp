// metaprox_server: long-lived multi-model query server over one saved
// offline phase.
//
// Usage:
//   metaprox_server [flags] <facebook|linkedin|citation> <num> <seed>
//                   <prefix> <class>[,<class>...]
//
// Regenerates the dataset, restores the offline phase saved by
// `mgps_cli offline` from <prefix>.{metagraphs,index}, obtains one model
// per listed class through the shared load-or-train-and-save path
// (examples/example_common.h; with --models-dir the artifacts are
// <dir>/<class>.model, so a model trained and saved by `mgps_cli
// --model=...` is loaded as-is instead of retrained), publishes them in a
// server::ModelRegistry (the FIRST class is the default model answering
// v1 `Q <node>` lines), and serves the wire protocol of src/server/wire.h
// on 127.0.0.1 until SIGINT/SIGTERM. Because saved models round-trip
// bit-for-bit and batched results are identical to per-query results, the
// server's responses per model are byte-identical to `mgps_cli --tsv
// --query-file` output over the same prefix and model file — which CI
// asserts for two classes at once.
//
// Flags (util::ParseCount strict parsing):
//   --port=P         listen port; 0 = OS-assigned (default 0)
//   --window-us=W    micro-batch accumulation window in microseconds
//                    (default 1000; 0 = rank immediately)
//   --max-batch=B    max queries ranked per batcher window (default 64)
//   --threads=N      scoring threads for the batcher (0 = all cores;
//                    default 1)
//   --shards=S       index pair-table shards (offline option parity with
//                    mgps_cli; irrelevant after LoadOffline)
//   --k=K            default top-k for requests that omit k (default 10)
//   --max-k=K        per-request k ceiling; larger k is refused with an
//                    'E' reply (default 1048576)
//   --max-conns=C    connection cap; beyond it, accepts are refused with
//                    an 'E' reply (default 256)
//   --max-pipeline=N per-connection cap on queries awaiting responses;
//                    excess queries get an immediate E PIPELINE_LIMIT
//                    (default 16384)
//   --max-queue-bytes=B  per-connection response backlog bound; a client
//                    that stops reading while the backlog is past B is
//                    evicted with E SLOW_CONSUMER (default 33554432)
//   --max-qps=Q      per-connection token-bucket rate limit, queries/sec
//                    (fractional OK; 0 = off, the default); excess gets
//                    an immediate E RATE_LIMITED
//   --deadline-us=D  per-query queue deadline in microseconds; a query
//                    still unranked after D is answered E DEADLINE
//                    in its FIFO position (0 = off, the default)
//   --drain-ms=T     Stop()/signal drain budget: how long to keep
//                    flushing already-computed responses before closing
//                    sockets anyway (default 5000)
//   --models-dir=D   load/save per-class model artifacts as D/<class>.model
//                    (absent artifact: train once, save, then serve)
//   --mmap           map a binary aligned-layout index artifact read-only
//                    instead of parsing it: the server starts serving
//                    without materializing the rows, and concurrent server
//                    processes share one set of physical pages (text and
//                    compact artifacts fall back to an eager load)
//   --admin          enable the admin verbs: LOAD/RELOAD/UNLOAD/LIST/STAT
//                    (model hot-swapping) plus APPEND/REFRESH (streaming
//                    graph updates with incremental index refresh) and
//                    SWAPINDEX (hot-swap a precomputed index artifact);
//                    off by default
//   --port-file=F    write the bound port to F (atomically, via rename) —
//                    how scripts find an OS-assigned port
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/index_maintainer.h"
#include "example_common.h"
#include "server/index_registry.h"
#include "server/model_registry.h"
#include "server/query_server.h"
#include "util/parse.h"

using namespace metaprox;  // NOLINT

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  metaprox_server [--port=P] [--window-us=W] [--max-batch=B]\n"
      "                  [--threads=N] [--shards=S] [--k=K] [--max-k=K]\n"
      "                  [--max-conns=C] [--max-pipeline=N]\n"
      "                  [--max-queue-bytes=B] [--max-qps=Q]\n"
      "                  [--deadline-us=D] [--drain-ms=T]\n"
      "                  [--models-dir=D] [--mmap] [--admin] [--port-file=F]\n"
      "                  <facebook|linkedin|citation> <num> <seed>\n"
      "                  <prefix> <class>[,<class>...]\n"
      "the first class is the default model (v1 'Q <node>' lines);\n"
      "run `mgps_cli offline <kind> <num> <seed> <prefix>` first to build\n"
      "the index the server loads.\n");
  return 2;
}

bool WritePortFile(const std::string& path, uint16_t port) {
  // Write-then-rename so a polling script never reads a half-written file.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%u\n", port);
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::vector<std::string> SplitClasses(const std::string& list) {
  std::vector<std::string> classes;
  size_t begin = 0;
  while (begin <= list.size()) {
    const size_t comma = list.find(',', begin);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    classes.push_back(list.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return classes;
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerOptions server_options;
  unsigned num_threads = 1;
  size_t num_shards = 0;
  std::string port_file;
  std::string models_dir;
  bool use_mmap = false;
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    char* arg = argv[i];
    unsigned value = 0;
    if (std::strncmp(arg, "--port=", 7) == 0) {
      if (!util::ParseCount(arg + 7, &value) || value > 65535) {
        std::fprintf(stderr, "bad flag: %s (expected --port=0..65535)\n", arg);
        return Usage();
      }
      server_options.port = static_cast<uint16_t>(value);
    } else if (std::strncmp(arg, "--window-us=", 12) == 0) {
      if (!util::ParseCount(arg + 12, &value)) {
        std::fprintf(stderr, "bad flag: %s (expected --window-us=W)\n", arg);
        return Usage();
      }
      server_options.window_micros = value;
    } else if (std::strncmp(arg, "--max-batch=", 12) == 0) {
      if (!util::ParseCount(arg + 12, &value) || value == 0) {
        std::fprintf(stderr, "bad flag: %s (expected --max-batch=B>=1)\n",
                     arg);
        return Usage();
      }
      server_options.max_batch = value;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      if (!util::ParseCount(arg + 10, &value)) {
        std::fprintf(stderr, "bad flag: %s (expected --threads=N)\n", arg);
        return Usage();
      }
      num_threads = value;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      if (!util::ParseCount(arg + 9, &value)) {
        std::fprintf(stderr, "bad flag: %s (expected --shards=S)\n", arg);
        return Usage();
      }
      num_shards = value;
    } else if (std::strncmp(arg, "--k=", 4) == 0) {
      if (!util::ParseCount(arg + 4, &value) || value == 0) {
        std::fprintf(stderr, "bad flag: %s (expected --k=K>=1)\n", arg);
        return Usage();
      }
      server_options.default_k = value;
    } else if (std::strncmp(arg, "--max-k=", 8) == 0) {
      if (!util::ParseCount(arg + 8, &value) || value == 0) {
        std::fprintf(stderr, "bad flag: %s (expected --max-k=K>=1)\n", arg);
        return Usage();
      }
      server_options.max_k = value;
    } else if (std::strncmp(arg, "--max-conns=", 12) == 0) {
      if (!util::ParseCount(arg + 12, &value) || value == 0) {
        std::fprintf(stderr, "bad flag: %s (expected --max-conns=C>=1)\n",
                     arg);
        return Usage();
      }
      server_options.max_connections = value;
    } else if (std::strncmp(arg, "--max-pipeline=", 15) == 0) {
      if (!util::ParseCount(arg + 15, &value) || value == 0) {
        std::fprintf(stderr, "bad flag: %s (expected --max-pipeline=N>=1)\n",
                     arg);
        return Usage();
      }
      server_options.max_pipeline = value;
    } else if (std::strncmp(arg, "--max-queue-bytes=", 18) == 0) {
      if (!util::ParseCount(arg + 18, &value) || value == 0) {
        std::fprintf(stderr,
                     "bad flag: %s (expected --max-queue-bytes=B>=1)\n", arg);
        return Usage();
      }
      server_options.max_response_queue_bytes = value;
    } else if (std::strncmp(arg, "--max-qps=", 10) == 0) {
      char* end = nullptr;
      const double qps = std::strtod(arg + 10, &end);
      if (end == arg + 10 || *end != '\0' || qps < 0.0) {
        std::fprintf(stderr, "bad flag: %s (expected --max-qps=Q>=0)\n", arg);
        return Usage();
      }
      server_options.max_queries_per_second = qps;
    } else if (std::strncmp(arg, "--deadline-us=", 14) == 0) {
      if (!util::ParseCount(arg + 14, &value)) {
        std::fprintf(stderr, "bad flag: %s (expected --deadline-us=D)\n",
                     arg);
        return Usage();
      }
      server_options.request_deadline_micros = value;
    } else if (std::strncmp(arg, "--drain-ms=", 11) == 0) {
      if (!util::ParseCount(arg + 11, &value)) {
        std::fprintf(stderr, "bad flag: %s (expected --drain-ms=T)\n", arg);
        return Usage();
      }
      server_options.drain_timeout_millis = value;
    } else if (std::strncmp(arg, "--models-dir=", 13) == 0) {
      models_dir = arg + 13;
      if (models_dir.empty()) {
        std::fprintf(stderr, "--models-dir needs a path\n");
        return Usage();
      }
    } else if (std::strcmp(arg, "--mmap") == 0) {
      use_mmap = true;
    } else if (std::strcmp(arg, "--admin") == 0) {
      server_options.admin = true;
    } else if (std::strncmp(arg, "--port-file=", 12) == 0) {
      port_file = arg + 12;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 5) return Usage();
  const std::string kind = positional[0];
  const uint32_t num = static_cast<uint32_t>(std::atoi(positional[1]));
  const uint64_t seed = std::strtoull(positional[2], nullptr, 10);
  const std::string prefix = positional[3];
  const std::vector<std::string> classes = SplitClasses(positional[4]);

  // Block the shutdown signals BEFORE any thread exists: every thread the
  // server spawns inherits the mask, so SIGINT/SIGTERM are delivered only
  // to the sigwait below — no async handler, no racy flag.
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGINT);
  sigaddset(&shutdown_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &shutdown_signals, nullptr);

  datagen::Dataset ds = examples::MakeDataset(kind, num, seed);
  std::fprintf(stderr, "dataset %s: %s\n", ds.name.c_str(),
               ds.graph.Summary().c_str());

  SearchEngine engine(ds.graph,
                      examples::MakeEngineOptions(ds, num_threads, num_shards));
  ArtifactOptions artifact_options;
  artifact_options.use_mmap = use_mmap;
  auto status = engine.LoadOffline(prefix, artifact_options);
  if (!status.ok()) {
    std::fprintf(stderr, "load failed (run 'mgps_cli offline' first?): %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "restored %zu metagraphs from %s%s\n",
               engine.metagraphs().size(), prefix.c_str(),
               engine.index().is_mapped() ? " (index mmapped)" : "");

  // One registry slot per class, each obtained through the shared
  // load-or-train-and-save path — saved artifacts make restarts (and
  // every process after the first) training-free.
  server::ModelRegistry registry(engine.index().num_metagraphs());
  for (const std::string& class_name : classes) {
    if (!server::ModelRegistry::IsValidName(class_name)) {
      std::fprintf(stderr, "class name '%s' is not a valid model name\n",
                   class_name.c_str());
      return 1;
    }
    const GroundTruth* gt = ds.FindClass(class_name);
    if (gt == nullptr) {
      std::fprintf(stderr, "no such class: %s (available:",
                   class_name.c_str());
      for (const auto& c : ds.classes) {
        std::fprintf(stderr, " %s", c.class_name().c_str());
      }
      std::fprintf(stderr, ")\n");
      return 1;
    }
    const std::string model_path =
        models_dir.empty() ? "" : models_dir + "/" + class_name + ".model";
    auto model =
        examples::LoadOrTrainClassModel(engine, ds, *gt, seed, model_path);
    if (!model.ok()) {
      std::fprintf(stderr, "model '%s' failed: %s\n", class_name.c_str(),
                   model.status().ToString().c_str());
      return 1;
    }
    auto version = registry.Load(class_name, std::move(*model));
    if (!version.ok()) {
      std::fprintf(stderr, "cannot register model '%s': %s\n",
                   class_name.c_str(), version.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "serving model '%s' (v%llu)\n", class_name.c_str(),
                 static_cast<unsigned long long>(*version));
  }
  server_options.default_model = classes.front();
  server_options.num_threads = num_threads;

  // The registry is the serve-side publication point; the maintainer owns
  // the mutable index lineage behind the APPEND/REFRESH admin verbs (it
  // copies the graph into owned state, so it is built only when admin is
  // on — without it the engine's own snapshot is served as-is and the
  // index admin verbs answer E 22).
  std::unique_ptr<IndexMaintainer> maintainer;
  if (server_options.admin) {
    MaintainerOptions maintainer_options;
    maintainer_options.num_threads = num_threads;
    maintainer_options.num_shards = num_shards;
    maintainer = std::make_unique<IndexMaintainer>(engine, maintainer_options);
  }
  server::IndexRegistry index_registry(
      maintainer != nullptr ? maintainer->snapshot() : engine.Snapshot());

  server::QueryServer query_server(&index_registry, &registry, server_options,
                                   maintainer.get());
  status = query_server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf(
      "listening on 127.0.0.1:%u (%zu models, default '%s', window %llu us, "
      "max batch %zu%s)\n",
      query_server.port(), registry.size(),
      server_options.default_model.c_str(),
      static_cast<unsigned long long>(server_options.window_micros),
      server_options.max_batch, server_options.admin ? ", admin on" : "");
  std::fflush(stdout);
  if (!port_file.empty() && !WritePortFile(port_file, query_server.port())) {
    std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
    return 1;
  }

  int signal_number = 0;
  sigwait(&shutdown_signals, &signal_number);
  std::fprintf(stderr, "signal %d: shutting down\n", signal_number);
  query_server.Stop();

  const server::ServerStats stats = query_server.stats();
  std::fprintf(stderr,
               "served %llu queries in %llu batches "
               "(largest %llu, %llu connections, %llu protocol errors)\n",
               static_cast<unsigned long long>(stats.queries),
               static_cast<unsigned long long>(stats.batches),
               static_cast<unsigned long long>(stats.largest_batch),
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.protocol_errors));
  if (stats.slow_consumer_evictions + stats.pipeline_refused +
          stats.rate_limited + stats.deadline_expired >
      0) {
    std::fprintf(
        stderr,
        "limits engaged: %llu slow-consumer evictions, %llu pipeline "
        "refusals, %llu rate-limited, %llu deadline-expired\n",
        static_cast<unsigned long long>(stats.slow_consumer_evictions),
        static_cast<unsigned long long>(stats.pipeline_refused),
        static_cast<unsigned long long>(stats.rate_limited),
        static_cast<unsigned long long>(stats.deadline_expired));
  }
  if (stats.append_nodes + stats.append_edges + stats.index_refreshes +
          stats.index_swaps >
      0) {
    std::fprintf(
        stderr,
        "index maintenance: %llu nodes + %llu edges appended, "
        "%llu refreshes, %llu swaps (serving generation %llu)\n",
        static_cast<unsigned long long>(stats.append_nodes),
        static_cast<unsigned long long>(stats.append_edges),
        static_cast<unsigned long long>(stats.index_refreshes),
        static_cast<unsigned long long>(stats.index_swaps),
        static_cast<unsigned long long>(index_registry.Info().generation));
  }
  for (const server::ModelInfo& info : registry.List()) {
    std::fprintf(stderr, "  model '%s' v%llu: %llu queries served\n",
                 info.name.c_str(),
                 static_cast<unsigned long long>(info.version),
                 static_cast<unsigned long long>(info.serves));
  }
  return 0;
}
