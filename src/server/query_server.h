// QueryServer: a long-lived, dependency-free TCP front end over the
// batched online phase — multi-model serving over one shared index, on a
// nonblocking epoll reactor (the ROADMAP's "async server core" milestone).
//
// Request flow (see also docs/ARCHITECTURE.md, "The server layer", and
// docs/SERVING.md for the operator view):
//
//   reactor thread ──► ONE epoll event loop owns the listener and every
//       │              connection socket: accepts, reads, splits lines
//       │              (util::LineBuffer), parses (server/wire.h),
//       │              validates node/k/model and enforces the per-client
//       │              limits (pipeline depth, rate, with structured `E`
//       │              refusals); answers HELLO/PING/STATS inline and
//       │              hands admin verbs to the admin worker
//       ▼
//   pending queue  (FIFO across all connections; each entry pins its
//       │           model snapshot and its deadline)
//       ▼
//   batcher thread: waits up to `window_micros` for up to `max_batch`
//       │           queries (micro-batching), expires queries past their
//       │           deadline (E in FIFO position), groups the rest by k
//       ▼
//   IndexSnapshot::BatchQueryMulti(models, nodes, model_of, k): one
//       │           shared-window call per (index snapshot, k) group,
//       │           however many models the window mixes — row union
//       │           gathered once, scored under every model through the
//       │           multi-weight kernels, on the server's ThreadPool and
//       │           BatchScratch
//       ▼
//   per-connection OUTBOXES (bounded): the batcher appends response
//       lines in pop order (per-connection FIFO preserved) and wakes the
//       reactor, which flushes each outbox with nonblocking sends as the
//       socket accepts bytes
//
// Because BatchQueryMulti results are identical to per-query Query() (the
// batched determinism contract), the accumulation window and batch cap are
// pure throughput/latency knobs: no setting changes any response byte.
//
// Backpressure, not head-of-line blocking: a client that stops reading
// only fills its OWN outbox. At half of `max_response_queue_bytes` the
// reactor stops reading that connection (TCP pushes back on the sender);
// at the full bound — and only after one more nonblocking flush attempt
// proves the socket itself won't take the bytes, so reactor lag alone
// never evicts — the connection is evicted with `E 18 SLOW_CONSUMER`
// (best-effort flush, then close). Other connections never wait on it —
// the batcher never blocks on a socket.
//
// Models: the server owns no model — it serves whatever the external
// ModelRegistry publishes. A request pins its snapshot when the reactor
// enqueues it, so a RELOAD hot-swap never affects a query already
// accepted (it is ranked under the weights that were current when it
// arrived) and never stalls serving: the next accepted query simply picks
// up the new snapshot. v1 `Q <node>` lines are served from
// `options.default_model`, which must exist at Start() and cannot be
// UNLOADed through this server's admin interface.
//
// Indexes: the server owns no index either — it serves whatever
// IndexSnapshot the external IndexRegistry publishes, under the same
// RCU discipline as models. Each accepted query pins the current
// snapshot; a REFRESH or SWAPINDEX that lands mid-window only affects
// queries accepted after it (in-flight batches finish on the generation
// they pinned). With an IndexMaintainer attached, the admin verbs
// APPEND (buffer graph deltas), REFRESH (incremental re-match of the
// affected metagraphs, then publish) and SWAPINDEX (publish a
// precomputed index artifact) mutate the served index under live
// traffic; without one they answer E kIndexAdminError.
//
// Threading: three threads at most. The reactor thread does all socket
// I/O and all epoll bookkeeping; the batcher is the only thread that
// touches the server's ThreadPool/BatchScratch; an admin worker (spawned
// only with options.admin) runs model/index disk I/O and index refreshes
// so a LOAD or REFRESH never stalls the event loop. Both registries are
// safe to mutate from anywhere at any time. Producer threads hand
// response bytes to the reactor through the per-connection outboxes plus
// an eventfd wake — they never touch a socket or epoll.
//
// Shutdown is a graceful drain (see Stop()).
#ifndef METAPROX_SERVER_QUERY_SERVER_H_
#define METAPROX_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/index_snapshot.h"
#include "core/query_batch.h"
#include "server/index_registry.h"
#include "server/model_registry.h"
#include "server/reactor.h"
#include "server/wire.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace metaprox {
class IndexMaintainer;
}  // namespace metaprox

namespace metaprox::server {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 = OS-assigned (read back with port()).
  uint16_t port = 0;
  /// Upper bound on queries the batcher pops into one window.
  size_t max_batch = 64;
  /// How long the batcher waits for a window to fill once it holds at
  /// least one query. 0 = rank whatever is queued immediately (lowest
  /// latency, least batching).
  uint64_t window_micros = 1000;
  /// k used by requests that do not name one.
  size_t default_k = 10;
  /// Ceiling on per-request k. A request naming a larger k is answered
  /// with E kKTooLarge — an explicit refusal, never a silent clamp, so a
  /// client can't mistake a truncated ranking for the full one.
  size_t max_k = 1 << 20;
  /// Registry model that answers v1 `Q <node>` lines and v2 queries that
  /// name no model. Must exist in the registry at Start().
  std::string default_model = "default";
  /// Enables the admin verbs (LOAD/RELOAD/UNLOAD/LIST/STAT, plus
  /// APPEND/REFRESH/SWAPINDEX when an IndexMaintainer is attached). Off
  /// by default: a serving port shouldn't accept model or index mutations
  /// unless the operator asked for it.
  bool admin = false;
  /// Worker threads for the batcher's ranking calls (the server owns its
  /// ThreadPool and BatchScratch; snapshots are stateless). 0 = hardware
  /// concurrency; 1 = serial, no pool. Responses are byte-identical for
  /// any value (the batched determinism contract).
  unsigned num_threads = 1;
  /// Connections beyond this are refused with an 'E' response.
  size_t max_connections = 256;
  /// Global bound on queued-but-unranked queries. When the queue is full
  /// the reactor stops READING the offending connections (their parsed-
  /// but-unqueued query waits; TCP pushes back on the client) until the
  /// batcher makes room — server memory stays bounded, nobody is evicted.
  size_t max_pending = 1 << 20;
  // ---- per-client limits (docs/SERVING.md documents each in depth) ----

  /// Max unanswered queries one connection may have in flight. The
  /// excess is refused with E kPipelineLimit (the refusal is immediate
  /// and may overtake pending 'R' responses, like every out-of-band
  /// reply). Generous by default: a well-behaved pipelining client never
  /// sees it.
  size_t max_pipeline = 1 << 14;
  /// Bound on one connection's unsent response bytes. At HALF this bound
  /// the reactor stops reading the connection (backpressure through
  /// TCP); once the unsent backlog exceeds the full bound AND a direct
  /// nonblocking flush can't bring it back under (the kernel socket
  /// buffer is full because the client is not reading), the connection
  /// is evicted: E kSlowConsumer is appended, the outbox is flushed
  /// best-effort, and the socket is closed. Clamped to >= 4096.
  size_t max_response_queue_bytes = size_t{32} << 20;
  /// Per-connection rate limit in queries/second (token bucket with one
  /// second of burst). Queries beyond it are refused with E kRateLimited.
  /// 0 = unlimited (the default).
  double max_queries_per_second = 0.0;
  /// Deadline for a query to REACH ranking. A query still queued after
  /// this long is answered with E kDeadlineExceeded in its FIFO response
  /// position instead of being ranked — bounded staleness under
  /// overload. 0 = no deadline (the default).
  uint64_t request_deadline_micros = 0;
  /// How long Stop() keeps flushing outboxes after the batcher finishes
  /// before force-closing what remains unsent.
  uint64_t drain_timeout_millis = 5000;
};

// Counters advance before their event becomes externally observable (a
// ranked query is counted before its 'R' line is written), so a client
// that just read a response is guaranteed to see it reflected here.
// Per-model serve counters live in the registry (ServableModel::serves),
// not here: they belong to the model's lifetime, not the server's.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t queries = 0;          // 'Q' requests ranked
  uint64_t batches = 0;          // BatchQueryMulti calls issued (one per
                                 // (index snapshot, k) group of a window)
  uint64_t largest_batch = 0;    // max queries ranked by one call
  uint64_t protocol_errors = 0;  // 'E' responses sent (all codes)
  uint64_t admin_commands = 0;   // admin verbs accepted (admin enabled)

  // Gather-amortization counters of the shared-window batcher.
  // models_per_window, the mean number of distinct model snapshots a
  // window mixes, is window_model_groups / windows.
  uint64_t windows = 0;               // batcher windows popped and ranked
  uint64_t window_model_groups = 0;   // sum of distinct snapshots per window
  uint64_t rows_gathered = 0;         // node rows gathered (dotted), total
  uint64_t rows_saved_vs_per_model = 0;  // rows one call per (model, k)
                                         // would have gathered on the same
                                         // windows, minus rows_gathered

  // Per-client limit counters (each also counts into protocol_errors).
  uint64_t slow_consumer_evictions = 0;  // connections closed with E 18
  uint64_t pipeline_refused = 0;         // queries refused with E 19
  uint64_t rate_limited = 0;             // queries refused with E 20
  uint64_t deadline_expired = 0;         // queries answered with E 21

  // Index maintenance counters (all zero without a maintainer, except
  // index_swaps, which SWAPINDEX advances regardless).
  uint64_t append_nodes = 0;      // nodes buffered via APPEND N
  uint64_t append_edges = 0;      // edges buffered via APPEND E
  uint64_t index_refreshes = 0;   // REFRESH verbs that published
  uint64_t index_swaps = 0;       // SWAPINDEX verbs that published
};

/// One server instance: Start() once, Stop() once (or let the destructor).
/// Not restartable — make a new instance.
class QueryServer {
 public:
  /// `indexes` and `models` must outlive the server; both may be shared
  /// (and mutated) by other parties concurrently — e.g. an offline
  /// retrainer pushing new weights, or a maintenance job publishing a
  /// refreshed index, while this server serves. `maintainer` (optional)
  /// enables the APPEND/REFRESH index-maintenance verbs; it must outlive
  /// the server, and this server's admin worker must be its only writer.
  QueryServer(IndexRegistry* indexes, ModelRegistry* models,
              ServerOptions options,
              IndexMaintainer* maintainer = nullptr);
  ~QueryServer();
  MX_DISALLOW_COPY_AND_ASSIGN(QueryServer);

  /// Binds 127.0.0.1 and spawns the reactor/batcher threads. On return
  /// the socket is listening: a subsequent connect cannot be refused.
  /// Fails if the index is not finalized or the default model is absent.
  util::Status Start();

  /// Graceful drain: stops accepting and reading, lets the batcher rank
  /// every query already accepted into the queue (skipping window
  /// waits), flushes the resulting responses to their connections, then
  /// closes every socket and joins all threads. A connection that won't
  /// take its bytes within `drain_timeout_millis` is force-closed.
  /// Idempotent from one thread.
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  ServerStats stats() const MX_EXCLUDES(stats_mu_);

 private:
  struct Connection {
    uint64_t id = 0;
    util::Socket socket;

    // ---- reactor-thread-only state ----
    util::LineBuffer input;
    bool paused_backpressure = false;  // EPOLLIN off: outbox too deep
    bool paused_queue_full = false;    // EPOLLIN off: global queue full
    bool reg_read = true;              // EPOLLIN currently registered
    bool reg_write = false;            // EPOLLOUT currently registered
    bool has_stashed = false;          // a parsed query waiting for queue
    Request stashed;                   //   space (paused_queue_full)
    double tokens = 0.0;               // rate-limit token bucket
    std::chrono::steady_clock::time_point tokens_refilled{};

    // ---- cross-thread state (producers append, reactor flushes) ----
    mx::Mutex out_mu;
    std::string outbox MX_GUARDED_BY(out_mu);  // response bytes
    size_t out_off MX_GUARDED_BY(out_mu) = 0;  // sent prefix of outbox
    // Slow consumer: flush best-effort, then close.
    bool evict MX_GUARDED_BY(out_mu) = false;
    // Torn down; late responses are dropped. Written under out_mu (so a
    // producer holding out_mu sees a consistent (closed, outbox) pair);
    // atomic so the reactor's hot early-exit check in FlushOutbox can
    // read it without taking the lock.
    std::atomic<bool> closed{false};

    std::atomic<size_t> in_flight{0};  // enqueued, not yet answered
    std::atomic<bool> dirty{false};    // on the reactor's flush list
  };

  struct PendingQuery {
    std::shared_ptr<Connection> conn;
    /// The model snapshot pinned at accept time (RCU-style: hot-swaps
    /// don't reach queries already in the queue).
    std::shared_ptr<const ServableModel> model;
    /// The index snapshot pinned at accept time, same discipline: a
    /// REFRESH/SWAPINDEX never reaches a query already in the queue.
    std::shared_ptr<const IndexSnapshot> index;
    NodeId node = kInvalidNode;
    size_t k = 0;
    /// Ranking deadline (request_deadline_micros after acceptance);
    /// time_point::max() when deadlines are off.
    std::chrono::steady_clock::time_point deadline{};
  };

  struct AdminTask {
    std::shared_ptr<Connection> conn;
    Request request;
  };

  // ---- reactor thread ----
  void ReactorLoop();
  void AcceptNew();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void ProcessInput(const std::shared_ptr<Connection>& conn);
  /// Handles one parsed request. Returns false when input processing for
  /// this connection must pause (global queue full; the request is
  /// stashed).
  bool HandleRequest(const std::shared_ptr<Connection>& conn,
                     const Request& request);
  /// Validated query -> pending queue. False = queue full (caller
  /// stashes and pauses).
  bool EnqueuePending(const std::shared_ptr<Connection>& conn,
                      const Request& request);
  /// Flushes as much of the outbox as the socket takes now; manages
  /// EPOLLOUT interest, backpressure pause/resume, and eviction close.
  void FlushOutbox(const std::shared_ptr<Connection>& conn)
      MX_EXCLUDES(conn->out_mu);
  /// The one nonblocking send loop (shared by the reactor's FlushOutbox
  /// and a producer's over-bound flush attempt in EnqueueResponse):
  /// pushes outbox bytes from out_off until the socket won't take more,
  /// compacting the sent prefix. Returns false when the socket errored
  /// (the connection is dead). Caller holds conn->out_mu.
  static bool TrySendLocked(Connection& conn) MX_REQUIRES(conn.out_mu);
  void ResumeQueueBlocked();
  void SweepDirty();
  void UpdateReadInterest(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void SendError(const std::shared_ptr<Connection>& conn, ErrorCode code,
                 std::string_view message);

  // ---- any thread ----
  /// Appends a response line to the connection's outbox (dropping it if
  /// the connection is closed or evicted; evicting it if the line would
  /// exceed max_response_queue_bytes) and puts the connection on the
  /// reactor's dirty list. The caller wakes the reactor (batched: one
  /// Wake may cover many enqueues).
  void EnqueueResponse(const std::shared_ptr<Connection>& conn,
                       std::string line) MX_EXCLUDES(conn->out_mu);
  void MarkDirty(const std::shared_ptr<Connection>& conn)
      MX_EXCLUDES(dirty_mu_);
  std::string BuildStatsResponse() MX_EXCLUDES(stats_mu_);

  // ---- batcher thread ----
  void BatcherLoop();
  /// Ranks one popped window (expired queries answered in place) and
  /// enqueues the responses in pop order, preserving per-connection FIFO.
  void RankAndRespond(std::vector<PendingQuery> batch);

  // ---- admin worker thread ----
  void AdminLoop();
  void RunAdminTask(const AdminTask& task);

  IndexRegistry* indexes_;
  ModelRegistry* registry_;
  IndexMaintainer* maintainer_;  // null: index admin verbs answer E 22
  ServerOptions options_;
  uint16_t port_ = 0;
  util::Socket listener_;
  bool started_ = false;
  std::unique_ptr<EpollLoop> loop_;
  /// The batcher's ranking resources (snapshots are stateless; the
  /// batcher is their only user, so one scratch suffices).
  std::unique_ptr<util::ThreadPool> pool_;
  BatchScratch batch_scratch_;

  std::thread reactor_thread_;
  std::thread batcher_thread_;
  std::thread admin_thread_;

  mx::Mutex queue_mu_;
  mx::CondVar queue_cv_;  // batcher waits: work or drain
  std::deque<PendingQuery> queue_ MX_GUARDED_BY(queue_mu_);
  // Set under queue_mu_ (so the cv waits are race-free); atomic so other
  // threads may read it without the lock. draining_ starts the graceful
  // drain; producers_done_ tells the reactor no thread will enqueue
  // responses anymore, so "all outboxes empty" is final.
  std::atomic<bool> draining_{false};
  std::atomic<bool> producers_done_{false};
  // Connections paused because the queue was full; the batcher wakes the
  // reactor after popping when this is nonzero.
  std::atomic<size_t> queue_blocked_count_{0};

  mx::Mutex admin_mu_;
  mx::CondVar admin_cv_;
  std::deque<AdminTask> admin_tasks_ MX_GUARDED_BY(admin_mu_);

  mx::Mutex dirty_mu_;
  std::vector<std::shared_ptr<Connection>> dirty_ MX_GUARDED_BY(dirty_mu_);

  // Reactor-thread-only: tag -> connection (epoll tags are conn ids).
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;
  std::vector<uint64_t> queue_blocked_;  // conn ids paused on queue space
  bool drain_started_ = false;  // the reactor has observed draining_

  mutable mx::Mutex stats_mu_;
  ServerStats stats_ MX_GUARDED_BY(stats_mu_);
};

}  // namespace metaprox::server

#endif  // METAPROX_SERVER_QUERY_SERVER_H_
