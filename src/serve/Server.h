//===- Server.h - Allocation-as-a-service daemon ----------------*- C++ -*-===//
///
/// \file
/// The npral-serve daemon: a persistent process accepting allocation
/// requests over a Unix domain socket (serve/Protocol.h) and dispatching
/// them onto the existing ThreadPool through the batch pipeline's
/// per-job fault-isolation entry (runSingleJob). Where the batch driver
/// protects one run, the server protects a process that must survive
/// sustained traffic:
///
///  * Admission control — a bounded FIFO queue in front of the workers.
///    When it is full the request is rejected immediately with a
///    structured Unavailable error carrying a retry-after hint, instead
///    of queueing unboundedly (load shedding, `serve.shed`).
///  * Per-request isolation — a poisoned request (malformed frame, parse
///    error, infeasible budget, injected fault, escaping exception)
///    returns a classified Error response; the process never dies for an
///    input.
///  * Deadlines — a request's deadline covers its whole job, from the
///    moment a worker picks it up (queue wait does not count); the
///    default deadline is configurable and each request may set its own.
///  * Bounded memory — one shared byte-budgeted LRU AnalysisCache across
///    all requests (driver/AnalysisCache.h), so a hot kernel set stays
///    warm while unbounded input diversity cannot grow the process.
///  * Graceful drain — SIGTERM/SIGINT (or requestShutdown()) stops
///    accepting, lets in-flight requests finish, answers queued ones with
///    Cancelled, then exits 0.
///  * Live introspection — Health and Metrics request types answered on
///    the same protocol; `serve.*` counters in the global MetricsRegistry.
///
/// Threading model: one accept thread, one reader thread per connection
/// (bounded by MaxConnections), W pool workers executing requests. Reader
/// threads parse and admit; workers allocate and respond. Responses carry
/// the request id, so one connection may pipeline requests and receive
/// completions out of order.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_SERVE_SERVER_H
#define NPRAL_SERVE_SERVER_H

#include "driver/AnalysisCache.h"
#include "driver/BatchPipeline.h"
#include "serve/Protocol.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace npral {

struct ServeOptions {
  /// Filesystem path of the Unix socket to listen on.
  std::string SocketPath;
  /// Pool workers executing requests; 0 = hardware concurrency.
  int Workers = 0;
  /// Bounded admission queue capacity; a full queue sheds load.
  int QueueCapacity = 64;
  /// Concurrent connections, each counted until its reader thread ends;
  /// further connects get an Unavailable frame.
  int MaxConnections = 64;
  /// Cap on request payload bytes; larger frames are rejected with a
  /// structured error before any allocation happens.
  uint32_t MaxRequestBytes = protocol::DefaultMaxRequestBytes;
  /// Deadline (BatchOptions::DeadlineMs) for requests that do not set
  /// their own; 0 = none.
  int DefaultDeadlineMs = 0;
  /// Byte budget of the shared LRU AnalysisCache; 0 = unbounded (not
  /// recommended for a long-running process).
  int64_t CacheBytes = 64ll << 20;
  /// Backoff hint carried by shed responses.
  int RetryAfterMs = 10;
  /// SO_SNDTIMEO per connection: a client that stops reading cannot hold
  /// a worker hostage past this bound; the response is then dropped and
  /// counted.
  int SendTimeoutMs = 10000;
  /// Deterministic fault injection, shared by every request (the CLI
  /// wires NPRAL_FAULT_INJECT / --fault-inject through here).
  FaultInjector Faults;
  /// Test-only: invoked by each worker after dequeue, before processing.
  /// Lets tests stall the workers deterministically to fill the admission
  /// queue. Never set in production paths.
  std::function<void()> TestStallHook;
};

/// Monotonic counters describing a server's lifetime. Every field is also
/// mirrored into the global MetricsRegistry under the `serve.*` names
/// documented in docs/serve.md.
struct ServeStats {
  std::atomic<int64_t> Connections{0};
  std::atomic<int64_t> ConnectionsRejected{0};
  std::atomic<int64_t> Requests{0};
  std::atomic<int64_t> Admitted{0};
  std::atomic<int64_t> Shed{0};
  std::atomic<int64_t> Ok{0};
  std::atomic<int64_t> Failed{0};
  std::atomic<int64_t> Cancelled{0};
  std::atomic<int64_t> ProtocolErrors{0};
  std::atomic<int64_t> DeadlineExceeded{0};
  std::atomic<int64_t> IsolatedFailures{0};
  std::atomic<int64_t> FaultsInjected{0};
  std::atomic<int64_t> Degraded{0};
  std::atomic<int64_t> DroppedResponses{0};
  std::atomic<int64_t> CacheHits{0};
  std::atomic<int64_t> CacheMisses{0};
};

class Server {
public:
  explicit Server(ServeOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Bind the socket and spawn the accept thread and worker pool.
  Status start();

  /// Route SIGTERM/SIGINT to this server's graceful shutdown (self-pipe;
  /// the handler is async-signal-safe). At most one server per process
  /// owns the signals at a time.
  void installSignalHandlers();

  /// Trigger the graceful drain: stop accepting, finish in-flight
  /// requests, answer queued ones with Cancelled. The drain has started
  /// when it returns: a request still queued then is cancelled, not run.
  /// Thread-safe and idempotent; returns immediately (join through wait()).
  void requestShutdown();

  /// Block until the server has fully drained and every thread is joined.
  /// Returns 0 after a graceful (requested) shutdown, 1 when the accept
  /// loop died on a socket error.
  int wait();

  const ServeStats &stats() const { return Stats; }
  const ServeOptions &options() const { return Opts; }
  /// The shared analysis cache (test introspection).
  const AnalysisCache &cache() const { return Cache; }

private:
  struct Connection {
    UnixSocket Sock;
    /// Serializes response frames; readers and workers both write.
    std::mutex WriteMutex;
    std::thread Reader;
    std::atomic<bool> Done{false};
  };
  struct Pending {
    std::shared_ptr<Connection> Conn;
    uint64_t RequestId = 0;
    AllocRequest Req;
  };

  void acceptLoop();
  void connectionLoop(const std::shared_ptr<Connection> &Conn);
  void workerLoop();
  /// Handle one admitted request end to end on a worker.
  void processRequest(Pending &P);
  /// Serve Health/Metrics inline on the reader thread (no admission).
  void respondIntrospection(const std::shared_ptr<Connection> &Conn,
                            const Frame &Request);
  void respondError(const std::shared_ptr<Connection> &Conn, uint64_t Id,
                    StatusCode Code, const std::string &Stage,
                    const std::string &Message, int RetryAfterMs = 0);
  void respond(const std::shared_ptr<Connection> &Conn, const Frame &F);
  /// Which connections sweepConnections reaps: those whose reader has
  /// finished, also those whose reader is about to (its socket
  /// drainsToEOF), or all.
  enum class Reap { Finished, Ending, All };
  /// Drop the connections \p Which selects and join their readers.
  void sweepConnections(Reap Which);
  void bumpServeCounter(const char *Name, std::atomic<int64_t> &Local,
                        int64_t Delta = 1);

  ServeOptions Opts;
  AnalysisCache Cache;
  ServeStats Stats;

  UnixListener Listener;
  WakePipe Wake;
  std::thread AcceptThread;
  std::unique_ptr<ThreadPool> Pool;

  std::mutex QueueMutex;
  std::condition_variable QueueCV;
  std::deque<Pending> Queue;
  bool Draining = false;
  int InFlight = 0;

  std::mutex ConnMutex;
  std::list<std::shared_ptr<Connection>> Conns;

  std::atomic<bool> ShutdownRequested{false};
  std::atomic<bool> Started{false};
  std::atomic<bool> AcceptFailed{false};
  /// Server-global request sequence. Job names must be distinct across the
  /// whole process — client request ids are only unique per connection
  /// (one-shot CLI clients all send id 1), and the fault injector keys off
  /// the job name.
  std::atomic<uint64_t> RequestSeq{0};
  bool Waited = false;
  std::mutex WaitMutex;
};

} // namespace npral

#endif // NPRAL_SERVE_SERVER_H
