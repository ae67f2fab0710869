//===- Server.cpp ---------------------------------------------------------===//

#include "serve/Server.h"

#include "ir/IRPrinter.h"
#include "trace/MetricsRegistry.h"

#include <csignal>
#include <sstream>
#include <utility>

#include <unistd.h>

using namespace npral;
using namespace npral::protocol;

namespace {

/// The server (at most one per process) whose graceful drain the signal
/// handler triggers. The handler itself only performs async-signal-safe
/// work: one atomic load, one atomic store, one write(2) to the wake pipe.
std::atomic<Server *> SignalTarget{nullptr};

/// Fields the signal handler touches, exposed through a POD so the handler
/// never calls a (non-signal-safe) member function.
struct SignalHook {
  std::atomic<bool> *ShutdownRequested = nullptr;
  int WakeFd = -1;
};
SignalHook GSignalHook;

void onTermSignal(int) {
  Server *S = SignalTarget.load(std::memory_order_acquire);
  if (!S)
    return;
  GSignalHook.ShutdownRequested->store(true, std::memory_order_release);
  const char Byte = 1;
  // A full pipe already guarantees a pending wake; EAGAIN is fine.
  (void)!write(GSignalHook.WakeFd, &Byte, 1);
}

} // namespace

Server::Server(ServeOptions O) : Opts(std::move(O)), Cache(Opts.CacheBytes) {}

Server::~Server() {
  if (Started.load()) {
    requestShutdown();
    wait();
  }
  if (SignalTarget.load() == this)
    SignalTarget.store(nullptr);
}

Status Server::start() {
  if (Status S = Listener.listenOn(Opts.SocketPath); !S.ok())
    return S;
  const int W =
      Opts.Workers > 0 ? Opts.Workers : ThreadPool::hardwareConcurrency();
  Pool = std::make_unique<ThreadPool>(W);
  // The pool workers ARE the request executors: each runs workerLoop until
  // the drain completes, so every request executes on the existing
  // ThreadPool rather than an ad-hoc thread.
  for (int I = 0; I < W; ++I)
    Pool->submit([this] { workerLoop(); });
  MetricsRegistry::global().gauge("serve.workers").set(W);
  MetricsRegistry::global()
      .gauge("serve.queue_capacity")
      .set(Opts.QueueCapacity);
  // Pre-register every serve.* counter so the metrics render always
  // carries the full, stable key set — scrapers and the golden-pinned
  // tests see the same keys on an idle server as on a busy one.
  for (const char *Name :
       {"serve.admitted", "serve.cache_hits", "serve.cache_misses",
        "serve.cancelled", "serve.connections",
        "serve.connections_rejected", "serve.deadline_exceeded",
        "serve.degraded", "serve.dropped_responses", "serve.failed",
        "serve.faults_injected", "serve.isolated_failures", "serve.ok",
        "serve.protocol_errors", "serve.requests", "serve.shed"})
    MetricsRegistry::global().counter(Name);
  Started.store(true);
  AcceptThread = std::thread([this] { acceptLoop(); });
  return Status::success();
}

void Server::installSignalHandlers() {
  GSignalHook.ShutdownRequested = &ShutdownRequested;
  GSignalHook.WakeFd = Wake.writeFd();
  SignalTarget.store(this, std::memory_order_release);
  struct sigaction SA = {};
  SA.sa_handler = onTermSignal;
  sigemptyset(&SA.sa_mask);
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
}

void Server::requestShutdown() {
  if (ShutdownRequested.exchange(true))
    return;
  // Start the drain before returning, so a request still queued now is
  // answered Cancelled. The signal handler cannot take the lock; on that
  // path the accept loop sets Draining once woken.
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Draining = true;
  }
  QueueCV.notify_all();
  Wake.poke();
}

int Server::wait() {
  std::lock_guard<std::mutex> WL(WaitMutex);
  if (!Started.load() || Waited)
    return AcceptFailed.load() ? 1 : 0;
  if (AcceptThread.joinable())
    AcceptThread.join();
  // Draining is set; the pool workers answer what is left in the queue
  // with Cancelled, finish in-flight requests, and return.
  // The pool destructor then joins its threads.
  Pool.reset();
  sweepConnections(/*Force=*/true);
  Waited = true;
  return AcceptFailed.load() ? 1 : 0;
}

void Server::acceptLoop() {
  while (!ShutdownRequested.load()) {
    ErrorOr<UnixSocket> C = Listener.accept(Wake.readFd());
    if (!C.ok()) {
      if (C.status().code() == StatusCode::Unavailable) {
        Wake.drain();
        continue; // Woken; the loop condition decides.
      }
      AcceptFailed.store(true);
      break;
    }
    sweepConnections(/*Force=*/false);
    size_t Live;
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      Live = Conns.size();
    }
    if (Live >= static_cast<size_t>(Opts.MaxConnections)) {
      bumpServeCounter("serve.connections_rejected", Stats.ConnectionsRejected);
      ServeResponse R;
      R.Code = statusCodeName(StatusCode::Unavailable);
      R.Stage = "admission";
      R.Message = "connection limit reached";
      R.RetryAfterMs = Opts.RetryAfterMs;
      (void)writeFrame(*C, Frame{static_cast<uint16_t>(FrameType::Error), 0,
                                 encodeResponse(R)});
      continue; // RAII closes the socket.
    }
    auto Conn = std::make_shared<Connection>();
    Conn->Sock = C.take();
    Conn->Sock.setSendTimeoutMs(Opts.SendTimeoutMs);
    bumpServeCounter("serve.connections", Stats.Connections);
    Conn->Reader = std::thread([this, Conn] { connectionLoop(Conn); });
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Conns.push_back(Conn);
  }
  // Refuse new connections (and unlink the socket path) before finishing
  // the drain, so a restarting supervisor can bind the path while we
  // finish. requestShutdown() has already set Draining; a signal has not.
  Listener.close();
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Draining = true;
  }
  QueueCV.notify_all();
  // Half-close every connection: readers see EOF and stop admitting; the
  // write side stays open so in-flight responses still get delivered.
  std::lock_guard<std::mutex> Lock(ConnMutex);
  for (const auto &Conn : Conns)
    Conn->Sock.shutdownRead();
}

void Server::connectionLoop(const std::shared_ptr<Connection> &Conn) {
  for (;;) {
    Frame F;
    if (Status S = readFrame(Conn->Sock, F, Opts.MaxRequestBytes); !S.ok()) {
      // Clean disconnects and truncated streams end the connection quietly;
      // a decodable-but-invalid frame gets a structured protocol error
      // first. Either way the stream cannot be trusted to be in sync with
      // frame boundaries any more, so the connection ends.
      if (S.code() == StatusCode::ParseError) {
        bumpServeCounter("serve.protocol_errors", Stats.ProtocolErrors);
        respondError(Conn, F.RequestId, StatusCode::ParseError, "protocol",
                     S.message());
      }
      break;
    }
    if (!isRequestType(F.Type)) {
      // The frame itself was well-formed, so the stream is still in sync;
      // answer and keep serving.
      bumpServeCounter("serve.protocol_errors", Stats.ProtocolErrors);
      respondError(Conn, F.RequestId, StatusCode::ParseError, "protocol",
                   "unknown request type " + std::to_string(F.Type));
      continue;
    }
    if (F.Type != static_cast<uint16_t>(FrameType::Alloc)) {
      respondIntrospection(Conn, F);
      continue;
    }
    bumpServeCounter("serve.requests", Stats.Requests);
    ErrorOr<AllocRequest> Req = parseAllocRequest(F.Payload);
    if (!Req.ok()) {
      bumpServeCounter("serve.protocol_errors", Stats.ProtocolErrors);
      respondError(Conn, F.RequestId, StatusCode::ParseError, "protocol",
                   Req.status().message());
      continue;
    }
    // Admission: bounded queue, immediate structured rejection when full
    // or draining. The reader never blocks on a full queue — backpressure
    // is explicit, through the retry-after hint.
    bool Admit = false;
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      if (!Draining &&
          Queue.size() < static_cast<size_t>(Opts.QueueCapacity)) {
        Queue.push_back(Pending{Conn, F.RequestId, Req.take()});
        Admit = true;
      }
    }
    if (!Admit) {
      bumpServeCounter("serve.shed", Stats.Shed);
      respondError(Conn, F.RequestId, StatusCode::Unavailable, "admission",
                   ShutdownRequested.load() ? "server is draining"
                                            : "admission queue is full",
                   Opts.RetryAfterMs);
      continue;
    }
    bumpServeCounter("serve.admitted", Stats.Admitted);
    QueueCV.notify_one();
  }
  Conn->Done.store(true);
}

void Server::workerLoop() {
  for (;;) {
    Pending P;
    bool Cancel = false;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCV.wait(Lock, [this] { return Draining || !Queue.empty(); });
      if (Queue.empty())
        return; // Draining and fully drained.
      P = std::move(Queue.front());
      Queue.pop_front();
      // Queued-but-not-started requests are abandoned on drain; only
      // requests already in flight when the drain began run to completion.
      Cancel = Draining;
      if (!Cancel)
        ++InFlight;
    }
    if (Cancel) {
      bumpServeCounter("serve.cancelled", Stats.Cancelled);
      respondError(P.Conn, P.RequestId, StatusCode::Cancelled, "admission",
                   "request abandoned by server drain");
      continue;
    }
    if (Opts.TestStallHook)
      Opts.TestStallHook();
    processRequest(P);
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      --InFlight;
    }
  }
}

void Server::processRequest(Pending &P) {
  BatchOptions BO;
  BO.Nreg = P.Req.Nreg;
  BO.Validate = P.Req.Validate;
  BO.KeepPhysical = true;
  BO.AllowSpill = P.Req.AllowSpill;
  BO.MaxSpills = P.Req.MaxSpills;
  BO.DeadlineMs = P.Req.DeadlineMs > 0 ? P.Req.DeadlineMs
                                       : Opts.DefaultDeadlineMs;
  BO.Faults = Opts.Faults;
  BatchJob Job;
  Job.Name = "request-" + std::to_string(RequestSeq.fetch_add(1) + 1);
  Job.Text = std::move(P.Req.Assembly);

  // The pipeline's per-job isolation contract: this never throws, every
  // failure comes back classified. A poisoned request cannot take the
  // process down.
  BatchJobResult R = runSingleJob(Job, BO, &Cache, P.Req.ProfileHash);

  bumpServeCounter("serve.cache_hits", Stats.CacheHits, R.CacheHits);
  bumpServeCounter("serve.cache_misses", Stats.CacheMisses, R.CacheMisses);
  if (!R.Success) {
    bumpServeCounter("serve.failed", Stats.Failed);
    if (R.FailCode == StatusCode::DeadlineExceeded)
      bumpServeCounter("serve.deadline_exceeded", Stats.DeadlineExceeded);
    if (R.FailCode == StatusCode::FaultInjected)
      bumpServeCounter("serve.faults_injected", Stats.FaultsInjected);
    if (R.FailStage == "internal")
      bumpServeCounter("serve.isolated_failures", Stats.IsolatedFailures);
    respondError(P.Conn, P.RequestId, R.FailCode, R.FailStage, R.FailReason);
    return;
  }
  bumpServeCounter("serve.ok", Stats.Ok);
  if (R.UsedSpilling)
    bumpServeCounter("serve.degraded", Stats.Degraded);
  ServeResponse Resp;
  Resp.Ok = true;
  Resp.RegistersUsed = R.RegistersUsed;
  Resp.SGR = R.SGR;
  Resp.TotalMoveCost = R.TotalMoveCost;
  Resp.SpilledRanges = R.SpilledRanges;
  Resp.Degraded = R.UsedSpilling;
  Resp.Validated = R.Validated;
  // Body: the allocated physical assembly, composed exactly as `npralc
  // alloc`'s print section renders it (printProgram per thread, one blank
  // separator after each) — the byte-identity tests depend on this.
  for (const Program &T : R.Physical.Threads) {
    Resp.Body += programToString(T);
    Resp.Body += "\n";
  }
  respond(P.Conn, Frame{static_cast<uint16_t>(FrameType::Ok), P.RequestId,
                        encodeResponse(Resp)});
}

void Server::respondIntrospection(const std::shared_ptr<Connection> &Conn,
                                  const Frame &Request) {
  ServeResponse R;
  R.Ok = true;
  if (Request.Type == static_cast<uint16_t>(FrameType::Health)) {
    size_t Depth;
    int Flight;
    bool Drain;
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      Depth = Queue.size();
      Flight = InFlight;
      Drain = Draining;
    }
    std::ostringstream OS;
    OS << "state=" << (Drain ? "draining" : "serving") << "\n"
       << "queue-depth=" << Depth << "\n"
       << "queue-capacity=" << Opts.QueueCapacity << "\n"
       << "in-flight=" << Flight << "\n"
       << "workers=" << (Pool ? Pool->getNumWorkers() : 0) << "\n"
       << "admitted=" << Stats.Admitted.load() << "\n"
       << "shed=" << Stats.Shed.load() << "\n"
       << "cache-bytes=" << Cache.bytes() << "\n"
       << "cache-evictions=" << Cache.evictions() << "\n"
       << "rss-bytes=" << currentRSSBytes() << "\n";
    R.Body = OS.str();
  } else {
    std::ostringstream OS;
    MetricsRegistry::global().renderJSON(OS);
    R.Body = OS.str();
  }
  respond(Conn, Frame{static_cast<uint16_t>(FrameType::Ok), Request.RequestId,
                      encodeResponse(R)});
}

void Server::respondError(const std::shared_ptr<Connection> &Conn, uint64_t Id,
                          StatusCode Code, const std::string &Stage,
                          const std::string &Message, int RetryAfterMs) {
  ServeResponse R;
  R.Code = statusCodeName(Code);
  R.Stage = Stage;
  R.Message = Message;
  R.RetryAfterMs = RetryAfterMs;
  respond(Conn, Frame{static_cast<uint16_t>(FrameType::Error), Id,
                      encodeResponse(R)});
}

void Server::respond(const std::shared_ptr<Connection> &Conn, const Frame &F) {
  std::lock_guard<std::mutex> Lock(Conn->WriteMutex);
  if (Status S = writeFrame(Conn->Sock, F); !S.ok())
    // The client went away (or wedged past SO_SNDTIMEO). The response is
    // lost to them but accounted for here — "zero lost responses" in the
    // soak sense means every response was either delivered or counted.
    bumpServeCounter("serve.dropped_responses", Stats.DroppedResponses);
}

void Server::sweepConnections(bool Force) {
  std::list<std::shared_ptr<Connection>> Sweep;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (auto It = Conns.begin(); It != Conns.end();) {
      if (Force || (*It)->Done.load()) {
        Sweep.push_back(*It);
        It = Conns.erase(It);
      } else {
        ++It;
      }
    }
  }
  for (const auto &Conn : Sweep)
    if (Conn->Reader.joinable())
      Conn->Reader.join();
  // Workers may still hold a reference for a pending response; the socket
  // closes when the last shared_ptr drops.
}

void Server::bumpServeCounter(const char *Name, std::atomic<int64_t> &Local,
                              int64_t Delta) {
  Local.fetch_add(Delta, std::memory_order_relaxed);
  if (Delta != 0)
    MetricsRegistry::global().counter(Name).add(Delta);
}
