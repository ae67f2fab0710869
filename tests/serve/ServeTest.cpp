//===- ServeTest.cpp - Allocation-service daemon tests --------------------===//
//
// Covers the npral-serve daemon end to end over a real Unix socket: alloc
// round trips (byte-identical to the batch pipeline's output), health and
// metrics introspection, strict protocol rejection (oversized, truncated,
// garbage and fuzzed frames), admission-control load shedding, per-request
// fault isolation, and the graceful drain (in-flight requests finish,
// queued ones answer Cancelled, repeated start/shutdown cycles stay clean —
// this suite is in the TSan CI matrix).
//
//===----------------------------------------------------------------------===//

#include "driver/BatchPipeline.h"
#include "ir/IRPrinter.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "trace/MetricsRegistry.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <fstream>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace npral;
using namespace npral::protocol;

namespace {

std::string examplePath(const char *File) {
  return std::string(NPRAL_EXAMPLES_ASM_DIR) + "/" + File;
}

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// A fresh socket path per test; sun_path is short, so stay in /tmp.
std::string freshSocketPath() {
  static std::atomic<int> Counter{0};
  return "/tmp/npral-serve-test-" + std::to_string(getpid()) + "-" +
         std::to_string(Counter.fetch_add(1)) + ".sock";
}

/// Start a server with \p Opts (filling in the socket path) and return it;
/// asserts the bind worked.
std::unique_ptr<Server> startServer(ServeOptions Opts) {
  Opts.SocketPath = freshSocketPath();
  auto S = std::make_unique<Server>(std::move(Opts));
  Status St = S->start();
  EXPECT_TRUE(St.ok()) << St.str();
  return S;
}

ServeClient connectOrDie(const Server &S) {
  ErrorOr<ServeClient> C = ServeClient::connectTo(S.options().SocketPath);
  EXPECT_TRUE(C.ok()) << C.status().str();
  return C.take();
}

/// A gate the TestStallHook blocks on, to hold worker threads at a known
/// point and fill the admission queue deterministically.
struct WorkerGate {
  std::mutex M;
  std::condition_variable CV;
  bool Open = false;
  int Waiting = 0;

  std::function<void()> hook() {
    return [this] {
      std::unique_lock<std::mutex> Lock(M);
      ++Waiting;
      CV.notify_all();
      CV.wait(Lock, [this] { return Open; });
    };
  }
  void waitForStalled(int N) {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Waiting >= N; });
  }
  void release() {
    std::lock_guard<std::mutex> Lock(M);
    Open = true;
    CV.notify_all();
  }
};

} // namespace

TEST(ServeTest, AllocRoundTripMatchesPipelineByteForByte) {
  auto S = startServer(ServeOptions{});
  ServeClient C = connectOrDie(*S);

  const std::string Asm = readFileOrDie(examplePath("two_threads.s"));
  AllocRequest Req;
  Req.Assembly = Asm;
  ErrorOr<ServeResponse> R = C.alloc(Req);
  ASSERT_TRUE(R.ok()) << R.status().str();
  ASSERT_TRUE(R->Ok) << R->Message;
  EXPECT_GT(R->RegistersUsed, 0);
  EXPECT_FALSE(R->Degraded);

  // The served body must be byte-identical to what the pipeline produces
  // locally for the same input (and hence to `npralc alloc`'s print
  // section, which composes the same way).
  BatchJob Job;
  Job.Text = Asm;
  BatchOptions BO;
  BO.KeepPhysical = true;
  BatchJobResult Local = runSingleJob(Job, BO);
  ASSERT_TRUE(Local.Success) << Local.FailReason;
  std::string Expected;
  for (const Program &T : Local.Physical.Threads) {
    Expected += programToString(T);
    Expected += "\n";
  }
  EXPECT_EQ(R->Body, Expected);
  EXPECT_EQ(R->RegistersUsed, Local.RegistersUsed);
  EXPECT_EQ(R->SGR, Local.SGR);
  EXPECT_EQ(R->TotalMoveCost, Local.TotalMoveCost);

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

// Every ok response carries a proof, and the protocol has no key to turn
// validation off: a request that names one is a protocol error.
TEST(ServeTest, EveryOkResponseIsValidatedAndValidateIsNoRequestKey) {
  auto S = startServer(ServeOptions{});
  ServeClient C = connectOrDie(*S);

  AllocRequest Req;
  Req.Assembly = readFileOrDie(examplePath("two_threads.s"));
  ErrorOr<ServeResponse> R = C.alloc(Req);
  ASSERT_TRUE(R.ok()) << R.status().str();
  ASSERT_TRUE(R->Ok) << R->Message;
  EXPECT_TRUE(R->Validated);
  EXPECT_EQ(encodeAllocRequest(Req).find("validate"), std::string::npos);

  Frame F{static_cast<uint16_t>(FrameType::Alloc), 7,
          "validate=1\n\n" + Req.Assembly};
  ASSERT_TRUE(writeFrame(C.socket(), F).ok());
  Frame In;
  ASSERT_TRUE(C.readRawFrame(In).ok());
  EXPECT_EQ(In.Type, static_cast<uint16_t>(FrameType::Error));
  ErrorOr<ServeResponse> E = parseResponse(In.Type, In.Payload);
  ASSERT_TRUE(E.ok());
  EXPECT_EQ(E->Code, "parse-error");
  EXPECT_EQ(E->Stage, "protocol");
  EXPECT_NE(E->Message.find("unknown request option 'validate'"),
            std::string::npos)
      << E->Message;

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

// One request with a block no path reaches once aborted the bounds
// estimator and took the daemon down with it. It now allocates and proves,
// and the daemon keeps answering health probes.
TEST(ServeTest, UnreachableBlockRequestLeavesTheDaemonServing) {
  ServeOptions Opts;
  Opts.Workers = 1;
  auto S = startServer(Opts);
  ServeClient C = connectOrDie(*S);

  AllocRequest Req;
  Req.Assembly = test::hashProbeWithUnreachableBlock();
  ErrorOr<ServeResponse> R = C.alloc(Req);
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_TRUE(R->Ok) << R->Message;
  EXPECT_TRUE(R->Validated);

  ErrorOr<ServeResponse> H = C.health();
  ASSERT_TRUE(H.ok()) << H.status().str();
  ASSERT_TRUE(H->Ok);
  EXPECT_NE(H->Body.find("state=serving\n"), std::string::npos) << H->Body;

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

TEST(ServeTest, HealthAndMetricsAnswerInline) {
  auto S = startServer(ServeOptions{});
  ServeClient C = connectOrDie(*S);

  ErrorOr<ServeResponse> H = C.health();
  ASSERT_TRUE(H.ok()) << H.status().str();
  ASSERT_TRUE(H->Ok);
  EXPECT_NE(H->Body.find("state=serving\n"), std::string::npos);
  EXPECT_NE(H->Body.find("queue-depth=0\n"), std::string::npos);
  EXPECT_NE(H->Body.find("rss-bytes="), std::string::npos);

  ErrorOr<ServeResponse> M = C.metrics();
  ASSERT_TRUE(M.ok()) << M.status().str();
  ASSERT_TRUE(M->Ok);
  // The serve.* instruments are pre-registered at startup, so the metrics
  // body always renders the full stable key set — even before traffic.
  for (const char *Key :
       {"serve.admitted", "serve.shed", "serve.deadline_exceeded",
        "serve.isolated_failures", "serve.requests", "serve.ok",
        "serve.failed", "serve.cancelled", "serve.protocol_errors"})
    EXPECT_NE(M->Body.find(std::string("\"") + Key + "\""),
              std::string::npos)
        << Key;

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

TEST(ServeTest, MalformedPayloadGetsStructuredErrorAndConnectionSurvives) {
  auto S = startServer(ServeOptions{});
  ServeClient C = connectOrDie(*S);

  // A well-framed Alloc whose payload violates the request grammar.
  Frame F{static_cast<uint16_t>(FrameType::Alloc), 42,
          "nreg=not-a-number\n\nbody"};
  ASSERT_TRUE(writeFrame(C.socket(), F).ok());
  Frame In;
  ASSERT_TRUE(C.readRawFrame(In).ok());
  EXPECT_EQ(In.Type, static_cast<uint16_t>(FrameType::Error));
  EXPECT_EQ(In.RequestId, 42u);
  ErrorOr<ServeResponse> R = parseResponse(In.Type, In.Payload);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R->Code, "parse-error");
  EXPECT_EQ(R->Stage, "protocol");

  // The framing stayed in sync, so the same connection still serves.
  AllocRequest Req;
  Req.Assembly = readFileOrDie(examplePath("two_threads.s"));
  ErrorOr<ServeResponse> Ok = C.alloc(Req);
  ASSERT_TRUE(Ok.ok()) << Ok.status().str();
  EXPECT_TRUE(Ok->Ok);

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

TEST(ServeTest, OversizedFrameIsRejectedWithStructuredError) {
  ServeOptions Opts;
  Opts.MaxRequestBytes = 1024;
  auto S = startServer(std::move(Opts));
  ServeClient C = connectOrDie(*S);

  // Header declares a payload over the server's cap; the server must
  // reject from the length field alone, never allocating or reading it.
  std::string Big(4096, 'x');
  Frame F{static_cast<uint16_t>(FrameType::Alloc), 7, Big};
  ASSERT_TRUE(writeFrame(C.socket(), F).ok());
  Frame In;
  ASSERT_TRUE(C.readRawFrame(In).ok());
  EXPECT_EQ(In.Type, static_cast<uint16_t>(FrameType::Error));
  EXPECT_EQ(In.RequestId, 7u);
  ErrorOr<ServeResponse> R = parseResponse(In.Type, In.Payload);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R->Code, "parse-error");
  EXPECT_NE(R->Message.find("exceeds"), std::string::npos);

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

TEST(ServeTest, GarbageAndTruncatedFramesNeverKillTheServer) {
  auto S = startServer(ServeOptions{});

  {
    // Garbage magic: structured error (id unreadable -> whatever the
    // header bytes decoded to), then the server closes the stream.
    ServeClient C = connectOrDie(*S);
    const char Garbage[] = "this is definitely not a frame header.....";
    ASSERT_TRUE(C.sendRaw(Garbage, sizeof(Garbage)).ok());
    Frame In;
    Status St = C.readRawFrame(In);
    if (St.ok())
      EXPECT_EQ(In.Type, static_cast<uint16_t>(FrameType::Error));
  }
  {
    // Truncated header: client disappears mid-frame; no response owed.
    ServeClient C = connectOrDie(*S);
    ASSERT_TRUE(C.sendRaw("NPRS", 4).ok());
  } // Socket closes here.
  {
    // Truncated payload: a full header promising 512 bytes, then only 100
    // of them before the close. Hand-build the 20 header bytes
    // (little-endian) for surgical truncation.
    ServeClient C = connectOrDie(*S);
    char H[20] = {};
    std::memcpy(H, "NPRS", 4);
    H[4] = 1;        // version 1
    H[6] = 1;        // type = Alloc
    H[8] = 9;        // request id 9
    H[16] = 0x00;    // payload length 512 = 0x200
    H[17] = 0x02;
    std::string Wire(H, 20);
    Wire += std::string(100, 'p');
    ASSERT_TRUE(C.sendRaw(Wire.data(), Wire.size()).ok());
  } // Close with 412 bytes still owed.

  // After all that abuse the server still allocates.
  ServeClient C = connectOrDie(*S);
  AllocRequest Req;
  Req.Assembly = readFileOrDie(examplePath("two_threads.s"));
  ErrorOr<ServeResponse> R = C.alloc(Req);
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_TRUE(R->Ok);
  EXPECT_GT(S->stats().ProtocolErrors.load() +
                S->stats().Connections.load(),
            0);

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

TEST(ServeTest, FuzzedFramesAlwaysGetClassifiedOutcomes) {
  auto S = startServer(ServeOptions{});

  // 200 seeded malformed frames: random bytes, random lengths, sometimes
  // with a valid magic prefix to reach deeper validation layers. The
  // server must survive all of them; each connection either receives a
  // structured Error frame or a clean close, never a hang or a crash.
  std::mt19937_64 Rng(0xF00DF00Du);
  for (int I = 0; I < 200; ++I) {
    ServeClient C = connectOrDie(*S);
    std::string Bytes;
    const size_t Len = 1 + Rng() % 64;
    for (size_t B = 0; B < Len; ++B)
      Bytes.push_back(static_cast<char>(Rng() & 0xFF));
    if (I % 3 == 0)
      Bytes.replace(0, std::min<size_t>(4, Bytes.size()), "NPRS");
    ASSERT_TRUE(C.sendRaw(Bytes.data(), Bytes.size()).ok()) << "frame " << I;
    C.socket().shutdownBoth();
  }

  // Still serving.
  ServeClient C = connectOrDie(*S);
  AllocRequest Req;
  Req.Assembly = readFileOrDie(examplePath("fig3_paper.s"));
  ErrorOr<ServeResponse> R = C.alloc(Req);
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_TRUE(R->Ok);

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

// At the cap, the server first reaps the connections whose peer hung up
// with nothing left unread, so a burst of closed connections cannot get
// the next one refused.
TEST(ServeTest, HungUpConnectionsFreeTheirSlots) {
  ServeOptions Opts;
  Opts.MaxConnections = 4;
  auto S = startServer(std::move(Opts));
  for (int I = 0; I < 4; ++I) {
    ServeClient C = connectOrDie(*S);
    C.socket().shutdownBoth();
  }
  ServeClient C = connectOrDie(*S);
  ErrorOr<ServeResponse> R = C.health();
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_TRUE(R->Ok) << "[" << R->Stage << "/" << R->Code << "] "
                     << R->Message;
  EXPECT_EQ(S->stats().ConnectionsRejected.load(), 0);

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

// A connection counts until its reader ends. A client that pipelines
// health frames until both socket buffers are full, shuts down its write
// side and reads no reply leaves a reader with frames still to answer, so
// its slot stays taken; once the client closes, the reader finishes and
// the slot frees.
TEST(ServeTest, HalfClosedPipelinesKeepTheirSlots) {
  ServeOptions Opts;
  Opts.MaxConnections = 4;
  auto S = startServer(std::move(Opts));
  std::vector<ServeClient> Held;
  for (int I = 0; I < 4; ++I) {
    Held.push_back(connectOrDie(*S));
    const UnixSocket &Sock = Held.back().socket();
    // The reader blocks writing a reply once the client's receive buffer
    // is full; the client's writes then time out with frames unread.
    Sock.setSendTimeoutMs(50);
    int Sent = 0;
    while (Sent < 100000 &&
           writeFrame(Sock, Frame{static_cast<uint16_t>(FrameType::Health),
                                  static_cast<uint64_t>(Sent + 1), ""})
               .ok())
      ++Sent;
    ASSERT_LT(Sent, 100000);
    ASSERT_EQ(::shutdown(Sock.fd(), SHUT_WR), 0);
  }
  {
    ServeClient C = connectOrDie(*S);
    ErrorOr<ServeResponse> R = C.health();
    ASSERT_TRUE(R.ok()) << R.status().str();
    EXPECT_FALSE(R->Ok);
    EXPECT_EQ(R->Message, "connection limit reached");
    EXPECT_EQ(S->stats().ConnectionsRejected.load(), 1);
  }

  // Closed, the clients fail every pending reply at once; the readers
  // finish their frames, read EOF and free their slots.
  Held.clear();
  bool Served = false;
  for (int Try = 0; Try < 500 && !Served; ++Try) {
    ServeClient C = connectOrDie(*S);
    ErrorOr<ServeResponse> R = C.health();
    Served = R.ok() && R->Ok;
    if (!Served)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(Served);

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

// A connection past MaxConnections gets the server's connection-level
// refusal, an Error frame with request id 0, and the client reports it as
// the classified refusal with its retry hint, not as a transport error.
TEST(ServeTest, ConnectionPastTheLimitIsRefusedWithRetryHint) {
  ServeOptions Opts;
  Opts.MaxConnections = 4;
  Opts.RetryAfterMs = 25;
  auto S = startServer(std::move(Opts));
  std::vector<ServeClient> Held;
  for (int I = 0; I < 4; ++I) {
    Held.push_back(connectOrDie(*S));
    // Answered, so the server has accepted and counted this connection.
    ErrorOr<ServeResponse> R = Held.back().health();
    ASSERT_TRUE(R.ok()) << R.status().str();
    ASSERT_TRUE(R->Ok);
  }
  ServeClient C = connectOrDie(*S);
  ErrorOr<ServeResponse> R = C.health();
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_FALSE(R->Ok);
  EXPECT_EQ(R->Code, "unavailable");
  EXPECT_EQ(R->Stage, "admission");
  EXPECT_EQ(R->Message, "connection limit reached");
  EXPECT_EQ(R->RetryAfterMs, 25);
  EXPECT_EQ(S->stats().ConnectionsRejected.load(), 1);

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

TEST(ServeTest, FullQueueShedsWithRetryHint) {
  WorkerGate Gate;
  ServeOptions Opts;
  Opts.Workers = 1;
  Opts.QueueCapacity = 1;
  Opts.RetryAfterMs = 25;
  Opts.TestStallHook = Gate.hook();
  auto S = startServer(std::move(Opts));

  const std::string Asm = readFileOrDie(examplePath("two_threads.s"));
  AllocRequest Req;
  Req.Assembly = Asm;

  // First request occupies the only worker (stalled at the gate)...
  ServeClient C1 = connectOrDie(*S);
  ASSERT_TRUE(writeFrame(C1.socket(),
                         Frame{static_cast<uint16_t>(FrameType::Alloc), 1,
                               encodeAllocRequest(Req)})
                  .ok());
  Gate.waitForStalled(1);
  // ...the second fills the queue (admission is asynchronous on the
  // connection's reader thread, so wait for the counter to prove it)...
  ServeClient C2 = connectOrDie(*S);
  ASSERT_TRUE(writeFrame(C2.socket(),
                         Frame{static_cast<uint16_t>(FrameType::Alloc), 2,
                               encodeAllocRequest(Req)})
                  .ok());
  while (S->stats().Admitted.load() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // ...and the third must be shed immediately with the structured
  // Unavailable rejection.
  ServeClient C3 = connectOrDie(*S);
  ErrorOr<ServeResponse> ShedR = C3.alloc(Req);
  ASSERT_TRUE(ShedR.ok()) << ShedR.status().str();
  ASSERT_FALSE(ShedR->Ok);
  const ServeResponse Shed = *ShedR;
  EXPECT_EQ(Shed.Code, "unavailable");
  EXPECT_EQ(Shed.Stage, "admission");
  EXPECT_EQ(Shed.RetryAfterMs, 25);
  EXPECT_GT(S->stats().Shed.load(), 0);

  // Release the gate; the stalled and queued requests complete normally.
  Gate.release();
  Frame In1, In2;
  ASSERT_TRUE(C1.readRawFrame(In1).ok());
  EXPECT_EQ(In1.Type, static_cast<uint16_t>(FrameType::Ok));
  ASSERT_TRUE(C2.readRawFrame(In2).ok());
  EXPECT_EQ(In2.Type, static_cast<uint16_t>(FrameType::Ok));

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
  EXPECT_EQ(S->stats().Admitted.load(), 2);
}

TEST(ServeTest, DrainFinishesInFlightAndCancelsQueued) {
  WorkerGate Gate;
  ServeOptions Opts;
  Opts.Workers = 1;
  Opts.QueueCapacity = 8;
  Opts.TestStallHook = Gate.hook();
  auto S = startServer(std::move(Opts));

  const std::string Asm = readFileOrDie(examplePath("two_threads.s"));
  AllocRequest Req;
  Req.Assembly = Asm;

  // A: picked up by the worker (in flight, stalled at the gate).
  ServeClient CA = connectOrDie(*S);
  ASSERT_TRUE(writeFrame(CA.socket(),
                         Frame{static_cast<uint16_t>(FrameType::Alloc), 1,
                               encodeAllocRequest(Req)})
                  .ok());
  Gate.waitForStalled(1);
  // B: sits in the queue behind A.
  ServeClient CB = connectOrDie(*S);
  ASSERT_TRUE(writeFrame(CB.socket(),
                         Frame{static_cast<uint16_t>(FrameType::Alloc), 2,
                               encodeAllocRequest(Req)})
                  .ok());
  // B's admission happens on its reader thread; only drain once it is
  // provably in the queue, so the Cancelled outcome is deterministic.
  while (S->stats().Admitted.load() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  S->requestShutdown();
  Gate.release();

  // A was in flight when the drain began: it completes normally.
  Frame InA;
  ASSERT_TRUE(CA.readRawFrame(InA).ok());
  EXPECT_EQ(InA.Type, static_cast<uint16_t>(FrameType::Ok));
  // B was still queued: it answers Cancelled.
  Frame InB;
  ASSERT_TRUE(CB.readRawFrame(InB).ok());
  EXPECT_EQ(InB.Type, static_cast<uint16_t>(FrameType::Error));
  ErrorOr<ServeResponse> RB = parseResponse(InB.Type, InB.Payload);
  ASSERT_TRUE(RB.ok());
  EXPECT_EQ(RB->Code, "cancelled");

  EXPECT_EQ(S->wait(), 0);
  EXPECT_EQ(S->stats().Cancelled.load(), 1);
  // A drained server refuses new connections (socket file is gone).
  EXPECT_FALSE(ServeClient::connectTo(S->options().SocketPath).ok());
}

TEST(ServeTest, RepeatedStartShutdownCyclesStayClean) {
  // Exercised under TSan in CI: start, serve one request, drain, five
  // times over — no leaked threads, no racy teardown.
  const std::string Asm = readFileOrDie(examplePath("two_threads.s"));
  for (int Cycle = 0; Cycle < 5; ++Cycle) {
    auto S = startServer(ServeOptions{});
    ServeClient C = connectOrDie(*S);
    AllocRequest Req;
    Req.Assembly = Asm;
    ErrorOr<ServeResponse> R = C.alloc(Req);
    ASSERT_TRUE(R.ok()) << "cycle " << Cycle << ": " << R.status().str();
    EXPECT_TRUE(R->Ok);
    S->requestShutdown();
    EXPECT_EQ(S->wait(), 0) << "cycle " << Cycle;
  }
}

TEST(ServeTest, SigtermDrainsAndWaitReturnsZero) {
  auto S = startServer(ServeOptions{});
  S->installSignalHandlers();
  ServeClient C = connectOrDie(*S);
  AllocRequest Req;
  Req.Assembly = readFileOrDie(examplePath("two_threads.s"));
  ErrorOr<ServeResponse> R = C.alloc(Req);
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R->Ok);

  raise(SIGTERM);
  EXPECT_EQ(S->wait(), 0);
  EXPECT_FALSE(ServeClient::connectTo(S->options().SocketPath).ok());
}

TEST(ServeTest, InfeasibleBudgetReturnsClassifiedErrorAndSpillDegrades) {
  auto S = startServer(ServeOptions{});
  ServeClient C = connectOrDie(*S);
  const std::string Asm = readFileOrDie(examplePath("two_threads.s"));

  AllocRequest Strict;
  Strict.Assembly = Asm;
  Strict.Nreg = 2; // Far below any feasible budget for this input.
  ErrorOr<ServeResponse> R = C.alloc(Strict);
  ASSERT_TRUE(R.ok()) << R.status().str();
  ASSERT_FALSE(R->Ok);
  EXPECT_EQ(R->Code, "infeasible");
  EXPECT_EQ(R->Stage, "alloc");

  // The process survived the failure; the same server keeps serving, and
  // graceful degradation is per-request opt-in.
  AllocRequest Degrade = Strict;
  Degrade.Nreg = 6;
  Degrade.AllowSpill = true;
  ErrorOr<ServeResponse> D = C.alloc(Degrade);
  ASSERT_TRUE(D.ok()) << D.status().str();
  if (D->Ok)
    EXPECT_GE(D->SpilledRanges + (D->Degraded ? 1 : 0), 0);

  EXPECT_GT(S->stats().Failed.load(), 0);
  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

// serve.deadline_exceeded counts requests that failed with
// DeadlineExceeded, and nothing else: an infeasible request whose deadline
// never passes is an infeasible answer, not a deadline one.
TEST(ServeTest, InfeasibleRequestWithDeadlineIsNotCountedAsExceeded) {
  auto S = startServer(ServeOptions{});
  ServeClient C = connectOrDie(*S);
  const int64_t Before =
      MetricsRegistry::global().counterValue("serve.deadline_exceeded");

  AllocRequest Req;
  Req.Assembly = readFileOrDie(examplePath("two_threads.s"));
  Req.Nreg = 4;
  Req.DeadlineMs = 10000;
  ErrorOr<ServeResponse> R = C.alloc(Req);
  ASSERT_TRUE(R.ok()) << R.status().str();
  ASSERT_FALSE(R->Ok);
  EXPECT_EQ(R->Code, "infeasible");
  EXPECT_EQ(S->stats().DeadlineExceeded.load(), 0);
  EXPECT_EQ(MetricsRegistry::global().counterValue("serve.deadline_exceeded"),
            Before);

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

// The deadline covers the whole job, not just allocation. On a cold cache
// each md5 thread of the Table-3 s1 program needs ~3 ms of rename,
// analysis and bounds, so a 1 ms request overruns however fast the host is.
TEST(ServeTest, OverrunRequestAnswersDeadlineExceededAndCountsOnce) {
  auto S = startServer(ServeOptions{});
  ServeClient C = connectOrDie(*S);
  const int64_t Before =
      MetricsRegistry::global().counterValue("serve.deadline_exceeded");

  AllocRequest Req;
  Req.Assembly = test::printedAraScenario(0);
  Req.DeadlineMs = 1;
  ErrorOr<ServeResponse> R = C.alloc(Req);
  ASSERT_TRUE(R.ok()) << R.status().str();
  ASSERT_FALSE(R->Ok);
  EXPECT_EQ(R->Code, "deadline-exceeded") << R->Stage << ": " << R->Message;
  EXPECT_EQ(S->stats().DeadlineExceeded.load(), 1);
  EXPECT_EQ(MetricsRegistry::global().counterValue("serve.deadline_exceeded"),
            Before + 1);

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

TEST(ServeTest, InjectedFaultsAreIsolatedAndCounted) {
  ServeOptions Opts;
  ErrorOr<FaultInjector> FI = FaultInjector::parse("all@100#7");
  ASSERT_TRUE(FI.ok());
  Opts.Faults = FI.take();
  auto S = startServer(std::move(Opts));
  ServeClient C = connectOrDie(*S);

  AllocRequest Req;
  Req.Assembly = readFileOrDie(examplePath("two_threads.s"));
  ErrorOr<ServeResponse> R = C.alloc(Req);
  ASSERT_TRUE(R.ok()) << R.status().str();
  ASSERT_FALSE(R->Ok);
  EXPECT_EQ(R->Code, "fault-injected");
  EXPECT_GT(S->stats().FaultsInjected.load(), 0);

  // Health still answers: the fault poisoned the request, not the server.
  ErrorOr<ServeResponse> H = C.health();
  ASSERT_TRUE(H.ok());
  EXPECT_TRUE(H->Ok);

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}

TEST(ServeTest, SharedCacheServesRepeatedRequests) {
  ServeOptions Opts;
  Opts.CacheBytes = 16 << 20;
  auto S = startServer(std::move(Opts));
  ServeClient C = connectOrDie(*S);

  AllocRequest Req;
  Req.Assembly = readFileOrDie(examplePath("two_threads.s"));
  for (int I = 0; I < 3; ++I) {
    ErrorOr<ServeResponse> R = C.alloc(Req);
    ASSERT_TRUE(R.ok()) << R.status().str();
    EXPECT_TRUE(R->Ok);
  }
  EXPECT_GT(S->stats().CacheHits.load(), 0);
  EXPECT_GT(S->cache().hits(), 0);
  EXPECT_LE(S->cache().bytes(), S->cache().maxBytes());

  S->requestShutdown();
  EXPECT_EQ(S->wait(), 0);
}
