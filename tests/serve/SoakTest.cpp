//===- SoakTest.cpp - Multi-client serve soak driver ----------------------===//
//
// The acceptance soak for the serve daemon: many concurrent clients push a
// large mixed workload — valid allocations over a repeating corpus (cache
// hits), infeasible budgets, malformed payloads, deterministically
// injected faults, health and metrics probes — through one in-process
// server, then the suite asserts the robustness contract:
//
//   * zero lost responses: every request that was sent received a
//     classified response (ok, structured error, or shed), and every
//     answer is the request's own (its expected body or error) or one the
//     mix provokes in any allocation (shed, injected fault, expired
//     deadline);
//   * load shedding engaged under the oversubscribed burst (shed > 0)
//     and every shed response carried the retry-after hint;
//   * the shared analysis cache ran at a nonzero hit rate;
//   * process memory stayed bounded: RSS after the full run is within a
//     fixed factor of the RSS after warm-up.
//
// A shorter variant sends the same mix plus the printed Table-3 s1 program
// with a 1 ms deadline on every allocation, and checks that every answer
// is still its expected one or deadline-exceeded, and that the server
// counts exactly the deadline-exceeded answers the clients saw.
//
// Request count: NPRAL_SOAK_REQUESTS (default 100000, the acceptance
// floor; CI's sanitizer lane lowers it to keep wall clock sane); the
// deadline variant sends a tenth of it.
//
//===----------------------------------------------------------------------===//

#include "driver/BatchPipeline.h"
#include "harden/FaultInjector.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Socket.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace npral;

namespace {

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

int soakRequests() {
  if (const char *Env = std::getenv("NPRAL_SOAK_REQUESTS"))
    if (int N = std::atoi(Env); N > 0)
      return N;
  return 100000;
}

/// What one soak run sends.
struct SoakMix {
  /// Requests in all, split evenly over the clients.
  int Total = 0;
  /// deadline-ms of every soak allocation; 0 = none.
  int DeadlineMs = 0;
  /// Send the printed Table-3 s1 program as one request kind in twenty.
  bool WithScenario = false;
};

struct ClientTally {
  int64_t Sent = 0;
  int64_t Ok = 0;
  int64_t StructuredErrors = 0;
  int64_t Shed = 0;
  int64_t ShedWithoutHint = 0;
  int64_t DeadlineExceeded = 0;
  /// Answers that are neither the request's own (ok, or its expected
  /// error) nor one the mix provokes in any allocation (shed, injected
  /// fault, expired deadline).
  int64_t UnexpectedAnswers = 0;
  int64_t TransportErrors = 0;
  int64_t BodyMismatches = 0;

  void add(const ClientTally &T) {
    Sent += T.Sent;
    Ok += T.Ok;
    StructuredErrors += T.StructuredErrors;
    Shed += T.Shed;
    ShedWithoutHint += T.ShedWithoutHint;
    DeadlineExceeded += T.DeadlineExceeded;
    UnexpectedAnswers += T.UnexpectedAnswers;
    TransportErrors += T.TransportErrors;
    BodyMismatches += T.BodyMismatches;
  }
};

/// One allocation the mix sends and the answer it expects: "ok" with a
/// body, or an error code.
struct Probe {
  AllocRequest Req;
  std::string Code = "ok";
  std::string Body;
};

/// \p Req's answer from the pipeline entry the server uses, in-process,
/// so the server's cache stays cold for it.
Probe probeFor(AllocRequest Req) {
  BatchJob Job;
  Job.Text = Req.Assembly;
  BatchOptions BO;
  BO.Nreg = Req.Nreg;
  BO.KeepPhysical = true;
  BatchJobResult R = runSingleJob(Job, BO);
  Probe P;
  P.Req = std::move(Req);
  P.Code = statusCodeName(R.FailCode);
  for (const Program &T : R.Physical.Threads)
    P.Body += programToString(T) + "\n";
  return P;
}

/// What a soak run leaves for its test to check beyond the shared
/// contract runSoak asserts itself.
struct SoakOutcome {
  ClientTally Sum;
  int64_t ServerShed = 0;
  int64_t ServerDeadlineExceeded = 0;
  int64_t ServerFaultsInjected = 0;
  int64_t CacheHits = 0;
};

/// Drive \p Mix through a fresh in-process server and assert the shared
/// contract: nothing lost, no unexpected error, every ok body
/// byte-identical, no dropped write, bounded RSS, clean drain.
void runSoak(const SoakMix &Mix, SoakOutcome &Out) {
  const int NumClients = 16;

  ServeOptions Opts;
  Opts.SocketPath = "/tmp/npral-serve-soak-" + std::to_string(getpid()) +
                    ".sock";
  // Oversubscribed on purpose: few workers, small queue, many clients —
  // the burst must hit the admission bound and shed.
  Opts.Workers = 4;
  Opts.QueueCapacity = 4;
  Opts.CacheBytes = 32 << 20;
  // Inject alloc faults into ~10% of requests. Job names are the
  // server-global sequence, so the verdicts are deterministic; seed 1 is
  // chosen so the four golden warm-up requests (request-1..4) never fire.
  {
    ErrorOr<FaultInjector> FI = FaultInjector::parse("alloc@10#1");
    ASSERT_TRUE(FI.ok());
    Opts.Faults = FI.take();
  }
  Server S(std::move(Opts));
  ASSERT_TRUE(S.start().ok());

  // The request corpus: valid inputs (repeating, so the shared cache gets
  // hits), plus deliberate failures mixed in.
  std::vector<std::string> Valid;
  for (const char *F :
       {"two_threads.s", "fig3_paper.s", "modular_kernel.s",
        "packet_filter.s"})
    Valid.push_back(readFileOrDie(std::string(NPRAL_EXAMPLES_ASM_DIR) + "/" +
                                  F));
  // Expected bodies, computed once through the same pipeline entry the
  // server uses — every later ok response must match byte for byte.
  std::vector<Probe> Golden(Valid.size());
  for (size_t I = 0; I < Valid.size(); ++I) {
    ErrorOr<ServeClient> Conn =
        ServeClient::connectTo(S.options().SocketPath);
    ASSERT_TRUE(Conn.ok()) << Conn.status().str();
    ServeClient &C = *Conn;
    Golden[I].Req.Assembly = Valid[I];
    ErrorOr<ServeResponse> R = C.alloc(Golden[I].Req);
    ASSERT_TRUE(R.ok() && R->Ok) << "golden " << I;
    Golden[I].Body = R->Body;
  }
  // The deliberate failures: a two-register budget (infeasible for most
  // of the corpus, though fig3_paper.s fits it) and malformed assembly.
  std::vector<Probe> Tight;
  for (const std::string &Text : Valid) {
    AllocRequest Req;
    Req.Assembly = Text;
    Req.Nreg = 2;
    Tight.push_back(probeFor(Req));
  }
  AllocRequest Bad;
  Bad.Assembly = "this is not npral assembly\n";
  const Probe Malformed = probeFor(Bad);
  // The scenario's answer comes from in-process, so the server's cache
  // stays cold for it: the first s1 request a worker takes spends ~3 ms
  // per md5 thread in rename, analysis and bounds and must overrun a 1 ms
  // deadline.
  Probe Scenario;
  if (Mix.WithScenario) {
    AllocRequest Req;
    Req.Assembly = test::printedAraScenario(0);
    Scenario = probeFor(Req);
    ASSERT_EQ(Scenario.Code, "ok");
  }

  // Warm-up complete; the memory bound is measured from here.
  const int64_t WarmRSS = currentRSSBytes();
  ASSERT_GT(WarmRSS, 0);

  const int PerClient = Mix.Total / NumClients;
  std::vector<ClientTally> Tallies(NumClients);
  std::vector<std::thread> Clients;
  Clients.reserve(NumClients);
  for (int CI = 0; CI < NumClients; ++CI) {
    Clients.emplace_back([&, CI] {
      ClientTally &T = Tallies[static_cast<size_t>(CI)];
      ErrorOr<ServeClient> Conn =
          ServeClient::connectTo(S.options().SocketPath);
      if (!Conn.ok()) {
        T.TransportErrors = PerClient; // Count the whole share as lost.
        return;
      }
      ServeClient &C = *Conn;
      for (int I = 0; I < PerClient; ++I) {
        ++T.Sent;
        const int Kind = (CI * 7919 + I) % 20;
        if (Kind == 18) { // Health probe.
          ErrorOr<ServeResponse> R = C.health();
          if (R.ok() && R->Ok)
            ++T.Ok;
          else
            ++T.TransportErrors;
          continue;
        }
        if (Kind == 19) { // Metrics probe.
          ErrorOr<ServeResponse> R = C.metrics();
          if (R.ok() && R->Ok)
            ++T.Ok;
          else
            ++T.TransportErrors;
          continue;
        }
        const size_t V = static_cast<size_t>(I) % Valid.size();
        const Probe *P = &Golden[V];
        if (Kind == 16) // Tight budget: mostly a classified failure.
          P = &Tight[V];
        else if (Kind == 17) // Malformed assembly: parse failure.
          P = &Malformed;
        else if (Kind == 15 && Mix.WithScenario)
          P = &Scenario;
        AllocRequest Req = P->Req;
        Req.DeadlineMs = Mix.DeadlineMs;
        ErrorOr<ServeResponse> R = C.alloc(Req);
        if (!R.ok()) {
          ++T.TransportErrors;
          continue;
        }
        if (R->Ok) {
          ++T.Ok;
          if (P->Code != "ok")
            ++T.UnexpectedAnswers;
          else if (R->Body != P->Body)
            ++T.BodyMismatches;
          continue;
        }
        if (R->Code == "unavailable") {
          ++T.Shed;
          if (R->RetryAfterMs <= 0)
            ++T.ShedWithoutHint;
          continue;
        }
        ++T.StructuredErrors;
        if (R->Code == "deadline-exceeded")
          ++T.DeadlineExceeded;
        else if (R->Code != P->Code && R->Code != "fault-injected")
          ++T.UnexpectedAnswers;
      }
    });
  }
  for (std::thread &C : Clients)
    C.join();

  for (const ClientTally &T : Tallies)
    Out.Sum.add(T);
  const ClientTally &Sum = Out.Sum;

  // Zero lost responses: every sent request came back classified.
  EXPECT_EQ(Sum.Sent, static_cast<int64_t>(PerClient) * NumClients);
  EXPECT_EQ(Sum.TransportErrors, 0);
  EXPECT_EQ(Sum.Ok + Sum.StructuredErrors + Sum.Shed, Sum.Sent);
  EXPECT_EQ(Sum.UnexpectedAnswers, 0);
  EXPECT_EQ(Sum.ShedWithoutHint, 0);
  // Successful allocations stayed byte-identical throughout.
  EXPECT_EQ(Sum.BodyMismatches, 0);
  // No unclassified outcomes and no dropped writes on the server side.
  EXPECT_EQ(S.stats().DroppedResponses.load(), 0);
  Out.ServerShed = S.stats().Shed.load();
  Out.ServerDeadlineExceeded = S.stats().DeadlineExceeded.load();
  Out.ServerFaultsInjected = S.stats().FaultsInjected.load();
  Out.CacheHits = S.cache().hits();

  // Bounded memory: after the whole soak, RSS stays within a fixed factor
  // of the warm baseline (generous slack absorbs allocator noise, but a
  // real per-request leak at 10^5 requests would blow far past it).
  const int64_t FinalRSS = currentRSSBytes();
  ASSERT_GT(FinalRSS, 0);
  EXPECT_LT(FinalRSS, WarmRSS * 3 + (96ll << 20))
      << "warm RSS " << WarmRSS << ", final RSS " << FinalRSS;

  S.requestShutdown();
  EXPECT_EQ(S.wait(), 0);
}

} // namespace

TEST(ServeSoakTest, MixedBurstStaysBoundedAndLosesNothing) {
  SoakMix Mix;
  Mix.Total = soakRequests();
  SoakOutcome Out;
  runSoak(Mix, Out);
  // The oversubscribed burst hit the admission bound.
  EXPECT_GT(Out.Sum.Shed, 0);
  EXPECT_GT(Out.ServerShed, 0);
  // The repeating corpus kept the shared cache warm.
  EXPECT_GT(Out.CacheHits, 0);
  // The armed injector fired and every fault stayed a classified,
  // request-scoped failure.
  EXPECT_GT(Out.ServerFaultsInjected, 0);
  // Without deadlines nothing is counted as exceeding one.
  EXPECT_EQ(Out.Sum.DeadlineExceeded, 0);
  EXPECT_EQ(Out.ServerDeadlineExceeded, 0);
}

TEST(ServeSoakTest, OneMillisecondDeadlinesAnswerAndCountExactly) {
  SoakMix Mix;
  Mix.Total = soakRequests() / 10;
  Mix.DeadlineMs = 1;
  Mix.WithScenario = true;
  SoakOutcome Out;
  runSoak(Mix, Out);
  EXPECT_GT(Out.Sum.DeadlineExceeded, 0);
  EXPECT_EQ(Out.ServerDeadlineExceeded, Out.Sum.DeadlineExceeded);
}
