//===- Serve.cpp - serve_mixed --------------------------------------------===//
//
// An in-process npral-serve daemon (2 workers, a small byte-budgeted
// analysis cache) driven by 2 closed-loop ServeClient connections: 4
// threads in all. The only workload that reaches `asmparse` text, the
// protocol, the socket and the admission queue, and the only one where the
// shared AnalysisCache serves hits beside inserts and evictions.
//
// The traffic is whole decks of 400 requests, each seed-shuffled, taken in
// order by whichever client is free. The class mix is the one the serve
// soak test drives, 16:1:1:1:1 valid / infeasible / malformed / health /
// metrics:
//   * 320 valid allocations, of which
//       268 hot examples/asm kernels (heavy reuse: cache hits),
//        40 cache-cold variants (a kernel with renamed threads; 80
//           distinct variants, so each is evicted before it comes round
//           again),
//        12 printed Table-3 scenario programs (4 each of s1/s2/s3);
//     this split within the valid share is the benchmark's own choice,
//     not a recorded one (see NOTES.md);
//   *  20 infeasible-budget requests (Nreg 4 for a four-thread kernel);
//   *  20 malformed programs (unknown opcode);
//   *  20 health probes and 20 metrics scrapes.
// Generated programs are not sent: they do not survive print -> parse
// (see NOTES.md), so only texts set-up has checked are used.
//
// Every response is checked: an ok body must be byte-identical to
// runSingleJob's output for the same text computed at set-up; infeasible
// and malformed requests must come back with their classified error code.
// Transport errors and sheds count as failures.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "asmparse/AsmParser.h"
#include "driver/AnalysisCache.h"
#include "driver/BatchPipeline.h"
#include "ir/IRPrinter.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "workloads/Harness.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

using namespace npral;
using namespace npralbench;

namespace {

constexpr int Workers = 2;
constexpr int Clients = 2;
/// Measured at the cache's entry cost, the hot kernels take 70 KB and the
/// three scenario programs 246 KB more (s1 and s2 share their md5
/// threads); the 80 cold variants, ~5 KB each, would take 401 KB more.
/// 512 KB keeps the first 316 KB and room for ~39 variants, so each
/// variant is evicted before it comes round again: it misses and evicts
/// while the rest keeps hitting.
constexpr int64_t CacheBytes = 512 << 10;
/// Requests per deck; the traffic is whole decks of this exact mix.
constexpr size_t DeckSize = 400;

/// One distinct request with its expected response.
struct Item {
  enum KindTy { Alloc, Health, Metrics } Kind = Alloc;
  std::string Label;
  AllocRequest Req;
  bool ExpectOk = false;
  /// Ok allocation: the physical assembly; error: the status code name;
  /// probe: the start of the body.
  std::string Expect;
};

/// The request options the daemon turns into BatchOptions (mirrors
/// Server::processRequest with verification on and no deadline).
BatchOptions serverOptions(const AllocRequest &Req) {
  BatchOptions BO;
  BO.Nreg = Req.Nreg;
  BO.Verify = true;
  BO.Validate = Req.Validate;
  BO.KeepPhysical = true;
  BO.AllowSpill = Req.AllowSpill;
  BO.MaxSpills = Req.MaxSpills;
  return BO;
}

/// The response body the daemon composes for a job: every physical thread
/// printed, one blank line after each.
std::string responseBody(const BatchJobResult &R) {
  std::string Body;
  for (const Program &T : R.Physical.Threads) {
    Body += programToString(T);
    Body += "\n";
  }
  return Body;
}

/// Run \p Req in-process and fill the item's expectation.
Item expectFor(std::string Label, AllocRequest Req, AnalysisCache *Cache) {
  Item I;
  I.Label = std::move(Label);
  I.Req = std::move(Req);
  BatchJob Job;
  Job.Name = I.Label;
  Job.Text = I.Req.Assembly;
  BatchJobResult R = runSingleJob(Job, serverOptions(I.Req), Cache);
  I.ExpectOk = R.Success;
  I.Expect = R.Success ? responseBody(R) : statusCodeName(R.FailCode);
  return I;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// \p Text with every `.thread NAME` renamed to `NAME_v<K>`: new cache keys,
/// same work.
std::string variantOf(const std::string &Text, int K) {
  std::string Out;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind(".thread ", 0) == 0)
      Line += "_v" + std::to_string(K);
    Out += Line;
    Out += "\n";
  }
  return Out;
}

struct Traffic {
  std::vector<Item> Items;
  /// Indices into Items, in sending order.
  std::vector<size_t> Deck;
};

Traffic makeTraffic(uint64_t Seed) {
  Traffic T;
  auto add = [&T](Item I) {
    T.Items.push_back(std::move(I));
    return T.Items.size() - 1;
  };

  // Hot kernels: every examples/asm file that allocates at Nreg 128.
  std::vector<std::string> Paths;
  for (const auto &E : std::filesystem::directory_iterator("examples/asm"))
    if (E.path().extension() == ".s")
      Paths.push_back(E.path().string());
  std::sort(Paths.begin(), Paths.end());
  std::vector<size_t> Hot;
  std::vector<std::string> HotTexts;
  for (const std::string &P : Paths) {
    AllocRequest Req;
    Req.Assembly = readFile(P);
    Item I = expectFor(P, Req, nullptr);
    if (!I.ExpectOk)
      continue;
    HotTexts.push_back(Req.Assembly);
    Hot.push_back(add(std::move(I)));
  }
  if (Hot.size() < 4)
    throw std::runtime_error("serve_mixed: too few allocatable examples/asm "
                             "kernels");

  std::vector<size_t> Cold;
  for (int K = 0; K < 80; ++K) {
    AllocRequest Req;
    Req.Assembly = variantOf(HotTexts[static_cast<size_t>(K) % HotTexts.size()], K);
    Item I = expectFor("variant" + std::to_string(K), Req, nullptr);
    if (!I.ExpectOk)
      throw std::runtime_error("serve_mixed: variant " + I.Label + " fails");
    Cold.push_back(add(std::move(I)));
  }

  std::vector<size_t> Scenarios;
  for (const Scenario &S : getAraScenarios()) {
    MultiThreadProgram MTP =
        toMultiThreadProgram(buildScenarioWorkloads(S), S.Name);
    AllocRequest Req;
    for (const Program &P : MTP.Threads)
      Req.Assembly += programToString(P) + "\n";
    Item I = expectFor(S.Name, Req, nullptr);
    if (!I.ExpectOk)
      throw std::runtime_error("serve_mixed: scenario " + S.Name + " fails");
    Scenarios.push_back(add(std::move(I)));
  }

  AllocRequest Tight;
  Tight.Assembly = readFile("examples/asm/quad_counters.s");
  Tight.Nreg = 4;
  Item Infeasible = expectFor("infeasible", Tight, nullptr);
  if (Infeasible.Expect != statusCodeName(StatusCode::Infeasible))
    throw std::runtime_error("serve_mixed: tight budget gave " +
                             Infeasible.Expect);
  const size_t InfeasibleIdx = add(std::move(Infeasible));

  AllocRequest Bad;
  Bad.Assembly = ".thread broken\nmain:\n    frobnicate r1, r2\n    halt\n";
  Item Malformed = expectFor("malformed", Bad, nullptr);
  if (Malformed.ExpectOk)
    throw std::runtime_error("serve_mixed: malformed text parsed");
  const size_t MalformedIdx = add(std::move(Malformed));

  Item Probe;
  Probe.Kind = Item::Health;
  Probe.Label = "health";
  Probe.ExpectOk = true;
  Probe.Expect = "state=serving\n";
  const size_t HealthIdx = add(Probe);
  Probe.Kind = Item::Metrics;
  Probe.Label = "metrics";
  Probe.Expect = "{";
  const size_t MetricsIdx = add(std::move(Probe));

  // One deck: the class counts are exact, the order comes from the seed.
  // Cold variants advance through their pool deck by deck.
  constexpr int Decks = 2; // 2 x 40 cold slots cover the 80 variants
  for (int D = 0; D < Decks; ++D) {
    std::vector<size_t> Deck;
    for (int K = 0; K < 268; ++K)
      Deck.push_back(Hot[static_cast<size_t>(K) % Hot.size()]);
    for (int K = 0; K < 40; ++K)
      Deck.push_back(Cold[static_cast<size_t>(D * 40 + K)]);
    for (int K = 0; K < 12; ++K)
      Deck.push_back(Scenarios[static_cast<size_t>(K) % Scenarios.size()]);
    for (size_t Idx : {InfeasibleIdx, MalformedIdx, HealthIdx, MetricsIdx})
      Deck.insert(Deck.end(), 20, Idx);
    if (Deck.size() != DeckSize)
      throw std::logic_error("serve_mixed: deck size");
    for (size_t K : shuffledIndices(DeckSize, Seed * 16 + static_cast<uint64_t>(D)))
      T.Deck.push_back(Deck[K]);
  }
  return T;
}

bool matches(const Item &I, const ServeResponse &Resp) {
  if (I.Kind != Item::Alloc)
    return Resp.Ok && Resp.Body.rfind(I.Expect, 0) == 0;
  return I.ExpectOk ? Resp.Ok && Resp.Body == I.Expect
                    : !Resp.Ok && Resp.Code == I.Expect;
}

ErrorOr<ServeResponse> send(ServeClient &Client, const Item &I) {
  switch (I.Kind) {
  case Item::Health:
    return Client.health();
  case Item::Metrics:
    return Client.metrics();
  case Item::Alloc:
    break;
  }
  return Client.alloc(I.Req);
}

/// Per-client outcome of one phase.
struct ClientLog {
  /// Every request: its deck position, completion time and round trip.
  struct Completion {
    size_t K;
    int64_t AtNs;
    double Ms;
  };
  std::vector<Completion> Done;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<std::string> Failures;
  SpanLog Spans;
  /// [From, To) span ranges, one per traced request.
  std::vector<std::pair<size_t, size_t>> Requests;
};

/// The traced replay of one request: codec, text parse and the service
/// call as separate calls, after the round trip. Returns whether the
/// replayed response equals the one the daemon sent.
bool traceRequest(const Item &I, const ServeResponse &Resp, SpanLog &L,
                  int64_t Job, AnalysisCache &Cache) {
  {
    ScopedSpan S(L, "serve.codec", Job, -1);
    const std::string Payload = encodeAllocRequest(I.Req);
    (void)parseAllocRequest(Payload);
    const uint16_t Type = static_cast<uint16_t>(
        Resp.Ok ? protocol::FrameType::Ok : protocol::FrameType::Error);
    (void)parseResponse(Type, encodeResponse(Resp));
  }
  {
    ScopedSpan S(L, "asmparse.parse", Job, -1);
    (void)parseAssembly(I.Req.Assembly);
  }
  BatchJob In;
  In.Name = I.Label;
  In.Text = I.Req.Assembly;
  BatchJobResult R;
  {
    ScopedSpan S(L, "serve.service", Job, -1);
    R = runSingleJob(In, serverOptions(I.Req), &Cache, I.Req.ProfileHash);
  }
  return R.Success ? Resp.Ok && Resp.Body == responseBody(R)
                   : !Resp.Ok && Resp.Code == statusCodeName(R.FailCode);
}

/// Drive the daemon from \p Clients closed-loop connections until
/// \p Seconds pass. With \p Replay set, every request is also replayed
/// in-process under spans.
std::vector<std::unique_ptr<ClientLog>>
drive(const std::string &Socket, const Traffic &T, double Seconds,
      AnalysisCache *Replay, size_t &Cursor0) {
  std::vector<std::unique_ptr<ClientLog>> Logs;
  for (int C = 0; C < Clients; ++C)
    Logs.push_back(std::make_unique<ClientLog>());
  const int64_t Deadline = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  std::atomic<size_t> Cursor{Cursor0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      ClientLog &Log = *Logs[static_cast<size_t>(C)];
      ErrorOr<ServeClient> Client = ServeClient::connectTo(Socket);
      if (!Client.ok()) {
        ++Log.Attempted;
        ++Log.Failed;
        Log.Failures.push_back("connect: " + Client.status().str());
        return;
      }
      while (nowNs() < Deadline) {
        const size_t K = Cursor.fetch_add(1);
        const Item &I = T.Items[T.Deck[K % T.Deck.size()]];
        const size_t From = Log.Spans.size();
        const int64_t T0 = nowNs();
        ErrorOr<ServeResponse> Resp = send(*Client, I);
        const int64_t T1 = nowNs();
        Log.Done.push_back({K, T1, nsToMs(T1 - T0)});
        ++Log.Attempted;
        bool Ok = Resp.ok() && matches(I, *Resp);
        // Probes have no layer calls to replay.
        if (Ok && Replay && I.Kind == Item::Alloc) {
          Log.Spans.add("serve.roundtrip", T0, T1, static_cast<int64_t>(K));
          Ok = traceRequest(I, *Resp, Log.Spans, static_cast<int64_t>(K),
                            *Replay);
          Log.Requests.emplace_back(From, Log.Spans.size());
        }
        if (!Ok) {
          ++Log.Failed;
          if (Log.Failures.size() < 5)
            Log.Failures.push_back(
                I.Label + ": " +
                (Resp.ok() ? (Resp->Ok ? "body differs"
                                       : Resp->Code + " " + Resp->Message)
                           : "transport " + Resp.status().str()));
        }
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  Cursor0 = Cursor.load();
  return Logs;
}

/// Fold the clients' counts into \p R; returns their round-trip times.
Samples fold(RunResult &R,
             const std::vector<std::unique_ptr<ClientLog>> &Logs) {
  Samples Rtt;
  for (const auto &L : Logs) {
    R.Attempted += L->Attempted;
    R.Failed += L->Failed;
    for (const std::string &F : L->Failures)
      R.note("FAILED: " + F);
    if (L->Failed > 0)
      R.Correct = false;
    for (const ClientLog::Completion &D : L->Done)
      Rtt.add(D.Ms);
  }
  return Rtt;
}

} // namespace

void npralbench::runServeMixed(const RunConfig &Cfg, RunResult &R) {
  const std::string Socket =
      Cfg.WorkDir + "/serve-" + std::to_string(getpid()) + ".sock";
  Traffic T, SpareT;
  std::unique_ptr<Server> Daemon, Spare;
  // Set-up computes every expected response and starts a daemon. The first
  // one is the daemon the run drives; every later set-up starts a spare
  // daemon on its own socket, stopped (untimed) right after, so the driven
  // daemon and its cache are left as they are.
  SetupTimer Setups([&] {
    const bool First = !Daemon;
    std::unique_ptr<Server> &D = First ? Daemon : Spare;
    (First ? T : SpareT) = makeTraffic(Cfg.Seed);
    ServeOptions Opts;
    Opts.SocketPath = First ? Socket : Socket + ".spare";
    Opts.Workers = Workers;
    Opts.CacheBytes = CacheBytes;
    D = std::make_unique<Server>(Opts);
    if (Status S = D->start(); !S.ok())
      throw std::runtime_error("serve_mixed: cannot start daemon: " + S.str());
  });
  for (int I = 0; I < SetupTimer::Upfront; ++I) {
    Setups.time();
    Spare.reset();
  }

  size_t Cursor = 0;
  if (!Cfg.Trace) {
    // Driven in segments of SetupEverySeconds with one more set-up between
    // them; a deck that spans a gap counts the gap in its wall, so it is
    // never among the fastest.
    const int64_t T0 = nowNs();
    std::vector<std::unique_ptr<ClientLog>> Logs;
    for (double Left = Cfg.Seconds; Left > 0;
         Left = Cfg.Seconds - static_cast<double>(nowNs() - T0) / 1e9) {
      auto Segment = drive(Socket, T, std::min(Left, SetupTimer::SetupEverySeconds),
                           nullptr, Cursor);
      fold(R, Segment);
      std::move(Segment.begin(), Segment.end(), std::back_inserter(Logs));
      if (Setups.due())
        Spare.reset();
    }
    Daemon.reset();
    Setups.report(R);
    // A pass is one deck of DeckSize requests: the same mix every time.
    // It ends when its last request completes.
    std::vector<Pass> Decks(Cursor / DeckSize);
    std::vector<int64_t> EndNs(Decks.size(), T0);
    for (const auto &L : Logs)
      for (const ClientLog::Completion &D : L->Done)
        if (D.K / DeckSize < Decks.size()) {
          Decks[D.K / DeckSize].JobMs.add(D.Ms);
          EndNs[D.K / DeckSize] = std::max(EndNs[D.K / DeckSize], D.AtNs);
        }
    int64_t Prev = T0;
    for (size_t D = 0; D < Decks.size(); ++D) {
      Decks[D].WallMs = nsToMs(EndNs[D] - Prev);
      Prev = EndNs[D];
    }
    reportEndToEnd(R, std::move(Decks), 99);
    R.note("serve_mixed: closed loop, 2 clients, 2 workers; a job is one "
           "request round trip; a pass is one deck of " +
           std::to_string(DeckSize) + " requests");
    return;
  }

  // An untraced third of the run, then the traced rest: the ratio of their
  // median round trips is the tracing overhead.
  const Samples PlainRtt =
      fold(R, drive(Socket, T, Cfg.Seconds / 3, nullptr, Cursor));
  const ServeStats &S = Daemon->stats();
  const int64_t Requests0 = S.Requests.load(), Shed0 = S.Shed.load();
  const int64_t Hits0 = S.CacheHits.load(), Misses0 = S.CacheMisses.load();
  const int64_t Evictions0 = Daemon->cache().evictions();
  AnalysisCache ReplayCache(CacheBytes);
  auto Logs = drive(Socket, T, Cfg.Seconds * 2 / 3, &ReplayCache, Cursor);
  const Samples TracedRtt = fold(R, Logs);
  const double Requests = static_cast<double>(S.Requests.load() - Requests0);
  const double Hits = static_cast<double>(S.CacheHits.load() - Hits0);
  const double Lookups = Hits + static_cast<double>(S.CacheMisses.load() - Misses0);
  const double Evictions =
      static_cast<double>(Daemon->cache().evictions() - Evictions0);
  R.metric("serve.shed_ratio",
           Requests > 0 ? static_cast<double>(S.Shed.load() - Shed0) / Requests
                        : 0.0,
           "ratio");
  R.metric("driver.cache_hit_ratio", Lookups > 0 ? Hits / Lookups : 0.0,
           "ratio");
  R.metric("driver.cache_evictions",
           Requests > 0 ? Evictions * 1000.0 / Requests : 0.0, "1/kreq");
  Daemon.reset();

  // transport = round trip - service - codec: socket I/O and queue wait.
  LayerTable Layers;
  std::vector<const SpanLog *> SpanLogs;
  for (const auto &L : Logs) {
    SpanLogs.push_back(&L->Spans);
    for (const auto &[From, To] : L->Requests) {
      Layers.addJob(L->Spans, From, To);
      int64_t Transport = 0;
      for (size_t I = From; I < To; ++I) {
        const Span &Sp = L->Spans.spans()[I];
        const std::string Name = Sp.Name;
        const int64_t Ns = Sp.EndNs - Sp.StartNs;
        if (Name == "serve.roundtrip")
          Transport += Ns;
        else if (Name == "serve.codec" || Name == "serve.service")
          Transport -= Ns;
      }
      Layers.addSample("serve.transport", nsToMs(Transport));
    }
  }
  Setups.report(R);
  Layers.report(R, {"asmparse.parse", "serve.codec", "serve.service",
                    "serve.transport"});
  const double Plain50 = PlainRtt.percentile(50);
  R.metric("trace.overhead_ratio",
           Plain50 > 0 ? TracedRtt.percentile(50) / Plain50 - 1.0 : 0.0,
           "ratio");
  R.metric("trace.jobs", static_cast<double>(TracedRtt.size()), "count");
  writeSpans(Cfg.SpansPath, SpanLogs);
}
