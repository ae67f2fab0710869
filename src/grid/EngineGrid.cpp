//===- EngineGrid.cpp -----------------------------------------------------===//

#include "grid/EngineGrid.h"

#include "support/ThreadPool.h"
#include "trace/CycleTrace.h"
#include "trace/MetricsRegistry.h"
#include "trace/Telemetry.h"
#include "trace/TraceEngine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

using namespace npral;

namespace {

/// \p C rounded up to a multiple of \p H.
int64_t boundaryAtOrAfter(int64_t C, int64_t H) { return (C + H - 1) / H * H; }

} // namespace

MicroEngine::MicroEngine(int Id, MultiThreadProgram Program,
                         const SimConfig &Config, int InitialCredits)
    : Id(Id), MTP(std::move(Program)), Sim(MTP, Config),
      Credits(MTP.Threads.size(), InitialCredits),
      Blocked(MTP.Threads.size(), 0) {
  assert(InitialCredits >= 1 && "a thread needs at least one work token");
}

void MicroEngine::attach(Interconnect *F, int Ingress, int Node) {
  Fabric = F;
  IngressNode = Ingress;
  NodeId = Node;
  Sim.setGridPort(this);
}

bool MicroEngine::tryAcquireWork(int Thread, int64_t Cycle) {
  (void)Cycle;
  int &C = Credits[static_cast<size_t>(Thread)];
  if (C > 0) {
    --C;
    return true;
  }
  Blocked[static_cast<size_t>(Thread)] = 1;
  return false;
}

int64_t MicroEngine::onIterationComplete(int Thread, int64_t Cycle) {
  assert(Fabric && "iteration reported without an attached fabric");
  Fabric->send(MsgType::Completion, NodeId, IngressNode, Id, Thread, Cycle);
  // The ingress takes the completion at the first boundary at or after its
  // arrival and answers it there, so the engine stops at that boundary.
  return boundaryAtOrAfter(Cycle + Fabric->latency(NodeId, IngressNode),
                           Fabric->hopLatency());
}

void MicroEngine::deliverWork(int Thread, int64_t ArriveCycle) {
  if (Sim.runEnded())
    return; // the run failed or finished; tokens are moot
  if (Blocked[static_cast<size_t>(Thread)]) {
    Blocked[static_cast<size_t>(Thread)] = 0;
    Sim.grantWork(Thread, ArriveCycle);
    return;
  }
  // A halted thread (equivalence runs halt at target) consumes no further
  // work; return the token to the ingress as backpressure.
  if (Sim.threadHalted(Thread)) {
    Fabric->send(MsgType::Credit, NodeId, IngressNode, Id, Thread,
                 ArriveCycle);
    return;
  }
  ++Credits[static_cast<size_t>(Thread)];
}

int64_t MicroEngine::creditsInHand() const {
  int64_t N = 0;
  for (int C : Credits)
    N += C;
  return N;
}

namespace {

/// One engine's telemetry at one sample boundary.
struct LaneSample {
  int64_t Occupancy = 0;
  int64_t Ready = 0;
  int64_t Credits = 0;
  /// The lane's messages in flight after the boundary's delivery.
  int64_t InFlight = 0;
};

/// One engine's private path to the ingress, and everything its run
/// produces. Lanes share no state, so they run concurrently.
struct Lane {
  explicit Lane(int HopLatency) : Fabric(HopLatency) {}

  Interconnect Fabric;
  /// The engine's thread-state slices and the lane's fabric events.
  CycleTrace Trace;
  GridRunResult::EngineTraffic Traffic;
  /// One row per sample boundary the lane stopped at, in boundary order:
  /// every one up to the engine's end and on while messages drain.
  std::vector<LaneSample> Samples;
  /// The engine's state once its run ended, with nothing in flight: what
  /// the lane reads at every later sample boundary.
  LaneSample Final;
  /// The last boundary at which the engine was still running.
  int64_t LastActive = 0;
  /// Boundaries the lane stopped (and delivered) at.
  int64_t Stops = 0;
};

/// Run engine \p ME on lane \p L. Boundaries are the multiples of the hop
/// latency H; a lane delivers everything due at each boundary it stops at,
/// in (ArriveCycle, Seq) order. The ingress end answers a Completion with
/// a WorkDispatch stamped at the completion's arrival, so the reply lands
/// one round trip after the send.
///
/// From boundary B the engine advances to the earliest of: the first
/// boundary at or after the earliest arrival still in flight; when \p
/// Sampler is set, the next sample boundary; and, for each completion the
/// engine sends on the way, the boundary at which the ingress takes it (the
/// engine's port pulls the running advance's stop there). The lane goes on
/// from the stop the advance actually ran to; going on from the planned one
/// would take the completion that pulled the stop too late. Nothing is due
/// strictly between two stops, so the engine runs exactly as if it had
/// stopped at every boundary. Once the engine's run ends the lane keeps
/// delivering until it is empty, so every message sent is delivered.
void runLane(MicroEngine &ME, Lane &L, const TelemetrySampler *Sampler) {
  TraceSpan Span("grid", "EngineGrid::lane",
                 traceEnabled()
                     ? TraceArgs{{"engine", std::to_string(ME.id())}}
                     : TraceArgs());
  Simulator &Sim = ME.sim();
  const int64_t H = L.Fabric.hopLatency();
  const int EngineNode = ME.id() + 1;
  int64_t NextDue = Sampler ? Sampler->nextDue() : 0;
  auto sampleNow = [&] {
    LaneSample S;
    S.Occupancy = Sim.liveThreadCount();
    S.Ready = Sim.readyThreadCount();
    S.Credits = ME.creditsInHand();
    S.InFlight = L.Fabric.inFlightCount();
    return S;
  };
  for (int64_t B = 0;;) {
    ++L.Stops;
    for (const Message &M : L.Fabric.deliverUpTo(B)) {
      if (M.DstNode == 0) {
        ++L.Traffic.MessagesSent;
        if (M.Type == MsgType::Completion)
          L.Fabric.send(MsgType::WorkDispatch, /*SrcNode=*/0, EngineNode,
                        M.Engine, M.Thread, M.ArriveCycle);
        else
          ++L.Traffic.CreditsReturned;
        continue;
      }
      ++L.Traffic.MessagesReceived;
      ME.deliverWork(M.Thread, M.ArriveCycle);
    }
    if (Sampler && B >= NextDue) {
      L.Samples.push_back(sampleNow());
      NextDue = TelemetrySampler::nextDueAfter(NextDue, Sampler->period(), B);
    }
    const int64_t Arrival = L.Fabric.nextArrival();
    int64_t Stop = Sampler ? boundaryAtOrAfter(NextDue, H)
                           : std::numeric_limits<int64_t>::max();
    if (Arrival >= 0)
      Stop = std::min(Stop, boundaryAtOrAfter(Arrival, H));
    if (!Sim.runEnded()) {
      L.LastActive = B;
      Sim.advanceUntil(Stop);
      Stop = Sim.stopCycle();
    }
    if (Sim.runEnded() && L.Fabric.nextArrival() < 0)
      break;
    B = Stop;
  }
  L.Final = sampleNow();
  if (traceEnabled())
    Span.setEndArgs({{"cycles", std::to_string(Sim.currentCycle())}});
}

} // namespace

EngineGrid::EngineGrid(int HopLatency, int InitialCredits)
    : HopLatency(HopLatency), InitialCredits(InitialCredits) {
  assert(HopLatency >= 1 && "hop latency must be at least one cycle");
}

void EngineGrid::setTelemetry(CycleTrace *T, TelemetrySampler *S) {
  Trace = T;
  Sampler = S;
}

MicroEngine &EngineGrid::addEngine(MultiThreadProgram Program,
                                   const SimConfig &Config) {
  Engines.push_back(std::make_unique<MicroEngine>(
      static_cast<int>(Engines.size()), std::move(Program), Config,
      InitialCredits));
  return *Engines.back();
}

GridRunResult EngineGrid::run() {
  NPRAL_TRACE_SPAN_ARGS("grid", "EngineGrid::run",
                        {"engines", std::to_string(Engines.size())},
                        {"hop_latency", std::to_string(HopLatency)});
  assert(!Engines.empty() && "grid needs at least one engine");
  GridRunResult Result;
  MetricsRegistry &MR = MetricsRegistry::global();

  if (Engines.size() == 1) {
    // No fabric to cross: the run is the plain Simulator::run() sequence
    // and must stay cycle-identical to it. Without boundaries the engine's
    // own scheduler drives any sampler.
    Simulator &Sim = Engines[0]->sim();
    Sim.setCycleTrace(Trace, /*Pid=*/1);
    if (Sampler)
      Sim.setSampler(Sampler, "grid.engine0.");
    Sim.beginRun();
    Sim.advanceUntil(std::numeric_limits<int64_t>::max());
    Result.Engines.push_back(Sim.takeResult());
    if (Sampler)
      Sim.setSampler(nullptr, "sim.");
  } else {
    const int N = static_cast<int>(Engines.size());
    std::vector<Lane> Lanes;
    Lanes.reserve(Engines.size());
    for (int E = 0; E < N; ++E) {
      Lanes.emplace_back(HopLatency);
      Lane &L = Lanes.back();
      MicroEngine &ME = *Engines[static_cast<size_t>(E)];
      L.Fabric.setCycleTrace(Trace ? &L.Trace : nullptr);
      ME.sim().setCycleTrace(Trace ? &L.Trace : nullptr, /*Pid=*/E + 1);
      ME.attach(&L.Fabric, /*IngressNode=*/0, /*NodeId=*/E + 1);
      ME.sim().beginRun();
    }
    {
      // Run-local: ThreadPool::wait() waits for every task of the pool, so
      // a pool shared with the caller could deadlock a grid run nested in
      // one of its tasks.
      ThreadPool Pool(std::min(ThreadPool::hardwareConcurrency(), N));
      parallelFor(Pool, N, [&](int E) {
        runLane(*Engines[static_cast<size_t>(E)],
                Lanes[static_cast<size_t>(E)], Sampler);
      });
    }

    int64_t LastBoundary = 0, Stops = 0;
    uint64_t FlowIdBase = 0;
    for (int E = 0; E < N; ++E) {
      Lane &L = Lanes[static_cast<size_t>(E)];
      Result.Engines.push_back(
          Engines[static_cast<size_t>(E)]->sim().takeResult());
      Result.Traffic.push_back(L.Traffic);
      Result.MessagesSent += L.Fabric.messagesSent();
      Result.MessagesDelivered += L.Fabric.messagesDelivered();
      Result.CreditsReturned += L.Traffic.CreditsReturned;
      if (Trace) {
        Trace->append(std::move(L.Trace), FlowIdBase);
        FlowIdBase += static_cast<uint64_t>(L.Fabric.messagesSent());
      }
      LastBoundary = std::max(LastBoundary, L.LastActive);
      Stops += L.Stops;
    }
    MR.counter("grid.lane_stops").add(Stops);

    // Replay the sample rows in boundary order, up to the last boundary a
    // global per-boundary loop would visit: the last one at which any
    // engine was still running. Each lane stopped at every sample boundary
    // until it ended and drained; past its rows it reads its final state.
    for (size_t Row = 0; Sampler; ++Row) {
      const int64_t B = boundaryAtOrAfter(Sampler->nextDue(), HopLatency);
      if (B > LastBoundary)
        break;
      Sampler->beginSample(Sampler->nextDue());
      int64_t InFlight = 0;
      for (int E = 0; E < N; ++E) {
        const Lane &L = Lanes[static_cast<size_t>(E)];
        const LaneSample &S =
            Row < L.Samples.size() ? L.Samples[Row] : L.Final;
        const std::string P = "grid.engine" + std::to_string(E) + ".";
        Sampler->value(E + 1, P + "occupancy", S.Occupancy);
        Sampler->value(E + 1, P + "ready", S.Ready);
        Sampler->value(E + 1, P + "credits", S.Credits);
        InFlight += S.InFlight;
      }
      Sampler->value(/*Pid=*/0, "fabric.in_flight", InFlight);
      Sampler->endSample(B);
    }
  }

  Result.Completed = true;
  for (size_t E = 0; E < Result.Engines.size(); ++E) {
    const SimResult &R = Result.Engines[E];
    if (!R.Completed && Result.Completed) {
      Result.Completed = false;
      Result.FailReason =
          "engine " + std::to_string(E) + ": " + R.FailReason;
    }
    if (R.TotalCycles > Result.MaxEngineCycles)
      Result.MaxEngineCycles = R.TotalCycles;
  }

  int64_t MemPages = 0;
  for (const std::unique_ptr<MicroEngine> &ME : Engines)
    MemPages += ME->sim().memoryPages();
  MR.counter("grid.mem_pages").add(MemPages);
  MR.counter("grid.runs").add(1);
  MR.counter("grid.messages_sent").add(Result.MessagesSent);
  MR.counter("grid.messages_delivered").add(Result.MessagesDelivered);
  MR.counter("grid.credits_returned").add(Result.CreditsReturned);
  for (size_t E = 0; E < Result.Traffic.size(); ++E) {
    const GridRunResult::EngineTraffic &ET = Result.Traffic[E];
    const std::string Prefix = "grid.engine" + std::to_string(E) + ".";
    MR.counter(Prefix + "messages_sent").add(ET.MessagesSent);
    MR.counter(Prefix + "messages_received").add(ET.MessagesReceived);
    if (ET.CreditsReturned > 0)
      MR.counter(Prefix + "credits_returned").add(ET.CreditsReturned);
  }
  return Result;
}
