//===- GridTest.cpp - Multi-engine grid simulation ------------------------===//
//
// The grid's contracts: a single-engine grid is the plain simulator (cycle
// identical, zero interconnect traffic); allocating once per distinct bin
// gives every engine exactly what allocating it on its own would, with the
// traits step's analyses serving the allocation jobs; engines on their own
// lanes run exactly as the global lockstep loop they replaced, telemetry
// included; multi-engine runs are deterministic; a credit window tighter
// than the interconnect round trip surfaces as InterconnectStall cycles
// that keep the seven-bucket identity intact; and dispatches racing a
// thread's halt bounce back as credits instead of leaking.
//
//===----------------------------------------------------------------------===//

#include "grid/GridHarness.h"

#include "analysis/LiveRangeRenaming.h"
#include "driver/AnalysisCache.h"
#include "driver/BatchPipeline.h"
#include "harden/SpillFallback.h"
#include "support/Status.h"
#include "support/ThreadPool.h"
#include "trace/CycleTrace.h"
#include "trace/Telemetry.h"
#include "workloads/Harness.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

using namespace npral;

namespace {

GridOptions fastOptions() {
  GridOptions Opts;
  Opts.Sim = defaultExperimentConfig();
  Opts.Sim.TargetIterations = 10;
  return Opts;
}

void expectBucketsAccount(const GridReport &Report) {
  for (const GridEngineReport &ER : Report.Engines)
    for (const ThreadStats &TS : ER.Result.Threads)
      EXPECT_EQ(TS.accountedCycles(), ER.Result.TotalCycles);
}

/// \p Pool placed under \p Opts, traits computed once per distinct kernel
/// in first-appearance order (as runKernelPoolGrid does).
PlacementResult placePool(const std::vector<std::string> &Pool,
                          const GridOptions &Opts) {
  PlacementInput In;
  In.NumEngines = Opts.NumEngines;
  In.ThreadsPerEngine = 4;
  In.EngineRegs = Opts.Nreg;
  for (const std::string &Kernel : Pool) {
    int TraitIdx = -1;
    for (size_t T = 0; T < In.Traits.size(); ++T)
      if (In.Traits[T].Name == Kernel)
        TraitIdx = static_cast<int>(T);
    if (TraitIdx < 0) {
      In.Traits.push_back(computeKernelTraits(Kernel));
      TraitIdx = static_cast<int>(In.Traits.size()) - 1;
    }
    In.Pool.push_back(TraitIdx);
  }
  return placeThreads(In, Opts.Policy);
}

/// The reference grid: runKernelPoolGrid as it was before allocation went
/// through the job path, renaming and allocating every engine's bin on its
/// own (spill fallback engaged, no shared analyses), then simulating.
/// Failures read "engine <E> allocation failed: <reason>".
GridReport allocateEachEngine(const std::string &Name,
                              const std::vector<std::string> &Pool,
                              const GridOptions &Opts) {
  GridReport Report;
  Report.Name = Name;
  Report.NumEngines = Opts.NumEngines;
  Report.Placement = placePool(Pool, Opts);

  EngineGrid Grid(Opts.HopLatency, Opts.InitialCredits);
  for (int E = 0; E < Opts.NumEngines; ++E) {
    GridEngineReport ER;
    std::vector<Workload> Workloads;
    int Slot = 0;
    for (int PoolIdx : Report.Placement.Bins[static_cast<size_t>(E)]) {
      ER.Kernels.push_back(Pool[static_cast<size_t>(PoolIdx)]);
      Workloads.push_back(buildWorkload(ER.Kernels.back(), Slot++).take());
    }
    MultiThreadProgram MTP =
        toMultiThreadProgram(Workloads, Name + "_e" + std::to_string(E));
    for (Program &T : MTP.Threads)
      T = renameLiveRanges(T);
    SpillFallbackResult SF = allocateWithSpillFallback(
        MTP, Opts.Nreg, {}, {}, /*Log=*/nullptr, InterAllocLimits());
    if (!SF.Inter.Success) {
      Report.FailReason = "engine " + std::to_string(E) +
                          " allocation failed: " + SF.Inter.FailReason;
      return Report;
    }
    ER.RegistersUsed = SF.Inter.RegistersUsed;
    ER.Spilled = SF.UsedSpilling;
    ER.SpilledRanges = SF.SpilledRanges;
    Report.Engines.push_back(std::move(ER));
    MicroEngine &ME = Grid.addEngine(std::move(SF.Inter.Physical), Opts.Sim);
    for (size_t T = 0; T < Workloads.size(); ++T) {
      for (const Workload::MemRegion &Region : Workloads[T].InitMemory)
        ME.sim().writeMemory(Region.Base, Region.Words);
      ME.sim().setEntryValues(static_cast<int>(T), Workloads[T].EntryValues);
    }
  }
  GridRunResult Run = Grid.run();
  for (size_t E = 0; E < Report.Engines.size(); ++E) {
    GridEngineReport &ER = Report.Engines[E];
    ER.Result = std::move(Run.Engines[E]);
    for (const ThreadStats &TS : ER.Result.Threads)
      ER.Iterations += TS.Iterations;
  }
  Report.Success = Run.Completed;
  return Report;
}

/// One engine's simulation input: its physical program and the workloads
/// that seed its memory and entry values.
struct EngineInput {
  MultiThreadProgram Physical;
  std::vector<Workload> Workloads;
};

/// Every engine's input for \p Pool placed under \p Opts: each distinct
/// bin renamed and allocated once (spill fallback engaged), then copied to
/// every engine holding it. Empty when a bin does not allocate.
std::vector<EngineInput> allocateEngines(const std::vector<std::string> &Pool,
                                         const GridOptions &Opts) {
  const PlacementResult Placement = placePool(Pool, Opts);
  std::map<std::vector<std::string>, EngineInput> Bins;
  std::vector<EngineInput> Inputs;
  for (const std::vector<int> &Bin : Placement.Bins) {
    std::vector<std::string> Kernels;
    for (int PoolIdx : Bin)
      Kernels.push_back(Pool[static_cast<size_t>(PoolIdx)]);
    auto [It, Fresh] = Bins.try_emplace(Kernels);
    if (Fresh) {
      for (size_t Slot = 0; Slot < Kernels.size(); ++Slot)
        It->second.Workloads.push_back(
            buildWorkload(Kernels[Slot], static_cast<int>(Slot)).take());
      MultiThreadProgram MTP = toMultiThreadProgram(It->second.Workloads, "bin");
      for (Program &T : MTP.Threads)
        T = renameLiveRanges(T);
      SpillFallbackResult SF = allocateWithSpillFallback(
          MTP, Opts.Nreg, {}, {}, /*Log=*/nullptr, InterAllocLimits());
      if (!SF.Inter.Success)
        return {};
      It->second.Physical = std::move(SF.Inter.Physical);
    }
    Inputs.push_back(It->second);
  }
  return Inputs;
}

void loadEngine(MicroEngine &ME, const EngineInput &In) {
  for (size_t T = 0; T < In.Workloads.size(); ++T) {
    for (const Workload::MemRegion &Region : In.Workloads[T].InitMemory)
      ME.sim().writeMemory(Region.Base, Region.Words);
    ME.sim().setEntryValues(static_cast<int>(T), In.Workloads[T].EntryValues);
  }
}

/// The engines of \p Inputs on their lanes: EngineGrid::run().
GridRunResult runOnLanes(const std::vector<EngineInput> &Inputs,
                         int HopLatency, int InitialCredits,
                         const SimConfig &Sim, CycleTrace *Trace = nullptr,
                         TelemetrySampler *Sampler = nullptr) {
  EngineGrid Grid(HopLatency, InitialCredits);
  for (const EngineInput &In : Inputs)
    loadEngine(Grid.addEngine(In.Physical, Sim), In);
  Grid.setTelemetry(Trace, Sampler);
  return Grid.run();
}

/// The reference: the global lockstep loop EngineGrid ran before its
/// engines got lanes, rebuilt from public pieces. One Interconnect carries
/// every engine's traffic; at every multiple of the hop latency all due
/// messages are delivered in (ArriveCycle, Seq) order, a sample is taken
/// when due, and every engine is stepped one slice, in index order, until
/// none is active; then the fabric drains at its arrival cycles.
GridRunResult lockstepReference(const std::vector<EngineInput> &Inputs,
                                int HopLatency, int InitialCredits,
                                const SimConfig &Sim,
                                CycleTrace *Trace = nullptr,
                                TelemetrySampler *Sampler = nullptr) {
  Interconnect Fabric(HopLatency);
  Fabric.setCycleTrace(Trace);
  std::vector<std::unique_ptr<MicroEngine>> Engines;
  for (size_t E = 0; E < Inputs.size(); ++E) {
    Engines.push_back(std::make_unique<MicroEngine>(
        static_cast<int>(E), Inputs[E].Physical, Sim, InitialCredits));
    MicroEngine &ME = *Engines.back();
    loadEngine(ME, Inputs[E]);
    ME.sim().setCycleTrace(Trace, static_cast<int64_t>(E) + 1);
    ME.attach(&Fabric, /*IngressNode=*/0, /*NodeId=*/static_cast<int>(E) + 1);
    ME.sim().beginRun();
  }
  GridRunResult Result;
  Result.Traffic.resize(Engines.size());
  auto DeliverBoundary = [&](int64_t At) {
    for (const Message &M : Fabric.deliverUpTo(At)) {
      GridRunResult::EngineTraffic &ET =
          Result.Traffic[static_cast<size_t>(M.Engine)];
      if (M.DstNode == 0) {
        ++ET.MessagesSent;
        if (M.Type == MsgType::Completion) {
          Fabric.send(MsgType::WorkDispatch, /*SrcNode=*/0,
                      /*DstNode=*/M.Engine + 1, M.Engine, M.Thread,
                      M.ArriveCycle);
        } else {
          ++Result.CreditsReturned;
          ++ET.CreditsReturned;
        }
        continue;
      }
      ++ET.MessagesReceived;
      Engines[static_cast<size_t>(M.Engine)]->deliverWork(M.Thread,
                                                          M.ArriveCycle);
    }
  };
  for (int64_t Now = 0;; Now += HopLatency) {
    DeliverBoundary(Now);
    if (Sampler && Sampler->due(Now)) {
      Sampler->beginSample(Sampler->nextDue());
      for (size_t E = 0; E < Engines.size(); ++E) {
        const std::string P = "grid.engine" + std::to_string(E) + ".";
        const Simulator &S = Engines[E]->sim();
        const int64_t Pid = static_cast<int64_t>(E) + 1;
        Sampler->value(Pid, P + "occupancy", S.liveThreadCount());
        Sampler->value(Pid, P + "ready", S.readyThreadCount());
        Sampler->value(Pid, P + "credits", Engines[E]->creditsInHand());
      }
      Sampler->value(/*Pid=*/0, "fabric.in_flight", Fabric.inFlightCount());
      Sampler->endSample(Now);
    }
    bool AnyActive = false;
    for (std::unique_ptr<MicroEngine> &ME : Engines)
      if (!ME->sim().runEnded())
        AnyActive |= ME->sim().advanceUntil(Now + HopLatency);
    if (!AnyActive)
      break;
  }
  for (int64_t Next = Fabric.nextArrival(); Next >= 0;
       Next = Fabric.nextArrival())
    DeliverBoundary(Next);

  Result.Completed = true;
  for (size_t E = 0; E < Engines.size(); ++E) {
    Result.Engines.push_back(Engines[E]->sim().takeResult());
    const SimResult &R = Result.Engines.back();
    if (!R.Completed && Result.Completed) {
      Result.Completed = false;
      Result.FailReason = "engine " + std::to_string(E) + ": " + R.FailReason;
    }
    Result.MaxEngineCycles = std::max(Result.MaxEngineCycles, R.TotalCycles);
  }
  Result.MessagesSent = Fabric.messagesSent();
  Result.MessagesDelivered = Fabric.messagesDelivered();
  return Result;
}

/// The first field in which \p A and \p B differ, or "" when every field
/// of the two runs is equal.
std::string firstDifference(const GridRunResult &A, const GridRunResult &B) {
  std::ostringstream OS;
  auto Field = [&OS](const std::string &Name, int64_t X, int64_t Y) {
    if (X != Y && OS.tellp() == 0)
      OS << Name << ": " << X << " vs " << Y;
  };
  Field("completed", A.Completed, B.Completed);
  if (A.FailReason != B.FailReason && OS.tellp() == 0)
    OS << "fail reason: " << A.FailReason << " vs " << B.FailReason;
  Field("max cycles", A.MaxEngineCycles, B.MaxEngineCycles);
  Field("messages sent", A.MessagesSent, B.MessagesSent);
  Field("messages delivered", A.MessagesDelivered, B.MessagesDelivered);
  Field("credits returned", A.CreditsReturned, B.CreditsReturned);
  Field("traffic engines", static_cast<int64_t>(A.Traffic.size()),
        static_cast<int64_t>(B.Traffic.size()));
  for (size_t E = 0; E < std::min(A.Traffic.size(), B.Traffic.size()); ++E) {
    const std::string P = "engine " + std::to_string(E) + " ";
    Field(P + "sent", A.Traffic[E].MessagesSent, B.Traffic[E].MessagesSent);
    Field(P + "received", A.Traffic[E].MessagesReceived,
          B.Traffic[E].MessagesReceived);
    Field(P + "credits", A.Traffic[E].CreditsReturned,
          B.Traffic[E].CreditsReturned);
  }
  Field("engines", static_cast<int64_t>(A.Engines.size()),
        static_cast<int64_t>(B.Engines.size()));
  for (size_t E = 0; E < std::min(A.Engines.size(), B.Engines.size()); ++E) {
    const SimResult &X = A.Engines[E];
    const SimResult &Y = B.Engines[E];
    const std::string P = "engine " + std::to_string(E) + " ";
    Field(P + "completed", X.Completed, Y.Completed);
    if (X.FailReason != Y.FailReason && OS.tellp() == 0)
      OS << P << "fail reason: " << X.FailReason << " vs " << Y.FailReason;
    Field(P + "cycles", X.TotalCycles, Y.TotalCycles);
    Field(P + "idle", X.IdleCycles, Y.IdleCycles);
    Field(P + "ctx trace length", static_cast<int64_t>(X.CtxTrace.size()),
          static_cast<int64_t>(Y.CtxTrace.size()));
    if (X.CtxTrace != Y.CtxTrace && OS.tellp() == 0)
      OS << P << "ctx trace differs";
    Field(P + "threads", static_cast<int64_t>(X.Threads.size()),
          static_cast<int64_t>(Y.Threads.size()));
    for (size_t T = 0; T < std::min(X.Threads.size(), Y.Threads.size()); ++T) {
      const ThreadStats &S = X.Threads[T];
      const ThreadStats &R = Y.Threads[T];
      const std::string Q = P + "thread " + std::to_string(T) + " ";
      Field(Q + "iterations", S.Iterations, R.Iterations);
      Field(Q + "cycles at target", S.CyclesAtTarget, R.CyclesAtTarget);
      Field(Q + "instructions", S.InstrsExecuted, R.InstrsExecuted);
      Field(Q + "ctx events", S.CtxEvents, R.CtxEvents);
      Field(Q + "mem ops", S.MemOps, R.MemOps);
      Field(Q + "abs mem ops", S.AbsMemOps, R.AbsMemOps);
      Field(Q + "halted", S.Halted, R.Halted);
      Field(Q + "run", S.RunCycles, R.RunCycles);
      Field(Q + "switch penalty", S.SwitchPenaltyCycles,
            R.SwitchPenaltyCycles);
      Field(Q + "mem stall", S.MemStallCycles, R.MemStallCycles);
      Field(Q + "channel wait", S.ChannelWaitCycles, R.ChannelWaitCycles);
      Field(Q + "interconnect stall", S.InterconnectStallCycles,
            R.InterconnectStallCycles);
      Field(Q + "ready wait", S.ReadyWaitCycles, R.ReadyWaitCycles);
      Field(Q + "halted cycles", S.HaltedCycles, R.HaltedCycles);
    }
  }
  return OS.str();
}

using TrackKey = std::pair<int64_t, int64_t>;

/// Per (pid, tid), the track's 'X' slices as sorted (ts, dur, name).
std::map<TrackKey, std::vector<std::tuple<int64_t, int64_t, std::string>>>
trackContents(const CycleTrace &CT) {
  std::map<TrackKey, std::vector<std::tuple<int64_t, int64_t, std::string>>>
      Tracks;
  for (const CycleEvent &E : CT.events())
    if (E.Ph == 'X')
      Tracks[{E.Pid, E.Tid}].emplace_back(E.Ts, E.Dur, E.Name);
  for (auto &[Key, Slices] : Tracks)
    std::sort(Slices.begin(), Slices.end());
  return Tracks;
}

/// Per (pid, name), the counter series as (ts, value) in recording order.
std::map<std::pair<int64_t, std::string>,
         std::vector<std::pair<int64_t, int64_t>>>
counterSeries(const CycleTrace &CT) {
  std::map<std::pair<int64_t, std::string>,
           std::vector<std::pair<int64_t, int64_t>>>
      Series;
  for (const CycleEvent &E : CT.events())
    if (E.Ph == 'C')
      Series[{E.Pid, E.Name}].emplace_back(E.Ts, E.Args.front().second);
  return Series;
}

/// Every flow as (send ts, pid, tid, delivery ts, pid, tid), sorted; an id
/// that does not pair exactly one start with one finish fails the test.
std::vector<std::array<int64_t, 6>> flowPairs(const CycleTrace &CT) {
  std::map<uint64_t, const CycleEvent *> Starts, Finishes;
  for (const CycleEvent &E : CT.events()) {
    if (E.Ph != 's' && E.Ph != 'f')
      continue;
    auto &Ends = E.Ph == 's' ? Starts : Finishes;
    if (!Ends.emplace(E.FlowId, &E).second)
      ADD_FAILURE() << "flow id " << E.FlowId << " has two '" << E.Ph
                    << "' events";
  }
  EXPECT_EQ(Starts.size(), Finishes.size());
  std::vector<std::array<int64_t, 6>> Pairs;
  for (const auto &[Id, S] : Starts) {
    auto It = Finishes.find(Id);
    if (It == Finishes.end()) {
      ADD_FAILURE() << "flow id " << Id << " never finishes";
      continue;
    }
    const CycleEvent &F = *It->second;
    Pairs.push_back({S->Ts, S->Pid, S->Tid, F.Ts, F.Pid, F.Tid});
  }
  std::sort(Pairs.begin(), Pairs.end());
  return Pairs;
}

/// The engine a failed report names ("engine <E>" leads FailReason).
int failingEngine(const GridReport &Report) {
  const std::string Prefix = "engine ";
  if (Report.FailReason.compare(0, Prefix.size(), Prefix) != 0)
    return -1;
  return std::stoi(Report.FailReason.substr(Prefix.size()));
}

} // namespace

TEST(GridTest, SingleEngineIsCycleIdenticalToPlainSimulator) {
  // NumEngines=1 with roundrobin keeps the pool order, so the grid's one
  // bin is exactly the scenario the plain harness would run; the grid path
  // must not perturb a single cycle.
  GridOptions Opts = fastOptions();
  Opts.NumEngines = 1;
  Opts.Policy = PlacementPolicy::RoundRobin;
  std::vector<std::string> Pool;
  ASSERT_TRUE(buildGridPool("s1", 1, Pool));
  GridReport Report = runKernelPoolGrid("s1", Pool, Opts);
  ASSERT_TRUE(Report.Success) << Report.FailReason;
  EXPECT_EQ(Report.MessagesSent, 0);
  EXPECT_EQ(Report.TotalInterconnectStall, 0);

  // The same bin through the plain (non-grid) pipeline.
  std::vector<Workload> Workloads;
  for (size_t Slot = 0; Slot < Pool.size(); ++Slot) {
    auto W = buildWorkload(Pool[Slot], static_cast<int>(Slot));
    ASSERT_TRUE(W.ok());
    Workloads.push_back(W.take());
  }
  MultiThreadProgram MTP = toMultiThreadProgram(Workloads, "s1_plain");
  for (Program &T : MTP.Threads)
    T = renameLiveRanges(T);
  SpillFallbackResult SF = allocateWithSpillFallback(
      MTP, Opts.Nreg, {}, {}, /*Log=*/nullptr, InterAllocLimits());
  ASSERT_TRUE(SF.Inter.Success) << SF.Inter.FailReason;
  ScenarioRun Plain =
      simulateWithWorkloads(Workloads, SF.Inter.Physical, Opts.Sim);
  ASSERT_TRUE(Plain.Success) << Plain.FailReason;

  EXPECT_EQ(Report.MaxEngineCycles, Plain.TotalCycles);
  ASSERT_EQ(Report.Engines.size(), 1u);
  const SimResult &R = Report.Engines[0].Result;
  ASSERT_EQ(R.Threads.size(), Plain.Threads.size());
  for (size_t T = 0; T < R.Threads.size(); ++T) {
    EXPECT_EQ(R.Threads[T].Iterations, Plain.Threads[T].Iterations);
    EXPECT_EQ(R.Threads[T].InstrsExecuted, Plain.Threads[T].InstrsExecuted);
    EXPECT_EQ(R.Threads[T].CtxEvents, Plain.Threads[T].CtxEvents);
    EXPECT_EQ(R.Threads[T].InterconnectStallCycles, 0);
  }
  expectBucketsAccount(Report);
}

TEST(GridTest, SharedBinAllocationMatchesPerEngineAllocation) {
  // Every engine of a bin-shared run must read exactly as if its bin had
  // been allocated on its own: registers, spills, cycles and iterations,
  // over feasible, spilling (Nreg 96, and s2 at 64) and infeasible (s1 at
  // 64) budgets. An infeasible config fails at the same engine, now with a
  // classified reason, and the grid runs one job per distinct bin.
  struct Config {
    std::string Scenario;
    PlacementPolicy Policy;
    int Engines;
    int Nreg;
    std::vector<std::string> Pool;
    GridReport Ref, Got;
  };
  std::vector<Config> Configs;
  for (const char *Scenario : {"s1", "s2", "s3", "mixed"})
    for (PlacementPolicy Policy :
         {PlacementPolicy::RoundRobin, PlacementPolicy::Bounds,
          PlacementPolicy::Search})
      for (int Engines : {2, 4})
        for (int Nreg : {128, 96, 64}) {
          Configs.push_back({Scenario, Policy, Engines, Nreg, {}, {}, {}});
          ASSERT_TRUE(buildGridPool(Scenario, Engines, Configs.back().Pool));
        }
  ASSERT_EQ(Configs.size(), 72u);
  // The configs are independent grid runs; running them side by side also
  // checks that concurrent grids do not interfere.
  ThreadPool Workers(4);
  parallelFor(Workers, static_cast<int>(Configs.size()), [&](int I) {
    Config &C = Configs[static_cast<size_t>(I)];
    GridOptions Opts = fastOptions();
    Opts.NumEngines = C.Engines;
    Opts.Policy = C.Policy;
    Opts.Nreg = C.Nreg;
    C.Ref = allocateEachEngine(C.Scenario, C.Pool, Opts);
    C.Got = runKernelPoolGrid(C.Scenario, C.Pool, Opts);
  });

  int SpilledEngines = 0, Infeasible = 0;
  for (const Config &C : Configs) {
    SCOPED_TRACE(C.Scenario + " " + placementPolicyName(C.Policy) +
                 " engines=" + std::to_string(C.Engines) +
                 " nreg=" + std::to_string(C.Nreg));
    const GridReport &Ref = C.Ref;
    const GridReport &Got = C.Got;
    ASSERT_EQ(Got.Success, Ref.Success) << Got.FailReason;
    EXPECT_EQ(Got.Placement.Bins, Ref.Placement.Bins);
    ASSERT_EQ(Got.Engines.size(), Ref.Engines.size());
    for (size_t E = 0; E < Got.Engines.size(); ++E) {
      const GridEngineReport &G = Got.Engines[E];
      const GridEngineReport &R = Ref.Engines[E];
      EXPECT_EQ(G.Kernels, R.Kernels) << "engine " << E;
      EXPECT_EQ(G.RegistersUsed, R.RegistersUsed) << "engine " << E;
      EXPECT_EQ(G.Spilled, R.Spilled) << "engine " << E;
      EXPECT_EQ(G.SpilledRanges, R.SpilledRanges) << "engine " << E;
      EXPECT_EQ(G.Result.TotalCycles, R.Result.TotalCycles) << "engine " << E;
      EXPECT_EQ(G.Iterations, R.Iterations) << "engine " << E;
      SpilledEngines += G.Spilled ? 1 : 0;
    }

    // The engines allocated: all of them, or up to the failing one.
    size_t Allocated = Got.Engines.size();
    if (!Got.Success) {
      ++Infeasible;
      EXPECT_EQ(failingEngine(Got), failingEngine(Ref));
      EXPECT_EQ(failingEngine(Got), static_cast<int>(Allocated));
      EXPECT_NE(Got.FailReason.find("[alloc/infeasible]"), std::string::npos)
          << Got.FailReason;
      ++Allocated;
    }
    std::set<std::vector<std::string>> Distinct;
    for (size_t E = 0; E < Allocated; ++E) {
      std::vector<std::string> Bin;
      for (int PoolIdx : Got.Placement.Bins[E])
        Bin.push_back(C.Pool[static_cast<size_t>(PoolIdx)]);
      Distinct.insert(Bin);
    }
    EXPECT_EQ(Got.AllocJobs, static_cast<int>(Distinct.size()));

    // Anchors that keep the sweep honest about the paths it covers
    // (bounds placement; roundrobin segregates md5 at 4 engines).
    if (C.Policy != PlacementPolicy::Bounds)
      continue;
    if (C.Scenario == "s1" && C.Nreg == 96) {
      for (const GridEngineReport &G : Got.Engines)
        EXPECT_EQ(G.SpilledRanges, 42);
    }
    if (C.Scenario == "s1" && C.Nreg == 64) {
      EXPECT_FALSE(Got.Success);
    }
    if (C.Scenario == "s2" && C.Nreg == 64) {
      ASSERT_TRUE(Got.Success) << Got.FailReason;
      bool AnySpilled = false;
      for (const GridEngineReport &G : Got.Engines)
        AnySpilled = AnySpilled || G.Spilled;
      EXPECT_TRUE(AnySpilled);
    }
  }
  EXPECT_GT(SpilledEngines, 0);
  EXPECT_GT(Infeasible, 0);
}

TEST(GridTest, LanesMatchLockstepReference) {
  // Engines on independent lanes must run exactly as under the global
  // lockstep loop they replaced: every GridRunResult field, per-engine
  // context-switch traces and seven buckets included. The matrix covers
  // all four pools, three policies and three engine counts; hop latencies
  // from 1 cycle to more than an iteration; tight and default credit
  // windows; and HaltAtTarget runs whose late dispatches bounce back as
  // credits.
  struct Setup {
    std::string Scenario;
    PlacementPolicy Policy;
    int Engines;
    std::vector<EngineInput> Inputs;
  };
  std::vector<Setup> Setups;
  for (const char *Scenario : {"s1", "s2", "s3", "mixed"})
    for (PlacementPolicy Policy :
         {PlacementPolicy::RoundRobin, PlacementPolicy::Bounds,
          PlacementPolicy::Search})
      for (int Engines : {2, 4, 16})
        Setups.push_back({Scenario, Policy, Engines, {}});
  struct Config {
    size_t Setup;
    int HopLatency;
    int Credits;
    bool HaltAtTarget;
    GridRunResult Got;
    std::string Diff;
  };
  std::vector<Config> Configs;
  for (size_t S = 0; S < Setups.size(); ++S)
    for (int HopLatency : {1, 4, 37, 3000})
      for (int Credits : {1, 4})
        for (bool HaltAtTarget : {false, true})
          Configs.push_back({S, HopLatency, Credits, HaltAtTarget, {}, {}});
  ASSERT_EQ(Configs.size(), 576u);

  // Configs run side by side, each grid on its own nested lane pool.
  ThreadPool Workers(4);
  parallelFor(Workers, static_cast<int>(Setups.size()), [&](int I) {
    Setup &S = Setups[static_cast<size_t>(I)];
    GridOptions Opts;
    Opts.NumEngines = S.Engines;
    Opts.Policy = S.Policy;
    std::vector<std::string> Pool;
    if (buildGridPool(S.Scenario, S.Engines, Pool))
      S.Inputs = allocateEngines(Pool, Opts);
  });
  for (const Setup &S : Setups)
    ASSERT_EQ(S.Inputs.size(), static_cast<size_t>(S.Engines)) << S.Scenario;
  parallelFor(Workers, static_cast<int>(Configs.size()), [&](int I) {
    Config &C = Configs[static_cast<size_t>(I)];
    SimConfig Sim =
        C.HaltAtTarget ? equivalenceConfig() : defaultExperimentConfig();
    Sim.TargetIterations = 3;
    Sim.RecordCtxTrace = true;
    const std::vector<EngineInput> &Inputs = Setups[C.Setup].Inputs;
    C.Got = runOnLanes(Inputs, C.HopLatency, C.Credits, Sim);
    C.Diff = firstDifference(
        C.Got, lockstepReference(Inputs, C.HopLatency, C.Credits, Sim));
  });

  int Diverged = 0, Stalled = 0, Bounced = 0;
  for (const Config &C : Configs) {
    const Setup &S = Setups[C.Setup];
    const std::string Name =
        S.Scenario + " " + placementPolicyName(S.Policy) +
        " engines=" + std::to_string(S.Engines) +
        " hop=" + std::to_string(C.HopLatency) +
        " credits=" + std::to_string(C.Credits) +
        (C.HaltAtTarget ? " halt-at-target" : "");
    EXPECT_TRUE(C.Got.Completed) << Name << ": " << C.Got.FailReason;
    if (!C.Diff.empty() && ++Diverged <= 5)
      ADD_FAILURE() << Name << ": lanes differ from lockstep in " << C.Diff;
    bool AnyStall = false;
    for (const SimResult &R : C.Got.Engines)
      for (const ThreadStats &TS : R.Threads)
        AnyStall = AnyStall || TS.InterconnectStallCycles > 0;
    Stalled += AnyStall ? 1 : 0;
    Bounced += C.Got.CreditsReturned > 0 ? 1 : 0;
  }
  EXPECT_EQ(Diverged, 0) << "of " << Configs.size() << " configurations";
  // The matrix reaches the paths that matter: threads waiting on the
  // round trip, and dispatches bouncing off halted threads.
  EXPECT_GT(Stalled, 0);
  EXPECT_GT(Bounced, 0);
}

TEST(GridTest, TracedLanesMatchLockstepTelemetry) {
  // Traced and sampled, lanes record into their own traces and sample rows
  // and merge after the run. Against the lockstep loop recording into one
  // trace: equal results, ring samples, counter series, per-track slices
  // and phase totals, and flows that pair one-to-one with equal send and
  // delivery cycles (ids are renumbered). The configs cover periods off
  // the boundary grid, longer and shorter than a hop, HaltAtTarget
  // bounces and drains, and 16 stalled engines that end far apart, so
  // ended lanes carry their final state.
  struct Traced {
    const char *Scenario;
    PlacementPolicy Policy;
    int Engines;
    int HopLatency;
    int Credits;
    bool HaltAtTarget;
    int64_t Period;
  };
  for (const Traced &C :
       {Traced{"mixed", PlacementPolicy::Search, 4, 37, 1, false, 100},
        Traced{"s3", PlacementPolicy::RoundRobin, 4, 37, 4, false, 16},
        Traced{"s2", PlacementPolicy::Bounds, 2, 4, 4, true, 64},
        Traced{"s1", PlacementPolicy::Bounds, 16, 3000, 1, false, 5000}}) {
    SCOPED_TRACE(std::string(C.Scenario) + " engines=" +
                 std::to_string(C.Engines));
    GridOptions Opts;
    Opts.NumEngines = C.Engines;
    Opts.Policy = C.Policy;
    std::vector<std::string> Pool;
    ASSERT_TRUE(buildGridPool(C.Scenario, C.Engines, Pool));
    const std::vector<EngineInput> Inputs = allocateEngines(Pool, Opts);
    ASSERT_EQ(Inputs.size(), static_cast<size_t>(C.Engines));
    SimConfig Sim =
        C.HaltAtTarget ? equivalenceConfig() : defaultExperimentConfig();
    Sim.TargetIterations = 3;
    Sim.RecordCtxTrace = true;

    constexpr size_t RingCapacity = 1 << 14;
    CycleTrace RefTrace, LaneTrace;
    TelemetryRing RefRing(RingCapacity), LaneRing(RingCapacity);
    TelemetrySampler RefSampler(C.Period, &RefTrace, &RefRing);
    TelemetrySampler LaneSampler(C.Period, &LaneTrace, &LaneRing);
    const GridRunResult Ref = lockstepReference(
        Inputs, C.HopLatency, C.Credits, Sim, &RefTrace, &RefSampler);
    const GridRunResult Got = runOnLanes(Inputs, C.HopLatency, C.Credits,
                                         Sim, &LaneTrace, &LaneSampler);
    ASSERT_TRUE(Ref.Completed) << Ref.FailReason;
    EXPECT_EQ(firstDifference(Got, Ref), "");

    ASSERT_GT(RefRing.totalPushed(), 0);
    ASSERT_LT(RefRing.totalPushed(), static_cast<int64_t>(RingCapacity));
    ASSERT_EQ(LaneRing.totalPushed(), RefRing.totalPushed());
    for (size_t I = 0; I < RefRing.size(); ++I) {
      EXPECT_EQ(LaneRing.at(I).Cycle, RefRing.at(I).Cycle) << "sample " << I;
      EXPECT_EQ(LaneRing.at(I).Values, RefRing.at(I).Values) << "sample "
                                                             << I;
    }
    EXPECT_EQ(LaneSampler.nextDue(), RefSampler.nextDue());

    EXPECT_EQ(LaneTrace.eventCount(), RefTrace.eventCount());
    // Lanes stop at a subset of the lockstep boundaries, so they split
    // fewer idle intervals: the tracing-guard count can only drop.
    EXPECT_LE(LaneTrace.intervalCount(), RefTrace.intervalCount());
    EXPECT_EQ(counterSeries(LaneTrace), counterSeries(RefTrace));
    EXPECT_EQ(trackContents(LaneTrace), trackContents(RefTrace));
    const std::vector<std::array<int64_t, 6>> Flows = flowPairs(RefTrace);
    EXPECT_FALSE(Flows.empty());
    EXPECT_EQ(flowPairs(LaneTrace), Flows);
    for (int E = 0; E < C.Engines; ++E)
      for (int T = 0; T < 4; ++T)
        for (int P = 0; P < NumThreadPhases; ++P)
          EXPECT_EQ(LaneTrace.phaseCycles(E + 1, T, ThreadPhase(P)),
                    RefTrace.phaseCycles(E + 1, T, ThreadPhase(P)))
              << "engine " << E << " thread " << T << " phase " << P;
  }
}

TEST(GridTest, TraitAnalysesServeTheAllocationJobs) {
  // The traits step and the job path key the cache through one function,
  // and a kernel's code is the same in every slot: a bin whose kernels'
  // traits were computed on a cache allocates without analysing again.
  AnalysisCache Cache;
  computeKernelTraits("md5", &Cache);
  computeKernelTraits("fir2dim", &Cache);
  EXPECT_EQ(Cache.misses(), 2);
  EXPECT_EQ(Cache.size(), 2u);
  std::vector<Workload> Workloads;
  int Slot = 0;
  for (const char *Kernel : {"fir2dim", "md5", "fir2dim", "md5"})
    Workloads.push_back(buildWorkload(Kernel, Slot++).take());
  BatchJob Job;
  Job.Program = toMultiThreadProgram(Workloads, "bin");
  BatchJobResult R = runSingleJob(Job, BatchOptions(), &Cache);
  ASSERT_TRUE(R.Success) << R.failureSummary();
  EXPECT_EQ(R.CacheHits, 4);
  EXPECT_EQ(R.CacheMisses, 0);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(GridTest, MultiEngineRunsAreDeterministic) {
  GridOptions Opts = fastOptions();
  Opts.NumEngines = 4;
  Opts.Policy = PlacementPolicy::Search;
  std::vector<std::string> Pool;
  ASSERT_TRUE(buildGridPool("mixed", 4, Pool));
  GridReport A = runKernelPoolGrid("mixed", Pool, Opts);
  GridReport B = runKernelPoolGrid("mixed", Pool, Opts);
  ASSERT_TRUE(A.Success) << A.FailReason;
  ASSERT_TRUE(B.Success) << B.FailReason;
  EXPECT_EQ(A.MaxEngineCycles, B.MaxEngineCycles);
  EXPECT_EQ(A.TotalIterations, B.TotalIterations);
  EXPECT_EQ(A.TotalInterconnectStall, B.TotalInterconnectStall);
  EXPECT_EQ(A.MessagesSent, B.MessagesSent);
  EXPECT_EQ(A.MessagesDelivered, B.MessagesDelivered);
  EXPECT_EQ(A.Placement.Bins, B.Placement.Bins);
  ASSERT_EQ(A.Engines.size(), B.Engines.size());
  for (size_t E = 0; E < A.Engines.size(); ++E) {
    EXPECT_EQ(A.Engines[E].Kernels, B.Engines[E].Kernels);
    EXPECT_EQ(A.Engines[E].Result.TotalCycles, B.Engines[E].Result.TotalCycles);
    EXPECT_EQ(A.Engines[E].Iterations, B.Engines[E].Iterations);
    EXPECT_EQ(A.Engines[E].InterconnectStallCycles,
              B.Engines[E].InterconnectStallCycles);
  }
  // Multi-engine work protocol actually ran: one completion per iteration
  // reached the ingress and every message eventually arrived.
  EXPECT_GT(A.MessagesSent, 0);
  EXPECT_EQ(A.MessagesDelivered, A.MessagesSent);
  expectBucketsAccount(A);
}

TEST(GridTest, TightCreditsSurfaceAsInterconnectStall) {
  // One credit per thread and a hop latency far beyond the per-iteration
  // cycle gap: every `loopend` has to wait for its completion's round trip,
  // so the InterconnectStall bucket must light up — and it must grow with
  // hop distance from the ingress (engine 0 is one hop away, engine 3
  // four).
  GridOptions Opts = fastOptions();
  Opts.NumEngines = 4;
  Opts.Policy = PlacementPolicy::Bounds;
  Opts.InitialCredits = 1;
  Opts.HopLatency = 3000;
  std::vector<std::string> Pool;
  ASSERT_TRUE(buildGridPool("s1", 4, Pool));
  GridReport Report = runKernelPoolGrid("s1", Pool, Opts);
  ASSERT_TRUE(Report.Success) << Report.FailReason;
  EXPECT_GT(Report.TotalInterconnectStall, 0);
  for (const GridEngineReport &ER : Report.Engines)
    EXPECT_GT(ER.InterconnectStallCycles, 0);
  EXPECT_GT(Report.Engines.back().InterconnectStallCycles,
            Report.Engines.front().InterconnectStallCycles);
  // Stalled or not, the seven buckets still tile every engine's timeline.
  expectBucketsAccount(Report);
  // The stall is pure interconnect wait: with generous credits the same
  // grid finishes in fewer wall-clock cycles.
  GridOptions Loose = Opts;
  Loose.InitialCredits = 64;
  GridReport Fast = runKernelPoolGrid("s1", Pool, Loose);
  ASSERT_TRUE(Fast.Success) << Fast.FailReason;
  EXPECT_LT(Fast.MaxEngineCycles, Report.MaxEngineCycles);
  EXPECT_GT(Fast.IterationsPerKilocycle, Report.IterationsPerKilocycle);
}

TEST(GridTest, HaltAtTargetBouncesLateDispatchesAsCredits) {
  // Under HaltAtTarget threads halt the instant they hit the target, so
  // dispatches answering their final completions arrive at halted threads
  // and must bounce back to the ingress as Credit messages — not wake
  // anything and not get lost.
  GridOptions Opts = fastOptions();
  Opts.NumEngines = 2;
  Opts.Sim = equivalenceConfig();
  Opts.Sim.TargetIterations = 5;
  std::vector<std::string> Pool;
  ASSERT_TRUE(buildGridPool("s2", 2, Pool));
  GridReport Report = runKernelPoolGrid("s2", Pool, Opts);
  ASSERT_TRUE(Report.Success) << Report.FailReason;
  EXPECT_GT(Report.CreditsReturned, 0);
  for (const GridEngineReport &ER : Report.Engines)
    for (const ThreadStats &TS : ER.Result.Threads)
      EXPECT_EQ(TS.Iterations, 5);
  expectBucketsAccount(Report);
}

TEST(GridTest, BuildGridPoolShapesAndRejects) {
  std::vector<std::string> Pool;
  ASSERT_TRUE(buildGridPool("s3", 8, Pool));
  EXPECT_EQ(Pool.size(), 32u);
  // Replication is cyclic over the 4-kernel template.
  for (size_t I = 4; I < Pool.size(); ++I)
    EXPECT_EQ(Pool[I], Pool[I - 4]);
  ASSERT_TRUE(buildGridPool("mixed", 2, Pool));
  EXPECT_EQ(Pool.size(), 8u);
  EXPECT_FALSE(buildGridPool("s9", 4, Pool));
  EXPECT_FALSE(buildGridPool("nonesuch", 4, Pool));
}
