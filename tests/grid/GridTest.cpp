//===- GridTest.cpp - Multi-engine grid simulation ------------------------===//
//
// The grid's contracts: a single-engine grid is the plain simulator (cycle
// identical, zero interconnect traffic); allocating once per distinct bin
// gives every engine exactly what allocating it on its own would, with the
// traits step's analyses serving the allocation jobs; multi-engine runs
// are deterministic; a credit window tighter than the interconnect round
// trip surfaces as InterconnectStall cycles that keep the seven-bucket
// identity intact; and dispatches racing a thread's halt bounce back as
// credits instead of leaking.
//
//===----------------------------------------------------------------------===//

#include "grid/GridHarness.h"

#include "analysis/LiveRangeRenaming.h"
#include "driver/AnalysisCache.h"
#include "driver/BatchPipeline.h"
#include "harden/SpillFallback.h"
#include "support/Status.h"
#include "support/ThreadPool.h"
#include "workloads/Harness.h"

#include "gtest/gtest.h"

#include <set>
#include <string>
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
  Report.Placement = placeThreads(In, Opts.Policy);

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
