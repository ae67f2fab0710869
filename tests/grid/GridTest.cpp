//===- GridTest.cpp - Multi-engine grid simulation ------------------------===//
//
// The grid's contracts: a single-engine grid is the plain simulator (cycle
// identical, zero interconnect traffic); multi-engine runs are
// deterministic; a credit window tighter than the interconnect round trip
// surfaces as InterconnectStall cycles that keep the seven-bucket identity
// intact; and dispatches racing a thread's halt bounce back as credits
// instead of leaking.
//
//===----------------------------------------------------------------------===//

#include "grid/GridHarness.h"

#include "analysis/LiveRangeRenaming.h"
#include "harden/SpillFallback.h"
#include "support/Status.h"
#include "workloads/Harness.h"

#include "gtest/gtest.h"

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
