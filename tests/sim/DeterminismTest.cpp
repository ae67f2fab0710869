//===- DeterminismTest.cpp - Run-to-run simulator determinism -------------===//
//
// The simulator must be a pure function of (program, entry state, config):
// two runs of the identical setup produce identical cycle counts, thread
// stats, context-switch traces and memory images — and allocations produced
// by the batch driver at different worker counts drive it to the identical
// outcome, so `--jobs N` can never change an experiment's numbers.
//
//===----------------------------------------------------------------------===//

#include "alloc/InterAllocator.h"
#include "analysis/LiveRangeRenaming.h"
#include "driver/BatchPipeline.h"
#include "grid/EngineGrid.h"
#include "sim/Simulator.h"
#include "support/ThreadPool.h"
#include "trace/CycleTrace.h"
#include "trace/Telemetry.h"
#include "workloads/ProgramGenerator.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

using namespace npral;

namespace {

/// A 3-thread virtual MTP over disjoint memory regions.
MultiThreadProgram makeVirtualMTP(uint64_t Seed) {
  MultiThreadProgram MTP;
  for (int T = 0; T < 3; ++T) {
    GeneratorConfig Config;
    Config.TargetInstructions = 80;
    Config.CtxRatePerMille = 180;
    Config.MemBase = 0x1000 + 0x800 * static_cast<uint32_t>(T);
    Config.OutBase = 0x5000 + 0x100 * static_cast<uint32_t>(T);
    Program P = generateRandomProgram(Seed * 10 + static_cast<uint64_t>(T),
                                      Config);
    P.Name = "det" + std::to_string(T);
    MTP.Threads.push_back(std::move(P));
  }
  return MTP;
}

struct RunSnapshot {
  SimResult Result;
  uint64_t OutHash = 0;
};

RunSnapshot runOnce(const MultiThreadProgram &MTP) {
  SimConfig Config;
  Config.RecordCtxTrace = true;
  Simulator Sim(MTP, Config);
  RunSnapshot Snap;
  Snap.Result = Sim.run();
  Snap.OutHash = Sim.hashMemoryRange(0x5000, 0x400);
  return Snap;
}

void expectIdentical(const RunSnapshot &A, const RunSnapshot &B) {
  ASSERT_TRUE(A.Result.Completed) << A.Result.FailReason;
  ASSERT_TRUE(B.Result.Completed) << B.Result.FailReason;
  EXPECT_EQ(A.Result.TotalCycles, B.Result.TotalCycles);
  EXPECT_EQ(A.Result.IdleCycles, B.Result.IdleCycles);
  EXPECT_EQ(A.OutHash, B.OutHash);
  ASSERT_EQ(A.Result.Threads.size(), B.Result.Threads.size());
  for (size_t T = 0; T < A.Result.Threads.size(); ++T) {
    EXPECT_EQ(A.Result.Threads[T].Iterations, B.Result.Threads[T].Iterations);
    EXPECT_EQ(A.Result.Threads[T].InstrsExecuted,
              B.Result.Threads[T].InstrsExecuted);
    EXPECT_EQ(A.Result.Threads[T].CtxEvents, B.Result.Threads[T].CtxEvents);
    EXPECT_EQ(A.Result.Threads[T].MemOps, B.Result.Threads[T].MemOps);
  }
  // The context-switch traces match event for event.
  ASSERT_EQ(A.Result.CtxTrace.size(), B.Result.CtxTrace.size());
  for (size_t I = 0; I < A.Result.CtxTrace.size(); ++I)
    EXPECT_TRUE(A.Result.CtxTrace[I] == B.Result.CtxTrace[I])
        << "trace diverges at event " << I << ": cycle "
        << A.Result.CtxTrace[I].Cycle << "/t" << A.Result.CtxTrace[I].Thread
        << " vs cycle " << B.Result.CtxTrace[I].Cycle << "/t"
        << B.Result.CtxTrace[I].Thread;
}

} // namespace

class SimDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimDeterminismTest, VirtualRunsAreBitIdentical) {
  MultiThreadProgram MTP = makeVirtualMTP(GetParam());
  RunSnapshot A = runOnce(MTP);
  RunSnapshot B = runOnce(MTP);
  expectIdentical(A, B);
  EXPECT_FALSE(A.Result.CtxTrace.empty());
}

TEST_P(SimDeterminismTest, AllocatedRunsAreBitIdentical) {
  MultiThreadProgram Virtual = makeVirtualMTP(GetParam());
  MultiThreadProgram Renamed;
  for (const Program &P : Virtual.Threads)
    Renamed.Threads.push_back(renameLiveRanges(P));
  InterThreadResult R = allocateInterThread(Renamed, 128);
  ASSERT_TRUE(R.Success) << R.FailReason;

  RunSnapshot A = runOnce(R.Physical);
  RunSnapshot B = runOnce(R.Physical);
  expectIdentical(A, B);
}

TEST_P(SimDeterminismTest, BatchWorkerCountDoesNotPerturbSimulation) {
  // The same corpus through the batch driver at --jobs 1 and --jobs 4 must
  // yield physical programs whose simulations are indistinguishable.
  std::vector<BatchJob> Jobs;
  for (uint64_t I = 0; I < 3; ++I) {
    BatchJob Job;
    Job.Name = "det" + std::to_string(I);
    Job.Program = makeVirtualMTP(GetParam() * 100 + I);
    Jobs.push_back(std::move(Job));
  }

  BatchOptions Serial;
  Serial.Jobs = 1;
  Serial.KeepPhysical = true;
  BatchOptions Parallel;
  Parallel.Jobs = 4;
  Parallel.KeepPhysical = true;
  Parallel.UseCache = true;

  BatchResult A = runBatch(Jobs, Serial);
  BatchResult B = runBatch(Jobs, Parallel);
  ASSERT_TRUE(A.allSucceeded());
  ASSERT_TRUE(B.allSucceeded());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    RunSnapshot SerialRun = runOnce(A.Results[I].Physical);
    RunSnapshot ParallelRun = runOnce(B.Results[I].Physical);
    expectIdentical(SerialRun, ParallelRun);
  }
}

namespace {

/// A grid of three generated-program engines.
void addEngines(EngineGrid &Grid, uint64_t Seed) {
  for (int E = 0; E < 3; ++E) {
    SimConfig Config;
    Config.RecordCtxTrace = true;
    Grid.addEngine(makeVirtualMTP(Seed * 3 + static_cast<uint64_t>(E)),
                   Config);
  }
}

/// One grid run: per-engine results plus the interconnect counters,
/// everything a rerun must reproduce bit for bit.
GridRunResult runGridOnce(uint64_t Seed) {
  EngineGrid Grid(/*HopLatency=*/4, /*InitialCredits=*/2);
  addEngines(Grid, Seed);
  return Grid.run();
}

/// One traced and sampled grid run, as the bytes of its exported cycle
/// trace: thread-state slices, flows and the sampler's counter events.
std::string runTracedGridOnce(uint64_t Seed) {
  EngineGrid Grid(/*HopLatency=*/4, /*InitialCredits=*/2);
  addEngines(Grid, Seed);
  CycleTrace CT;
  TelemetrySampler Sampler(/*PeriodCycles=*/16, &CT);
  Grid.setTelemetry(&CT, &Sampler);
  GridRunResult R = Grid.run();
  EXPECT_TRUE(R.Completed) << R.FailReason;
  EXPECT_TRUE(std::any_of(CT.events().begin(), CT.events().end(),
                          [](const TraceEvent &E) { return E.Ph == 'C'; }))
      << "the sampler wrote no counter events";
  std::ostringstream OS;
  writeChromeTrace(OS, TraceClock::Cycles, CT.events());
  return OS.str();
}

} // namespace

TEST_P(SimDeterminismTest, GridRunsAreBitIdentical) {
  // The grid adds message delivery and credit flow on top of the
  // simulator, and runs its engines' lanes on a thread pool; none of it
  // may introduce run-to-run variance.
  GridRunResult A = runGridOnce(GetParam());
  GridRunResult B = runGridOnce(GetParam());
  ASSERT_TRUE(A.Completed) << A.FailReason;
  ASSERT_TRUE(B.Completed) << B.FailReason;
  EXPECT_EQ(A.MaxEngineCycles, B.MaxEngineCycles);
  EXPECT_EQ(A.MessagesSent, B.MessagesSent);
  EXPECT_EQ(A.MessagesDelivered, B.MessagesDelivered);
  EXPECT_EQ(A.CreditsReturned, B.CreditsReturned);
  ASSERT_EQ(A.Engines.size(), B.Engines.size());
  for (size_t E = 0; E < A.Engines.size(); ++E) {
    RunSnapshot SA{A.Engines[E], 0};
    RunSnapshot SB{B.Engines[E], 0};
    expectIdentical(SA, SB);
    EXPECT_EQ(A.Engines[E].Threads.size(), 3u);
  }
  // Generated programs halt after their single iteration, so the reply
  // dispatches land on halted threads and flow back as credits.
  EXPECT_GT(A.MessagesSent, 0);
  EXPECT_GT(A.CreditsReturned, 0);
}

TEST_P(SimDeterminismTest, TracedGridRunsFromConcurrentHostThreadsAgree) {
  // Every grid run owns its lane pool, so runs nested in another pool's
  // tasks neither deadlock nor perturb one another: the same traced grid
  // from four host threads at once exports the bytes of an inline run.
  const std::string Reference = runTracedGridOnce(GetParam());
  EXPECT_NE(Reference.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(Reference.find("\"ph\": \"f\""), std::string::npos);
  constexpr int Runs = 4;
  std::vector<std::string> FromWorkers(Runs);
  {
    ThreadPool Pool(Runs);
    parallelFor(Pool, Runs, [&](int I) {
      FromWorkers[static_cast<size_t>(I)] = runTracedGridOnce(GetParam());
    });
  }
  for (const std::string &S : FromWorkers)
    EXPECT_EQ(S, Reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimDeterminismTest,
                         ::testing::Range<uint64_t>(1, 7));
