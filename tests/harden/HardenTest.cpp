//===- HardenTest.cpp - Robustness layer tests -----------------------------===//
//
// Tests for the hardening layer: spill-based graceful degradation on
// infeasible budgets (verifier-clean, race-free, and simulator-correct),
// bit-identical output for feasible inputs, deterministic fault injection
// through the batch pipeline, deadline polling, cache corruption
// recovery, and the FragmentAllocator's graceful handling of inputs that
// skipped the structural checkers.
//
//===----------------------------------------------------------------------===//

#include "alloc/AllocationVerifier.h"
#include "alloc/BoundsEstimator.h"
#include "alloc/FragmentAllocator.h"
#include "alloc/InterAllocator.h"
#include "alloc/IntraAllocator.h"
#include "analysis/LiveRangeRenaming.h"
#include "analysis/Liveness.h"
#include "asmparse/AsmParser.h"
#include "driver/AnalysisCache.h"
#include "driver/BatchPipeline.h"
#include "harden/FaultInjector.h"
#include "harden/SpillFallback.h"
#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"
#include "support/StringUtils.h"
#include "trace/MetricsRegistry.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

#include <fstream>
#include <optional>
#include <sstream>

using namespace npral;
using namespace npral::test;

namespace {

std::string examplePath(const std::string &Name) {
  return std::string(NPRAL_EXAMPLES_ASM_DIR) + "/" + Name;
}

const std::vector<std::string> &allExamples() {
  static const std::vector<std::string> Files = {
      "bad_alloc.s", "fig3_paper.s", "lint_buggy.s", "modular_kernel.s",
      "two_threads.s"};
  return Files;
}

/// Parse and rename an example file; nullopt when unreadable.
std::optional<MultiThreadProgram> loadExample(const std::string &Name) {
  std::ifstream In(examplePath(Name));
  if (!In)
    return std::nullopt;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(Buf.str());
  if (!MTP.ok())
    return std::nullopt;
  for (Program &T : MTP->Threads)
    T = renameLiveRanges(T);
  return MTP.take();
}

/// True when every thread passes the structural checkers the pipeline runs
/// before allocation (lint_buggy.s deliberately does not).
bool passesStructuralChecks(const MultiThreadProgram &MTP) {
  for (const Program &T : MTP.Threads) {
    if (!verifyProgram(T).ok())
      return false;
    LivenessInfo LI = computeLiveness(T);
    if (!checkNoUseOfUndef(T, LI).ok())
      return false;
  }
  return true;
}

int sumMinPR(const MultiThreadProgram &MTP) {
  int Sum = 0;
  for (const Program &T : MTP.Threads)
    Sum += estimateRegBounds(analyzeThread(T)).MinPR;
  return Sum;
}

/// Simulate \p MTP (virtual or physical) with zero-seeded entry values and
/// hash the low memory window, which holds every example's outputs but not
/// the spill scratch region at 0xE0000.
struct HardenRun {
  SimResult Result;
  uint64_t OutputHash = 0;
  int64_t AbsMemOps = 0;
};

HardenRun simulateHashed(const MultiThreadProgram &MTP) {
  SimConfig Config;
  Config.TargetIterations = 3;
  Config.HaltAtTarget = true;
  Simulator Sim(MTP, Config);
  // Seed each thread's entry registers (pointers in the examples) with a
  // disjoint window so two threads never race on the same output word —
  // bad_alloc.s aims both stores at its entry pointer, and a racy word's
  // final value would legitimately shift with spill-code timing.
  for (int T = 0; T < MTP.getNumThreads(); ++T)
    Sim.setEntryValues(
        T, std::vector<uint32_t>(
               MTP.Threads[static_cast<size_t>(T)].EntryLiveRegs.size(),
               0x100u * static_cast<uint32_t>(T + 1)));
  HardenRun Run;
  Run.Result = Sim.run();
  Run.OutputHash = Sim.hashMemoryRange(0x0, 0x1000);
  for (const ThreadStats &TS : Run.Result.Threads)
    Run.AbsMemOps += TS.AbsMemOps;
  return Run;
}

} // namespace

//===----------------------------------------------------------------------===//
// Infeasible-budget grid: below Sigma MinPR the strict allocator must fail
// and the spill fallback must degrade into a verifier-clean, race-free,
// simulator-correct allocation.
//===----------------------------------------------------------------------===//

class InfeasibleBudgetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(InfeasibleBudgetTest, SpillFallbackRecoversTightBudgets) {
  std::optional<MultiThreadProgram> MTP = loadExample(GetParam());
  ASSERT_TRUE(MTP) << "cannot load " << GetParam();
  if (!passesStructuralChecks(*MTP))
    GTEST_SKIP() << GetParam() << " is a deliberately malformed example";

  const int SumPR = sumMinPR(*MTP);
  int Recovered = 0;
  // 3 is the machine minimum (a three-operand instruction needs three
  // simultaneously-live registers); 6 exceeds the strict feasibility floor
  // of some examples, so both branches below are exercised.
  for (int Nreg = 3; Nreg <= 6; ++Nreg) {
    InterThreadResult Strict = allocateInterThread(*MTP, Nreg);
    if (Nreg < SumPR)
      ASSERT_FALSE(Strict.Success)
          << GetParam() << " Nreg=" << Nreg << " below Sigma MinPR";
    if (Strict.Success)
      continue; // feasible budgets are covered by the differential test
    EXPECT_EQ(Strict.FailCode, StatusCode::Infeasible)
        << GetParam() << " Nreg=" << Nreg;

    SpillFallbackResult SF = allocateWithSpillFallback(
        *MTP, Nreg, {}, {}, nullptr, InterAllocLimits());
    ASSERT_TRUE(SF.Inter.Success)
        << GetParam() << " Nreg=" << Nreg << ": " << SF.Inter.FailReason;
    EXPECT_TRUE(SF.UsedSpilling);
    EXPECT_GT(SF.SpilledRanges, 0);
    EXPECT_LE(SF.Inter.RegistersUsed, Nreg);
    ++Recovered;

    // Verifier-clean and race-free, including the spill scratch region:
    // per-thread windows are disjoint, so the cross-thread-abs-overlap
    // check must stay silent.
    DiagnosticEngine Engine;
    collectAllocationSafety(SF.Inter.Physical, Engine);
    EXPECT_FALSE(Engine.hasErrors()) << GetParam() << " Nreg=" << Nreg;
    for (const Diagnostic &D : Engine.diagnostics())
      EXPECT_NE(D.Check, "cross-thread-abs-overlap")
          << GetParam() << " Nreg=" << Nreg << ": " << D.Message;

    // Simulator-correct: the degraded physical program computes the same
    // low-memory outputs as the virtual reference, and its extra memory
    // traffic is exactly the absolute-addressed spill accesses.
    HardenRun Ref = simulateHashed(*MTP);
    HardenRun Deg = simulateHashed(SF.Inter.Physical);
    ASSERT_TRUE(Ref.Result.Completed) << Ref.Result.FailReason;
    ASSERT_TRUE(Deg.Result.Completed) << Deg.Result.FailReason;
    EXPECT_EQ(Deg.OutputHash, Ref.OutputHash) << GetParam() << " Nreg=" << Nreg;
    EXPECT_EQ(Ref.AbsMemOps, 0);
    EXPECT_GT(Deg.AbsMemOps, 0);
  }
  // Examples whose Sigma MinPR exceeds the machine minimum must have hit
  // the fallback at least once (fig3_paper fits strictly everywhere).
  if (SumPR > 3)
    EXPECT_GT(Recovered, 0) << "grid never exercised the spill fallback";
}

INSTANTIATE_TEST_SUITE_P(Examples, InfeasibleBudgetTest,
                         ::testing::ValuesIn(allExamples()),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           return Name.substr(0, Name.size() - 2);
                         });

//===----------------------------------------------------------------------===//
// Differential: a feasible input allocates bit-identically with and without
// the fallback enabled.
//===----------------------------------------------------------------------===//

TEST(SpillDifferentialTest, FeasibleInputsAreBitIdentical) {
  for (const std::string &Name : allExamples()) {
    std::optional<MultiThreadProgram> MTP = loadExample(Name);
    ASSERT_TRUE(MTP);
    InterThreadResult Strict = allocateInterThread(*MTP, 128);
    if (!Strict.Success)
      continue; // infeasible/malformed inputs are covered elsewhere
    SpillFallbackResult SF = allocateWithSpillFallback(
        *MTP, 128, {}, {}, nullptr, InterAllocLimits());
    ASSERT_TRUE(SF.Inter.Success) << Name;
    EXPECT_FALSE(SF.UsedSpilling) << Name;
    EXPECT_EQ(SF.Attempts, 1) << Name;
    EXPECT_EQ(SF.Inter.SGR, Strict.SGR);
    EXPECT_EQ(SF.Inter.RegistersUsed, Strict.RegistersUsed);
    ASSERT_EQ(SF.Inter.Physical.getNumThreads(),
              Strict.Physical.getNumThreads());
    for (int T = 0; T < Strict.Physical.getNumThreads(); ++T)
      EXPECT_EQ(programToString(SF.Inter.Physical.Threads[static_cast<size_t>(
                    T)]),
                programToString(
                    Strict.Physical.Threads[static_cast<size_t>(T)]))
          << Name << " thread " << T;
  }
}

//===----------------------------------------------------------------------===//
// Fault injection through the batch pipeline.
//===----------------------------------------------------------------------===//

namespace {

std::vector<BatchJob> allExampleJobs() {
  std::vector<BatchJob> Jobs;
  for (const std::string &Name : allExamples()) {
    BatchJob Job;
    Job.Path = examplePath(Name);
    Job.Name = Name;
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

} // namespace

TEST(FaultInjectionTest, SpecParsing) {
  ErrorOr<FaultInjector> FI = FaultInjector::parse("parse,alloc@50#9");
  ASSERT_TRUE(FI.ok()) << FI.status().str();
  EXPECT_EQ(FI->rate(), 50);
  EXPECT_EQ(FI->seed(), 9u);
  EXPECT_TRUE(FI->enabled());

  EXPECT_FALSE(FaultInjector::parse("bogus@50#9").ok());
  EXPECT_FALSE(FaultInjector::parse("parse@101#9").ok());
  EXPECT_FALSE(FaultInjector::parse("parse@-1#9").ok());
  EXPECT_FALSE(FaultInjector::parse("").ok());

  ErrorOr<FaultInjector> All = FaultInjector::parse("all@100#1");
  ASSERT_TRUE(All.ok());
  EXPECT_EQ(All->sites().size(), FaultInjector::allSites().size());
}

TEST(FaultInjectionTest, DeterministicPerSiteAndItem) {
  ErrorOr<FaultInjector> FI = FaultInjector::parse("all@50#42");
  ASSERT_TRUE(FI.ok());
  // Same (site, item) always produces the same verdict; different seeds
  // produce a different pattern somewhere across a modest key set.
  ErrorOr<FaultInjector> FI2 = FaultInjector::parse("all@50#43");
  ASSERT_TRUE(FI2.ok());
  bool Differs = false;
  for (const std::string &Site : FaultInjector::allSites())
    for (int K = 0; K < 16; ++K) {
      const std::string Item = "job" + std::to_string(K);
      EXPECT_EQ(FI->shouldFail(Site, Item), FI->shouldFail(Site, Item));
      if (FI->shouldFail(Site, Item) != FI2->shouldFail(Site, Item))
        Differs = true;
    }
  EXPECT_TRUE(Differs) << "seed does not influence the fault pattern";
}

TEST(FaultInjectionTest, BatchNeverAbortsAndReportsAccurately) {
  for (const std::string &Site : FaultInjector::allSites()) {
    for (uint64_t Seed : {1u, 2u}) {
      BatchOptions Opts;
      Opts.Nreg = 128;
      Opts.Jobs = 3;
      Opts.UseCache = true; // give the "cache" probe a stage to fire in
      ErrorOr<FaultInjector> FI =
          FaultInjector::parse(Site + "@100#" + std::to_string(Seed));
      ASSERT_TRUE(FI.ok());
      Opts.Faults = FI.take();

      BatchResult Batch = runBatch(allExampleJobs(), Opts);
      ASSERT_EQ(Batch.Results.size(), allExamples().size());

      // failed() must be accurate: exactly the unsuccessful results, in
      // input order, each carrying its stage and code.
      auto Failed = Batch.failed();
      size_t NumFailed = 0;
      for (const BatchJobResult &R : Batch.Results)
        if (!R.Success)
          ++NumFailed;
      EXPECT_EQ(Failed.size(), NumFailed);
      EXPECT_EQ(static_cast<int>(NumFailed), Batch.Stats.Failed);
      for (const BatchJobResult *R : Failed) {
        EXPECT_FALSE(R->FailStage.empty()) << R->Name;
        EXPECT_NE(R->FailCode, StatusCode::Ok) << R->Name;
      }

      // At 100% every job dies at the probed site — except sites later in
      // the pipeline than a job's natural failure (lint_buggy fails the
      // analysis checkers before reaching "alloc").
      int Injected = 0;
      for (const BatchJobResult &R : Batch.Results)
        if (R.FailCode == StatusCode::FaultInjected) {
          ++Injected;
          EXPECT_EQ(R.FailStage, Site == "cache" ? "analysis" : Site)
              << R.Name;
        }
      EXPECT_GT(Injected, 0) << "site " << Site << " never fired";
      EXPECT_EQ(Batch.Stats.FaultsInjected, Injected);
      if (Site == "parse")
        EXPECT_EQ(static_cast<size_t>(Injected), Batch.Results.size());
    }
  }
}

TEST(FaultInjectionTest, PartialRateIsDeterministicAcrossRuns) {
  BatchOptions Opts;
  Opts.Nreg = 128;
  Opts.Jobs = 4;
  ErrorOr<FaultInjector> FI = FaultInjector::parse("all@50#7");
  ASSERT_TRUE(FI.ok());
  Opts.Faults = FI.take();
  BatchResult A = runBatch(allExampleJobs(), Opts);
  BatchResult B = runBatch(allExampleJobs(), Opts);
  ASSERT_EQ(A.Results.size(), B.Results.size());
  for (size_t I = 0; I < A.Results.size(); ++I) {
    EXPECT_EQ(A.Results[I].Success, B.Results[I].Success) << I;
    EXPECT_EQ(A.Results[I].FailStage, B.Results[I].FailStage) << I;
    EXPECT_EQ(A.Results[I].FailReason, B.Results[I].FailReason) << I;
  }
}

//===----------------------------------------------------------------------===//
// Degraded batch: tight budgets succeed with AllowSpill.
//===----------------------------------------------------------------------===//

TEST(DegradedBatchTest, AllowSpillRecoversTightBudgets) {
  BatchOptions Opts;
  Opts.Nreg = 4; // below Sigma MinPR for every multi-thread example
  Opts.Jobs = 2;
  Opts.AllowSpill = true;
  BatchResult Batch = runBatch(allExampleJobs(), Opts);
  int Degraded = 0;
  for (const BatchJobResult &R : Batch.Results) {
    if (R.Name == "lint_buggy.s") {
      EXPECT_FALSE(R.Success);
      EXPECT_EQ(R.FailStage, "analysis");
      continue;
    }
    EXPECT_TRUE(R.Success) << R.Name << ": " << R.FailReason;
    if (R.UsedSpilling) {
      ++Degraded;
      EXPECT_GT(R.SpilledRanges, 0) << R.Name;
    }
  }
  EXPECT_GT(Degraded, 0);
  EXPECT_EQ(Batch.Stats.Degraded, Degraded);

  // The stats renderers only mention the harden counters when nonzero.
  std::ostringstream Text;
  Batch.Stats.renderText(Text);
  EXPECT_NE(Text.str().find("degraded"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Deadline polling inside the allocator.
//===----------------------------------------------------------------------===//

TEST(WatchdogTest, CancelledAllocationFailsWithDeadlineExceeded) {
  std::optional<MultiThreadProgram> MTP = loadExample("two_threads.s");
  ASSERT_TRUE(MTP);
  InterAllocLimits Limits;
  Limits.Deadline = InterAllocLimits::Clock::now();
  // Nreg=5 sits below Sigma MaxPR + max SR, forcing the Fig. 8 reduction
  // loop to run — where the deadline is polled.
  InterThreadResult R = allocateInterThread(*MTP, 5, {}, {}, nullptr, Limits);
  ASSERT_FALSE(R.Success);
  EXPECT_EQ(R.FailCode, StatusCode::DeadlineExceeded);

  // The spill fallback honours the deadline too instead of degrading.
  SpillFallbackResult SF =
      allocateWithSpillFallback(*MTP, 4, {}, {}, nullptr, Limits);
  EXPECT_FALSE(SF.Inter.Success);
  EXPECT_EQ(SF.Inter.FailCode, StatusCode::DeadlineExceeded);
}

//===----------------------------------------------------------------------===//
// Analysis-cache corruption: a damaged entry is evicted, counted, and
// treated as a miss — never served.
//===----------------------------------------------------------------------===//

TEST(CacheCorruptionTest, CorruptEntryIsEvictedAndRecounted) {
  Program P = renameLiveRanges(makeTinyProgram());
  const std::string Text = programToString(P);
  const uint64_t Key = fnv1aHash(Text);
  auto Bundle =
      std::make_shared<const ThreadAnalysisBundle>(computeThreadAnalysisBundle(P));

  AnalysisCache Cache;
  Cache.insert(Key, Text, Bundle);
  ASSERT_NE(Cache.lookup(Key, Text), nullptr);
  EXPECT_EQ(Cache.hits(), 1);

  const int64_t CounterBefore =
      MetricsRegistry::global().counterValue("cache.corrupt_entries");
  ASSERT_TRUE(Cache.corruptEntryForTesting(Key));
  const int64_t MissesBefore = Cache.misses();
  EXPECT_EQ(Cache.lookup(Key, Text), nullptr); // miss, not a wrong hit
  EXPECT_EQ(Cache.corruptions(), 1);
  EXPECT_EQ(Cache.misses(), MissesBefore + 1);
  EXPECT_EQ(Cache.size(), 0u); // evicted
  EXPECT_EQ(MetricsRegistry::global().counterValue("cache.corrupt_entries"),
            CounterBefore + 1);

  // The cache heals: reinserting restores normal service.
  Cache.insert(Key, Text, Bundle);
  EXPECT_NE(Cache.lookup(Key, Text), nullptr);

  // Corrupting a missing key reports failure.
  EXPECT_FALSE(Cache.corruptEntryForTesting(Key + 1));
}

TEST(CacheCorruptionTest, BatchRecomputesThroughSharedCorruptedCache) {
  AnalysisCache Cache;
  BatchOptions Opts;
  Opts.Nreg = 128;
  Opts.Jobs = 2;
  BatchResult Warm = runBatch(allExampleJobs(), Opts, &Cache);
  ASSERT_GT(Cache.size(), 0u);

  // Damage every entry the pipeline inserted. Keys are reconstructible:
  // analysisCacheKey(flat encoding of the renamed thread, 0) with no
  // profile — the key function processOne uses.
  int Corrupted = 0;
  for (const std::string &Name : allExamples()) {
    std::optional<MultiThreadProgram> MTP = loadExample(Name);
    if (!MTP)
      continue;
    for (const Program &T : MTP->Threads) {
      if (!verifyProgram(T).ok())
        continue; // the pipeline never renamed or cached this thread
      const uint64_t Key =
          analysisCacheKey(encodeProgram(renameLiveRanges(T)), 0);
      if (Cache.corruptEntryForTesting(Key))
        ++Corrupted;
    }
  }
  ASSERT_GT(Corrupted, 0) << "reconstructed no cache keys";

  // The corrupted entries surface as counted misses, never wrong bundles:
  // the rerun recomputes and succeeds job-for-job like the warm run.
  BatchResult Again = runBatch(allExampleJobs(), Opts, &Cache);
  ASSERT_EQ(Warm.Results.size(), Again.Results.size());
  for (size_t I = 0; I < Warm.Results.size(); ++I)
    EXPECT_EQ(Warm.Results[I].Success, Again.Results[I].Success) << I;
  EXPECT_EQ(Cache.corruptions(), Corrupted);
}

//===----------------------------------------------------------------------===//
// FragmentAllocator under contract violations: analyses that do not match
// the program (a stale or corrupt cache bundle) fail gracefully instead of
// tripping an assert.
//===----------------------------------------------------------------------===//

TEST(FragmentRobustnessTest, MismatchedAnalysisFailsGracefully) {
  // Same shape and register set, but A stores the summed register while B
  // stores the base pointer, so B's liveness kills `c` immediately after
  // its definition.
  Program A = parseOrDie(R"(
.thread victim
entry:
    imm  outp, 0x2000
    imm  a, 1
    imm  b, 2
    add  c, a, b
    store [outp+0], c
    halt
)");
  Program B = parseOrDie(R"(
.thread victim
entry:
    imm  outp, 0x2000
    imm  a, 1
    imm  b, 2
    add  c, a, b
    store [outp+0], outp
    halt
)");
  A = renameLiveRanges(A);
  B = renameLiveRanges(B);
  ASSERT_EQ(A.NumRegs, B.NumRegs);
  ThreadAnalysis Stale = analyzeThread(B);
  ColorAllocation R =
      allocateByFragments(A, Stale, Stale.getRegPCSBmax() + 2, 4, CostModel());
  EXPECT_FALSE(R.Feasible);
  EXPECT_FALSE(R.FailReason.empty());
}
