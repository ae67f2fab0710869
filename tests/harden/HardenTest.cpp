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

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <sstream>

using namespace npral;
using namespace npral::test;

namespace {

std::string examplePath(const std::string &Name) {
  return std::string(NPRAL_EXAMPLES_ASM_DIR) + "/" + Name;
}

/// Every examples/asm program, by file name, in sorted order.
const std::vector<std::string> &allExamples() {
  static const std::vector<std::string> Files = [] {
    std::vector<std::string> Names;
    for (const auto &Entry :
         std::filesystem::directory_iterator(NPRAL_EXAMPLES_ASM_DIR))
      if (Entry.path().extension() == ".s")
        Names.push_back(Entry.path().filename().string());
    std::sort(Names.begin(), Names.end());
    return Names;
  }();
  return Files;
}

/// The lowest budget at which the spill fallback recovers each example;
/// it recovers at every budget from there up. Below it the fallback runs
/// out of spillable live ranges and fails Infeasible. The floor is a
/// property of each program (2 to 5 registers here), not a machine
/// minimum, so it is pinned per example. lint_buggy.s fails the
/// structural checkers and has none.
int recoveryFloor(const std::string &Name) {
  static const std::map<std::string, int> Floors = {
      {"bad_alloc.s", 3},     {"bad_swap.s", 2},        {"crc_fold.s", 3},
      {"fig3_paper.s", 2},    {"hash_probe.s", 4},      {"header_split.s", 4},
      {"modular_kernel.s", 2}, {"packet_filter.s", 3},  {"quad_counters.s", 5},
      {"ring_handoff.s", 3},  {"scratch_mailbox.s", 4}, {"token_bucket.s", 4},
      {"ttl_rewrite.s", 3},   {"two_threads.s", 3}};
  const auto It = Floors.find(Name);
  return It == Floors.end() ? -1 : It->second;
}

/// Parse and rename an example file; nullopt when unreadable.
std::optional<MultiThreadProgram> loadExample(const std::string &Name) {
  ErrorOr<std::string> Text = readTextFile(examplePath(Name));
  if (!Text.ok())
    return std::nullopt;
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(*Text);
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

/// The smallest budget the strict allocator fits (the Lemma-1 floor).
int strictFloor(const MultiThreadProgram &MTP) {
  std::vector<RegBounds> Bounds;
  for (const Program &T : MTP.Threads)
    Bounds.push_back(estimateRegBounds(analyzeThread(T)));
  std::vector<const RegBounds *> Ptrs;
  for (const RegBounds &B : Bounds)
    Ptrs.push_back(&B);
  return feasibilityFloor(Ptrs);
}

/// The cross-thread-abs-overlap findings on \p Physical: the absolute
/// words one thread writes and another accesses.
std::set<std::string> absOverlaps(const MultiThreadProgram &Physical) {
  DiagnosticEngine Engine;
  collectAllocationSafety(Physical, Engine);
  std::set<std::string> Words;
  for (const Diagnostic &D : Engine.diagnostics())
    if (D.Check == "cross-thread-abs-overlap")
      Words.insert(D.Message);
  return Words;
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
// Infeasible-budget grid: below the strict floor the strict allocator must
// fail, and from its recovery floor up the spill fallback must degrade into
// a verifier-clean, race-free, simulator-correct allocation.
//===----------------------------------------------------------------------===//

class InfeasibleBudgetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(InfeasibleBudgetTest, SpillFallbackRecoversTightBudgets) {
  std::optional<MultiThreadProgram> MTP = loadExample(GetParam());
  ASSERT_TRUE(MTP) << "cannot load " << GetParam();
  if (!passesStructuralChecks(*MTP))
    GTEST_SKIP() << GetParam() << " is a deliberately malformed example";
  const int Recovery = recoveryFloor(GetParam());
  ASSERT_GT(Recovery, 0) << "pin the recovery floor of " << GetParam();
  const int Strict = strictFloor(*MTP);

  // The reference: the virtual program's outputs, and the absolute words
  // its threads already share by design (scratch_mailbox.s, and
  // token_bucket.s, whose threads race on one word) in a roomy strict
  // allocation. A shared word's final value legitimately shifts with
  // spill-code timing, so outputs are compared only where none is shared.
  InterThreadResult Roomy = allocateInterThread(*MTP, 128);
  ASSERT_TRUE(Roomy.Success) << Roomy.FailReason;
  const std::set<std::string> Shared = absOverlaps(Roomy.Physical);
  const HardenRun Ref = simulateHashed(*MTP);
  ASSERT_TRUE(Ref.Result.Completed) << Ref.Result.FailReason;

  for (int Nreg = 1; Nreg < Strict; ++Nreg) {
    SCOPED_TRACE("Nreg=" + std::to_string(Nreg));
    InterThreadResult StrictR = allocateInterThread(*MTP, Nreg);
    ASSERT_FALSE(StrictR.Success) << "below the strict floor " << Strict;
    EXPECT_EQ(StrictR.FailCode, StatusCode::Infeasible);

    SpillFallbackResult SF = allocateWithSpillFallback(
        *MTP, Nreg, {}, {}, nullptr, InterAllocLimits());
    if (Nreg < Recovery) {
      EXPECT_FALSE(SF.Inter.Success) << "below the recovery floor";
      EXPECT_EQ(SF.Inter.FailCode, StatusCode::Infeasible);
      continue;
    }
    ASSERT_TRUE(SF.Inter.Success) << SF.Inter.FailReason;
    EXPECT_TRUE(SF.UsedSpilling);
    EXPECT_GT(SF.SpilledRanges, 0);
    EXPECT_LE(SF.Inter.RegistersUsed, Nreg);

    // Verifier-clean and race-free, including the spill scratch region:
    // per-thread windows are disjoint, so spilling shares no absolute word
    // the roomy allocation does not.
    DiagnosticEngine Engine;
    collectAllocationSafety(SF.Inter.Physical, Engine);
    EXPECT_FALSE(Engine.hasErrors());
    for (const std::string &Word : absOverlaps(SF.Inter.Physical))
      EXPECT_TRUE(Shared.count(Word)) << "spilling added: " << Word;

    // Simulator-correct: the degraded physical program computes the same
    // low-memory outputs as the virtual reference, and its extra memory
    // traffic includes the absolute-addressed spill accesses.
    HardenRun Deg = simulateHashed(SF.Inter.Physical);
    ASSERT_TRUE(Deg.Result.Completed) << Deg.Result.FailReason;
    if (Shared.empty()) {
      EXPECT_EQ(Deg.OutputHash, Ref.OutputHash);
    }
    EXPECT_GT(Deg.AbsMemOps, Ref.AbsMemOps);
  }
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
        EXPECT_TRUE(R->FailStage.has_value()) << R->Name;
        EXPECT_NE(R->FailCode, StatusCode::Ok) << R->Name;
      }

      // At 100% every job dies at the probed site — except sites later in
      // the pipeline than a job's natural failure (lint_buggy fails the
      // analysis checkers before reaching "alloc"). The cache probe fires
      // inside the analysis stage.
      const JobStage Expected = Site == "parse"   ? JobStage::Parse
                                : Site == "alloc" ? JobStage::Alloc
                                                  : JobStage::Analysis;
      int Injected = 0;
      for (const BatchJobResult &R : Batch.Results)
        if (R.FailCode == StatusCode::FaultInjected) {
          ++Injected;
          EXPECT_EQ(R.FailStage, Expected) << R.Name;
        }
      EXPECT_GT(Injected, 0) << "site " << Site << " never fired";
      EXPECT_EQ(Batch.Stats.FaultsInjected, Injected);
      if (Site == "parse") {
        EXPECT_EQ(static_cast<size_t>(Injected), Batch.Results.size());
      }
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
  Opts.Nreg = 4; // below the strict floor of all but bad_swap and fig3_paper
  Opts.Jobs = 2;
  Opts.AllowSpill = true;
  BatchResult Batch = runBatch(allExampleJobs(), Opts);
  int Degraded = 0;
  for (const BatchJobResult &R : Batch.Results) {
    if (R.Name == "lint_buggy.s") {
      EXPECT_FALSE(R.Success);
      EXPECT_EQ(R.FailStage, JobStage::Analysis);
      continue;
    }
    // Only an example whose recovery floor exceeds the budget fails.
    if (recoveryFloor(R.Name) > Opts.Nreg) {
      EXPECT_FALSE(R.Success) << R.Name;
      EXPECT_EQ(R.failureSummary().rfind("[alloc/infeasible] ", 0), 0u)
          << R.Name << ": " << R.failureSummary();
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
