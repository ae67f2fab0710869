//===- alloc_fuzz_test.cpp - Property-based fuzz + differential tests -----===//
//
// Randomised hardening of the full inter+intra allocation stack, run over a
// seeded corpus of >= 200 generated multi-thread programs spanning varied
// thread counts, register file sizes and context-switch densities:
//
//  * Fuzz: every successful allocation must pass the independent
//    AllocationVerifier and the lint cross-thread race checker with zero
//    error findings.
//  * Exact feasibility: the allocator succeeds if and only if the
//    Lemma-1 floor (feasibilityFloor) fits Nreg.
//  * Differential invariants: per-thread bounds always satisfy
//    MinPR <= MaxPR <= MaxR and MinR <= MaxR; and whenever the Chaitin
//    baseline colors every thread inside its fixed Nreg/Nthd partition
//    without spilling, the balancing allocator must also fit Nreg with
//    finite move overhead (the partitioned allocation is one of its
//    feasible points). Any divergence dumps both allocations.
//
// Every assertion message carries the failing seed. Each test's gtest
// parameter IS the seed, so a failure like "AllocFuzz/AllocFuzzTest.X/137"
// reproduces with --gtest_filter='*AllocFuzzTest*/137'.
//
//===----------------------------------------------------------------------===//

#include "FuzzCaseFactory.h"

#include "alloc/AllocationVerifier.h"
#include "baseline/ChaitinAllocator.h"
#include "lint/Lint.h"
#include "lint/TranslationValidator.h"

#include "gtest/gtest.h"

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace npral;
using fuzzcase::FuzzCase;
using fuzzcase::makeCase;

namespace {

std::string dumpNpralAllocation(const InterThreadResult &R) {
  std::ostringstream OS;
  if (!R.Success)
    return "npral: failed (" + R.FailReason + ")";
  OS << "npral: regs=" << R.RegistersUsed << " SGR=" << R.SGR
     << " moves=" << R.TotalMoveCost;
  for (size_t T = 0; T < R.Threads.size(); ++T)
    OS << " | t" << T << " PR=" << R.Threads[T].PR
       << " SR=" << R.Threads[T].SR << " moves=" << R.Threads[T].MoveCost
       << " " << R.Threads[T].Strategy;
  return OS.str();
}

std::string dumpChaitinAllocation(const std::vector<ChaitinResult> &Rs) {
  std::ostringstream OS;
  OS << "chaitin:";
  for (size_t T = 0; T < Rs.size(); ++T) {
    OS << " | t" << T;
    if (Rs[T].Success)
      OS << " colors=" << Rs[T].ColorsUsed << " spilled=" << Rs[T].SpilledRanges;
    else
      OS << " failed (" << Rs[T].FailReason << ")";
  }
  return OS.str();
}

std::string dumpDiagnostics(const DiagnosticEngine &Engine) {
  std::ostringstream OS;
  Engine.renderText(OS);
  return OS.str();
}

} // namespace

class AllocFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocFuzzTest, AllocationVerifiesAndRaceFree) {
  const uint64_t Seed = GetParam();
  FuzzCase C = makeCase(Seed);

  // Per-thread bounds and the Lemma-1 feasibility floor: the allocator
  // must succeed exactly when the floor fits Nreg.
  std::vector<std::shared_ptr<const ThreadAnalysisBundle>> Bundles;
  std::vector<const RegBounds *> Bounds;
  for (const Program &P : C.Renamed.Threads) {
    auto Bundle =
        std::make_shared<const ThreadAnalysisBundle>(computeThreadAnalysisBundle(P));
    const RegBounds &B = Bundle->Bounds;
    // Differential invariants on the bounds themselves.
    EXPECT_LE(B.MinPR, B.MaxPR) << "seed " << Seed;
    EXPECT_LE(B.MaxPR, B.MaxR) << "seed " << Seed;
    EXPECT_LE(B.MinR, B.MaxR) << "seed " << Seed;
    EXPECT_LE(B.MinPR, B.MinR) << "seed " << Seed;
    Bounds.push_back(&B);
    Bundles.push_back(std::move(Bundle));
  }
  const int Floor = feasibilityFloor(Bounds);

  InterThreadResult R = allocateInterThread(C.Renamed, C.Nreg, Bundles);
  ASSERT_EQ(R.Success, Floor <= C.Nreg)
      << "seed " << Seed << ": floor " << Floor << " vs Nreg=" << C.Nreg
      << ": " << (R.Success ? "allocated" : R.FailReason);
  if (!R.Success) {
    // Genuinely infeasible budget; nothing to verify.
    EXPECT_EQ(R.FailCode, StatusCode::Infeasible) << "seed " << Seed;
    return;
  }

  EXPECT_LE(R.RegistersUsed, C.Nreg) << "seed " << Seed;

  // Zero defects from the independent safety verifier...
  DiagnosticEngine Safety;
  collectAllocationSafety(R.Physical, Safety);
  EXPECT_EQ(Safety.errorCount(), 0)
      << "seed " << Seed << "\n" << dumpDiagnostics(Safety) << "\n"
      << dumpNpralAllocation(R);

  // ...and from the lint cross-thread race checker.
  DiagnosticEngine Races;
  LintOptions Opts;
  Opts.OnlyChecks = {"cross-thread-race"};
  runAllCheckers(R.Physical, Races, Opts);
  EXPECT_EQ(Races.errorCount(), 0)
      << "seed " << Seed << "\n" << dumpDiagnostics(Races) << "\n"
      << dumpNpralAllocation(R);
}

TEST_P(AllocFuzzTest, DominatesSpillFreeChaitinPartition) {
  const uint64_t Seed = GetParam();
  FuzzCase C = makeCase(Seed);

  // The production-compiler layout: each thread confined to a fixed
  // Nreg/Nthd partition, no sharing.
  const int Partition = C.Nreg / C.Nthd;
  std::vector<ChaitinResult> Baseline;
  bool SpillFree = true;
  for (size_t T = 0; T < C.Virtual.Threads.size(); ++T) {
    ChaitinConfig Config;
    Config.NumColors = Partition;
    Config.SpillBase = 0xF000 + 0x100 * static_cast<int64_t>(T);
    Baseline.push_back(runChaitinAllocator(C.Virtual.Threads[T], Config));
    if (!Baseline.back().Success || Baseline.back().SpilledRanges > 0)
      SpillFree = false;
  }
  if (!SpillFree)
    return; // the baseline needed spills; no dominance claim to check

  // A spill-free partitioned coloring is a feasible point of the balancing
  // allocator's search space, so it must fit Nreg with finite move cost.
  InterThreadResult R = allocateInterThread(C.Renamed, C.Nreg);
  ASSERT_TRUE(R.Success)
      << "seed " << Seed << ": Chaitin colors every " << Partition
      << "-register partition spill-free but npral cannot fit Nreg="
      << C.Nreg << "\n" << dumpNpralAllocation(R) << "\n"
      << dumpChaitinAllocation(Baseline);
  EXPECT_LE(R.RegistersUsed, C.Nreg)
      << "seed " << Seed << "\n" << dumpNpralAllocation(R) << "\n"
      << dumpChaitinAllocation(Baseline);
  EXPECT_GE(R.TotalMoveCost, 0) << "seed " << Seed;
}

TEST_P(AllocFuzzTest, SpillFallbackRecoversInfeasibleBudgets) {
  const uint64_t Seed = GetParam();
  FuzzCase C = makeCase(Seed, /*SmallPrograms=*/true);

  // Squeeze the budget below the feasibility lower bound so the strict
  // allocator must report Infeasible, then require the spill fallback to
  // produce a safe, race-free allocation anyway. The squeeze is shallow
  // (1..4 registers below LB, varied by seed) — each demoted range costs a
  // full re-analysis round, so deep squeezes would dominate suite runtime
  // without strengthening the property. Generated programs have
  // three-operand instructions, so 4 registers is the practical floor.
  int SumMinPR = 0, MaxMinSRGap = 0;
  for (const Program &P : C.Renamed.Threads) {
    const RegBounds B = estimateRegBounds(analyzeThread(P));
    SumMinPR += B.MinPR;
    MaxMinSRGap = std::max(MaxMinSRGap, B.MinR - B.MinPR);
  }
  const int LowerBound = SumMinPR + MaxMinSRGap;
  const int Squeeze = 1 + static_cast<int>(Seed % 4);
  const int Tight = std::max(4 * C.Nthd, LowerBound - Squeeze);
  if (Tight >= LowerBound)
    return; // this corpus entry has no squeezable gap

  InterThreadResult Strict = allocateInterThread(C.Renamed, Tight);
  ASSERT_FALSE(Strict.Success) << "seed " << Seed << ": Nreg=" << Tight
                               << " below LB=" << LowerBound;
  EXPECT_EQ(Strict.FailCode, StatusCode::Infeasible) << "seed " << Seed;

  SpillFallbackOptions Opts;
  Opts.MaxSpills = 256;
  SpillFallbackResult SF = allocateWithSpillFallback(
      C.Renamed, Tight, {}, {}, nullptr, InterAllocLimits(), Opts);
  ASSERT_TRUE(SF.Inter.Success)
      << "seed " << Seed << ": spill fallback failed at Nreg=" << Tight
      << " (LB=" << LowerBound << "): " << SF.Inter.FailReason;
  EXPECT_TRUE(SF.UsedSpilling) << "seed " << Seed;
  EXPECT_LE(SF.Inter.RegistersUsed, Tight) << "seed " << Seed;

  DiagnosticEngine Safety;
  collectAllocationSafety(SF.Inter.Physical, Safety);
  EXPECT_FALSE(Safety.hasErrors())
      << "seed " << Seed << "\n" << dumpDiagnostics(Safety) << "\n"
      << dumpNpralAllocation(SF.Inter);
  for (const Diagnostic &D : Safety.diagnostics())
    EXPECT_NE(D.Check, "cross-thread-abs-overlap")
        << "seed " << Seed << ": spill scratch windows overlap: "
        << D.Message;
}

TEST_P(AllocFuzzTest, TranslationValidationHolds) {
  const uint64_t Seed = GetParam();
  // Small programs: this property runs the allocator three times (unit,
  // PGO-weighted, spill-degraded) and the validator's fixpoint after each.
  FuzzCase C = makeCase(Seed, /*SmallPrograms=*/true);

  // Unit-weighted allocation: every successful output must be provably
  // equivalent to the renamed virtual program.
  InterThreadResult Unit = allocateInterThread(C.Renamed, C.Nreg);
  if (Unit.Success) {
    DiagnosticEngine Engine;
    ValidationResult V = validateTranslation(C.Renamed, Unit.Physical, Engine);
    EXPECT_TRUE(V.Proved)
        << "seed " << Seed << ": unit allocation refuted\n"
        << dumpDiagnostics(Engine) << "\n" << dumpNpralAllocation(Unit);
  }

  // Static-PGO weights change which copies the allocator places, never
  // what the program computes — the proof must still go through.
  std::vector<CostModel> Models;
  for (const Program &P : C.Renamed.Threads)
    Models.push_back(estimateCostModel(P));
  InterThreadResult Pgo = allocateInterThread(C.Renamed, C.Nreg, {}, Models);
  if (Pgo.Success) {
    DiagnosticEngine Engine;
    ValidationResult V = validateTranslation(C.Renamed, Pgo.Physical, Engine);
    EXPECT_TRUE(V.Proved)
        << "seed " << Seed << ": static-PGO allocation refuted\n"
        << dumpDiagnostics(Engine) << "\n" << dumpNpralAllocation(Pgo);
  }

  // Spill-degraded output: squeeze the budget below the feasibility lower
  // bound so the fallback must demote ranges, then prove the degraded
  // program (spill code, pre-entry blocks and all) against the same
  // pre-spill reference.
  int SumMinPR = 0, MaxMinSRGap = 0;
  for (const Program &P : C.Renamed.Threads) {
    const RegBounds B = estimateRegBounds(analyzeThread(P));
    SumMinPR += B.MinPR;
    MaxMinSRGap = std::max(MaxMinSRGap, B.MinR - B.MinPR);
  }
  const int LowerBound = SumMinPR + MaxMinSRGap;
  const int Tight = std::max(4 * C.Nthd, LowerBound - 1 -
                                             static_cast<int>(Seed % 4));
  if (Tight >= LowerBound)
    return; // no squeezable gap in this corpus entry
  SpillFallbackOptions Opts;
  Opts.MaxSpills = 256;
  SpillFallbackResult SF = allocateWithSpillFallback(
      C.Renamed, Tight, {}, {}, nullptr, InterAllocLimits(), Opts);
  if (!SF.Inter.Success)
    return; // recovery itself is SpillFallbackRecoversInfeasibleBudgets' job
  DiagnosticEngine Engine;
  ValidationResult V =
      validateTranslation(C.Renamed, SF.Inter.Physical, Engine);
  EXPECT_TRUE(V.Proved)
      << "seed " << Seed << ": spill-degraded allocation at Nreg=" << Tight
      << " refuted\n" << dumpDiagnostics(Engine) << "\n"
      << dumpNpralAllocation(SF.Inter);
  if (SF.UsedSpilling)
    EXPECT_GT(V.CopiesInterpreted, 0)
        << "seed " << Seed
        << ": degraded output proved without interpreting any spill code";
}

namespace {

/// Lazily loaded golden map: (seed, mode) -> outcome string, recorded by
/// `record_alloc_goldens` on the pre-rewrite build (see the file header in
/// alloc_goldens.txt).
const std::map<std::pair<uint64_t, std::string>, std::string> &goldens() {
  static const auto *Map = [] {
    auto *M = new std::map<std::pair<uint64_t, std::string>, std::string>();
    std::ifstream In(NPRAL_ALLOC_GOLDENS_FILE);
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      std::istringstream LS(Line);
      uint64_t Seed;
      std::string Mode, Outcome;
      if (LS >> Seed >> Mode >> Outcome)
        (*M)[{Seed, Mode}] = Outcome;
    }
    return M;
  }();
  return *Map;
}

} // namespace

// Bit-identity clause: the printed assembly of every allocation (plain,
// static-PGO-weighted, and spill-degraded) must be byte-equal to what the
// pre-rewrite allocator produced — goldens carry an FNV-64 of the full
// text, so any drift in analysis results, elimination orders, tie-breaks or
// copy placement fails here with the seed and mode in hand.
TEST_P(AllocFuzzTest, BitIdenticalToPreRewriteGoldens) {
  const uint64_t Seed = GetParam();
  for (const char *Mode : {"plain", "pgo", "spill"}) {
    auto It = goldens().find({Seed, Mode});
    ASSERT_NE(It, goldens().end())
        << "no golden for seed " << Seed << " mode " << Mode
        << " — run record_alloc_goldens";
    EXPECT_EQ(fuzzcase::goldenOutcome(Seed, Mode), It->second)
        << "seed " << Seed << " mode " << Mode
        << ": allocation diverged from the pre-rewrite golden";
  }
}

// 5 tests x 200 seeds = 1000 randomized cases over varied (Nthd, Nreg, CSB
// density). The parameter is the seed itself; rerun one case with
// --gtest_filter='*AllocFuzzTest*/<seed>'.
INSTANTIATE_TEST_SUITE_P(AllocFuzz, AllocFuzzTest,
                         ::testing::Range<uint64_t>(0, 200));
