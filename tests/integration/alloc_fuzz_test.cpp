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
// Two unparameterised properties run through the job path: every swap the
// allocator writes must prove (AllocFuzzSwapTest), and the corpus must
// hold 1 ms and 5 ms deadlines (AllocFuzzDeadlineTest). A third mutates
// allocations and checks that the translation validator refutes every
// mutant the safety verifier refuses for a race at a reachable CSB
// (AllocFuzzPrivacyTest).
//
// Every assertion message carries the failing seed. Each test's gtest
// parameter IS the seed, so a failure like "AllocFuzz/AllocFuzzTest.X/137"
// reproduces with --gtest_filter='*AllocFuzzTest*/137'.
//
//===----------------------------------------------------------------------===//

#include "FuzzCaseFactory.h"

#include "alloc/AllocationVerifier.h"
#include "analysis/NSR.h"
#include "baseline/ChaitinAllocator.h"
#include "driver/BatchPipeline.h"
#include "ir/CFGUtils.h"
#include "lint/Lint.h"
#include "lint/TranslationValidator.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <chrono>
#include <ctime>
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

namespace {

/// True when \p MTP holds the register swap appendXorSwap writes:
/// `xor A, A, B; xor B, A, B; xor A, A, B` with A != B, in one block.
bool containsXorSwap(const MultiThreadProgram &MTP) {
  for (const Program &T : MTP.Threads)
    for (const BasicBlock &BB : T.Blocks)
      for (size_t I = 0; I + 2 < BB.Instrs.size(); ++I) {
        const Instruction &X = BB.Instrs[I];
        const Instruction &Y = BB.Instrs[I + 1];
        const Instruction &Z = BB.Instrs[I + 2];
        const Reg A = X.Def;
        const Reg B = X.Use2;
        if (A != B && X.Op == Opcode::Xor && X.Use1 == A &&
            Y.Op == Opcode::Xor && Y.Def == B && Y.Use1 == A &&
            Y.Use2 == B && Z.Op == Opcode::Xor && Z.Def == A &&
            Z.Use1 == A && Z.Use2 == B)
          return true;
      }
  return false;
}

} // namespace

// Every swap the allocator writes must prove on the job path. Small seeds
// 0..119 at every third budget from 4 registers per thread up to 40,
// spilling on even budgets, put swaps in front of xors whose operands sit
// in the two swapped registers (seed 26 at Nreg 22): reading such a swap's
// first xor as the image of the virtual xor refutes a correct allocation.
TEST(AllocFuzzSwapTest, EverySwapProves) {
  int Jobs = 0, Proved = 0, ProvedWithSwap = 0;
  for (uint64_t Seed = 0; Seed < 120; ++Seed) {
    const FuzzCase C = makeCase(Seed, /*SmallPrograms=*/true);
    for (int Nreg = 4 * C.Nthd; Nreg <= 40; Nreg += 3) {
      BatchJob Job;
      Job.Name = "seed " + std::to_string(Seed) + " at Nreg " +
                 std::to_string(Nreg);
      Job.Program = C.Virtual;
      BatchOptions Opts;
      Opts.Nreg = Nreg;
      Opts.AllowSpill = Nreg % 2 == 0;
      Opts.MaxSpills = 256;
      Opts.KeepPhysical = true;
      const BatchJobResult R = runSingleJob(Job, Opts);
      ++Jobs;
      EXPECT_FALSE(R.FailStage == JobStage::Validate)
          << Job.Name << ": " << R.failureSummary() << "\n"
          << dumpDiagnostics(R.ValidateDiags);
      if (R.Success) {
        ++Proved;
        ProvedWithSwap += containsXorSwap(R.Physical);
      }
    }
  }
  EXPECT_EQ(Jobs, 1207);
  EXPECT_GE(ProvedWithSwap, 150)
      << "of " << Proved << " proved outputs, too few carry a swap";
}

namespace {

/// The ways AllocFuzzPrivacyTest breaks an allocation.
enum class Mutation {
  /// Re-point a register one thread keeps live across a CSB at one another
  /// thread references.
  Repoint,
  /// Delete one inserted mov.
  DropMove,
  /// Swap two adjacent non-branch instructions.
  SwapAdjacent,
};
constexpr Mutation Mutations[] = {Mutation::Repoint, Mutation::DropMove,
                                  Mutation::SwapAdjacent};
constexpr const char *MutationNames[] = {"repoint", "drop-move",
                                         "swap-adjacent"};

/// Registers \p P names in an instruction or holds entry-live.
BitVector referencedRegs(const Program &P) {
  BitVector Refs(P.NumRegs);
  for (Reg R : P.EntryLiveRegs)
    Refs.set(R);
  for (const BasicBlock &BB : P.Blocks)
    for (const Instruction &I : BB.Instrs) {
      std::array<Reg, 2> Uses;
      const int N = I.getUses(Uses);
      for (int U = 0; U < N; ++U)
        Refs.set(Uses[static_cast<size_t>(U)]);
      if (I.Def != NoReg)
        Refs.set(I.Def);
    }
  return Refs;
}

/// Apply \p M to allocation \p Phys at the site \p Seed picks among the
/// candidates; false when the allocation has none.
bool mutateAllocation(MultiThreadProgram &Phys, Mutation M, uint64_t Seed) {
  struct Site {
    int Thread, Block, Instr;
  };
  std::vector<Site> Sites;
  for (int T = 0; T < Phys.getNumThreads(); ++T) {
    const Program &P = Phys.Threads[static_cast<size_t>(T)];
    if (M == Mutation::Repoint) {
      // A site here is a register (Block holds it) live across a CSB.
      BitVector Across(P.NumRegs);
      forEachCSB(P, computeLiveness(P),
                 [&](int, int, const BitVector &X) { Across.unionWith(X); });
      Across.forEach([&](int R) { Sites.push_back({T, R, -1}); });
      continue;
    }
    for (int B = 0; B < P.getNumBlocks(); ++B) {
      const std::vector<Instruction> &Is = P.block(B).Instrs;
      for (int I = 0; I < static_cast<int>(Is.size()); ++I) {
        const Instruction &X = Is[static_cast<size_t>(I)];
        if (M == Mutation::DropMove ? X.Op == Opcode::Mov
                                    : I + 1 < static_cast<int>(Is.size()) &&
                                          !X.isBranch() && !X.isTerminator() &&
                                          !Is[static_cast<size_t>(I) + 1]
                                               .isBranch() &&
                                          !Is[static_cast<size_t>(I) + 1]
                                               .isTerminator())
          Sites.push_back({T, B, I});
      }
    }
  }
  if (Sites.empty())
    return false;
  const Site S = Sites[static_cast<size_t>(Seed % Sites.size())];
  Program &P = Phys.Threads[static_cast<size_t>(S.Thread)];
  if (M == Mutation::DropMove) {
    std::vector<Instruction> &Is = P.block(S.Block).Instrs;
    Is.erase(Is.begin() + S.Instr);
    return true;
  }
  if (M == Mutation::SwapAdjacent) {
    std::vector<Instruction> &Is = P.block(S.Block).Instrs;
    std::swap(Is[static_cast<size_t>(S.Instr)],
              Is[static_cast<size_t>(S.Instr) + 1]);
    return true;
  }
  // Re-point: the lowest register another thread references and this one
  // does not, else any other thread's register but this one.
  const Reg From = S.Block;
  const BitVector Own = referencedRegs(P);
  Reg To = NoReg, Fallback = NoReg;
  for (int U = 0; U < Phys.getNumThreads(); ++U) {
    if (U == S.Thread)
      continue;
    referencedRegs(Phys.Threads[static_cast<size_t>(U)]).forEach([&](int R) {
      if (R != From && !Own.test(R) && (To == NoReg || R < To))
        To = R;
      if (R != From && (Fallback == NoReg || R < Fallback))
        Fallback = R;
    });
  }
  if (To == NoReg)
    To = Fallback;
  if (To == NoReg)
    return false;
  auto repoint = [&](Reg &R) {
    if (R == From)
      R = To;
  };
  for (Reg &R : P.EntryLiveRegs)
    repoint(R);
  for (BasicBlock &BB : P.Blocks)
    for (Instruction &I : BB.Instrs) {
      repoint(I.Def);
      repoint(I.Use1);
      repoint(I.Use2);
    }
  return true;
}

} // namespace

// The translation validator enforces CSB privacy during its own walk, so
// it subsumes the safety verifier on reachable code: every mutant of a
// unit or spill-degraded allocation that collectAllocationSafety refuses
// with a cross-thread-race error at a reachable CSB, the validator refutes.
// The counts per mutation kind are in EXPERIMENTS.md ("One physical-program
// check").
TEST(AllocFuzzPrivacyTest, ValidatorRefutesEveryVerifierRaceAtReachableCSB) {
  // Per mutation kind: refused by the verifier only, by the validator only,
  // by both, by neither.
  int Counts[3][4] = {};
  int ReachableRaces = 0;
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    const FuzzCase C = makeCase(Seed, /*SmallPrograms=*/true);
    std::vector<MultiThreadProgram> Allocs;
    InterThreadResult Unit = allocateInterThread(C.Renamed, C.Nreg);
    if (Unit.Success)
      Allocs.push_back(std::move(Unit.Physical));
    // The squeezed budget of TranslationValidationHolds.
    int SumMinPR = 0, MaxMinSRGap = 0;
    for (const Program &P : C.Renamed.Threads) {
      const RegBounds B = estimateRegBounds(analyzeThread(P));
      SumMinPR += B.MinPR;
      MaxMinSRGap = std::max(MaxMinSRGap, B.MinR - B.MinPR);
    }
    const int LowerBound = SumMinPR + MaxMinSRGap;
    const int Tight = std::max(4 * C.Nthd, LowerBound - 1 -
                                               static_cast<int>(Seed % 4));
    if (Tight < LowerBound) {
      SpillFallbackOptions Opts;
      Opts.MaxSpills = 256;
      SpillFallbackResult SF = allocateWithSpillFallback(
          C.Renamed, Tight, {}, {}, nullptr, InterAllocLimits(), Opts);
      if (SF.Inter.Success && SF.UsedSpilling)
        Allocs.push_back(std::move(SF.Inter.Physical));
    }
    for (const MultiThreadProgram &Alloc : Allocs)
      for (Mutation M : Mutations) {
        MultiThreadProgram Mutant = Alloc;
        if (!mutateAllocation(Mutant, M, Seed))
          continue;
        DiagnosticEngine Safety;
        collectAllocationSafety(Mutant, Safety);
        bool ReachableRace = false;
        for (const Diagnostic &D : Safety.diagnostics())
          for (const Program &P : Mutant.Threads)
            if (D.Sev == Severity::Error && D.Check == "cross-thread-race" &&
                D.Thread == P.Name && D.Block >= 0 &&
                findReachableBlocks(P)[static_cast<size_t>(D.Block)])
              ReachableRace = true;
        DiagnosticEngine Engine;
        const bool Refuted =
            !validateTranslation(C.Renamed, Mutant, Engine).Proved;
        ReachableRaces += ReachableRace;
        EXPECT_TRUE(!ReachableRace || Refuted)
            << "seed " << Seed << ", " << MutationNames[static_cast<int>(M)]
            << ": the verifier refuses a race the validator proves\n"
            << dumpDiagnostics(Safety);
        const bool Refused = Safety.hasErrors();
        ++Counts[static_cast<int>(M)][Refused ? (Refuted ? 2 : 0)
                                              : (Refuted ? 1 : 3)];
      }
  }
  for (Mutation M : Mutations) {
    const int *K = Counts[static_cast<int>(M)];
    std::printf("%-13s verifier only %d, validator only %d, both %d, "
                "neither %d\n",
                MutationNames[static_cast<int>(M)], K[0], K[1], K[2], K[3]);
    EXPECT_GT(K[0] + K[1] + K[2] + K[3], 0);
  }
  EXPECT_GT(ReachableRaces, 0);
}

namespace {

/// How long past its deadline a job may take to return. A job overruns
/// by the longest stretch of work between two deadline polls: over this
/// corpus that unit measured at most 0.64 ms in a Release build (one
/// thread's analysis and bounds, a verify or validate pass, or one intra
/// allocation's direct and fragment strategies), and overruns reached
/// 4.3 ms under ASan+UBSan with a 16 MB quarantine and 8.3 ms under TSan
/// on an idle 4-vCPU host. The rest is room for what no poll can bound: a
/// default 256 MB ASan quarantine stalls a job for ~25 ms when it
/// recycles, and on an oversubscribed host overruns reached 44 ms under
/// ASan and 64 ms under TSan.
constexpr int64_t DeadlineSlackMs = 100;

constexpr int64_t NsPerMs = 1000000;

/// One corpus case as a job: the plain seeds at their own budgets and spill
/// seeds 0..11 squeezed below their floors with the spill fallback on (the
/// corpus the goldens and bench/alloc_tail use), physical program kept.
struct JobCase {
  std::string Name;
  BatchJob Job;
  BatchOptions Opts;
};

std::vector<JobCase> jobCorpus() {
  std::vector<JobCase> Corpus;
  auto add = [&Corpus](std::string Name, FuzzCase C, int Nreg, bool Spill) {
    JobCase K;
    K.Name = std::move(Name);
    K.Job.Name = K.Name;
    K.Job.Program = std::move(C.Virtual);
    K.Opts.Nreg = Nreg;
    K.Opts.AllowSpill = Spill;
    K.Opts.MaxSpills = 256;
    K.Opts.KeepPhysical = true;
    Corpus.push_back(std::move(K));
  };
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    FuzzCase C = makeCase(Seed);
    const int Nreg = C.Nreg;
    add("plain seed " + std::to_string(Seed), std::move(C), Nreg, false);
  }
  for (uint64_t Seed = 0; Seed < 12; ++Seed) {
    FuzzCase C = makeCase(Seed, /*SmallPrograms=*/true);
    if (const int Tight = fuzzcase::squeezedBudget(C, Seed))
      add("spill seed " + std::to_string(Seed), std::move(C), Tight, true);
  }
  return Corpus;
}

/// CPU time of the calling thread so far, in nanoseconds.
int64_t threadCpuNs() {
  timespec TS;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS);
  return static_cast<int64_t>(TS.tv_sec) * 1000 * NsPerMs + TS.tv_nsec;
}

/// Wall and CPU time of one job, in nanoseconds.
struct JobTime {
  int64_t WallNs = 0;
  int64_t CpuNs = 0;
};

/// Run \p K under a \p DeadlineMs deadline (0 = none) into \p R, timed
/// around the call.
JobTime timeJob(const JobCase &K, int DeadlineMs, BatchJobResult &R) {
  BatchOptions Opts = K.Opts;
  Opts.DeadlineMs = DeadlineMs;
  const int64_t Cpu0 = threadCpuNs();
  const auto T0 = std::chrono::steady_clock::now();
  R = runSingleJob(K.Job, Opts);
  JobTime T;
  T.WallNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - T0)
                 .count();
  T.CpuNs = threadCpuNs() - Cpu0;
  return T;
}

} // namespace

// The deadline contract through the job path: a job fails with
// DeadlineExceeded only once its deadline has passed, a case that needs
// well over the deadline always fails so, a job that returns in time keeps
// its verdict and its allocation, and no job returns later than
// DeadlineSlackMs past its deadline. Plain seed 184 spends ~20 ms in one
// long greedy split, polled at every iteration, so it fails at both
// deadlines.
TEST(AllocFuzzDeadlineTest, DeadlineBoundsEveryJob) {
  const std::vector<JobCase> Corpus = jobCorpus();
  ASSERT_EQ(Corpus.size(), 212u);

  // Each case's verdict, and the fastest of three passes over the corpus
  // without a deadline. Speed is thread CPU time, which a loaded runner's
  // preemption cannot inflate the way it inflates wall time. A case under
  // 2·1 + 1 ms, the lower threshold below, is not run again.
  std::vector<BatchJobResult> Verdict(Corpus.size());
  std::vector<int64_t> FastestNs(Corpus.size());
  for (size_t I = 0; I < Corpus.size(); ++I)
    FastestNs[I] = timeJob(Corpus[I], 0, Verdict[I]).CpuNs;
  for (int Pass = 1; Pass < 3; ++Pass)
    for (size_t I = 0; I < Corpus.size(); ++I)
      if (FastestNs[I] >= 3 * NsPerMs) {
        BatchJobResult R;
        FastestNs[I] = std::min(FastestNs[I], timeJob(Corpus[I], 0, R).CpuNs);
      }

  for (const int64_t D : {1, 5}) {
    for (size_t I = 0; I < Corpus.size(); ++I) {
      const JobCase &K = Corpus[I];
      BatchJobResult R;
      const int64_t WallNs = timeJob(K, static_cast<int>(D), R).WallNs;
      const bool Exceeded = R.FailCode == StatusCode::DeadlineExceeded;
      const std::string Where = K.Name + " at " + std::to_string(D) +
                                " ms: " + std::to_string(WallNs) + " ns, " +
                                (R.Success ? "ok" : R.failureSummary());
      if (Exceeded) {
        EXPECT_GE(WallNs, D * NsPerMs) << Where;
      } else {
        EXPECT_EQ(R.Success, Verdict[I].Success) << Where;
        EXPECT_EQ(R.failureSummary(), Verdict[I].failureSummary()) << Where;
        EXPECT_EQ(fuzzcase::printPhysicalThreads(R.Physical),
                  fuzzcase::printPhysicalThreads(Verdict[I].Physical))
            << Where;
      }
      if (FastestNs[I] >= (2 * D + 1) * NsPerMs) {
        EXPECT_TRUE(Exceeded)
            << Where << "; fastest without a deadline " << FastestNs[I]
            << " ns of CPU";
      }
      EXPECT_LE(WallNs, (D + DeadlineSlackMs) * NsPerMs) << Where;
      if (K.Name == "plain seed 184") {
        EXPECT_TRUE(Exceeded) << Where;
      }
    }
  }
}
