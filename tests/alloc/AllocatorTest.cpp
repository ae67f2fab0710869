//===- AllocatorTest.cpp - Split transforms, intra/inter allocators -------===//

#include "alloc/AllocationVerifier.h"
#include "alloc/FragmentAllocator.h"
#include "alloc/InterAllocator.h"
#include "alloc/IntraAllocator.h"
#include "alloc/SplitTransforms.h"
#include "analysis/LiveRangeRenaming.h"
#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

using namespace npral;
using namespace npral::test;

namespace {

Reg regByName(const Program &P, const std::string &Name) {
  for (Reg R = 0; R < P.NumRegs; ++R)
    if (P.getRegName(R) == Name)
      return R;
  return NoReg;
}

/// Check a color program against its limits: every referenced register ID
/// is < R, and every value live across a CSB sits in a color < PR.
void expectColorProgramValid(const Program &CP, int PR, int R) {
  ASSERT_TRUE(verifyProgram(CP).ok());
  EXPECT_EQ(CP.NumRegs, R);
  LivenessInfo LI = computeLiveness(CP);
  EXPECT_TRUE(checkNoUseOfUndef(CP, LI).ok());
  NSRInfo N = computeNSRs(CP, LI);
  for (const CSB &Boundary : N.getCSBs())
    Boundary.LiveAcross.forEach([&](int Color) {
      EXPECT_LT(Color, PR) << "crossing value in a shared color";
    });
}

/// Run the original and an allocated rewrite and compare output hashes.
void expectSameBehaviour(const Program &Original, const Program &Rewritten,
                         const std::vector<uint32_t> &EntryValues,
                         const std::vector<uint32_t> &MemInit) {
  auto R1 = runSingle(Original, EntryValues, 0x2000, 64, MemInit);
  auto R2 = runSingle(Rewritten, EntryValues, 0x2000, 64, MemInit);
  ASSERT_TRUE(R1.Result.Completed) << R1.Result.FailReason;
  ASSERT_TRUE(R2.Result.Completed) << R2.Result.FailReason;
  EXPECT_EQ(R1.OutputHash, R2.OutputHash);
}

const char *BoundaryHeavyAsm = R"(
.thread bheavy
.entrylive buf
main:
    imm  outp, 0x2000
    imm  s, 0
    imm  n, 4
loop:
    load w, [buf+0]
    imm  t1, 3
    mul  t2, w, t1
    add  s, s, t2
    addi buf, buf, 1
    subi n, n, 1
    bnz  n, loop
    store [outp+0], s
    ctx
    loopend
    halt
)";


const char *Fig9FatAsm = R"(
.thread fig9fat
.entrylive sel
main:
    imm  a, 1
    imm  b, 2
    imm  c, 3
    bz   sel, p23
p1:
    ctx
    imm  u1, 10
    imm  u2, 11
    imm  u3, 12
    imm  u4, 13
    add  v, u1, u2
    add  v, v, u3
    add  v, v, u4
    add  v, v, b
    store [a+0], v
    halt
p23:
    andi t, sel, 1
    bz   t, p3
p2:
    ctx
    imm  u1, 20
    imm  u2, 21
    imm  u3, 22
    imm  u4, 23
    add  v, u1, u2
    add  v, v, u3
    add  v, v, u4
    add  v, v, c
    store [b+0], v
    halt
p3:
    ctx
    imm  u1, 30
    imm  u2, 31
    imm  u3, 32
    imm  u4, 33
    add  v, u1, u2
    add  v, v, u3
    add  v, v, u4
    add  v, v, a
    store [c+0], v
    halt
)";

} // namespace

TEST(SplitTransformsTest, ExcludeNSRPreservesBehaviour) {
  Program P = parseOrDie(BoundaryHeavyAsm);
  ThreadAnalysis TA = analyzeThread(P);
  Reg S = regByName(P, "s");
  ASSERT_TRUE(TA.BoundaryNodes.test(S));
  // Exclude s from the NSR where it is defined/used most.
  int TargetNSR = TA.NSRs.instrPreNSR(0, 1);
  Program Q = P;
  Reg Fresh = excludeNSR(Q, TA, S, TargetNSR);
  ASSERT_NE(Fresh, NoReg);
  ASSERT_TRUE(verifyProgram(Q).ok());
  EXPECT_GT(Q.countMoves(), P.countMoves());
  expectSameBehaviour(P, Q, {0x1000}, {2, 4, 6, 8});
}

TEST(SplitTransformsTest, ExcludeNSRNoReferenceIsNoop) {
  Program P = parseOrDie(BoundaryHeavyAsm);
  ThreadAnalysis TA = analyzeThread(P);
  Reg S = regByName(P, "s");
  // Find an NSR where s is not referenced: the trailing region after ctx.
  int After = -1;
  for (int K = 0; K < TA.NSRs.getNumNSRs(); ++K) {
    bool Referenced = false;
    for (int B = 0; B < P.getNumBlocks(); ++B) {
      const BasicBlock &BB = P.block(B);
      for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
        const Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];
        if ((Inst.usesReg(S) && TA.NSRs.instrPreNSR(B, I) == K) ||
            (Inst.Def == S && TA.NSRs.instrPostNSR(B, I) == K))
          Referenced = true;
      }
    }
    if (!Referenced) {
      After = K;
      break;
    }
  }
  ASSERT_GE(After, 0);
  Program Q = P;
  EXPECT_EQ(excludeNSR(Q, TA, S, After), NoReg);
  EXPECT_EQ(Q.countInstructions(), P.countInstructions());
}

TEST(SplitTransformsTest, SplitInBlockPreservesBehaviour) {
  Program P = parseOrDie(BoundaryHeavyAsm);
  ThreadAnalysis TA = analyzeThread(P);
  Reg Buf = regByName(P, "buf");
  // Split buf inside the loop block.
  int LoopBlock = -1;
  for (int B = 0; B < P.getNumBlocks(); ++B)
    if (P.blockName(B) == "loop")
      LoopBlock = B;
  ASSERT_GE(LoopBlock, 0);
  Program Q = P;
  Reg Fresh = splitInBlock(Q, TA, Buf, LoopBlock);
  ASSERT_NE(Fresh, NoReg);
  ASSERT_TRUE(verifyProgram(Q).ok());
  expectSameBehaviour(P, Q, {0x1000}, {2, 4, 6, 8});
}

TEST(FragmentAllocatorTest, ReachesLowerBounds) {
  Program P = renameLiveRanges(parseOrDie(BoundaryHeavyAsm));
  ThreadAnalysis TA = analyzeThread(P);
  int MinPR = TA.getRegPCSBmax();
  int MinR = TA.getRegPmax();
  ColorAllocation A = allocateByFragments(P, TA, MinPR, MinR - MinPR);
  ASSERT_TRUE(A.Feasible) << A.FailReason;
  expectColorProgramValid(A.ColorProgram, MinPR, MinR);
  expectSameBehaviour(P, A.ColorProgram, {0x1000}, {2, 4, 6, 8});
}

TEST(FragmentAllocatorTest, RejectsBelowBounds) {
  Program P = renameLiveRanges(parseOrDie(BoundaryHeavyAsm));
  ThreadAnalysis TA = analyzeThread(P);
  ColorAllocation A =
      allocateByFragments(P, TA, TA.getRegPCSBmax() - 1, TA.getRegPmax());
  EXPECT_FALSE(A.Feasible);
  ColorAllocation B = allocateByFragments(P, TA, TA.getRegPCSBmax(),
                                          TA.getRegPmax() -
                                              TA.getRegPCSBmax() - 1);
  EXPECT_FALSE(B.Feasible);
}

TEST(FragmentAllocatorTest, BranchyProgramWithJunctionFixups) {
  Program P = renameLiveRanges(parseOrDie(R"(
.thread branchy
.entrylive buf
main:
    imm  outp, 0x2000
    imm  s, 0
    imm  n, 6
loop:
    load w, [buf+0]
    andi t, w, 1
    bz   t, even
    add  s, s, w
    ctx
    br   next
even:
    imm  u, 100
    sub  s, u, s
next:
    addi buf, buf, 1
    subi n, n, 1
    bnz  n, loop
    store [outp+0], s
    loopend
    halt
)"));
  ThreadAnalysis TA = analyzeThread(P);
  ColorAllocation A = allocateByFragments(P, TA, TA.getRegPCSBmax(),
                                          TA.getRegPmax() -
                                              TA.getRegPCSBmax());
  ASSERT_TRUE(A.Feasible) << A.FailReason;
  expectColorProgramValid(A.ColorProgram, TA.getRegPCSBmax(),
                          TA.getRegPmax());
  expectSameBehaviour(P, A.ColorProgram, {0x1000}, {1, 2, 3, 4, 5, 6});
}

TEST(IntraAllocatorTest, ZeroCostAtUpperBounds) {
  Program P = parseOrDie(BoundaryHeavyAsm);
  IntraThreadAllocator Intra(P);
  const IntraResult &R = Intra.allocate(Intra.getMaxPR(),
                                        Intra.getMaxR() - Intra.getMaxPR());
  ASSERT_TRUE(R.Feasible);
  EXPECT_EQ(R.MoveCost, 0);
  expectColorProgramValid(R.ColorProgram, Intra.getMaxPR(), Intra.getMaxR());
}

TEST(IntraAllocatorTest, LowerBoundReachableWithMoves) {
  Program P = parseOrDie(BoundaryHeavyAsm);
  IntraThreadAllocator Intra(P);
  const IntraResult &R =
      Intra.allocate(Intra.getMinPR(), Intra.getMinR() - Intra.getMinPR());
  ASSERT_TRUE(R.Feasible) << R.FailReason;
  expectColorProgramValid(R.ColorProgram, Intra.getMinPR(), Intra.getMinR());
  expectSameBehaviour(Intra.getProgram(), R.ColorProgram, {0x1000},
                      {2, 4, 6, 8});
}

TEST(IntraAllocatorTest, BorrowsTheRenamedProgramAndSharesTheBundle) {
  const Program Renamed = renameLiveRanges(parseOrDie(BoundaryHeavyAsm));
  const auto Bundle = std::make_shared<const ThreadAnalysisBundle>(
      computeThreadAnalysisBundle(Renamed));
  IntraThreadAllocator Intra(Renamed, Bundle);
  // Neither the program nor the analysis is copied.
  EXPECT_EQ(&Intra.getAnalysis(), &Bundle->TA);
  EXPECT_EQ(&Intra.getProgram(), &Renamed);
  EXPECT_EQ(&Intra.getBounds(), &Bundle->Bounds);

  // Borrowing changes no allocation: a standalone allocator, which
  // renames and analyzes for itself, gives the same color programs.
  IntraThreadAllocator Standalone(Renamed);
  for (int PR = Intra.getMinPR(); PR <= Intra.getMaxPR(); ++PR) {
    const IntraResult &A = Intra.allocate(PR, Intra.getMaxR() - PR);
    const IntraResult &B = Standalone.allocate(PR, Intra.getMaxR() - PR);
    ASSERT_EQ(A.Feasible, B.Feasible) << "PR " << PR;
    EXPECT_EQ(A.Strategy, B.Strategy) << "PR " << PR;
    EXPECT_EQ(A.MoveCost, B.MoveCost) << "PR " << PR;
    if (A.Feasible)
      EXPECT_EQ(programToString(A.ColorProgram),
                programToString(B.ColorProgram))
          << "PR " << PR;
  }
}

TEST(IntraAllocatorTest, InfeasibleBelowLowerBounds) {
  Program P = parseOrDie(BoundaryHeavyAsm);
  IntraThreadAllocator Intra(P);
  EXPECT_FALSE(Intra.allocate(Intra.getMinPR() - 1, 64).Feasible);
  EXPECT_FALSE(Intra.allocate(Intra.getMinPR(), -1).Feasible);
}

TEST(IntraAllocatorTest, CostDecreasesWithBudget) {
  Program P = parseOrDie(BoundaryHeavyAsm);
  IntraThreadAllocator Intra(P);
  const IntraResult &Tight =
      Intra.allocate(Intra.getMinPR(), Intra.getMinR() - Intra.getMinPR());
  const IntraResult &Loose = Intra.allocate(Intra.getMaxPR(),
                                            Intra.getMaxR() -
                                                Intra.getMaxPR());
  ASSERT_TRUE(Tight.Feasible);
  ASSERT_TRUE(Loose.Feasible);
  EXPECT_GE(Tight.MoveCost, Loose.MoveCost);
}

TEST(IntraAllocatorTest, PaperFigure9SplitsToTwoPrivate) {
  // Fig. 9: MaxPR = 3, but live range splitting reaches MinPR = 2.
  Program P = parseOrDie(R"(
.thread fig9
.entrylive sel
main:
    imm  a, 1
    imm  b, 2
    imm  c, 3
    bz   sel, p23
p1:
    ctx
    store [a+0], b
    halt
p23:
    andi t, sel, 1
    bz   t, p3
p2:
    ctx
    store [b+0], c
    halt
p3:
    ctx
    store [c+0], a
    halt
)");
  IntraThreadAllocator Intra(P);
  EXPECT_EQ(Intra.getMinPR(), 2);
  EXPECT_EQ(Intra.getMaxPR(), 3);
  const IntraResult &R = Intra.allocate(2, Intra.getMinR() - 2);
  ASSERT_TRUE(R.Feasible) << R.FailReason;
  EXPECT_GT(R.MoveCost, 0) << "reaching MinPR needs at least one move";
  expectColorProgramValid(R.ColorProgram, 2, Intra.getMinR());
}

TEST(InterAllocatorTest, TwoThreadSharingFromPaperFigure3) {
  // Paper Fig. 3: thread 1 needs 3 registers alone; thread 2 needs 1; with
  // sharing the pair fits in fewer than 4 total because b/c/d are dead at
  // every context switch.
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(R"(
.thread fig3t1
main:
    imm  a, 1
    ctx
    bz   a, l1
    imm  b, 2
    add  t, a, b
    imm  c, 3
    br   l2
l1:
    imm  c, 4
    add  t, a, c
    imm  b, 5
l2:
    add  u, b, c
    store [u+0], u
    loopend
    halt
.thread fig3t2
main:
    ctx
    imm  d, 7
    addi e, d, 1
    store [e+0], e
    loopend
    halt
)");
  ASSERT_TRUE(MTP.ok());
  InterThreadResult R = allocateInterThread(*MTP, /*Nreg=*/8);
  ASSERT_TRUE(R.Success) << R.FailReason;
  EXPECT_TRUE(verifyAllocationSafety(R.Physical).ok());
  // Thread 2 holds nothing across its ctx: all its registers shareable.
  EXPECT_EQ(R.Threads[1].PR, 0);
  EXPECT_GE(R.SGR, 1);
  // Total register use beats the no-sharing sum.
  int NoSharing = R.Threads[0].PR + R.Threads[0].SR + R.Threads[1].PR +
                  R.Threads[1].SR;
  EXPECT_LE(R.RegistersUsed, NoSharing + R.SGR);
}

TEST(InterAllocatorTest, ReductionLoopFitsTightBudget) {
  // Four copies of the Fig. 9 thread (which has real slack between its
  // lower and upper bounds) forced into a register file smaller than the
  // sum of upper bounds: the Fig. 8 loop must reduce, inserting moves.
  MultiThreadProgram MTP;
  for (int T = 0; T < 4; ++T) {
    Program P = parseOrDie(Fig9FatAsm);
    P.Name += std::to_string(T);
    MTP.Threads.push_back(P);
  }
  IntraThreadAllocator Probe(MTP.Threads[0]);
  int Upper = 4 * Probe.getMaxPR() + (Probe.getMaxR() - Probe.getMaxPR());
  int Lower = 4 * Probe.getMinPR() + (Probe.getMinR() - Probe.getMinPR());
  ASSERT_LT(Lower, Upper);
  // One unit below the no-move requirement: the Fig. 8 loop must take at
  // least one reduction step. (The loop only ever reduces PR or SR, so very
  // tight budgets below the reachable frontier may legitimately fail; this
  // budget is chosen to be reachable.)
  int Nreg = Upper - 1;
  InterThreadResult R = allocateInterThread(MTP, Nreg);
  ASSERT_TRUE(R.Success) << R.FailReason;
  EXPECT_LE(R.RegistersUsed, Nreg);
  EXPECT_TRUE(verifyAllocationSafety(R.Physical).ok());
}

TEST(InterAllocatorTest, FailsWhenTrulyInfeasible) {
  MultiThreadProgram MTP;
  for (int T = 0; T < 4; ++T)
    MTP.Threads.push_back(parseOrDie(BoundaryHeavyAsm));
  IntraThreadAllocator Probe(MTP.Threads[0]);
  int Impossible = 4 * Probe.getMinPR() - 1;
  InterThreadResult R = allocateInterThread(MTP, Impossible);
  EXPECT_FALSE(R.Success);
}

TEST(SRATest, SymmetricSolutionWithinBudget) {
  Program P = parseOrDie(BoundaryHeavyAsm);
  SRAResult R = solveSRA(P, 4, 64, /*RequireZeroCost=*/true);
  ASSERT_TRUE(R.Success) << R.FailReason;
  EXPECT_LE(4 * R.PR + R.SR, 64);
  EXPECT_EQ(R.MoveCost, 0);
  EXPECT_EQ(R.TotalRegisters, 4 * R.PR + R.SR);
}

TEST(SRATest, AllowingMovesNeverIncreasesRegisters) {
  Program P = parseOrDie(BoundaryHeavyAsm);
  SRAResult ZeroCost = solveSRA(P, 4, 64, /*RequireZeroCost=*/true);
  SRAResult WithMoves = solveSRA(P, 4, 64, /*RequireZeroCost=*/false);
  ASSERT_TRUE(ZeroCost.Success);
  ASSERT_TRUE(WithMoves.Success);
  EXPECT_LE(WithMoves.TotalRegisters, ZeroCost.TotalRegisters);
}

TEST(SafetyVerifierTest, DetectsCrossThreadClobber) {
  // Build two one-register physical threads that both use p0 while thread
  // one holds it across a ctx: must be rejected.
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(R"(
.thread one
main:
    imm  a, 1
    ctx
    store [a+0], a
    halt
.thread two
main:
    imm  a, 2
    store [a+1], a
    halt
)");
  ASSERT_TRUE(MTP.ok());
  for (Program &T : MTP->Threads) {
    T.IsPhysical = true;
    T.NumRegs = 4;
  }
  Status S = verifyAllocationSafety(*MTP);
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.str().find("live across"), std::string::npos);
}

TEST(SafetyVerifierTest, AcceptsDisjointThreads) {
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(R"(
.thread one
main:
    imm  a, 1
    ctx
    store [a+0], a
    halt
.thread two
main:
    imm  b, 2
    store [b+1], b
    halt
)");
  ASSERT_TRUE(MTP.ok());
  // Manually map: thread one -> p0, thread two -> p1.
  MTP->Threads[0].IsPhysical = true;
  MTP->Threads[0].NumRegs = 4;
  MTP->Threads[1].IsPhysical = true;
  MTP->Threads[1].NumRegs = 4;
  for (BasicBlock &BB : MTP->Threads[1].Blocks)
    for (Instruction &I : BB.Instrs) {
      if (I.Def == 0)
        I.Def = 1;
      if (I.Use1 == 0)
        I.Use1 = 1;
      if (I.Use2 == 0)
        I.Use2 = 1;
    }
  AllocationSafetyStats Stats;
  Status S = verifyAllocationSafety(*MTP, &Stats);
  EXPECT_TRUE(S.ok()) << S.str();
  EXPECT_EQ(Stats.PrivateRegCount[0], 1);
  EXPECT_EQ(Stats.SharedRegCount, 0);
}
