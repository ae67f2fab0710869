//===- InterAllocatorEdgeTest.cpp - Fig. 8 loop and SGR sweep edges -------===//

#include "alloc/AllocationVerifier.h"
#include "alloc/InterAllocator.h"
#include "ir/IRPrinter.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

using namespace npral;
using namespace npral::test;

namespace {

/// Thread whose optimum at tight budgets needs trading private for shared
/// registers in every thread at once — the pure-reduction loop plateaus
/// and the SGR sweep must finish the job (see DESIGN.md extensions).
const char *PlateauAsm = R"(
.thread plateau
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

MultiThreadProgram fourCopies(const char *Asm) {
  MultiThreadProgram MTP;
  for (int T = 0; T < 4; ++T) {
    Program P = parseOrDie(Asm);
    P.Name += std::to_string(T);
    MTP.Threads.push_back(P);
  }
  return MTP;
}

} // namespace

TEST(InterAllocatorEdgeTest, SweepFrontierIsExact) {
  // Walk Nreg downward: every success must verify and fit; the first
  // failure must be below the provable lower bound Sum(MinPR) + min SGR.
  MultiThreadProgram MTP = fourCopies(PlateauAsm);
  IntraThreadAllocator Probe(MTP.Threads[0]);
  int Lower = 4 * Probe.getMinPR() + (Probe.getMinR() - Probe.getMinPR());
  int Upper = 4 * Probe.getMaxPR() + (Probe.getMaxR() - Probe.getMaxPR());

  bool SeenFailure = false;
  for (int Nreg = Upper + 2; Nreg >= Lower - 2; --Nreg) {
    InterThreadResult R = allocateInterThread(MTP, Nreg);
    if (R.Success) {
      EXPECT_FALSE(SeenFailure)
          << "feasibility must be monotone in Nreg (failed above " << Nreg
          << ")";
      EXPECT_LE(R.RegistersUsed, Nreg);
      EXPECT_TRUE(verifyAllocationSafety(R.Physical).ok());
    } else {
      SeenFailure = true;
      EXPECT_LT(Nreg, Lower) << "must stay feasible down to the bound";
    }
  }
  EXPECT_TRUE(SeenFailure) << "below the bound the allocator must refuse";
}

TEST(InterAllocatorEdgeTest, MoveCostGrowsMonotonically) {
  MultiThreadProgram MTP = fourCopies(PlateauAsm);
  IntraThreadAllocator Probe(MTP.Threads[0]);
  int Lower = 4 * Probe.getMinPR() + (Probe.getMinR() - Probe.getMinPR());
  int Upper = 4 * Probe.getMaxPR() + (Probe.getMaxR() - Probe.getMaxPR());

  int PrevCost = -1;
  for (int Nreg = Lower; Nreg <= Upper; ++Nreg) {
    InterThreadResult R = allocateInterThread(MTP, Nreg);
    ASSERT_TRUE(R.Success) << "Nreg=" << Nreg;
    if (PrevCost >= 0) {
      EXPECT_LE(R.TotalMoveCost, PrevCost + 12)
          << "cost should broadly fall as registers are added (Nreg="
          << Nreg << ")";
    }
    PrevCost = R.TotalMoveCost;
  }
  // At the top of the range no moves are needed at all.
  EXPECT_EQ(allocateInterThread(MTP, Upper).TotalMoveCost, 0);
}

TEST(InterAllocatorEdgeTest, SingleThreadDegeneratesToIntra) {
  MultiThreadProgram MTP;
  MTP.Threads.push_back(parseOrDie(PlateauAsm));
  IntraThreadAllocator Probe(MTP.Threads[0]);
  InterThreadResult R =
      allocateInterThread(MTP, Probe.getMaxR());
  ASSERT_TRUE(R.Success) << R.FailReason;
  EXPECT_EQ(R.RegistersUsed, Probe.getMaxR());
  EXPECT_EQ(R.TotalMoveCost, 0);
}

TEST(InterAllocatorEdgeTest, PhysicalProgramPrintRoundTrips) {
  // Physical programs print and reparse like any other program.
  MultiThreadProgram MTP = fourCopies(PlateauAsm);
  InterThreadResult R = allocateInterThread(MTP, 64);
  ASSERT_TRUE(R.Success);
  for (const Program &T : R.Physical.Threads) {
    std::string Printed = programToString(T);
    Program Reparsed = parseOrDie(Printed);
    EXPECT_EQ(Reparsed.countInstructions(), T.countInstructions());
    EXPECT_EQ(Reparsed.getNumBlocks(), T.getNumBlocks());
  }
}

TEST(InterAllocatorEdgeTest, ZeroAndOneRegisterFiles) {
  MultiThreadProgram MTP;
  MTP.Threads.push_back(parseOrDie(PlateauAsm));
  EXPECT_FALSE(allocateInterThread(MTP, 0).Success);
  EXPECT_FALSE(allocateInterThread(MTP, 1).Success);
}

TEST(InterAllocatorEdgeTest, PrivateRangesAreDisjointAcrossThreads) {
  MultiThreadProgram MTP = fourCopies(PlateauAsm);
  InterThreadResult R = allocateInterThread(MTP, 64);
  ASSERT_TRUE(R.Success);
  int Expected = 0;
  for (const ThreadAllocation &T : R.Threads) {
    EXPECT_EQ(T.PrivateBase, Expected);
    Expected += T.PR;
  }
  EXPECT_EQ(R.SharedBase, Expected);
}
