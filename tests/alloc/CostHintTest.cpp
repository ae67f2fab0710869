//===- CostHintTest.cpp - Cost hints vs moves actually inserted -----------===//
//
// The allocator's pricing is only as sound as its cost hints. Two
// properties over every workload kernel:
//
//  * estimateExcludeNSRMoves(P, LI, NSRs, V, NSR) under the unit model
//    equals the number of `mov`s excludeNSR actually inserts for the same
//    (V, NSR) — for every pair where the hint says the transform is not a
//    no-op — and a uniform weight w scales it by exactly w;
//
//  * ColorAllocation::MoveCost from the fragment allocator equals the
//    number of mov/xor ops the allocation actually added to the program
//    (relocations, xor swaps, and edge-fix parallel copies included), and
//    under the unit model WeightedCost == MoveCost and every output block
//    weighs 1;
//
//  * excludeNSR and splitInBlock only insert `mov`s into existing blocks —
//    the block count is unchanged, no block's mov count falls, and no
//    existing mov is removed — for every pair they apply to. The
//    intra-thread allocator's fragment-cost ceiling on greedy splitting
//    is exact only because of this: the cost greedy has inserted never
//    falls while it runs.
//
//===----------------------------------------------------------------------===//

#include "alloc/FragmentAllocator.h"
#include "alloc/IntraAllocator.h"
#include "alloc/SplitTransforms.h"
#include "analysis/InterferenceGraph.h"
#include "workloads/Workload.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

using namespace npral;
using namespace npral::test;

namespace {

/// Count mov and xor instructions (the only op kinds any splitting or
/// fragment transform inserts).
int countMoveOps(const Program &P) {
  int N = 0;
  for (int B = 0; B < P.getNumBlocks(); ++B)
    for (const Instruction &I : P.block(B).Instrs)
      if (I.Op == Opcode::Mov || I.Op == Opcode::Xor)
        ++N;
  return N;
}

/// \p Before's instruction \p I survives as \p J of the transformed
/// program: same instruction, except that references to \p V may now name
/// the transform's fresh register \p Fresh.
bool survivesAs(const Instruction &I, const Instruction &J, Reg V, Reg Fresh) {
  auto sameReg = [&](Reg A, Reg B) {
    return A == B || (A == V && B == Fresh);
  };
  return I.Op == J.Op && I.Imm == J.Imm && I.Target == J.Target &&
         sameReg(I.Def, J.Def) && sameReg(I.Use1, J.Use1) &&
         sameReg(I.Use2, J.Use2);
}

/// A splitting transform of \p V into \p Fresh turned \p Before into
/// \p After by inserting movs only: the blocks correspond one to one, and
/// each block of \p After is its \p Before block, in order, with movs
/// interleaved. No block's mov count falls and no existing mov is removed.
void expectOnlyInsertsMovs(const Program &Before, const Program &After, Reg V,
                           Reg Fresh, const std::string &What) {
  ASSERT_EQ(After.getNumBlocks(), Before.getNumBlocks()) << What;
  for (int B = 0; B < Before.getNumBlocks(); ++B) {
    const std::vector<Instruction> &Old = Before.block(B).Instrs;
    const std::vector<Instruction> &New = After.block(B).Instrs;
    int OldMovs = 0, NewMovs = 0;
    size_t Next = 0; // First instruction of Old not yet matched in New.
    for (const Instruction &J : New) {
      NewMovs += J.Op == Opcode::Mov;
      if (Next < Old.size() && survivesAs(Old[Next], J, V, Fresh))
        ++Next;
      else
        EXPECT_EQ(J.Op, Opcode::Mov)
            << What << ": block " << B << " gained a non-mov instruction";
    }
    for (const Instruction &I : Old)
      OldMovs += I.Op == Opcode::Mov;
    EXPECT_EQ(Next, Old.size())
        << What << ": block " << B << " lost or rewrote an instruction";
    EXPECT_GE(NewMovs, OldMovs) << What << ": block " << B;
  }
}

} // namespace

TEST(CostHintTest, ExcludeNSRHintMatchesInsertedMoves) {
  int PairsChecked = 0;
  for (const std::string &Name : getWorkloadNames()) {
    ErrorOr<Workload> W = buildWorkload(Name, 0);
    ASSERT_TRUE(W.ok()) << W.status().str();
    const Program &P = W->Code;
    ThreadAnalysis TA = analyzeThread(P);
    CostModel Sevens;
    for (int B = 0; B < P.getNumBlocks(); ++B)
      Sevens.setBlockWeight(B, 7);

    for (int NSR = 0; NSR < TA.NSRs.getNumNSRs(); ++NSR) {
      for (Reg V = 0; V < P.NumRegs; ++V) {
        const int64_t Hint =
            estimateExcludeNSRMoves(P, TA.Liveness, TA.NSRs, V, NSR);
        if (Hint < 0)
          continue;
        // Every reconciling mov lands in a block of weight 7.
        EXPECT_EQ(
            estimateExcludeNSRMoves(P, TA.Liveness, TA.NSRs, V, NSR, Sevens),
            7 * Hint)
            << Name << " V=" << V << " NSR=" << NSR;

        Program Copy = P;
        ThreadAnalysis CopyTA = analyzeThread(Copy);
        const int Before = countMoveOps(Copy);
        Reg Fresh = excludeNSR(Copy, CopyTA, V, NSR);
        ASSERT_NE(Fresh, NoReg)
            << Name << ": hint " << Hint << " but excludeNSR was a no-op"
            << " (V=" << V << " NSR=" << NSR << ")";
        EXPECT_EQ(countMoveOps(Copy) - Before, Hint)
            << Name << " V=" << V << " NSR=" << NSR;
        expectOnlyInsertsMovs(P, Copy, V, Fresh,
                              Name + " excludeNSR V=" + std::to_string(V) +
                                  " NSR=" + std::to_string(NSR));
        ++PairsChecked;
      }
    }
  }
  // The property must have had real coverage, not vacuous passes.
  EXPECT_GT(PairsChecked, 100);
}

TEST(CostHintTest, SplitInBlockOnlyInsertsMoves) {
  int PairsChecked = 0;
  for (const std::string &Name : getWorkloadNames()) {
    ErrorOr<Workload> W = buildWorkload(Name, 0);
    ASSERT_TRUE(W.ok()) << W.status().str();
    const Program &P = W->Code;
    ThreadAnalysis TA = analyzeThread(P);

    for (int B = 0; B < P.getNumBlocks(); ++B) {
      for (Reg V = 0; V < P.NumRegs; ++V) {
        Program Copy = P;
        Reg Fresh = splitInBlock(Copy, TA, V, B);
        if (Fresh == NoReg)
          continue;
        expectOnlyInsertsMovs(P, Copy, V, Fresh,
                              Name + " splitInBlock V=" + std::to_string(V) +
                                  " block=" + std::to_string(B));
        ++PairsChecked;
      }
    }
  }
  EXPECT_GT(PairsChecked, 100);
}

TEST(CostHintTest, FragmentMoveCostMatchesInsertedOps) {
  int Checked = 0;
  for (const std::string &Name : getWorkloadNames()) {
    ErrorOr<Workload> W = buildWorkload(Name, 0);
    ASSERT_TRUE(W.ok()) << W.status().str();
    const Program &P = W->Code;
    ThreadAnalysis TA = analyzeThread(P);
    IntraThreadAllocator Intra(P);

    // The minimal numbers force maximal splitting; a mid-range point
    // exercises the partially-constrained paths too.
    const int MinPR = Intra.getMinPR();
    const int MinR = Intra.getMinR();
    const int MaxPR = Intra.getBounds().MaxPR;
    const int MidPR = MinPR + (MaxPR - MinPR) / 2;
    for (int PR : {MinPR, MidPR}) {
      const int SR = std::max(0, MinR - PR);
      ColorAllocation A = allocateByFragments(P, TA, PR, SR);
      if (!A.Feasible)
        continue;
      EXPECT_EQ(A.MoveCost, countMoveOps(A.ColorProgram) - countMoveOps(P))
          << Name << " PR=" << PR << " SR=" << SR;
      // Unit model: the weighted cost is the raw op count, and every
      // output block, edge splits included, weighs 1.
      EXPECT_EQ(A.WeightedCost, A.MoveCost) << Name;
      EXPECT_EQ(A.OutputWeights,
                std::vector<int64_t>(
                    static_cast<size_t>(A.ColorProgram.getNumBlocks()), 1))
          << Name;
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 10);
}

TEST(CostHintTest, FragmentWeightedCostPricesBlocksByWeight) {
  // A hand-built check that WeightedCost really prices by block weight:
  // compare unit and weighted runs of the same kernel; the weighted cost
  // must equal the sum over inserted ops of their block's weight, which we
  // bound via the op count times the max weight.
  ErrorOr<Workload> W = buildWorkload("drr", 0);
  ASSERT_TRUE(W.ok());
  const Program &P = W->Code;
  ThreadAnalysis TA = analyzeThread(P);
  IntraThreadAllocator Intra(P);
  const int PR = Intra.getMinPR();
  const int SR = std::max(0, Intra.getMinR() - PR);

  ColorAllocation Unit = allocateByFragments(P, TA, PR, SR);
  ASSERT_TRUE(Unit.Feasible);

  CostModel CM;
  for (int B = 0; B < P.getNumBlocks(); ++B)
    CM.setBlockWeight(B, 7);
  ColorAllocation Weighted = allocateByFragments(P, TA, PR, SR, CM);
  ASSERT_TRUE(Weighted.Feasible);

  // Uniform weight w: same placement decisions, cost scales by exactly w.
  EXPECT_EQ(Weighted.MoveCost, Unit.MoveCost);
  EXPECT_EQ(Weighted.WeightedCost, 7 * Unit.WeightedCost);
  EXPECT_EQ(Weighted.OutputWeights,
            std::vector<int64_t>(
                static_cast<size_t>(Weighted.ColorProgram.getNumBlocks()), 7));
}
