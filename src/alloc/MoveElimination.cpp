//===- MoveElimination.cpp ------------------------------------------------===//

#include "alloc/MoveElimination.h"

#include "analysis/Liveness.h"

#include <vector>

using namespace npral;

namespace {

/// One sweep; returns the number of moves removed, pricing each by its
/// block's weight into \p WeightedRemoved when that is non-null.
int sweep(Program &P, const std::vector<int64_t> &BlockWeights,
          int64_t *WeightedRemoved) {
  LivenessInfo LI = computeLiveness(P);
  int Removed = 0;

  for (int B = 0; B < P.getNumBlocks(); ++B) {
    BasicBlock &BB = P.block(B);
    // CopyOf[r] = s means "r currently holds the same value as s"; NoReg
    // when unknown. Facts start empty at block entry (no cross-block
    // propagation — deliberately conservative) and die at CSBs.
    std::vector<Reg> CopyOf(static_cast<size_t>(P.NumRegs), NoReg);

    std::vector<Instruction> Kept;
    Kept.reserve(BB.Instrs.size());
    int Index = 0;
    for (const Instruction &I : BB.Instrs) {
      int MyIndex = Index++;
      auto killFactsFor = [&](Reg R) {
        CopyOf[static_cast<size_t>(R)] = NoReg;
        for (Reg Other = 0; Other < P.NumRegs; ++Other)
          if (CopyOf[static_cast<size_t>(Other)] == R)
            CopyOf[static_cast<size_t>(Other)] = NoReg;
      };

      if (I.Op == Opcode::Mov) {
        bool SameReg = I.Def == I.Use1;
        bool KnownEqual =
            CopyOf[static_cast<size_t>(I.Def)] == I.Use1 ||
            (I.Use1 >= 0 && CopyOf[static_cast<size_t>(I.Use1)] == I.Def);
        bool Dead = !LI.instrLiveOut(B, MyIndex).test(I.Def);
        if (SameReg || KnownEqual || Dead) {
          ++Removed;
          if (WeightedRemoved)
            *WeightedRemoved += static_cast<size_t>(B) < BlockWeights.size()
                                    ? BlockWeights[static_cast<size_t>(B)]
                                    : 1;
          continue; // drop the instruction; facts unchanged
        }
        killFactsFor(I.Def);
        CopyOf[static_cast<size_t>(I.Def)] = I.Use1;
        Kept.push_back(I);
        continue;
      }

      if (I.Def != NoReg)
        killFactsFor(I.Def);
      if (I.causesCtxSwitch()) {
        // While switched out, shared registers may be rewritten by other
        // threads; drop every fact.
        for (Reg R = 0; R < P.NumRegs; ++R)
          CopyOf[static_cast<size_t>(R)] = NoReg;
      }
      Kept.push_back(I);
    }
    BB.Instrs = std::move(Kept);
  }
  return Removed;
}

} // namespace

int npral::eliminateRedundantMoves(Program &P,
                                   const std::vector<int64_t> &BlockWeights,
                                   int64_t *WeightedRemoved) {
  // Removing a dead move can make an earlier move dead; iterate.
  int Total = 0;
  for (;;) {
    int Removed = sweep(P, BlockWeights, WeightedRemoved);
    Total += Removed;
    if (Removed == 0)
      return Total;
  }
}
