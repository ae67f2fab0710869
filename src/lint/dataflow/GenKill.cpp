//===- GenKill.cpp - Gen/kill problem builders ----------------------------===//

#include "lint/dataflow/GenKill.h"

#include <array>

using namespace npral;

namespace {

/// Set bit \p R of the set starting at \p Set.
void setBit(uint64_t *Set, Reg R) {
  Set[static_cast<size_t>(R) / 64] |= uint64_t(1) << (R % 64);
}

} // namespace

GenKillProblem npral::makeLivenessProblem(const Program &P) {
  GenKillProblem Prob(DataflowDirection::Backward, P.getNumBlocks(),
                      P.NumRegs);
  const size_t W = static_cast<size_t>(Prob.WordsPerSet);
  for (int B = 0; B < P.getNumBlocks(); ++B) {
    uint64_t *Gen = Prob.Gen.data() + static_cast<size_t>(B) * W;
    uint64_t *Kill = Prob.Kill.data() + static_cast<size_t>(B) * W;
    for (const Instruction &I : P.block(B).Instrs) {
      std::array<Reg, 2> Uses;
      int N = I.getUses(Uses);
      for (int U = 0; U < N; ++U) {
        Reg R = Uses[static_cast<size_t>(U)];
        // Upward-exposed: used before any def in this block.
        if (!Prob.kill(B).test(R))
          setBit(Gen, R);
      }
      if (I.Def != NoReg)
        setBit(Kill, I.Def);
    }
  }
  return Prob;
}

GenKillProblem npral::makeMaybeUninitProblem(const Program &P) {
  GenKillProblem Prob(DataflowDirection::Forward, P.getNumBlocks(),
                      P.NumRegs);
  const size_t W = static_cast<size_t>(Prob.WordsPerSet);
  for (int B = 0; B < P.getNumBlocks(); ++B)
    for (const Instruction &I : P.block(B).Instrs)
      if (I.Def != NoReg)
        setBit(Prob.Kill.data() + static_cast<size_t>(B) * W, I.Def);
  for (Reg R = 0; R < P.NumRegs; ++R)
    Prob.BoundaryValue.set(R);
  for (Reg R : P.EntryLiveRegs)
    Prob.BoundaryValue.reset(R);
  return Prob;
}
