//===- Liveness.cpp -------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "lint/dataflow/GenKill.h"

#include <algorithm>
#include <cassert>

using namespace npral;

BitVector LivenessInfo::instrLiveIn(const Program &P, int B, int I) const {
  BitVector Live(instrLiveOut(B, I));
  const Instruction &Inst =
      P.block(B).Instrs[static_cast<size_t>(I)];
  if (Inst.Def != NoReg)
    Live.reset(Inst.Def);
  std::array<Reg, 2> Uses;
  int N = Inst.getUses(Uses);
  for (int U = 0; U < N; ++U)
    Live.set(Uses[static_cast<size_t>(U)]);
  return Live;
}

LivenessInfo npral::computeLiveness(const Program &P) {
  LivenessInfo LI;
  const int NumBlocks = P.getNumBlocks();
  const int NumRegs = P.NumRegs;

  LI.EverReferenced.assign(static_cast<size_t>(NumRegs), 0);
  LI.NumRegs = NumRegs;
  LI.WordsPerSet = (NumRegs + 63) / 64;

  // Block-level fixpoint through the shared worklist solver: backward
  // may-analysis with Gen = upward-exposed uses, Kill = defs, solved
  // word-parallel over BitVector facts (lint/dataflow/GenKill.h).
  GenKillProblem Prob = makeLivenessProblem(P);
  DataflowResult<BitVector> Solved = solveDataflow(P, Prob);
  LI.BlockLiveIn = std::move(Solved.In);
  LI.BlockLiveOut = std::move(Solved.Out);

  for (int B = 0; B < NumBlocks; ++B)
    for (const Instruction &I : P.block(B).Instrs) {
      std::array<Reg, 2> Uses;
      int N = I.getUses(Uses);
      for (int U = 0; U < N; ++U)
        LI.EverReferenced[static_cast<size_t>(Uses[static_cast<size_t>(U)])] =
            1;
      if (I.Def != NoReg)
        LI.EverReferenced[static_cast<size_t>(I.Def)] = 1;
    }

  // Lay out the flat per-instruction pool: one WordsPerSet-wide slot per
  // instruction, block-major.
  LI.InstrBase.resize(static_cast<size_t>(NumBlocks));
  int TotalInstrs = 0;
  for (int B = 0; B < NumBlocks; ++B) {
    LI.InstrBase[static_cast<size_t>(B)] = TotalInstrs;
    TotalInstrs += static_cast<int>(P.block(B).Instrs.size());
  }
  LI.InstrPool.resize(static_cast<size_t>(TotalInstrs) *
                      static_cast<size_t>(LI.WordsPerSet));

  // Per-instruction live-out by a backward scan of each block, and pressure.
  // One scan buffer serves every block, and its population count is kept
  // up to date as bits flip instead of recounted per instruction.
  LI.RegPmax = 0;
  const size_t W = static_cast<size_t>(LI.WordsPerSet);
  BitVector Live(NumRegs);
  for (int B = 0; B < NumBlocks; ++B) {
    const BasicBlock &BB = P.block(B);
    const int N = static_cast<int>(BB.Instrs.size());
    uint64_t *Slot0 =
        LI.InstrPool.data() +
        static_cast<size_t>(LI.InstrBase[static_cast<size_t>(B)]) * W;
    Live = LI.BlockLiveOut[static_cast<size_t>(B)];
    int LiveCount = Live.count();
    for (int I = N - 1; I >= 0; --I) {
      const Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];
      uint64_t *Slot = Slot0 + static_cast<size_t>(I) * W;
      for (size_t K = 0; K < W; ++K)
        Slot[K] = Live.words()[K];

      // Pressure at the defining moment: live-out plus the def itself (a
      // dead def still occupies a register while executing).
      const bool DefLive = Inst.Def != NoReg && Live.test(Inst.Def);
      const int OutCount =
          LiveCount + (Inst.Def != NoReg && !DefLive ? 1 : 0);
      LI.RegPmax = std::max(LI.RegPmax, OutCount);

      if (DefLive) {
        Live.reset(Inst.Def);
        --LiveCount;
      }
      std::array<Reg, 2> Uses;
      int NU = Inst.getUses(Uses);
      for (int U = 0; U < NU; ++U)
        if (!Live.test(Uses[static_cast<size_t>(U)])) {
          Live.set(Uses[static_cast<size_t>(U)]);
          ++LiveCount;
        }
      LI.RegPmax = std::max(LI.RegPmax, LiveCount);
    }
  }
  return LI;
}

Status npral::checkNoUseOfUndef(const Program &P, const LivenessInfo &LI) {
  BitVector EntryLive = LI.blockLiveIn(P.getEntryBlock());
  BitVector Declared(P.NumRegs);
  for (Reg R : P.EntryLiveRegs)
    Declared.set(R);
  EntryLive.subtract(Declared);
  if (EntryLive.none())
    return Status::success();
  std::string Names;
  EntryLive.forEach([&](int R) {
    if (!Names.empty())
      Names += ", ";
    Names += P.getRegName(R);
  });
  return Status::error(StatusCode::UseOfUndef,
                       "program '" + P.Name +
                       "' uses registers that may be undefined: " + Names);
}
