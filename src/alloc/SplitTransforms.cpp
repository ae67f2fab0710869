//===- SplitTransforms.cpp ------------------------------------------------===//

#include "alloc/SplitTransforms.h"

#include "ir/CFGUtils.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace npral;

namespace {

/// A pending insertion at (Block, Index); applied in descending index order
/// per block so earlier indices stay valid.
struct PendingInsert {
  int Block;
  int Index;
  Instruction Inst;
};

void applyInserts(Program &P, std::vector<PendingInsert> &Inserts) {
  std::stable_sort(Inserts.begin(), Inserts.end(),
                   [](const PendingInsert &A, const PendingInsert &B) {
                     if (A.Block != B.Block)
                       return A.Block < B.Block;
                     return A.Index > B.Index;
                   });
  for (const PendingInsert &PI : Inserts) {
    BasicBlock &BB = P.block(PI.Block);
    assert(PI.Index >= 0 &&
           PI.Index <= static_cast<int>(BB.Instrs.size()) && "bad insert");
    BB.Instrs.insert(BB.Instrs.begin() + PI.Index, PI.Inst);
  }
}

} // namespace

Reg npral::excludeNSR(Program &P, const ThreadAnalysis &TA, Reg V, int NSRId) {
  // First check V is referenced inside the NSR at all.
  bool Referenced = false;
  for (int B = 0; B < P.getNumBlocks() && !Referenced; ++B) {
    const BasicBlock &BB = P.block(B);
    for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
      const Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];
      bool UseIn = Inst.usesReg(V) && TA.NSRs.instrPreNSR(B, I) == NSRId;
      bool DefIn = Inst.Def == V && TA.NSRs.instrPostNSR(B, I) == NSRId;
      if (UseIn || DefIn) {
        Referenced = true;
        break;
      }
    }
  }
  if (!Referenced)
    return NoReg;

  Reg Fresh = P.addReg(P.getRegName(V) + ".x" + std::to_string(NSRId));

  // Rename references whose point lies in the NSR.
  for (int B = 0; B < P.getNumBlocks(); ++B) {
    BasicBlock &BB = P.block(B);
    for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
      Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];
      if (TA.NSRs.instrPreNSR(B, I) == NSRId) {
        if (Inst.Use1 == V)
          Inst.Use1 = Fresh;
        if (Inst.Use2 == V)
          Inst.Use2 = Fresh;
      }
      if (Inst.Def == V && TA.NSRs.instrPostNSR(B, I) == NSRId)
        Inst.Def = Fresh;
    }
  }

  // Reconciling moves at the CSBs V crosses.
  std::vector<PendingInsert> Inserts;
  for (const CSB &Boundary : TA.NSRs.getCSBs()) {
    if (!Boundary.LiveAcross.test(V))
      continue;
    // V enters the NSR across this boundary: copy into the fresh name just
    // after the context switch instruction.
    if (Boundary.PostNSR == NSRId)
      Inserts.push_back({Boundary.Block, Boundary.InstrIndex + 1,
                         Instruction::makeMov(Fresh, V)});
    // V leaves the NSR across this boundary: restore the original name just
    // before the context switch instruction.
    if (Boundary.PreNSR == NSRId)
      Inserts.push_back({Boundary.Block, Boundary.InstrIndex,
                         Instruction::makeMov(V, Fresh)});
  }

  // V live at program entry with the entry point inside the NSR: seed the
  // fresh name at the very start.
  const BitVector &EntryLive = TA.Liveness.blockLiveIn(P.getEntryBlock());
  if (EntryLive.test(V) &&
      TA.NSRs.pointNSR(P.getEntryBlock(), 0) == NSRId)
    Inserts.push_back(
        {P.getEntryBlock(), 0, Instruction::makeMov(Fresh, V)});

  applyInserts(P, Inserts);
  return Fresh;
}

int64_t npral::estimateExcludeNSRMoves(const Program &P,
                                       const LivenessInfo &LI,
                                       const NSRInfo &NSRs, Reg V, int NSRId,
                                       const CostModel &CM) {
  bool Referenced = false;
  for (int B = 0; B < P.getNumBlocks() && !Referenced; ++B) {
    const BasicBlock &BB = P.block(B);
    for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
      const Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];
      bool UseIn = Inst.usesReg(V) && NSRs.instrPreNSR(B, I) == NSRId;
      bool DefIn = Inst.Def == V && NSRs.instrPostNSR(B, I) == NSRId;
      if (UseIn || DefIn) {
        Referenced = true;
        break;
      }
    }
  }
  if (!Referenced)
    return -1;

  int64_t Weighted = 0;
  for (const CSB &Boundary : NSRs.getCSBs()) {
    if (!Boundary.LiveAcross.test(V))
      continue;
    if (Boundary.PostNSR == NSRId)
      Weighted += CM.blockWeight(Boundary.Block);
    if (Boundary.PreNSR == NSRId)
      Weighted += CM.blockWeight(Boundary.Block);
  }
  if (LI.blockLiveIn(P.getEntryBlock()).test(V) &&
      NSRs.pointNSR(P.getEntryBlock(), 0) == NSRId)
    Weighted += CM.blockWeight(P.getEntryBlock());
  return Weighted;
}

Reg npral::splitInBlock(Program &P, const ThreadAnalysis &TA, Reg V,
                        int BlockId) {
  BasicBlock &BB = P.block(BlockId);
  bool Referenced = false;
  for (const Instruction &Inst : BB.Instrs)
    if (Inst.Def == V || Inst.usesReg(V)) {
      Referenced = true;
      break;
    }
  if (!Referenced)
    return NoReg;

  Reg Fresh = P.addReg(P.getRegName(V) + ".b" + std::to_string(BlockId));

  bool LiveIn = TA.Liveness.blockLiveIn(BlockId).test(V);
  bool LiveOut = TA.Liveness.blockLiveOut(BlockId).test(V);

  for (Instruction &Inst : BB.Instrs) {
    if (Inst.Use1 == V)
      Inst.Use1 = Fresh;
    if (Inst.Use2 == V)
      Inst.Use2 = Fresh;
    if (Inst.Def == V)
      Inst.Def = Fresh;
  }

  std::vector<PendingInsert> Inserts;
  if (LiveIn)
    Inserts.push_back({BlockId, 0, Instruction::makeMov(Fresh, V)});
  if (LiveOut)
    Inserts.push_back({BlockId, getTerminatorGroupBegin(BB),
                       Instruction::makeMov(V, Fresh)});
  applyInserts(P, Inserts);
  return Fresh;
}
