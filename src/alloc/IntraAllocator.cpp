//===- IntraAllocator.cpp -------------------------------------------------===//

#include "alloc/IntraAllocator.h"

#include "alloc/MoveElimination.h"
#include "alloc/SplitTransforms.h"
#include "analysis/LiveRangeRenaming.h"
#include "support/Status.h"

#include <algorithm>
#include <cassert>

using namespace npral;

namespace {

int countBlockMoves(const BasicBlock &BB) {
  int N = 0;
  for (const Instruction &I : BB.Instrs)
    if (I.Op == Opcode::Mov)
      ++N;
  return N;
}

} // namespace

Program npral::rewriteToColors(const Program &P, const Coloring &Colors,
                               int NumColors) {
  Program Out;
  Out.Name = P.Name;
  Out.NumRegs = NumColors;
  Out.IsPhysical = false;
  Out.EntryBlock = P.EntryBlock;
  auto colorOf = [&](Reg R) -> Reg {
    int C = Colors[static_cast<size_t>(R)];
    assert(C >= 0 && C < NumColors && "referenced register left uncolored");
    return C;
  };
  Out.Blocks.reserve(P.Blocks.size());
  for (int B = 0; B < P.getNumBlocks(); ++B) {
    const BasicBlock &BB = P.block(B);
    int NewB = Out.addBlock(P.blockName(BB.Id));
    Out.block(NewB).FallThrough = BB.FallThrough;
    Out.block(NewB).Instrs.reserve(BB.Instrs.size());
    for (const Instruction &I : BB.Instrs) {
      Instruction NewI = I;
      if (I.Def != NoReg)
        NewI.Def = colorOf(I.Def);
      if (I.Use1 != NoReg)
        NewI.Use1 = colorOf(I.Use1);
      if (I.Use2 != NoReg)
        NewI.Use2 = colorOf(I.Use2);
      Out.block(NewB).Instrs.push_back(NewI);
    }
  }
  for (Reg V : P.EntryLiveRegs) {
    int C = Colors[static_cast<size_t>(V)];
    // Entry-live but unreferenced registers still need a slot for the
    // harness to write into; reuse color 0 (the value is never read).
    Out.EntryLiveRegs.push_back(C < 0 ? 0 : C);
  }
  return Out;
}

ThreadAnalysisBundle npral::computeThreadAnalysisBundle(
    const Program &RenamedP) {
  ThreadAnalysisBundle Bundle;
  Bundle.TA = analyzeThread(RenamedP);
  Bundle.Bounds = estimateRegBounds(Bundle.TA);
  return Bundle;
}

IntraThreadAllocator::IntraThreadAllocator(const Program &P, CostModel CM)
    : Owned(std::make_unique<const Program>(renameLiveRanges(P))),
      Original(*Owned),
      Bundle(std::make_shared<const ThreadAnalysisBundle>(
          computeThreadAnalysisBundle(Original))),
      TA(Bundle->TA), Bounds(Bundle->Bounds), CM(std::move(CM)) {}

IntraThreadAllocator::IntraThreadAllocator(
    const Program &RenamedP, std::shared_ptr<const ThreadAnalysisBundle> Pre,
    CostModel CM)
    : Original(RenamedP), Bundle(std::move(Pre)), TA(Bundle->TA),
      Bounds(Bundle->Bounds), CM(std::move(CM)) {}

const IntraResult &IntraThreadAllocator::allocate(int PR, int SR) {
  auto Key = std::make_pair(PR, SR);
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;
  const IntraResult &R =
      Cache.emplace(Key, computeAllocation(PR, SR)).first->second;
  if (Log) {
    IntraEvent E;
    E.K = IntraEvent::Recolor;
    E.Thread = LogThread;
    E.PR = PR;
    E.SR = SR;
    if (R.Feasible)
      E.Detail = "strategy=" + R.Strategy +
                 " moves=" + std::to_string(R.MoveCost) +
                 " weighted=" + std::to_string(R.WeightedCost);
    else
      E.Detail = "infeasible (" + R.FailReason + ")";
    Log->IntraEvents.push_back(std::move(E));
    if (R.Feasible && R.Strategy == "fragment") {
      IntraEvent F;
      F.K = IntraEvent::FragmentFallback;
      F.Thread = LogThread;
      F.PR = PR;
      F.SR = SR;
      F.Detail = "moves=" + std::to_string(R.MoveCost);
      Log->IntraEvents.push_back(std::move(F));
    }
  }
  return R;
}

IntraResult IntraThreadAllocator::computeAllocation(int PR, int SR) {
  IntraResult Result;
  Result.PR = PR;
  Result.SR = SR;
  const int R = PR + SR;

  if (PR < 0 || SR < 0 || PR < Bounds.MinPR || R < Bounds.MinR) {
    Result.Feasible = false;
    Result.FailReason = "budget below the thread's lower bounds";
    return Result;
  }

  // Strategy 0: at or above the Fig.-7 upper bounds the estimator's own
  // merged coloring is already a valid move-free allocation (boundary
  // colors < MaxPR <= PR, all colors < MaxR <= R).
  if (PR >= Bounds.MaxPR && R >= Bounds.MaxR) {
    Result.Feasible = true;
    Result.MoveCost = 0;
    Result.ColorProgram = rewriteToColors(Original, Bounds.Colors, R);
    Result.Strategy = "bounds";
    return Result;
  }

  // Strategy 1: move-free constrained coloring.
  ConstrainedColoringResult Direct = colorConstrained(TA, PR, R);
  if (Direct.Success) {
    static_cast<ColorAllocation &>(Result) = ColorAllocation();
    Result.Feasible = true;
    Result.PR = PR;
    Result.SR = SR;
    Result.MoveCost = 0;
    Result.ColorProgram = rewriteToColors(Original, Direct.Colors, R);
    Result.Strategy = "direct";
    return Result;
  }

  // Strategy 3, computed first: the constructive fallback's cost is the
  // ceiling greedy splitting must meet to be chosen.
  ColorAllocation Fragment = allocateByFragments(Original, TA, PR, SR, CM);

  // Strategy 2: greedy NSR exclusion / block splitting.
  ColorAllocation Greedy = allocateWithGreedySplitting(PR, SR, Fragment);

  // Weighted costs decide; under the unit model they are the move counts.
  ColorAllocation *Best = nullptr;
  const char *Strategy = "";
  bool GreedyWins = Greedy.Feasible && (!Fragment.Feasible ||
                                        Greedy.WeightedCost <=
                                            Fragment.WeightedCost);
  if (GreedyWins) {
    Best = &Greedy;
    Strategy = "split";
  } else if (Fragment.Feasible) {
    Best = &Fragment;
    Strategy = "fragment";
  }
  if (!Best) {
    Result.Feasible = false;
    Result.FailReason = Fragment.FailReason.empty() ? Greedy.FailReason
                                                    : Fragment.FailReason;
    return Result;
  }
  static_cast<ColorAllocation &>(Result) = std::move(*Best);
  Result.Strategy = Strategy;
  // The paper's Eliminate_unnecessary_move step: splitting strategies may
  // leave copies whose value is already in place or never read again. Every
  // removed move was one this allocation inserted (the input program is
  // live-range renamed, so its own moves connect distinct ranges and
  // survive), hence the cost cannot go negative. Each removal is priced by
  // the block it sat in: the fragment strategy's output may hold edge-split
  // blocks beyond the input's, which its OutputWeights cover; greedy
  // splitting adds no blocks, so the model's own weights line up.
  int64_t WeightedRemoved = 0;
  Result.MoveCost -= eliminateRedundantMoves(
      Result.ColorProgram,
      Best == &Fragment ? Result.OutputWeights : CM.blockWeights(),
      &WeightedRemoved);
  Result.WeightedCost -= WeightedRemoved;
  assert(Result.MoveCost >= 0 &&
         "move elimination removed moves the allocator never inserted");
  assert(Result.WeightedCost >= 0 && "weighted cost went negative");
  return Result;
}

ColorAllocation
IntraThreadAllocator::allocateWithGreedySplitting(int PR, int SR,
                                                  const ColorAllocation &Ceiling) {
  ColorAllocation Result;
  Result.PR = PR;
  Result.SR = SR;
  const int R = PR + SR;

  Program Work = Original;
  // Progress cap: each split adds a register; allow a generous multiple.
  const int MaxSplits = 4 * Original.NumRegs + 16;

  // The weighted cost of the movs inserted so far, as computeAllocation
  // compares it with the fragment fallback's. The transforms never add
  // blocks, so per-block mov deltas line up with the model's weights.
  auto insertedCost = [&]() -> int64_t {
    int64_t Weighted = 0;
    for (int B = 0; B < Original.getNumBlocks(); ++B)
      Weighted += CM.blockWeight(B) *
                  static_cast<int64_t>(countBlockMoves(Work.block(B)) -
                                       countBlockMoves(Original.block(B)));
    return Weighted;
  };

  for (int Iter = 0; Iter < MaxSplits; ++Iter) {
    if (Limits.expired()) {
      Result.Feasible = false;
      Result.FailReason = "greedy splitting cut short by the deadline";
      return Result;
    }
    ThreadAnalysis WorkTA = analyzeThread(Work);
    ConstrainedColoringResult CCR = colorConstrained(WorkTA, PR, R);
    if (CCR.Success) {
      Result.Feasible = true;
      Result.ColorProgram = rewriteToColors(Work, CCR.Colors, R);
      Result.MoveCost = Work.countMoves() - Original.countMoves();
      Result.WeightedCost = insertedCost();
      return Result;
    }

    int Node = CCR.FailedNode;
    assert(Node >= 0 && "failed coloring without a failing node");
    bool DidSplit = false;

    if (WorkTA.BoundaryNodes.test(Node)) {
      // NSR exclusion: carve the node out of the NSR where it is
      // referenced most (excluding the largest chunk relieves the most
      // internal conflicts per move pair).
      std::vector<int> RefCount(
          static_cast<size_t>(WorkTA.NSRs.getNumNSRs()), 0);
      for (int B = 0; B < Work.getNumBlocks(); ++B) {
        const BasicBlock &BB = Work.block(B);
        for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
          const Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];
          if (Inst.usesReg(Node))
            ++RefCount[static_cast<size_t>(WorkTA.NSRs.instrPreNSR(B, I))];
          if (Inst.Def == Node)
            ++RefCount[static_cast<size_t>(WorkTA.NSRs.instrPostNSR(B, I))];
        }
      }
      int BestNSR = -1;
      if (CM.isUnit()) {
        for (int K = 0; K < WorkTA.NSRs.getNumNSRs(); ++K)
          if (RefCount[static_cast<size_t>(K)] > 0 &&
              (BestNSR < 0 || RefCount[static_cast<size_t>(K)] >
                                  RefCount[static_cast<size_t>(BestNSR)]))
            BestNSR = K;
      } else {
        // Frequency-aware rule: among NSRs that reference the node, prefer
        // the cheapest weighted reconciliation (a hot loop's CSB moves
        // execute every iteration); break ties toward more references.
        int64_t BestWeighted = 0;
        for (int K = 0; K < WorkTA.NSRs.getNumNSRs(); ++K) {
          if (RefCount[static_cast<size_t>(K)] <= 0)
            continue;
          int64_t W = estimateExcludeNSRMoves(Work, WorkTA.Liveness,
                                              WorkTA.NSRs, Node, K, CM);
          if (W < 0)
            continue;
          if (BestNSR < 0 || W < BestWeighted ||
              (W == BestWeighted &&
               RefCount[static_cast<size_t>(K)] >
                   RefCount[static_cast<size_t>(BestNSR)])) {
            BestNSR = K;
            BestWeighted = W;
          }
        }
      }
      if (BestNSR >= 0) {
        DidSplit = excludeNSR(Work, WorkTA, Node, BestNSR) != NoReg;
        if (DidSplit && Log) {
          IntraEvent E;
          E.K = IntraEvent::ExcludeNSR;
          E.Thread = LogThread;
          E.PR = PR;
          E.SR = SR;
          E.Detail = "boundary node " + std::to_string(Node) + " from nsr" +
                     std::to_string(BestNSR);
          Log->IntraEvents.push_back(std::move(E));
        }
      }
    } else {
      // Internal node: split it in the block where it is referenced most.
      // Under a frequency model, prefer the block where the (at most two)
      // reconciling moves are cheapest; ties go to more references.
      int BestBlock = -1;
      int BestRefs = 0;
      int64_t BestWeighted = 0;
      for (int B = 0; B < Work.getNumBlocks(); ++B) {
        int Refs = 0;
        for (const Instruction &Inst : Work.block(B).Instrs)
          if (Inst.Def == Node || Inst.usesReg(Node))
            ++Refs;
        if (Refs == 0)
          continue;
        if (CM.isUnit()) {
          if (Refs > BestRefs) {
            BestRefs = Refs;
            BestBlock = B;
          }
          continue;
        }
        int Movs = (WorkTA.Liveness.blockLiveIn(B).test(Node) ? 1 : 0) +
                   (WorkTA.Liveness.blockLiveOut(B).test(Node) ? 1 : 0);
        int64_t W = CM.blockWeight(B) * static_cast<int64_t>(Movs);
        if (BestBlock < 0 || W < BestWeighted ||
            (W == BestWeighted && Refs > BestRefs)) {
          BestBlock = B;
          BestRefs = Refs;
          BestWeighted = W;
        }
      }
      if (BestBlock >= 0) {
        DidSplit = splitInBlock(Work, WorkTA, Node, BestBlock) != NoReg;
        if (DidSplit && Log) {
          IntraEvent E;
          E.K = IntraEvent::BlockSplit;
          E.Thread = LogThread;
          E.PR = PR;
          E.SR = SR;
          E.Detail = "internal node " + std::to_string(Node) + " in block " +
                     std::to_string(BestBlock);
          Log->IntraEvents.push_back(std::move(E));
        }
      }
    }

    if (!DidSplit) {
      Result.Feasible = false;
      Result.FailReason = "greedy splitting made no progress";
      return Result;
    }
    // Both transforms only insert movs into existing blocks and block
    // weights are non-negative, so the inserted cost never falls. Once it
    // exceeds the fragment fallback's, greedy can no longer be chosen.
    if (Ceiling.Feasible && insertedCost() > Ceiling.WeightedCost) {
      Result.Feasible = false;
      Result.FailReason = "greedy splitting cannot beat the fragment fallback";
      return Result;
    }
  }

  Result.Feasible = false;
  Result.FailReason = "greedy splitting exceeded its iteration budget";
  return Result;
}
