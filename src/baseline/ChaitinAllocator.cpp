//===- ChaitinAllocator.cpp -----------------------------------------------===//

#include "baseline/ChaitinAllocator.h"

#include "alloc/ColoringUtils.h"
#include "alloc/SpillCode.h"
#include "analysis/LiveRangeRenaming.h"
#include "alloc/IntraAllocator.h"
#include "analysis/InterferenceGraph.h"
#include "ir/CFGUtils.h"

#include <algorithm>
#include <cassert>

using namespace npral;

namespace {

/// One build-simplify-select round. Returns true and fills \p Colors when
/// everything colored; otherwise fills \p ToSpill with the ranges chosen
/// for spilling.
bool colorOnce(const Program &P, const ThreadAnalysis &TA, int K,
               const std::vector<char> &NoSpill, Coloring &Colors,
               std::vector<Reg> &ToSpill) {
  const InterferenceGraph &IG = TA.GIG;
  const int N = IG.getNumNodes();

  // Reference counts approximate spill cost.
  std::vector<int> RefCount(static_cast<size_t>(N), 0);
  for (const BasicBlock &BB : P.Blocks)
    for (const Instruction &I : BB.Instrs) {
      if (I.Def != NoReg)
        ++RefCount[static_cast<size_t>(I.Def)];
      if (I.Use1 != NoReg)
        ++RefCount[static_cast<size_t>(I.Use1)];
      if (I.Use2 != NoReg)
        ++RefCount[static_cast<size_t>(I.Use2)];
    }

  std::vector<int> Degree(static_cast<size_t>(N), 0);
  std::vector<char> InGraph(static_cast<size_t>(N), 0);
  int Remaining = 0;
  TA.ReferencedNodes.forEach([&](int Node) {
    InGraph[static_cast<size_t>(Node)] = 1;
    ++Remaining;
  });
  for (int Node = 0; Node < N; ++Node) {
    if (!InGraph[static_cast<size_t>(Node)])
      continue;
    int D = 0;
    IG.neighbors(Node).forEach([&](int Nb) {
      if (InGraph[static_cast<size_t>(Nb)])
        ++D;
    });
    Degree[static_cast<size_t>(Node)] = D;
  }

  // Simplify with optimistic (Briggs) spill candidates.
  std::vector<int> Stack;
  std::vector<char> IsCandidate(static_cast<size_t>(N), 0);
  std::vector<char> Removed(static_cast<size_t>(N), 0);
  auto removeNode = [&](int Node) {
    Removed[static_cast<size_t>(Node)] = 1;
    --Remaining;
    IG.neighbors(Node).forEach([&](int Nb) {
      if (InGraph[static_cast<size_t>(Nb)] && !Removed[static_cast<size_t>(Nb)])
        --Degree[static_cast<size_t>(Nb)];
    });
    Stack.push_back(Node);
  };

  while (Remaining > 0) {
    int Trivial = -1;
    for (int Node = 0; Node < N; ++Node)
      if (InGraph[static_cast<size_t>(Node)] &&
          !Removed[static_cast<size_t>(Node)] &&
          Degree[static_cast<size_t>(Node)] < K) {
        Trivial = Node;
        break;
      }
    if (Trivial >= 0) {
      removeNode(Trivial);
      continue;
    }
    // Pick the cheapest spill candidate: min refcount/degree ratio, never a
    // node marked no-spill (spill temps).
    int Best = -1;
    double BestScore = 0;
    for (int Node = 0; Node < N; ++Node) {
      if (!InGraph[static_cast<size_t>(Node)] ||
          Removed[static_cast<size_t>(Node)])
        continue;
      if (NoSpill[static_cast<size_t>(Node)])
        continue;
      double Score = static_cast<double>(RefCount[static_cast<size_t>(Node)]) /
                     std::max(1, Degree[static_cast<size_t>(Node)]);
      if (Best < 0 || Score < BestScore) {
        Best = Node;
        BestScore = Score;
      }
    }
    if (Best < 0) {
      // Only no-spill nodes remain with high degree; push one optimistically
      // anyway (it usually colors).
      for (int Node = 0; Node < N; ++Node)
        if (InGraph[static_cast<size_t>(Node)] &&
            !Removed[static_cast<size_t>(Node)]) {
          Best = Node;
          break;
        }
    }
    assert(Best >= 0 && "simplify stuck with no nodes");
    IsCandidate[static_cast<size_t>(Best)] = 1;
    removeNode(Best);
  }

  // Select.
  Colors.assign(static_cast<size_t>(N), NoColor);
  ToSpill.clear();
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
    int Node = *It;
    int C = pickFreeColor(IG, Colors, Node, 0, K);
    if (C != NoColor) {
      Colors[static_cast<size_t>(Node)] = C;
      continue;
    }
    assert(IsCandidate[static_cast<size_t>(Node)] &&
           "non-candidate failed to color");
    ToSpill.push_back(Node);
  }
  return ToSpill.empty();
}

} // namespace

ChaitinResult npral::runChaitinAllocator(const Program &P,
                                         const ChaitinConfig &C) {
  ChaitinResult Result;
  Program Work = renameLiveRanges(P);
  std::vector<char> NoSpill(static_cast<size_t>(Work.NumRegs), 0);
  std::vector<int64_t> SlotOf(static_cast<size_t>(Work.NumRegs), 0);
  int NextSlot = 0;

  for (int Round = 0; Round < C.MaxRounds; ++Round) {
    Result.Rounds = Round + 1;
    ThreadAnalysis TA = analyzeThread(Work);
    Coloring Colors;
    std::vector<Reg> ToSpill;
    NoSpill.resize(static_cast<size_t>(Work.NumRegs), 0);
    if (colorOnce(Work, TA, C.NumColors, NoSpill, Colors, ToSpill)) {
      int MaxColor = -1;
      for (int Col : Colors)
        MaxColor = std::max(MaxColor, Col);
      Result.ColorsUsed = MaxColor + 1;
      Result.Allocated = rewriteToColors(Work, Colors, C.NumColors);
      Result.Success = true;
      return Result;
    }
    // Assign slots and spill.
    SlotOf.resize(static_cast<size_t>(Work.NumRegs), 0);
    for (Reg V : ToSpill) {
      SlotOf[static_cast<size_t>(V)] = C.SpillBase + NextSlot++;
      ++Result.SpilledRanges;
    }
    SpillRewrite SR = insertSpillCode(Work, ToSpill, SlotOf);
    Result.SpillLoads += SR.Loads;
    Result.SpillStores += SR.Stores;
    NoSpill.resize(static_cast<size_t>(Work.NumRegs), 0);
    for (Reg T : SR.Temps)
      NoSpill[static_cast<size_t>(T)] = 1;
  }

  Result.Success = false;
  Result.FailReason = "spilling did not converge within round budget";
  return Result;
}

MultiThreadProgram npral::materializeBaseline(
    const std::vector<Program> &Allocated, int NumColors,
    const std::string &Name) {
  MultiThreadProgram Physical;
  Physical.Name = Name;
  const int Nthd = static_cast<int>(Allocated.size());
  const int Nreg = NumColors * Nthd;
  for (int T = 0; T < Nthd; ++T) {
    const Program &CP = Allocated[static_cast<size_t>(T)];
    const int Base = T * NumColors;
    Program Phys;
    Phys.Name = CP.Name;
    Phys.NumRegs = Nreg;
    Phys.IsPhysical = true;
    Phys.EntryBlock = CP.EntryBlock;
    for (int B = 0; B < CP.getNumBlocks(); ++B) {
      const BasicBlock &BB = CP.block(B);
      int NewB = Phys.addBlock(CP.blockName(BB.Id));
      Phys.block(NewB).FallThrough = BB.FallThrough;
      for (const Instruction &I : BB.Instrs) {
        Instruction NewI = I;
        if (I.Def != NoReg)
          NewI.Def = Base + I.Def;
        if (I.Use1 != NoReg)
          NewI.Use1 = Base + I.Use1;
        if (I.Use2 != NoReg)
          NewI.Use2 = Base + I.Use2;
        Phys.block(NewB).Instrs.push_back(NewI);
      }
    }
    for (Reg C : CP.EntryLiveRegs)
      Phys.EntryLiveRegs.push_back(Base + C);
    Physical.Threads.push_back(std::move(Phys));
  }
  return Physical;
}
