//===- CFGUtils.cpp -------------------------------------------------------===//

#include "ir/CFGUtils.h"

#include <algorithm>
#include <cassert>

using namespace npral;

std::vector<int> npral::computeImmediateDominators(const Program &P) {
  const int N = P.getNumBlocks();
  std::vector<int> Idom(static_cast<size_t>(N), -1);
  if (N == 0)
    return Idom;

  // RPO position of each block; unreachable blocks keep position -1 and are
  // skipped (computeRPO appends them after the reachable prefix).
  std::vector<int> Order = P.computeRPO();
  std::vector<int> Pos(static_cast<size_t>(N), -1);
  std::vector<bool> Reachable(static_cast<size_t>(N), false);
  {
    // computeRPO appends unreachable blocks; mark the truly reachable set
    // with a flood fill from the entry.
    std::vector<int> Stack{P.getEntryBlock()};
    while (!Stack.empty()) {
      int B = Stack.back();
      Stack.pop_back();
      if (Reachable[static_cast<size_t>(B)])
        continue;
      Reachable[static_cast<size_t>(B)] = true;
      for (int S : P.successors(B))
        Stack.push_back(S);
    }
  }
  for (int I = 0; I < N; ++I)
    Pos[static_cast<size_t>(Order[static_cast<size_t>(I)])] = I;

  std::vector<std::vector<int>> Preds = P.computePredecessors();
  Idom[static_cast<size_t>(P.getEntryBlock())] = P.getEntryBlock();

  auto intersect = [&](int A, int B) {
    while (A != B) {
      while (Pos[static_cast<size_t>(A)] > Pos[static_cast<size_t>(B)])
        A = Idom[static_cast<size_t>(A)];
      while (Pos[static_cast<size_t>(B)] > Pos[static_cast<size_t>(A)])
        B = Idom[static_cast<size_t>(B)];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int B : Order) {
      if (B == P.getEntryBlock() || !Reachable[static_cast<size_t>(B)])
        continue;
      int NewIdom = -1;
      for (int Pred : Preds[static_cast<size_t>(B)]) {
        if (Idom[static_cast<size_t>(Pred)] < 0)
          continue; // not yet processed or unreachable
        NewIdom = NewIdom < 0 ? Pred : intersect(NewIdom, Pred);
      }
      if (NewIdom >= 0 && Idom[static_cast<size_t>(B)] != NewIdom) {
        Idom[static_cast<size_t>(B)] = NewIdom;
        Changed = true;
      }
    }
  }
  return Idom;
}

std::vector<std::pair<int, int>> npral::findBackEdges(const Program &P) {
  std::vector<int> Idom = computeImmediateDominators(P);
  auto dominates = [&](int A, int B) {
    // Walk B's dominator chain up to the entry looking for A.
    if (Idom[static_cast<size_t>(B)] < 0)
      return false; // B unreachable
    for (;;) {
      if (B == A)
        return true;
      int Up = Idom[static_cast<size_t>(B)];
      if (Up == B)
        return false; // reached the entry
      B = Up;
    }
  };
  std::vector<std::pair<int, int>> BackEdges;
  for (int B = 0; B < P.getNumBlocks(); ++B) {
    if (Idom[static_cast<size_t>(B)] < 0)
      continue;
    for (int S : P.successors(B))
      if (dominates(S, B))
        BackEdges.push_back({B, S});
  }
  return BackEdges;
}

std::vector<char> npral::findReachableBlocks(const Program &P) {
  std::vector<char> Reached(static_cast<size_t>(P.getNumBlocks()), 0);
  if (Reached.empty())
    return Reached;
  std::vector<int> Worklist{P.getEntryBlock()};
  Reached[static_cast<size_t>(P.getEntryBlock())] = 1;
  while (!Worklist.empty()) {
    const int B = Worklist.back();
    Worklist.pop_back();
    for (int S : P.successors(B))
      if (!Reached[static_cast<size_t>(S)]) {
        Reached[static_cast<size_t>(S)] = 1;
        Worklist.push_back(S);
      }
  }
  return Reached;
}

std::vector<int> npral::computeLoopDepths(const Program &P) {
  const int N = P.getNumBlocks();
  std::vector<int> Depth(static_cast<size_t>(N), 0);
  std::vector<std::vector<int>> Preds = P.computePredecessors();

  // Natural loop of back edge (Latch, Header): Header plus everything that
  // reaches Latch without passing through Header. Loops sharing a header
  // are merged into one body so the depth counts distinct loops.
  std::vector<std::pair<int, std::vector<bool>>> Loops; // (header, body)
  for (auto [Latch, Header] : findBackEdges(P)) {
    auto It = std::find_if(Loops.begin(), Loops.end(), [&](const auto &L) {
      return L.first == Header;
    });
    if (It == Loops.end()) {
      Loops.push_back({Header, std::vector<bool>(static_cast<size_t>(N))});
      It = Loops.end() - 1;
      It->second[static_cast<size_t>(Header)] = true;
    }
    std::vector<bool> &Body = It->second;
    std::vector<int> Stack;
    if (!Body[static_cast<size_t>(Latch)]) {
      Body[static_cast<size_t>(Latch)] = true;
      Stack.push_back(Latch);
    }
    while (!Stack.empty()) {
      int B = Stack.back();
      Stack.pop_back();
      for (int Pred : Preds[static_cast<size_t>(B)])
        if (!Body[static_cast<size_t>(Pred)]) {
          Body[static_cast<size_t>(Pred)] = true;
          Stack.push_back(Pred);
        }
    }
  }
  for (const auto &[Header, Body] : Loops)
    for (int B = 0; B < N; ++B)
      if (Body[static_cast<size_t>(B)])
        ++Depth[static_cast<size_t>(B)];
  return Depth;
}

int npral::getTerminatorGroupBegin(const BasicBlock &BB) {
  int N = static_cast<int>(BB.Instrs.size());
  if (N == 0)
    return 0;
  const Instruction &Last = BB.Instrs[static_cast<size_t>(N - 1)];
  bool LastIsControl = Last.isBranch() || Last.Op == Opcode::Halt;
  if (!LastIsControl)
    return N;
  if (N >= 2) {
    const Instruction &Prev = BB.Instrs[static_cast<size_t>(N - 2)];
    if (Prev.isBranch() && Prev.Op != Opcode::Br && Last.Op == Opcode::Br)
      return N - 2;
  }
  return N - 1;
}

int npral::splitEdge(Program &P, int Pred, int Succ) {
  assert(Pred >= 0 && Pred < P.getNumBlocks() && "bad pred");
  assert(Succ >= 0 && Succ < P.getNumBlocks() && "bad succ");

  int NewBlock = P.addBlock(std::string(P.blockName(Pred)) + ".split." +
                            std::to_string(Succ));
  P.block(NewBlock).Instrs.push_back(Instruction::makeBr(Succ));

  BasicBlock &PredBB = P.block(Pred);
  bool Redirected = false;
  // Redirect every explicit branch from Pred to Succ.
  for (Instruction &I : PredBB.Instrs) {
    if (I.isBranch() && I.Target == Succ) {
      I.Target = NewBlock;
      Redirected = true;
    }
  }
  // Redirect the fallthrough edge.
  if (PredBB.FallThrough == Succ) {
    PredBB.FallThrough = NewBlock;
    Redirected = true;
  }
  assert(Redirected && "splitEdge called on a non-edge");
  (void)Redirected;
  return NewBlock;
}

void npral::insertAt(Program &P, ProgramPoint Point, const Instruction &I) {
  assert(Point.Block >= 0 && Point.Block < P.getNumBlocks() && "bad block");
  BasicBlock &BB = P.block(Point.Block);
  int Index = Point.Index;
  int Limit = getTerminatorGroupBegin(BB);
  if (Index > Limit)
    Index = Limit;
  assert(Index >= 0 && Index <= static_cast<int>(BB.Instrs.size()) &&
         "bad index");
  BB.Instrs.insert(BB.Instrs.begin() + Index, I);
}
