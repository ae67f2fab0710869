//===- NSR.cpp ------------------------------------------------------------===//

#include "analysis/NSR.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace npral;

namespace {

/// Minimal union-find.
class UnionFind {
public:
  explicit UnionFind(int N) : Parent(static_cast<size_t>(N)) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }

  int find(int X) {
    while (Parent[static_cast<size_t>(X)] != X) {
      Parent[static_cast<size_t>(X)] =
          Parent[static_cast<size_t>(Parent[static_cast<size_t>(X)])];
      X = Parent[static_cast<size_t>(X)];
    }
    return X;
  }

  void unite(int A, int B) {
    A = find(A);
    B = find(B);
    if (A != B)
      Parent[static_cast<size_t>(A)] = B;
  }

private:
  std::vector<int> Parent;
};

} // namespace

NSRInfo npral::computeNSRs(const Program &P, const LivenessInfo &LI) {
  NSRInfo Info;
  const int NumBlocks = P.getNumBlocks();

  // Lay out points: block b contributes size(b)+1 points.
  Info.PointBase.resize(static_cast<size_t>(NumBlocks));
  int TotalPoints = 0;
  for (int B = 0; B < NumBlocks; ++B) {
    Info.PointBase[static_cast<size_t>(B)] = TotalPoints;
    TotalPoints += static_cast<int>(P.block(B).Instrs.size()) + 1;
  }

  UnionFind UF(TotalPoints);
  auto pointId = [&](int B, int I) {
    return Info.PointBase[static_cast<size_t>(B)] + I;
  };

  // Unify consecutive points separated by non-ctx instructions.
  for (int B = 0; B < NumBlocks; ++B) {
    const BasicBlock &BB = P.block(B);
    for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I)
      if (!BB.Instrs[static_cast<size_t>(I)].causesCtxSwitch())
        UF.unite(pointId(B, I), pointId(B, I + 1));
  }
  // Unify across CFG edges.
  for (int B = 0; B < NumBlocks; ++B)
    for (int S : P.successors(B))
      UF.unite(pointId(B, static_cast<int>(P.block(B).Instrs.size())),
               pointId(S, 0));

  // Compact roots to dense NSR ids.
  Info.PointNSR.assign(static_cast<size_t>(TotalPoints), -1);
  std::vector<int> RootToNSR(static_cast<size_t>(TotalPoints), -1);
  int NextNSR = 0;
  for (int Pt = 0; Pt < TotalPoints; ++Pt) {
    int Root = UF.find(Pt);
    if (RootToNSR[static_cast<size_t>(Root)] < 0)
      RootToNSR[static_cast<size_t>(Root)] = NextNSR++;
    Info.PointNSR[static_cast<size_t>(Pt)] =
        RootToNSR[static_cast<size_t>(Root)];
  }
  Info.NumNSRs = NextNSR;

  // NSR sizes: instructions counted at their pre-point.
  Info.NSRSizes.assign(static_cast<size_t>(NextNSR), 0);
  for (int B = 0; B < NumBlocks; ++B) {
    const BasicBlock &BB = P.block(B);
    for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I)
      ++Info.NSRSizes[static_cast<size_t>(Info.pointNSR(B, I))];
  }

  // Collect CSBs with their live-across sets.
  Info.RegPCSBmax = 0;
  Info.CSBs.reserve(static_cast<size_t>(P.countCtxInstructions()));
  forEachCSB(P, LI, [&](int B, int I, const BitVector &Across) {
    CSB Boundary;
    Boundary.Block = B;
    Boundary.InstrIndex = I;
    Boundary.PreNSR = Info.pointNSR(B, I);
    Boundary.PostNSR = Info.pointNSR(B, I + 1);
    Boundary.LiveAcross = Across;
    Info.RegPCSBmax = std::max(Info.RegPCSBmax, Across.count());
    Info.CSBs.push_back(std::move(Boundary));
  });
  return Info;
}
