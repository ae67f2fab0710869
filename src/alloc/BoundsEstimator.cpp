//===- BoundsEstimator.cpp ------------------------------------------------===//

#include "alloc/BoundsEstimator.h"

#include <algorithm>
#include <cassert>
#include <climits>

using namespace npral;

RegBounds npral::estimateRegBounds(const ThreadAnalysis &TA) {
  RegBounds Bounds;
  Bounds.MinR = TA.getRegPmax();
  Bounds.MinPR = TA.getRegPCSBmax();

  const InterferenceGraph &GIG = TA.GIG;
  const int N = GIG.getNumNodes();
  Coloring Colors(static_cast<size_t>(N), NoColor);

  // Step 1: color the BIG minimally. Only boundary interference constrains
  // this stage, per Fig. 7.
  Coloring BIGColors(static_cast<size_t>(N), NoColor);
  int PR = colorMinimally(TA.BIG, TA.BoundaryNodes, BIGColors);
  TA.BoundaryNodes.forEach([&](int Node) {
    Colors[static_cast<size_t>(Node)] = BIGColors[static_cast<size_t>(Node)];
  });

  // Step 2: color each IIG minimally and independently (Claim 2: they share
  // no edges, so a shared scratch coloring vector is safe). The scratch is
  // reused across IIGs without re-clearing: colorMinimally only writes
  // member slots, stale entries all belong to other NSRs' internal nodes,
  // and two internal nodes of different NSRs are never GIG-adjacent (they
  // would be co-live at a point, making that point's NSR the home of both),
  // so stale colors are never read either.
  int R = PR;
  Coloring IIGColors(static_cast<size_t>(N), NoColor);
  for (const BitVector &Members : TA.IIGMembers) {
    if (Members.none())
      continue;
    int Used = colorMinimally(GIG, Members, IIGColors);
    R = std::max(R, Used);
    Members.forEach([&](int Node) {
      Colors[static_cast<size_t>(Node)] = IIGColors[static_cast<size_t>(Node)];
    });
  }

  // Step 3: merge. Conflict edges are GIG edges whose endpoints got the
  // same color: internal-vs-boundary edges (absent from both the BIG and
  // the IIGs) and boundary-vs-boundary edges internal to an NSR (absent
  // from the BIG). Resolve per Fig. 7(b): recolor one endpoint within its
  // band; failing that, move one of its neighbors; failing that, grow the
  // relevant bound and recolor.
  std::vector<int> BandLo(static_cast<size_t>(N), 0);
  std::vector<int> BandHi(static_cast<size_t>(N), 0);
  auto refreshBands = [&]() {
    for (int Node = 0; Node < N; ++Node)
      BandHi[static_cast<size_t>(Node)] =
          TA.BoundaryNodes.test(Node) ? PR : R;
  };
  refreshBands();

  // The scan resumes at the row (lower endpoint) of the conflict it last
  // returned and still finds the lowest (A, B) pair: rows below it held no
  // conflict, and resolving one creates none except at the PR growth below.
  // Recoloring, directly or via a neighbor, only gives a node a color none
  // of its neighbors holds, and growing R hands out R - 1, which no node
  // holds.
  int ScanFrom = 0;
  auto findConflictEdge = [&](int &OutA, int &OutB) -> bool {
    for (int A = ScanFrom; A < N; ++A) {
      int CA = Colors[static_cast<size_t>(A)];
      if (CA == NoColor)
        continue;
      // Neighbors are ascending, so the first match is the lowest B > A —
      // and the early break skips the tail of the adjacency slice.
      for (int B : GIG.neighbors(A)) {
        if (B > A && Colors[static_cast<size_t>(B)] == CA) {
          OutA = A;
          OutB = B;
          ScanFrom = A;
          return true;
        }
      }
    }
    return false;
  };

  int ConflictA, ConflictB;
  while (findConflictEdge(ConflictA, ConflictB)) {
    auto tryRecolor = [&](int Node) -> bool {
      int Lo = BandLo[static_cast<size_t>(Node)];
      int Hi = BandHi[static_cast<size_t>(Node)];
      int Old = Colors[static_cast<size_t>(Node)];
      Colors[static_cast<size_t>(Node)] = NoColor;
      int C = pickFreeColor(GIG, Colors, Node, Lo, Hi);
      if (C != NoColor) {
        Colors[static_cast<size_t>(Node)] = C;
        return true;
      }
      Colors[static_cast<size_t>(Node)] = Old;
      return false;
    };

    // Prefer recoloring the internal endpoint (its band is wider).
    int First = TA.BoundaryNodes.test(ConflictB) ? ConflictA : ConflictB;
    int Second = First == ConflictA ? ConflictB : ConflictA;
    if (tryRecolor(First) || tryRecolor(Second))
      continue;
    if (recolorViaNeighbor(GIG, Colors, First, BandLo[static_cast<size_t>(First)],
                           BandHi[static_cast<size_t>(First)], BandLo, BandHi))
      continue;
    if (recolorViaNeighbor(GIG, Colors, Second,
                           BandLo[static_cast<size_t>(Second)],
                           BandHi[static_cast<size_t>(Second)], BandLo,
                           BandHi))
      continue;

    // Grow a bound. If either endpoint is internal, growing R suffices;
    // otherwise both are boundary and PR must grow (R grows with it when
    // they were equal).
    bool FirstBoundary = TA.BoundaryNodes.test(First);
    if (!FirstBoundary) {
      ++R;
      Colors[static_cast<size_t>(First)] = R - 1;
    } else {
      assert(TA.BoundaryNodes.test(Second) && "expected boundary conflict");
      ++PR;
      R = std::max(R, PR);
      Colors[static_cast<size_t>(First)] = PR - 1;
      // PR - 1 may already sit on an internal neighbor of First: resume at
      // the lowest row holding such a conflict (First itself is >= ScanFrom).
      for (int Nb : GIG.neighbors(First))
        if (Colors[static_cast<size_t>(Nb)] == PR - 1) {
          ScanFrom = std::min(ScanFrom, Nb);
          break;
        }
    }
    refreshBands();
  }

  Bounds.MaxPR = PR;
  Bounds.MaxR = std::max(R, PR);
  Bounds.Colors = std::move(Colors);

  // The move-free upper bounds can never undercut the with-moves lower
  // bounds.
  assert(Bounds.MaxPR >= Bounds.MinPR && "MaxPR below MinPR");
  assert(Bounds.MaxR >= Bounds.MinR && "MaxR below MinR");
  return Bounds;
}

int npral::feasibilityFloorAt(const std::vector<const RegBounds *> &Threads,
                              int SGR) {
  int Total = SGR;
  for (const RegBounds *B : Threads)
    Total += std::max(B->MinPR, B->MinR - SGR);
  return Total;
}

int npral::feasibilityFloor(const std::vector<const RegBounds *> &Threads,
                            int *SGRStar) {
  // Past the largest MinR every thread sits at its MinPR and the floor only
  // grows with the window.
  int MaxMinR = 0;
  for (const RegBounds *B : Threads)
    MaxMinR = std::max(MaxMinR, B->MinR);
  int Best = INT_MAX;
  for (int SGR = 0; SGR <= MaxMinR; ++SGR) {
    const int Total = feasibilityFloorAt(Threads, SGR);
    if (Total < Best) {
      Best = Total;
      if (SGRStar)
        *SGRStar = SGR;
    }
  }
  return Best;
}
