//===- InterferenceGraph.cpp ----------------------------------------------===//

#include "analysis/InterferenceGraph.h"

#include "ir/CFGUtils.h"

#include <algorithm>
#include <cassert>

using namespace npral;

void InterferenceGraph::reset(int Nodes) {
  NumNodes = Nodes;
  NumEdges = 0;
  Frozen = false;
  Build.assign(static_cast<size_t>(Nodes) * WordsPerRow(), 0);
  Tri.clear();
  Offsets.clear();
  AdjList.clear();
}

void InterferenceGraph::freeze() {
  if (Frozen)
    return;
  const size_t W = WordsPerRow();

  // Strip self-loops (clique ORs set them), then symmetrize. Mirroring
  // (a, b) -> (b, a) while scanning rows in ascending order is safe: a bit
  // added to an earlier row is exactly the mirror of one already present
  // in the row being scanned.
  for (int A = 0; A < NumNodes; ++A)
    Build[static_cast<size_t>(A) * W + static_cast<size_t>(A) / 64] &=
        ~(uint64_t(1) << (A % 64));
  for (int A = 0; A < NumNodes; ++A) {
    const uint64_t *Row = Build.data() + static_cast<size_t>(A) * W;
    for (size_t WI = 0; WI < W; ++WI) {
      uint64_t Word = Row[WI];
      while (Word) {
        int B = static_cast<int>(WI * 64) + __builtin_ctzll(Word);
        Word &= Word - 1;
        Build[static_cast<size_t>(B) * W + static_cast<size_t>(A) / 64] |=
            uint64_t(1) << (A % 64);
      }
    }
  }

  // CSR adjacency: ascending neighbor ids per node.
  Offsets.assign(static_cast<size_t>(NumNodes) + 1, 0);
  int Total = 0;
  for (int A = 0; A < NumNodes; ++A) {
    const uint64_t *Row = Build.data() + static_cast<size_t>(A) * W;
    int D = 0;
    for (size_t WI = 0; WI < W; ++WI)
      D += __builtin_popcountll(Row[WI]);
    Offsets[static_cast<size_t>(A)] = Total;
    Total += D;
  }
  Offsets[static_cast<size_t>(NumNodes)] = Total;
  AdjList.resize(static_cast<size_t>(Total));
  for (int A = 0; A < NumNodes; ++A) {
    const uint64_t *Row = Build.data() + static_cast<size_t>(A) * W;
    int32_t *Out = AdjList.data() + Offsets[static_cast<size_t>(A)];
    for (size_t WI = 0; WI < W; ++WI) {
      uint64_t Word = Row[WI];
      while (Word) {
        *Out++ = static_cast<int32_t>(WI * 64) + __builtin_ctzll(Word);
        Word &= Word - 1;
      }
    }
  }
  NumEdges = Total / 2;

  // Packed lower-triangular membership bits: edge (a, b) with a > b lives
  // at bit a*(a-1)/2 + b.
  const size_t TriBits =
      static_cast<size_t>(NumNodes) * (static_cast<size_t>(NumNodes) + 1) / 2;
  Tri.assign((TriBits + 63) / 64, 0);
  for (int A = 1; A < NumNodes; ++A) {
    const size_t RowBase =
        static_cast<size_t>(A) * (static_cast<size_t>(A) - 1) / 2;
    const uint64_t *Row = Build.data() + static_cast<size_t>(A) * W;
    for (size_t WI = 0; WI <= static_cast<size_t>(A) / 64; ++WI) {
      uint64_t Word = Row[WI];
      while (Word) {
        int B = static_cast<int>(WI * 64) + __builtin_ctzll(Word);
        Word &= Word - 1;
        if (B >= A)
          break;
        size_t Bit = RowBase + static_cast<size_t>(B);
        Tri[Bit / 64] |= uint64_t(1) << (Bit % 64);
      }
    }
  }

  Build.clear();
  Build.shrink_to_fit();
  Frozen = true;
}

std::vector<int>
InterferenceGraph::smallestLastOrder(const BitVector &Members) const {
  assert(Frozen && "ordering an unfrozen graph");
  const int N = getNumNodes();

  // Residual degree = neighbors still present. Selection repeatedly takes
  // the lowest-id node of minimum residual degree — the exact tie-break of
  // the pre-rewrite linear scan, which coloring outputs depend on.
  std::vector<int32_t> ResidualDeg(static_cast<size_t>(N), 0);
  BitVector Remaining(N);
  std::vector<int> MemberList;
  Members.forEach([&](int M) {
    Remaining.set(M);
    MemberList.push_back(M);
  });
  for (int M : MemberList) {
    int D = 0;
    for (int32_t Nb : neighbors(M))
      if (Remaining.test(Nb))
        ++D;
    ResidualDeg[static_cast<size_t>(M)] = D;
  }

  std::vector<int> Removal;
  Removal.reserve(MemberList.size());
  for (size_t Step = 0; Step < MemberList.size(); ++Step) {
    int Best = -1;
    Remaining.forEach([&](int M) {
      if (Best < 0 || ResidualDeg[static_cast<size_t>(M)] <
                          ResidualDeg[static_cast<size_t>(Best)])
        Best = M;
    });
    assert(Best >= 0 && "no removable node");
    Remaining.reset(Best);
    Removal.push_back(Best);
    for (int32_t Nb : neighbors(Best))
      if (Remaining.test(Nb))
        --ResidualDeg[static_cast<size_t>(Nb)];
  }
  std::reverse(Removal.begin(), Removal.end());
  return Removal;
}

ThreadAnalysis npral::analyzeThread(const Program &P) {
  ThreadAnalysis TA;
  TA.Liveness = computeLiveness(P);
  TA.NSRs = computeNSRs(P, TA.Liveness);

  const int NumRegs = P.NumRegs;
  TA.GIG.reset(NumRegs);
  TA.BIG.reset(NumRegs);
  TA.BoundaryNodes.resize(NumRegs);
  TA.InternalNodes.resize(NumRegs);
  TA.ReferencedNodes.resize(NumRegs);
  TA.HomeNSR.assign(static_cast<size_t>(NumRegs), -1);

  for (Reg R = 0; R < NumRegs; ++R)
    if (TA.Liveness.isEverReferenced(R))
      TA.ReferencedNodes.set(R);

  // GIG edges: at every definition point, the defined register interferes
  // with everything live after the instruction — one word-parallel row OR
  // per definition. Entry-live registers act as defined simultaneously at
  // a virtual entry point (a clique).
  for (int B = 0; B < P.getNumBlocks(); ++B) {
    const BasicBlock &BB = P.block(B);
    for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
      const Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];
      if (Inst.Def == NoReg)
        continue;
      TA.GIG.markRow(Inst.Def, TA.Liveness.instrLiveOut(B, I));
    }
  }
  TA.GIG.addClique(TA.Liveness.blockLiveIn(P.getEntryBlock()));
  // No def reaches a block no path reaches, so registers co-live only in
  // unreachable code would get no edge, while RegPmax (the MinR bound)
  // still counts those points. Registers live into an unreachable block
  // act as defined together at its entry, like entry-live registers.
  const std::vector<char> Reached = findReachableBlocks(P);
  for (int B = 0; B < P.getNumBlocks(); ++B)
    if (!Reached[static_cast<size_t>(B)])
      TA.GIG.addClique(TA.Liveness.blockLiveIn(B));

  // Boundary classification and BIG edges: everything crossing one CSB
  // forms a clique, word-parallel per boundary.
  for (const CSB &Boundary : TA.NSRs.getCSBs()) {
    TA.BoundaryNodes.unionWith(Boundary.LiveAcross);
    TA.BIG.addClique(Boundary.LiveAcross);
  }

  TA.GIG.freeze();
  TA.BIG.freeze();

  TA.InternalNodes = TA.ReferencedNodes;
  TA.InternalNodes.subtract(TA.BoundaryNodes);

  // Home NSR of internal nodes: the NSR of the def side of any defining
  // instruction (Claim 2 guarantees this is unique; assert it).
  TA.IIGMembers.assign(static_cast<size_t>(TA.NSRs.getNumNSRs()),
                       BitVector(NumRegs));
  for (int B = 0; B < P.getNumBlocks(); ++B) {
    const BasicBlock &BB = P.block(B);
    for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
      const Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];
      auto touch = [&](Reg R, int NSR) {
        if (R == NoReg || !TA.InternalNodes.test(R))
          return;
        int &Home = TA.HomeNSR[static_cast<size_t>(R)];
        if (Home != -1 && Home != NSR)
          reportFatalError("internal live range '" + P.getRegName(R) +
                           "' of program '" + P.Name +
                           "' spans multiple NSRs");
        Home = NSR;
        TA.IIGMembers[static_cast<size_t>(NSR)].set(R);
      };
      touch(Inst.Def, TA.NSRs.instrPostNSR(B, I));
      touch(Inst.Use1, TA.NSRs.instrPreNSR(B, I));
      touch(Inst.Use2, TA.NSRs.instrPreNSR(B, I));
    }
  }
  // Entry-live internal nodes live in the entry NSR.
  TA.Liveness.blockLiveIn(P.getEntryBlock()).forEach([&](int R) {
    if (!TA.InternalNodes.test(R))
      return;
    int &Home = TA.HomeNSR[static_cast<size_t>(R)];
    int EntryNSR = TA.NSRs.pointNSR(P.getEntryBlock(), 0);
    assert((Home == -1 || Home == EntryNSR) &&
           "internal live range spans multiple NSRs");
    Home = EntryNSR;
    TA.IIGMembers[static_cast<size_t>(EntryNSR)].set(R);
  });

  return TA;
}
