//===- AdvisorChecker.cpp - the "over-private" splitting advisor ----------===//
//
// A live range that crosses a CSB must get a private register for its
// whole extent — even the parts that never cross a switch. When such a
// range has its references concentrated inside one NSR, the paper's NSR
// exclusion transform (§7.1, Fig. 12) can carve that portion into a fresh
// internal range eligible for a *shared* register, at the price of a few
// reconciling moves. This advisor flags those opportunities, priced by
// SplitTransforms' cost hint, so a developer (or the allocator's tuning)
// can see where private pressure is buying nothing.
//
//===----------------------------------------------------------------------===//

#include "alloc/SplitTransforms.h"
#include "lint/Checkers.h"
#include "lint/Lint.h"

#include <vector>

using namespace npral;

namespace {

/// A boundary register's reference footprint inside one NSR.
struct NSRRefs {
  int RefCount = 0;
  int FirstBlock = -1;
  int FirstInstr = -1;
};

} // namespace

void lintchecks::adviseOverPrivate(LintContext &Ctx) {
  // Splits cheaper than this many moves are worth pointing out.
  constexpr int MaxAdvisedMoves = 2;

  for (int T = 0; T < Ctx.getNumThreads(); ++T) {
    if (!Ctx.state(T).HasDataflow)
      continue;
    const Program &P = Ctx.thread(T);
    const LivenessInfo &LI = Ctx.state(T).Liveness;
    const NSRInfo &NSRs = Ctx.state(T).NSRs;
    if (NSRs.getCSBs().empty())
      continue;

    // Boundary registers and how many CSBs each crosses. Computed from the
    // CSB sets directly (not analyzeThread) so the advisor also works on
    // programs that have not been live-range renamed.
    BitVector Boundary(P.NumRegs);
    std::vector<int> CrossCount(static_cast<size_t>(P.NumRegs), 0);
    for (const CSB &B : NSRs.getCSBs()) {
      Boundary.unionWith(B.LiveAcross);
      B.LiveAcross.forEach(
          [&](int R) { ++CrossCount[static_cast<size_t>(R)]; });
    }

    Boundary.forEach([&](int V) {
      // Reference counts of V per NSR (uses on the pre side, defs on the
      // post side, matching excludeNSR's renaming rule).
      std::vector<NSRRefs> Refs(static_cast<size_t>(NSRs.getNumNSRs()));
      auto Touch = [&](int NSR, int B, int I) {
        NSRRefs &E = Refs[static_cast<size_t>(NSR)];
        if (E.RefCount++ == 0) {
          E.FirstBlock = B;
          E.FirstInstr = I;
        }
      };
      for (int B = 0; B < P.getNumBlocks(); ++B) {
        const BasicBlock &BB = P.block(B);
        for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
          const Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];
          if (Inst.usesReg(V))
            Touch(NSRs.instrPreNSR(B, I), B, I);
          if (Inst.Def == V)
            Touch(NSRs.instrPostNSR(B, I), B, I);
        }
      }

      // Advise on the most reference-heavy NSR whose exclusion is cheap.
      int BestNSR = -1;
      int64_t BestMoves = 0;
      for (int N = 0; N < NSRs.getNumNSRs(); ++N) {
        // A single touch is not worth a reconciling move pair.
        if (Refs[static_cast<size_t>(N)].RefCount < 2)
          continue;
        int64_t Moves = estimateExcludeNSRMoves(P, LI, NSRs, V, N);
        if (Moves < 0 || Moves > MaxAdvisedMoves)
          continue;
        if (BestNSR < 0 ||
            Refs[static_cast<size_t>(N)].RefCount >
                Refs[static_cast<size_t>(BestNSR)].RefCount) {
          BestNSR = N;
          BestMoves = Moves;
        }
      }
      if (BestNSR < 0)
        return;
      const NSRRefs &E = Refs[static_cast<size_t>(BestNSR)];
      Ctx.emit(Severity::Note, "over-private", T, E.FirstBlock, E.FirstInstr,
               "live range '" + P.getRegName(V) + "' crosses " +
                   std::to_string(CrossCount[static_cast<size_t>(V)]) +
                   " CSB(s) but has " + std::to_string(E.RefCount) +
                   " reference(s) inside NSR " + std::to_string(BestNSR) +
                   "; NSR exclusion would insert " +
                   std::to_string(BestMoves) +
                   " move(s) and let the carved range use a shared register");
    });
  }
}
