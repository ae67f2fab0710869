//===- NSR.h - Non-Switch Regions and CSBs ----------------------*- C++ -*-===//
///
/// \file
/// Non-Switch Regions (paper §3.1): maximal connected subgraphs of the CFG
/// containing no internal context-switch instruction. The boundaries are
/// Context Switch Boundaries (CSBs) — the program points *at* ctx-switching
/// instructions — and the program entry/exit.
///
/// We realise the construction with a union-find over program points.
/// Block b with n instructions has points (b,0) .. (b,n), where (b,k) is
/// "just before instruction k" and (b,n) is the block end. Consecutive
/// points unify unless the instruction between them causes a context
/// switch; every CFG edge unifies the predecessor's end point with the
/// successor's entry point.
///
/// A value is live across the CSB of instruction i iff it is in
/// LiveOut(i) \ Defs(i): a `load`'s destination materialises only after the
/// thread resumes (transfer-register semantics), so it is not live across
/// its own boundary.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_ANALYSIS_NSR_H
#define NPRAL_ANALYSIS_NSR_H

#include "analysis/Liveness.h"
#include "ir/Program.h"
#include "support/BitVector.h"

#include <vector>

namespace npral {

/// One context switch boundary.
struct CSB {
  int Block = NoBlock;
  int InstrIndex = 0;
  /// NSR the boundary's "before" side belongs to.
  int PreNSR = -1;
  /// NSR the boundary's "after" side belongs to.
  int PostNSR = -1;
  /// Registers live across this boundary.
  BitVector LiveAcross;
};

/// The NSR decomposition of one thread.
class NSRInfo {
public:
  int getNumNSRs() const { return NumNSRs; }
  const std::vector<CSB> &getCSBs() const { return CSBs; }

  /// NSR of the point just before instruction \p I of block \p B
  /// (I == block size gives the end-of-block point).
  int pointNSR(int B, int I) const {
    return PointNSR[static_cast<size_t>(PointBase[static_cast<size_t>(B)] +
                                        I)];
  }

  /// NSR containing the *use* side of instruction (B, I).
  int instrPreNSR(int B, int I) const { return pointNSR(B, I); }
  /// NSR containing the *def* side of instruction (B, I) — differs from the
  /// pre-NSR only for ctx-switching instructions.
  int instrPostNSR(int B, int I) const { return pointNSR(B, I + 1); }

  /// Number of instructions whose pre-point lies in each NSR.
  const std::vector<int> &getNSRSizes() const { return NSRSizes; }

  /// Paper's RegPCSBmax: the maximum number of values live across any one
  /// CSB (the lower bound MinPR). Zero when the thread has no CSBs.
  int getRegPCSBmax() const { return RegPCSBmax; }

  friend NSRInfo computeNSRs(const Program &P, const LivenessInfo &LI);

private:
  int NumNSRs = 0;
  std::vector<CSB> CSBs;
  std::vector<int> PointBase; ///< First point index of each block.
  std::vector<int> PointNSR;  ///< Compacted NSR id per point.
  std::vector<int> NSRSizes;
  int RegPCSBmax = 0;
};

/// Build the NSR decomposition for \p P using liveness \p LI.
NSRInfo computeNSRs(const Program &P, const LivenessInfo &LI);

/// Call \p Fn(Block, Instr, LiveAcross) for every CSB of \p P, in program
/// order, where LiveAcross is the set of registers live across it under
/// \p LI (LiveOut(i) \ Defs(i), see above). This is the one definition of
/// a crossing set: computeNSRs and the allocation verifier both read them
/// here. One scratch set serves every call, so a visitor that keeps a set
/// must copy it.
template <typename FnT>
void forEachCSB(const Program &P, const LivenessInfo &LI, FnT Fn) {
  BitVector Across;
  for (int B = 0; B < P.getNumBlocks(); ++B) {
    const BasicBlock &BB = P.block(B);
    for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
      const Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];
      if (!Inst.causesCtxSwitch())
        continue;
      Across.assignSpan(LI.instrLiveOut(B, I));
      if (Inst.Def != NoReg)
        Across.reset(Inst.Def);
      Fn(B, I, static_cast<const BitVector &>(Across));
    }
  }
}

} // namespace npral

#endif // NPRAL_ANALYSIS_NSR_H
