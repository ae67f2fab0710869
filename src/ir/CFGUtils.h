//===- CFGUtils.h - CFG surgery helpers -------------------------*- C++ -*-===//
///
/// \file
/// CFG mutation utilities used by the allocators when inserting move
/// instructions: edge splitting (for moves that must execute on exactly one
/// CFG edge) and point-wise instruction insertion. Also the CFG *analysis*
/// helpers: reachability, and the dominators, back edges and loop nesting
/// depths the profile subsystem builds on.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_IR_CFGUTILS_H
#define NPRAL_IR_CFGUTILS_H

#include "ir/Program.h"

#include <utility>
#include <vector>

namespace npral {

/// A program point: just before instruction \p Index of block \p Block.
/// Index == block size denotes the end-of-block point.
struct ProgramPoint {
  int Block = NoBlock;
  int Index = 0;

  bool operator==(const ProgramPoint &O) const = default;
};

/// Split the CFG edge \p Pred -> \p Succ by inserting a fresh empty block
/// (terminated by `br Succ`) between them. All control transfers from Pred
/// to Succ are redirected; other predecessors of Succ are unaffected.
/// Returns the new block's ID.
int splitEdge(Program &P, int Pred, int Succ);

/// Insert \p I at \p Point. Both branch-position rules and fallthroughs are
/// respected: insertion past a terminator is clamped to before it.
void insertAt(Program &P, ProgramPoint Point, const Instruction &I);

/// Return the index of the first control-flow instruction of the block's
/// terminator group (the conditional of a cond+br pair, else the final
/// br/halt), or the block size when the block ends by fallthrough. Useful
/// for "append at end but before branches" insertions.
int getTerminatorGroupBegin(const BasicBlock &BB);

/// Per block, 1 when some path from the entry block reaches it, else 0.
std::vector<char> findReachableBlocks(const Program &P);

/// Immediate dominator of every block (Cooper-Harvey-Kennedy over the RPO).
/// The entry block's idom is itself; blocks unreachable from the entry get
/// -1.
std::vector<int> computeImmediateDominators(const Program &P);

/// Back edges of the CFG: every edge Latch -> Header where Header dominates
/// Latch. These are exactly the loop-closing edges of reducible CFGs (the
/// only kind the parser and builders produce).
std::vector<std::pair<int, int>> findBackEdges(const Program &P);

/// Loop nesting depth per block: the number of distinct natural loops
/// (back edges merged per header) whose body contains the block. Blocks
/// outside every loop — and unreachable blocks — get depth 0.
std::vector<int> computeLoopDepths(const Program &P);

} // namespace npral

#endif // NPRAL_IR_CFGUTILS_H
