//===- SplitTransforms.h - Live range splitting -----------------*- C++ -*-===//
///
/// \file
/// Live range splitting via move insertion (paper §7.1). Two transforms:
///
///  * NSR exclusion (Fig. 12): carve a boundary live range's portion inside
///    one NSR out into a fresh register; moves at the CSBs where the value
///    crosses in or out keep the original register as the crossing
///    representative. The carved portion typically becomes an internal node
///    and may then use a shared register.
///
///  * Block-level internal split (Fig. 13 at block granularity): rename an
///    internal live range inside a single basic block, with reconciling
///    moves at block entry/exit where the value is live. This reduces the
///    chromatic pressure contributed by long internal ranges.
///
/// Both transforms preserve program semantics; tests verify this by running
/// the simulator on both versions.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_ALLOC_SPLITTRANSFORMS_H
#define NPRAL_ALLOC_SPLITTRANSFORMS_H

#include "analysis/InterferenceGraph.h"
#include "ir/Program.h"
#include "profile/CostModel.h"

#include <cstdint>

namespace npral {

/// Exclude register \p V from NSR \p NSRId: all references to V whose
/// program point lies in that NSR are renamed to a fresh register, and
/// moves are inserted at every CSB where V crosses into or out of the NSR.
/// \p TA must be current for \p P. Returns the fresh register, or NoReg if
/// V has no reference inside the NSR (no-op).
Reg excludeNSR(Program &P, const ThreadAnalysis &TA, Reg V, int NSRId);

/// Cost hint for excludeNSR without performing it: the reconciling `mov`s
/// the transform would insert for register \p V and NSR \p NSRId — one per
/// CSB where V crosses into or out of the NSR, plus an entry seed when V is
/// live at a program entry point inside the NSR — each priced at the
/// weight of the block it would land in under \p CM. Under the default
/// unit model that is the number of `mov`s. Returns -1 when V has no
/// reference inside the NSR (excludeNSR would be a no-op). Used by the
/// intra-thread allocator's pricing and by the lint "over-private" advisor.
int64_t estimateExcludeNSRMoves(const Program &P, const LivenessInfo &LI,
                                const NSRInfo &NSRs, Reg V, int NSRId,
                                const CostModel &CM = CostModel());

/// Rename \p V inside block \p BlockId to a fresh register, reconciling
/// with moves at block entry (if V is live-in) and before the terminator
/// (if V is live-out). Returns the fresh register, or NoReg if V is not
/// referenced in the block (no-op).
Reg splitInBlock(Program &P, const ThreadAnalysis &TA, Reg V, int BlockId);

} // namespace npral

#endif // NPRAL_ALLOC_SPLITTRANSFORMS_H
