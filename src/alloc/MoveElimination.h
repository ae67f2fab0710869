//===- MoveElimination.h - Redundant move cleanup ---------------*- C++ -*-===//
///
/// \file
/// The paper's Eliminate_unnecessary_move step (Fig. 10): after live range
/// splitting has inserted reconciling moves, some are redundant — the value
/// already sits where the move puts it, or nothing ever reads the copy.
/// This pass removes, iterating to a fixpoint:
///
///  * `mov x, x`;
///  * dead moves (the destination is not live afterwards);
///  * copies that re-establish an already-valid equality (local copy
///    propagation within a block, with facts killed at context switch
///    boundaries — while the thread is switched out another thread may
///    legally overwrite any register the fact's operands map to if they
///    are shared, so facts do not survive a CSB).
///
/// Only `mov` instructions are touched; the pass is safe on both virtual
/// and physical/color programs.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_ALLOC_MOVEELIMINATION_H
#define NPRAL_ALLOC_MOVEELIMINATION_H

#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace npral {

/// Remove redundant moves from \p P; returns how many were deleted. When
/// \p WeightedRemoved is given, it accumulates the removed moves'
/// frequency-weighted cost: a removal in block B adds BlockWeights[B], or 1
/// when B is beyond the vector (so the default prices every move at 1).
int eliminateRedundantMoves(Program &P,
                            const std::vector<int64_t> &BlockWeights = {},
                            int64_t *WeightedRemoved = nullptr);

} // namespace npral

#endif // NPRAL_ALLOC_MOVEELIMINATION_H
