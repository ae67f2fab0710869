//===- BoundsEstimator.h - Register requirement bounds ----------*- C++ -*-===//
///
/// \file
/// Estimates the four per-thread register bounds of paper §5:
///
///  * MinR  = RegPmax: the max number of co-live values at any point —
///    reachable with enough live range splitting (Lemma 1 extension);
///  * MinPR = RegPCSBmax: the max number of values live across a single
///    CSB — reachable with moves around CSBs (Lemma 1);
///  * MaxPR, MaxR: colors needed *without* inserting any move, computed by
///    the region-based scheme of Fig. 7: color the BIG minimally, color each
///    IIG minimally, then merge and resolve conflict edges by recoloring,
///    one-level neighbor adjustment, or (last resort) growing R.
///
/// MaxPR is minimised first: extra private registers cost every thread,
/// while extra shared registers only matter for the max-SR thread.
///
/// The lower bounds of all threads sharing a register file also give the
/// Lemma-1 feasibility floor (feasibilityFloor below), which decides
/// exactly whether any allocation fits a budget.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_ALLOC_BOUNDSESTIMATOR_H
#define NPRAL_ALLOC_BOUNDSESTIMATOR_H

#include "alloc/ColoringUtils.h"
#include "analysis/InterferenceGraph.h"

#include <vector>

namespace npral {

/// Register requirement bounds for one thread.
struct RegBounds {
  int MinPR = 0;
  int MinR = 0;
  int MaxPR = 0;
  int MaxR = 0;
  /// A move-free coloring realising (MaxPR, MaxR): boundary nodes hold
  /// colors < MaxPR, all nodes colors < MaxR. Usable as a starting context
  /// for the intra-thread allocator.
  Coloring Colors;
};

/// Compute the bounds for an analysed thread.
RegBounds estimateRegBounds(const ThreadAnalysis &TA);

/// The Lemma-1 floor of threads sharing one register file with a shared
/// window of \p SGR registers: Σᵢ max(MinPRᵢ, MinRᵢ − SGR) + SGR. No
/// allocation with that window uses fewer registers (every thread needs
/// PR >= MinPR and PR + SR >= MinR with SR <= SGR), and the fragment
/// fallback reaches every per-thread floor, so the floor is exact.
int feasibilityFloorAt(const std::vector<const RegBounds *> &Threads, int SGR);

/// The smallest feasibilityFloorAt over all window sizes: an allocation
/// into Nreg registers exists exactly when this is <= Nreg. It takes
/// O(threads × max MinR) time. \p SGRStar, when non-null, receives the
/// smallest minimising window size.
int feasibilityFloor(const std::vector<const RegBounds *> &Threads,
                     int *SGRStar = nullptr);

} // namespace npral

#endif // NPRAL_ALLOC_BOUNDSESTIMATOR_H
