//===- FragmentAllocator.h - Constructive Lemma-1 allocator -----*- C++ -*-===//
///
/// \file
/// The constructive counterpart of the paper's Lemma 1: given PR >= MinPR
/// (= RegPCSBmax) and R >= MinR (= RegPmax), produce a valid allocation by
/// splitting live ranges as finely as needed and reconciling with moves.
///
/// The allocator walks each block in reverse post order carrying a
/// register -> color map. Definitions take a free color biased by node
/// class (values that cross CSBs prefer the private band [0, PR); others
/// prefer the shared band [PR, R)). Just before each context-switching
/// instruction every crossing value is moved into a private color if it is
/// not already in one. At CFG junctions where the colors disagree with the
/// already-fixed entry colors of the successor, a sequentialised parallel
/// copy is inserted at the predecessor's end or on a split edge.
///
/// The output program's "registers" *are* colors in [0, R): color c < PR
/// later maps to one of the thread's private physical registers and
/// c >= PR to a globally shared register. Move cost is the number of
/// inserted `mov`s. Because colors change along a live range, this realises
/// exactly the paper's "live range splitting via move insertion" — each
/// color episode is one split segment.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_ALLOC_FRAGMENTALLOCATOR_H
#define NPRAL_ALLOC_FRAGMENTALLOCATOR_H

#include "analysis/InterferenceGraph.h"
#include "ir/Program.h"
#include "profile/CostModel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace npral {

/// Result of a fragment allocation (also produced by the other intra-thread
/// strategies; see IntraAllocator.h).
struct ColorAllocation {
  bool Feasible = false;
  /// Why allocation failed (empty when feasible).
  std::string FailReason;
  /// Rewritten program over colors; NumRegs == PR + SR.
  Program ColorProgram;
  /// Number of inserted move instructions.
  int MoveCost = 0;
  /// MoveCost priced by the cost model's block weights; equals MoveCost
  /// under the unit model.
  int64_t WeightedCost = 0;
  /// Per-block weights aligned with ColorProgram's blocks, covering blocks
  /// the allocation created (edge splits inherit their predecessor's
  /// weight). The fragment allocator fills it on every feasible
  /// allocation, so a fragment result's is never empty (weight 1 per block
  /// under the unit model); the other strategies add no blocks and leave
  /// it empty, their blocks weighing what the cost model says.
  std::vector<int64_t> OutputWeights;
  int PR = 0;
  int SR = 0;
};

/// Run the constructive allocator for \p P with \p PR private and \p SR
/// shared colors. \p TA must be the analysis of \p P. Fails (without
/// touching the program) when PR < RegPCSBmax or PR+SR < RegPmax, and in
/// the rare "tight shuffle" case where a reconciling copy cycle has no free
/// scratch color. Inserted ops are priced through \p CM (default: unit).
ColorAllocation allocateByFragments(const Program &P, const ThreadAnalysis &TA,
                                    int PR, int SR,
                                    const CostModel &CM = CostModel());

} // namespace npral

#endif // NPRAL_ALLOC_FRAGMENTALLOCATOR_H
