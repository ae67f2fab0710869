//===- IntraAllocator.h - Intra-thread register allocation ------*- C++ -*-===//
///
/// \file
/// The intra-thread register allocator of paper §7: given a budget of PR
/// private and SR shared colors, produce an allocation of the thread's live
/// ranges that respects
///
///   * boundary live ranges (live across some CSB) use colors < PR only,
///   * every live range uses colors < R = PR + SR,
///
/// at minimal move-insertion cost. Three strategies are tried in order:
///
///  1. *Direct*: constrained coloring of the GIG with no moves (cost 0).
///  2. *Greedy splitting* (Fig. 10 spirit): when coloring gets stuck on a
///     boundary node, exclude it from conflicting NSRs (Fig. 12); when
///     stuck on an internal node, split it at block granularity (Fig. 13);
///     re-analyse and retry.
///  3. *Fragment fallback* (Lemma 1): the constructive split-everywhere
///     allocator, feasible whenever PR >= RegPCSBmax and R >= RegPmax.
///
/// The allocator memoises results per (PR, SR), mirroring the paper's
/// incremental "context" reuse across Reduce-PR / Reduce-SR invocations
/// from the inter-thread loop.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_ALLOC_INTRAALLOCATOR_H
#define NPRAL_ALLOC_INTRAALLOCATOR_H

#include "alloc/BoundsEstimator.h"
#include "alloc/FragmentAllocator.h"
#include "analysis/InterferenceGraph.h"
#include "ir/Program.h"
#include "trace/DecisionLog.h"

#include <chrono>
#include <map>
#include <memory>

namespace npral {

/// External limits on one allocation: the job's deadline, the only one in
/// the tree. runSingleJob sets it once per job from BatchOptions and
/// checks it between stages; allocateInterThread polls it at every Fig. 8
/// step, every SGR sweep window and every rebalance step, the intra
/// allocator at every greedy-split iteration, and the spill fallback
/// before every attempt. An expired call fails with
/// StatusCode::DeadlineExceeded. The default imposes nothing.
struct InterAllocLimits {
  using Clock = std::chrono::steady_clock;
  /// Absolute deadline; Clock::time_point::max() (the default) sets none.
  Clock::time_point Deadline = Clock::time_point::max();

  /// True once \p Now is at or past the deadline.
  bool expiredAt(Clock::time_point Now) const { return Now >= Deadline; }
  /// True once the deadline has passed. Reads no clock when none is set.
  bool expired() const {
    return Deadline != Clock::time_point::max() && expiredAt(Clock::now());
  }
};

/// Intra-thread allocation result: a ColorAllocation plus the strategy that
/// produced it ("direct", "split", "fragment").
struct IntraResult : ColorAllocation {
  std::string Strategy;
};

/// Everything allocation needs that depends only on a thread's content: the
/// full analysis package (liveness, NSR decomposition, GIG/BIG/IIG) plus
/// the §5 register bounds. Once built it is immutable, so one bundle can be
/// shared across allocator instances and across concurrent batch jobs (the
/// driver's AnalysisCache keys bundles by a content hash of the program).
struct ThreadAnalysisBundle {
  ThreadAnalysis TA;
  RegBounds Bounds;
};

/// Analyze \p RenamedP and estimate its bounds. \p RenamedP must already be
/// live-range renamed (renameLiveRanges is idempotent, so renaming twice is
/// safe but wasted work).
ThreadAnalysisBundle computeThreadAnalysisBundle(const Program &RenamedP);

class IntraThreadAllocator {
public:
  /// Rename \p P and analyze it; the allocator owns both results. \p CM
  /// prices inserted moves by block frequency; the default unit model
  /// reproduces the unweighted allocator exactly. Weights must refer to
  /// \p P's block IDs.
  explicit IntraThreadAllocator(const Program &P, CostModel CM = CostModel());

  /// Reuse a precomputed analysis instead of recomputing it. \p RenamedP
  /// must already be live-range renamed and \p Pre must have been computed
  /// from exactly this program (the batch driver guarantees both via its
  /// content-hash cache). The analysis bundle is weight-independent, so
  /// any \p CM may be combined with a cached bundle.
  ///
  /// The allocator borrows both: it keeps a reference to \p RenamedP and
  /// shares \p Pre, copying neither, so \p RenamedP must outlive it. Inside
  /// allocateInterThread that is the MultiThreadProgram the call was given.
  IntraThreadAllocator(const Program &RenamedP,
                       std::shared_ptr<const ThreadAnalysisBundle> Pre,
                       CostModel CM = CostModel());

  /// Allocate with \p PR private and \p SR shared colors; memoised.
  const IntraResult &allocate(int PR, int SR);

  /// Attach a decision log; subsequent cache-miss allocations record their
  /// recolor outcome and any NSR exclusions / block splits under thread
  /// index \p Thread (-1 for a standalone allocator). Cached results record
  /// nothing — the work they describe already happened.
  void setDecisionLog(AllocationDecisionLog *DL, int Thread) {
    Log = DL;
    LogThread = Thread;
  }

  /// Bound greedy splitting by \p L's deadline: once it passes, the split
  /// stops and reports infeasible, so the caller must poll the same
  /// deadline before using any result priced after it.
  void setLimits(const InterAllocLimits &L) { Limits = L; }

  const RegBounds &getBounds() const { return Bounds; }
  int getMinPR() const { return Bounds.MinPR; }
  int getMinR() const { return Bounds.MinR; }
  int getMaxPR() const { return Bounds.MaxPR; }
  int getMaxR() const { return Bounds.MaxR; }
  const Program &getProgram() const { return Original; }
  const ThreadAnalysis &getAnalysis() const { return TA; }

private:
  /// The renamed program, when the allocator made it itself (the
  /// standalone constructor); null when it borrows the caller's.
  std::unique_ptr<const Program> Owned;
  const Program &Original;
  std::shared_ptr<const ThreadAnalysisBundle> Bundle;
  const ThreadAnalysis &TA;
  const RegBounds &Bounds;
  CostModel CM;
  std::map<std::pair<int, int>, IntraResult> Cache;
  AllocationDecisionLog *Log = nullptr;
  int LogThread = -1;
  InterAllocLimits Limits;

  IntraResult computeAllocation(int PR, int SR);
  /// Strategy 2; returns an infeasible result when it cannot converge, and
  /// gives up as soon as its inserted cost exceeds that of a feasible
  /// \p Ceiling (the fragment fallback's allocation, which then wins).
  ColorAllocation allocateWithGreedySplitting(int PR, int SR,
                                              const ColorAllocation &Ceiling);
};

/// Rewrite \p P's register operands through \p Colors (one color per
/// register); the result has NumRegs = \p NumColors and entry-live colors
/// aligned with P.EntryLiveRegs. Every referenced register must be colored.
Program rewriteToColors(const Program &P, const Coloring &Colors,
                        int NumColors);

} // namespace npral

#endif // NPRAL_ALLOC_INTRAALLOCATOR_H
