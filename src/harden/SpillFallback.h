//===- SpillFallback.h - Graceful degradation by spilling -------*- C++ -*-===//
///
/// \file
/// Graceful degradation for infeasible register budgets. The Fig. 8
/// inter-thread loop (and its sweep fallback) can only trade moves for
/// registers down to the Lemma-1 floor minₛ Σᵢ max(MinPRᵢ, MinRᵢ − s) + s
/// (feasibilityFloor, BoundsEstimator.h) — below that no split/move
/// strategy exists and allocateInterThread fails with
/// StatusCode::Infeasible. This wrapper turns that hard failure into a
/// degraded success: it demotes the cheapest live ranges to absolute-
/// addressed scratch memory (SpillCode.h), re-analyses the rewritten
/// threads, and retries until the bounds fit.
///
/// Victim selection attacks the binding constraint directly:
///
///  * when a thread's floor is its boundary pressure (MinPR = RegPCSBmax),
///    the victim is a live range crossing the fullest CSB — spilling it
///    shrinks the crossing set because spill temporaries never live across
///    any CSB;
///  * when the floor is plain pressure (MinR = RegPmax), the victim is a
///    live range occupying the highest-pressure program point.
///
/// Among candidates the cheapest by frequency-weighted reference count wins
/// (CostModel block weights; unit weights without a profile), ties broken
/// by lowest register ID, so degradation is deterministic.
///
/// The first attempt is a verbatim allocateInterThread call on the caller's
/// bundles: for feasible inputs the result — and therefore every output
/// byte — is identical with or without the fallback enabled. Spill slots
/// live in a dedicated scratch region with per-thread disjoint windows, so
/// degraded threads never race on spill memory.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_HARDEN_SPILLFALLBACK_H
#define NPRAL_HARDEN_SPILLFALLBACK_H

#include "alloc/InterAllocator.h"

#include <memory>
#include <vector>

namespace npral {

struct SpillFallbackOptions {
  /// Total live ranges the fallback may demote before giving up.
  int MaxSpills = 64;
  /// First absolute word of the spill scratch region. The default sits in
  /// the top quarter of the 1 Mi-word simulator memory, clear of the
  /// example workloads' data.
  int64_t SlotBase = 0xE0000;
  /// Scratch words reserved per thread; thread T's slots start at
  /// SlotBase + T * SlotStride. Must be >= MaxSpills so windows of
  /// different threads can never overlap.
  int64_t SlotStride = 0x1000;
};

struct SpillFallbackResult {
  /// The final allocation. Success means the verifier-visible contract
  /// holds: every thread fits (PR, SR) with Σ PRᵢ + max SRᵢ <= Nreg.
  InterThreadResult Inter;
  /// True when the result came from a degraded (spilled) program.
  bool UsedSpilling = false;
  /// Victim live ranges demoted to memory, total and per thread.
  int SpilledRanges = 0;
  std::vector<int> SpillsPerThread;
  /// Spill instructions inserted over all threads.
  int SpillLoads = 0;
  int SpillStores = 0;
  /// allocateInterThread attempts (1 = the plain call sufficed).
  int Attempts = 0;
  /// The threads actually allocated (spill code included once degraded).
  /// Inter.Physical is derived from these, and the simulator must run them
  /// (not the caller's originals) for a degraded allocation.
  MultiThreadProgram Degraded;
};

/// Allocate \p MTP into \p Nreg registers, degrading by spilling when the
/// plain allocator reports Infeasible. \p Analyses / \p Models / \p Log /
/// \p Limits are forwarded exactly as in allocateInterThread; the log is
/// reset before each retry so it describes the final attempt only.
/// Cancellation (Limits.Cancel) is honoured between attempts as well as
/// inside each one. On failure Inter.FailCode distinguishes Infeasible
/// (budget unmeetable even spilled) from DeadlineExceeded.
SpillFallbackResult allocateWithSpillFallback(
    const MultiThreadProgram &MTP, int Nreg,
    const std::vector<std::shared_ptr<const ThreadAnalysisBundle>> &Analyses,
    const std::vector<CostModel> &Models, AllocationDecisionLog *Log,
    const InterAllocLimits &Limits,
    const SpillFallbackOptions &Opts = SpillFallbackOptions());

} // namespace npral

#endif // NPRAL_HARDEN_SPILLFALLBACK_H
