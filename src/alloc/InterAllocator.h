//===- InterAllocator.h - Inter-thread register allocation ------*- C++ -*-===//
///
/// \file
/// The inter-thread register allocator of paper §6 (Fig. 8) plus the SRA
/// specialisation of §8 and the final physical materialisation.
///
/// Starting from the per-thread upper bounds (MaxPR, MaxR), the allocator
/// greedily reduces the total requirement Σ PRᵢ + max SRᵢ until it fits in
/// Nreg, at each step choosing the cheapest reduction as priced by the
/// intra-thread allocators (move-insertion cost):
///
///   * reduce one thread's PR by 1 (direct -1 on the total), or
///   * reduce *all* threads whose SR equals the maximum by 1.
///
/// Physical layout after convergence: thread i's private colors map to the
/// exclusive range [Σ_{j<i} PRⱼ, Σ_{j≤i} PRⱼ); shared colors of every
/// thread map into one global window of SGR = max SRᵢ registers starting at
/// Σ PRⱼ. Registers above Σ PRⱼ + SGR stay unused.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_ALLOC_INTERALLOCATOR_H
#define NPRAL_ALLOC_INTERALLOCATOR_H

#include "alloc/IntraAllocator.h"
#include "ir/Program.h"
#include "support/Status.h"
#include "trace/DecisionLog.h"

#include <memory>
#include <string>
#include <vector>

namespace npral {

/// Per-thread outcome of inter-thread allocation.
struct ThreadAllocation {
  int PR = 0;
  int SR = 0;
  int MoveCost = 0;
  /// Frequency-weighted move cost; equals MoveCost when the thread was
  /// allocated under the unit cost model.
  int64_t WeightedCost = 0;
  std::string Strategy;
  /// First physical register of this thread's private range.
  int PrivateBase = 0;
  RegBounds Bounds;
};

/// Outcome of the inter-thread allocator.
struct InterThreadResult {
  bool Success = false;
  std::string FailReason;
  /// Classification of the failure (Ok on success): Infeasible when no
  /// configuration fits Nreg — the caller may degrade by spilling —
  /// DeadlineExceeded once the deadline has passed, InvalidIR for
  /// malformed input.
  StatusCode FailCode = StatusCode::Ok;
  std::vector<ThreadAllocation> Threads;
  /// Number of globally shared registers (max SRᵢ).
  int SGR = 0;
  /// First shared physical register (= Σ PRᵢ).
  int SharedBase = 0;
  /// Total physical registers consumed: Σ PRᵢ + SGR.
  int RegistersUsed = 0;
  /// Total move instructions inserted over all threads.
  int TotalMoveCost = 0;
  /// Total frequency-weighted move cost (== TotalMoveCost without a
  /// profile).
  int64_t TotalWeightedCost = 0;
  /// The rewritten threads over physical registers (NumRegs = Nreg each).
  MultiThreadProgram Physical;
};

/// Run the inter-thread allocator for the threads of \p MTP sharing \p Nreg
/// physical registers. Every trailing parameter is optional:
///
///  * \p Analyses reuses precomputed per-thread analyses, aligned with
///    MTP.Threads; null (or missing) entries are computed fresh. When an
///    entry is non-null the corresponding thread must already be live-range
///    renamed and the bundle must match its content — the batch driver's
///    content-hash cache guarantees both. The bundles are only read, so the
///    same shared_ptr may be passed to any number of concurrent calls.
///  * \p Models prices every candidate reduction by frequency-weighted move
///    cost (aligned with MTP.Threads; missing entries mean the unit model),
///    so the Fig. 8 greedy loop sheds registers where the reconciling moves
///    execute rarely. All-unit models give the unweighted result.
///  * \p Log, when non-null, receives one ReductionStep per Fig. 8
///    iteration (with the move-cost bids of every candidate the loop
///    priced), one RebalanceStep per applied PGO exchange, and the
///    intra-thread recolor/split events of every thread — the data behind
///    `npralc alloc --explain`. The allocation itself is unchanged.
///  * \p Limits.Deadline (IntraAllocator.h) is polled after pricing every
///    Fig. 8 step and every rebalance step, at every SGR sweep window, and
///    inside every greedy split; once it has passed the call fails with
///    StatusCode::DeadlineExceeded, so no step is chosen from a split the
///    deadline cut short.
InterThreadResult allocateInterThread(
    const MultiThreadProgram &MTP, int Nreg,
    const std::vector<std::shared_ptr<const ThreadAnalysisBundle>> &Analyses =
        {},
    const std::vector<CostModel> &Models = {},
    AllocationDecisionLog *Log = nullptr, const InterAllocLimits &Limits = {});

/// Symmetric Register Allocation: all Nthd threads run \p P. Exhaustively
/// sweeps (PR, SR) with Nthd*PR + SR <= Nreg, minimising total register use
/// (then PR). With \p RequireZeroCost only move-free allocations qualify —
/// this matches the paper's Fig. 14 methodology ("the algorithm continues
/// until the cost returned is non-zero").
struct SRAResult {
  bool Success = false;
  std::string FailReason;
  int PR = 0;
  int SR = 0;
  int MoveCost = 0;
  int TotalRegisters = 0; ///< Nthd*PR + SR
};
SRAResult solveSRA(const Program &P, int Nthd, int Nreg,
                   bool RequireZeroCost);

/// Build the physical MultiThreadProgram from converged per-thread color
/// programs. Exposed for tests; allocateInterThread calls it internally.
MultiThreadProgram materializePhysical(
    const std::vector<const Program *> &ColorPrograms,
    const std::vector<int> &PRs, int SGR, int Nreg,
    const std::string &Name);

} // namespace npral

#endif // NPRAL_ALLOC_INTERALLOCATOR_H
