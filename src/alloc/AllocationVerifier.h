//===- AllocationVerifier.h - Cross-thread safety checks --------*- C++ -*-===//
///
/// \file
/// Independent checker for the safety conditions a multi-threaded
/// allocation must satisfy on the IXP-style machine (paper §2, model
/// property 5). Works purely on the final physical program — it recomputes
/// liveness there, so bugs in the allocator cannot hide behind their own
/// bookkeeping:
///
///  1. every physical register that is live across *any* CSB of thread i
///     is referenced by thread i alone (private);
///  2. within each thread the program is structurally valid and never
///     reads an undefined register;
///  3. an absolute memory word written by one thread (a spill slot after
///     graceful degradation) and touched by another is reported as a
///     warning under check "cross-thread-abs-overlap" — spill scratch must
///     be thread-private, while deliberate shared-memory communication in
///     hand-written workloads stays a reviewable warning, not an error;
///  4. (reported, not enforced) the partition statistics: private count
///     per thread, shared count.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_ALLOC_ALLOCATIONVERIFIER_H
#define NPRAL_ALLOC_ALLOCATIONVERIFIER_H

#include "ir/Program.h"
#include "support/DiagnosticEngine.h"
#include "support/Status.h"

namespace npral {

/// Statistics gathered while verifying.
struct AllocationSafetyStats {
  /// Registers each thread holds live across one of its CSBs.
  std::vector<int> PrivateRegCount;
  /// Registers referenced by more than one thread.
  int SharedRegCount = 0;
  /// Highest referenced physical register + 1.
  int RegistersTouched = 0;
};

/// Collect *every* cross-thread safety finding of \p Physical into
/// \p Engine instead of stopping at the first. Race findings are emitted
/// under check "cross-thread-race", one error per (thread, register,
/// offending thread) triple, each carrying a witness naming the CSB
/// instruction and one offending reference. Precondition and per-thread
/// structural findings are emitted under check "alloc-safety"; pass
/// \p StructuralDiags = false to gate on them silently instead (the lint
/// driver reports those through its own checkers). \p Stats is filled
/// whenever the preconditions hold, even in the presence of race errors.
void collectAllocationSafety(const MultiThreadProgram &Physical,
                             DiagnosticEngine &Engine,
                             AllocationSafetyStats *Stats = nullptr,
                             bool StructuralDiags = true);

/// Verify the cross-thread safety of \p Physical. All threads must be
/// physical programs over the same register file size. Returns the first
/// violation found, with \p Stats (optional) filled on success. Thin
/// wrapper over collectAllocationSafety for callers that only need a
/// go/no-go answer.
Status verifyAllocationSafety(const MultiThreadProgram &Physical,
                              AllocationSafetyStats *Stats = nullptr);

} // namespace npral

#endif // NPRAL_ALLOC_ALLOCATIONVERIFIER_H
