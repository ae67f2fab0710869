//===- TranslationValidator.h - Static translation validation --*- C++ -*-===//
///
/// \file
/// Symbolic translation validation for allocator outputs: given the virtual
/// (live-range renamed) input program and the allocated physical output —
/// including degraded spill-fallback outputs — prove that every original
/// instruction, branch, and context-switch boundary observes the same
/// virtual values in the physical program as in the virtual one.
///
/// The checker simulates each thread block-by-block over a symbolic state
/// mapping virtual registers, physical registers, and spill scratch slots
/// to one value number each (or unknown). Copies the allocator is allowed
/// to insert (`mov`, the 3-`xor` register swap `appendXorSwap` writes, and
/// absolute-addressed spill `loada`/`storea`) are *interpreted* — they
/// transfer value numbers, and a swap exchanges two registers'. Everything
/// else, every other `xor` included, must pair 1:1, in order, with an
/// original virtual instruction of the same opcode/immediate/target whose
/// operands carry the same value numbers; a swap is matched that way only
/// when the pending virtual instructions compute the same swap.
///
/// The walk also enforces CSB privacy (the paper's §2, property 5). At a
/// context-switch boundary every physical register another thread
/// references (entry-live ones included) becomes *clobbered*, and every
/// scratch slot another thread writes is forgotten. A def clears the
/// clobbered state, and a join keeps it when any incoming path carries it.
/// Any physical instruction that reads a clobbered register refutes the
/// thread, a copy or spill store whose value is never used included, with
/// a diagnostic naming the register, the thread and one other thread that
/// references it. On reachable code this is exactly the safety verifier's
/// rule (alloc/AllocationVerifier.h): a register in LiveOut \ Def of a CSB
/// that another thread references. One gap remains: a CSB in a block no
/// path reaches is never walked, so a breach there goes unreported; such
/// code never runs.
///
/// Loops are handled by a worklist fixpoint over the physical CFG with an
/// intersection-style join (locations agreeing in every predecessor keep a
/// common fresh value); stabilisation is detected by canonical renumbering
/// of value numbers. Diagnostics are emitted only in a final deterministic
/// reverse-post-order reporting pass, each with a witness containing the
/// offending instruction pair and a shortest block path from entry.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_LINT_TRANSLATIONVALIDATOR_H
#define NPRAL_LINT_TRANSLATIONVALIDATOR_H

#include "alloc/InterAllocator.h"
#include "ir/Program.h"
#include "support/DiagnosticEngine.h"
#include "trace/DecisionLog.h"
#include "trace/MetricsRegistry.h"

namespace npral {

/// Outcome of one validateTranslation call.
struct ValidationResult {
  /// True when every thread was proved equivalent.
  bool Proved = false;
  /// Threads that passed the proof.
  int ThreadsProved = 0;
  /// Original instructions paired and proved operand-equivalent.
  int64_t InstructionsMatched = 0;
  /// Allocator-inserted copies interpreted symbolically (moves, swap xors,
  /// spill loads/stores).
  int64_t CopiesInterpreted = 0;
};

/// Prove that \p Phys computes the same values as \p Virt. \p Virt is the
/// allocator's input (live-range renamed, virtual registers); \p Phys is
/// its output over physical registers — the threads must correspond
/// positionally. Mismatches are reported into \p Engine as errors under
/// check "translation-validation" with instruction-pair witnesses; when
/// \p Metrics is non-null the validator.* instruments are updated.
ValidationResult validateTranslation(const MultiThreadProgram &Virt,
                                     const MultiThreadProgram &Phys,
                                     DiagnosticEngine &Engine,
                                     MetricsRegistry *Metrics = nullptr);

/// Cross-check an allocation decision log against the result it claims to
/// describe: outcome flags, final per-thread budgets, register totals, and
/// the greedy-argmin invariant (every reduction step's chosen delta equals
/// the minimum over its recorded bids). Inconsistencies are reported into
/// \p Engine as errors under check "validator-log"; returns the number of
/// mismatches (0 = consistent).
int crossCheckDecisionLog(const AllocationDecisionLog &Log,
                          const InterThreadResult &Result,
                          DiagnosticEngine &Engine,
                          MetricsRegistry *Metrics = nullptr);

} // namespace npral

#endif // NPRAL_LINT_TRANSLATIONVALIDATOR_H
