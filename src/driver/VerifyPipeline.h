//===- VerifyPipeline.h - Batched translation validation --------*- C++ -*-===//
///
/// \file
/// The `npralc verify` pipeline as a library: for each input file, run the
/// allocator and then the translation validator
/// (lint/TranslationValidator.h), which proves — or refutes, with a
/// structured witness — that the physical output computes exactly what the
/// renamed virtual program computes.
///
/// Two modes per file:
///   - allocate mode (default): the batch pipeline's shared job path
///     (runSingleJob) — parse, rename live ranges, reject use of undefined
///     registers, allocate (with optional spill fallback and PGO
///     weighting), run the safety verifier, and validate the allocator's
///     own output against the renamed input;
///   - paired mode: the file itself carries both halves of the proof
///     obligation — the first half of its threads is the virtual program,
///     the second half a hand-written physical program (registers named
///     p<N>, mapped by mapNamedPhysicalRegisters). This is how deliberate
///     miscompiles like examples/asm/bad_swap.s are checked.
///
/// Files are distributed over a ThreadPool; each job writes only its own
/// result slot and its diagnostics are sorted by program position, so the
/// rendered report is byte-identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_DRIVER_VERIFYPIPELINE_H
#define NPRAL_DRIVER_VERIFYPIPELINE_H

#include "profile/ExecutionProfile.h"
#include "support/DiagnosticEngine.h"

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace npral {

struct VerifyOptions {
  /// Register file size handed to the allocator (allocate mode).
  int Nreg = 128;
  /// Worker threads in the pool (clamped to >= 1).
  int Jobs = 1;
  /// Permit spill-based graceful degradation for infeasible budgets; the
  /// degraded output is still proved against the pre-spill reference.
  bool AllowSpill = false;
  /// Live ranges the spill fallback may demote per file.
  int MaxSpills = 64;
  /// Weight move costs by 10^loop-depth for threads no profile covers.
  bool StaticPGO = false;
  /// Execution profile applied database-style (threads matched by code
  /// hash, like the batch pipeline); must outlive the run.
  const ExecutionProfile *Profile = nullptr;
  /// Paired mode: split each file's threads in half and check the second
  /// (physical, p<N>-named) half against the first instead of allocating.
  bool Paired = false;
};

/// Outcome of one input file.
struct VerifyFileResult {
  std::string Name;
  /// True when the validator proved the translation.
  bool Proved = false;
  /// Nonempty when the file never reached the validator (I/O, parse,
  /// analysis, allocation or safety-verifier failure); such a file counts
  /// as an error, not a rejection.
  std::string FailReason;
  int ThreadsProved = 0;
  int64_t InstructionsMatched = 0;
  int64_t CopiesInterpreted = 0;
  /// True when the allocation came from the spill fallback.
  bool UsedSpilling = false;
  /// Validator diagnostics, sorted by program position (deterministic
  /// across worker counts). Empty on a proof.
  std::vector<Diagnostic> Diags;
};

struct VerifyResult {
  /// One entry per input, in input order regardless of worker scheduling.
  std::vector<VerifyFileResult> Files;
  int Proved = 0;   ///< Files whose translation the validator proved.
  int Rejected = 0; ///< Files the validator refuted.
  int Errors = 0;   ///< Files that never reached the validator.

  bool allProved() const { return Rejected == 0 && Errors == 0; }
  /// Warning-severity diagnostics across all files (for --Werror).
  int warningCount() const;

  /// Render one section per file plus a trailing summary line.
  void renderText(std::ostream &OS) const;
  /// Render the whole report as a JSON object with stable key order;
  /// byte-identical for any VerifyOptions::Jobs.
  void renderJSON(std::ostream &OS) const;
};

/// Run the verify pipeline over \p Paths with \p Opts.
VerifyResult runVerify(const std::vector<std::string> &Paths,
                       const VerifyOptions &Opts);

} // namespace npral

#endif // NPRAL_DRIVER_VERIFYPIPELINE_H
