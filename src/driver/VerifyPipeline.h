//===- VerifyPipeline.h - Batched translation validation --------*- C++ -*-===//
///
/// \file
/// The `npralc verify` pipeline as a library: for each input file, run the
/// translation validator (lint/TranslationValidator.h), which proves — or
/// refutes, with a structured witness — that a physical program computes
/// exactly what its renamed virtual program computes and keeps every
/// register live across a CSB private.
///
/// Two modes per file:
///   - allocate mode (default): one runBatch call, so every file takes the
///     shared job path — parse, rename live ranges, reject use of undefined
///     registers, allocate (with optional spill fallback and PGO
///     weighting), and validate the allocator's own output against the
///     renamed input;
///   - paired mode: the file itself carries both halves of the proof
///     obligation — the first half of its threads is the virtual program,
///     the second half a hand-written physical program (registers named
///     p<N>, mapped by mapNamedPhysicalRegisters). The job runs parse and
///     validate only: the validator checks the physical half against the
///     virtual one. This is how deliberate miscompiles like
///     examples/asm/bad_swap.s are checked.
///
/// Either way each file yields one BatchJobResult, whose stages run
/// through JobRun like every job's, and the report is rendered from those.
/// Each job writes only its own result slot and its diagnostics are sorted
/// by program position, so the rendered report is byte-identical for any
/// worker count.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_DRIVER_VERIFYPIPELINE_H
#define NPRAL_DRIVER_VERIFYPIPELINE_H

#include "driver/BatchPipeline.h"

#include <ostream>
#include <string>
#include <vector>

namespace npral {

struct VerifyResult {
  /// One result per input, in input order regardless of worker scheduling.
  /// A file is proved when the validator proved it, and rejected when the
  /// validator refuted it (it failed in JobStage::Validate). Any other
  /// failure never reached the validator and counts as an error.
  std::vector<BatchJobResult> Files;
  int Proved = 0;   ///< Files the validator proved.
  int Rejected = 0; ///< Files the validator refuted.
  int Errors = 0;   ///< Files that never reached the validator.

  bool allProved() const { return Rejected == 0 && Errors == 0; }
  /// Warning-severity check diagnostics across all files (for --Werror).
  int warningCount() const;

  /// Render one section per file plus a trailing summary line.
  void renderText(std::ostream &OS) const;
  /// Render the whole report as a JSON object with stable key order;
  /// byte-identical for any worker count.
  void renderJSON(std::ostream &OS) const;
};

/// Run the verify pipeline over \p Paths on Opts.Jobs workers. Allocate
/// mode is one runBatch call with \p Opts. With
/// \p Paired, each file's threads are split in half and the second
/// (physical) half is checked against the first instead of allocating;
/// only Opts.Jobs and Opts.Faults apply there.
VerifyResult runVerify(const std::vector<std::string> &Paths,
                       BatchOptions Opts, bool Paired = false);

} // namespace npral

#endif // NPRAL_DRIVER_VERIFYPIPELINE_H
