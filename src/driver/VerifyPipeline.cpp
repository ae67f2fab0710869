//===- VerifyPipeline.cpp -------------------------------------------------===//

#include "driver/VerifyPipeline.h"

#include "asmparse/AsmParser.h"
#include "driver/JobRun.h"
#include "lint/Lint.h"
#include "lint/TranslationValidator.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "trace/MetricsRegistry.h"

#include <iterator>

using namespace npral;

namespace {

/// True when the file stopped before the validator could judge it. A file
/// the validator refutes is rejected instead.
bool isError(const BatchJobResult &F) {
  return !F.Success && F.FailStage != JobStage::Validate;
}

/// Check one file in paired mode through the job stages: parse, then the
/// translation validator, CSB privacy included, on the physical half. The
/// parser has already checked every thread's structure (verifyProgram), and
/// mapping the p<N> names keeps it. A rejection lists the validator's
/// diagnostics sorted by program position (independent of worker
/// scheduling).
BatchJobResult verifyPaired(const std::string &Path, const BatchOptions &Opts) {
  BatchJobResult R;
  R.Name = Path;
  JobRun Job(R, Opts);
  MultiThreadProgram Virt, Phys;
  if (!Job.stage(JobStage::Parse, {}, [&] {
        ErrorOr<std::string> Text = readTextFile(Path);
        if (!Text.ok())
          return Job.fail(Text.status());
        ErrorOr<MultiThreadProgram> Parsed = parseAssembly(*Text);
        if (!Parsed.ok())
          return Job.fail(Parsed.status());
        Virt = Parsed.take();
        // The file carries both sides of the proof obligation: virtual
        // threads first, then the same number of hand-written physical
        // threads.
        R.NumThreads = Virt.getNumThreads();
        if (R.NumThreads < 2 || R.NumThreads % 2 != 0)
          return Job.fail(StatusCode::InvalidIR,
                          "paired mode needs an even number of threads "
                          "(virtual half followed by physical half)");
        const auto Mid = Virt.Threads.begin() + R.NumThreads / 2;
        Phys.Name = Virt.Name;
        Phys.Threads.assign(std::make_move_iterator(Mid),
                            std::make_move_iterator(Virt.Threads.end()));
        Virt.Threads.erase(Mid, Virt.Threads.end());
        Status Mapped = mapNamedPhysicalRegisters(Phys);
        return Mapped.ok() || Job.fail(Mapped);
      }))
    return R;

  R.Success = Job.stage(JobStage::Validate, {}, [&] {
    R.Validation = validateTranslation(Virt, Phys, R.ValidateDiags,
                                       &MetricsRegistry::global());
    R.ValidateDiags.sortByPosition();
    R.Validated = R.Validation.Proved;
    const Diagnostic *First = R.ValidateDiags.firstError();
    return R.Validated ||
           Job.fail(StatusCode::Internal,
                    "translation validation refuted the physical half: " +
                        (First ? First->Message
                               : std::string("program shape mismatch")));
  });
  return R;
}

} // namespace

VerifyResult npral::runVerify(const std::vector<std::string> &Paths,
                              BatchOptions Opts, bool Paired) {
  VerifyResult Out;
  if (Paired) {
    Out.Files.resize(Paths.size());
    ThreadPool Pool(Opts.Jobs);
    parallelFor(Pool, static_cast<int>(Paths.size()), [&](int I) {
      Out.Files[static_cast<size_t>(I)] =
          verifyPaired(Paths[static_cast<size_t>(I)], Opts);
    });
  } else {
    std::vector<BatchJob> Jobs(Paths.size());
    for (size_t I = 0; I < Paths.size(); ++I)
      Jobs[I].Path = Paths[I];
    Out.Files = runBatch(Jobs, Opts).Results;
  }
  for (const BatchJobResult &F : Out.Files)
    ++(isError(F) ? Out.Errors : F.Success ? Out.Proved : Out.Rejected);
  return Out;
}

int VerifyResult::warningCount() const {
  int N = 0;
  for (const BatchJobResult &F : Files)
    N += F.ValidateDiags.warningCount();
  return N;
}

void VerifyResult::renderText(std::ostream &OS) const {
  for (const BatchJobResult &F : Files) {
    if (isError(F)) {
      OS << F.Name << ": error: " << F.failureSummary() << "\n";
      continue;
    }
    if (F.Success) {
      OS << F.Name << ": proved (" << F.Validation.ThreadsProved
         << " thread(s), " << F.Validation.InstructionsMatched
         << " instruction(s) matched, " << F.Validation.CopiesInterpreted
         << " copies interpreted)" << (F.UsedSpilling ? " [degraded]" : "")
         << "\n";
      continue;
    }
    OS << F.Name << ": REJECTED\n";
    for (const Diagnostic &D : F.ValidateDiags.diagnostics()) {
      OS << "  " << formatDiagnostic(D) << "\n";
      if (!D.Witness.empty())
        OS << "      witness: " << D.Witness << "\n";
    }
  }
  OS << Proved << " proved, " << Rejected << " rejected, " << Errors
     << " error(s)\n";
}

void VerifyResult::renderJSON(std::ostream &OS) const {
  OS << "{\n  \"files\": [";
  for (size_t I = 0; I < Files.size(); ++I) {
    const BatchJobResult &F = Files[I];
    const bool Error = isError(F);
    OS << (I ? ",\n    {" : "\n    {");
    OS << "\"name\": ";
    writeJSONString(OS, F.Name);
    OS << ", \"status\": ";
    writeJSONString(OS, Error       ? "error"
                        : F.Success ? "proved"
                                    : "rejected");
    OS << ", \"fail_reason\": ";
    writeJSONString(OS, Error ? F.failureSummary() : "");
    OS << ", \"threads_proved\": " << F.Validation.ThreadsProved;
    OS << ", \"instructions_matched\": " << F.Validation.InstructionsMatched;
    OS << ", \"copies_interpreted\": " << F.Validation.CopiesInterpreted;
    OS << ", \"degraded\": "
       << (!Error && F.UsedSpilling ? "true" : "false");
    OS << ", \"diagnostics\": [";
    const std::vector<Diagnostic> &Diags = F.ValidateDiags.diagnostics();
    for (size_t J = 0; J < Diags.size(); ++J) {
      OS << (J ? ", " : "");
      writeDiagnosticJSON(OS, Diags[J]);
    }
    OS << "]}";
  }
  OS << (Files.empty() ? "]" : "\n  ]");
  OS << ",\n  \"proved\": " << Proved << ",\n  \"rejected\": " << Rejected
     << ",\n  \"errors\": " << Errors << "\n}\n";
}
