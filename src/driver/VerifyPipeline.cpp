//===- VerifyPipeline.cpp -------------------------------------------------===//

#include "driver/VerifyPipeline.h"

#include "asmparse/AsmParser.h"
#include "lint/Lint.h"
#include "lint/TranslationValidator.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "trace/MetricsRegistry.h"

#include <iterator>

using namespace npral;

namespace {

/// True when the job stopped before the validator could judge it.
bool isError(const BatchJobResult &F) {
  return !F.Success && F.FailStage != "validate";
}

/// Check one file in paired mode, filling its result the way the job path
/// does: a refutation fails in stage "validate", anything earlier in the
/// stage that stopped it. Diagnostics end up sorted by program position so
/// the result is independent of worker scheduling.
BatchJobResult verifyPaired(const std::string &Path) {
  BatchJobResult R;
  R.Name = Path;
  auto fail = [&R](const char *Stage, StatusCode Code, std::string Reason) {
    R.FailStage = Stage;
    R.FailCode = Code;
    R.FailReason = std::move(Reason);
    return R;
  };
  ErrorOr<std::string> Text = readTextFile(Path);
  if (!Text.ok())
    return fail("parse", Text.status().code(), Text.status().str());
  ErrorOr<MultiThreadProgram> Parsed = parseAssembly(*Text);
  if (!Parsed.ok())
    return fail("parse", Parsed.status().code(), Parsed.status().str());
  MultiThreadProgram Virt = Parsed.take();

  // The file carries both sides of the proof obligation: virtual threads
  // first, then the same number of hand-written physical threads.
  R.NumThreads = Virt.getNumThreads();
  if (R.NumThreads < 2 || R.NumThreads % 2 != 0)
    return fail("parse", StatusCode::InvalidIR,
                "paired mode needs an even number of threads "
                "(virtual half followed by physical half)");
  const auto Mid = Virt.Threads.begin() + R.NumThreads / 2;
  MultiThreadProgram Phys;
  Phys.Name = Virt.Name;
  Phys.Threads.assign(std::make_move_iterator(Mid),
                      std::make_move_iterator(Virt.Threads.end()));
  Virt.Threads.erase(Mid, Virt.Threads.end());
  if (Status S = mapNamedPhysicalRegisters(Phys); !S.ok())
    return fail("parse", StatusCode::InvalidIR, S.str());

  R.Validation = validateTranslation(Virt, Phys, R.ValidateDiags,
                                     &MetricsRegistry::global());
  R.ValidateDiags.sortByPosition();
  R.Validated = R.Success = R.Validation.Proved;
  if (!R.Success) {
    const Diagnostic *First = R.ValidateDiags.firstError();
    return fail("validate", StatusCode::Internal,
                "translation validation refuted the physical half: " +
                    (First ? First->Message
                           : std::string("program shape mismatch")));
  }
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
          verifyPaired(Paths[static_cast<size_t>(I)]);
    });
  } else {
    std::vector<BatchJob> Jobs(Paths.size());
    for (size_t I = 0; I < Paths.size(); ++I)
      Jobs[I].Path = Paths[I];
    Opts.Validate = true;
    Out.Files = runBatch(Jobs, Opts).Results;
  }
  for (const BatchJobResult &F : Out.Files)
    ++(isError(F) ? Out.Errors : F.Validated ? Out.Proved : Out.Rejected);
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
    if (F.Validated) {
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
    writeJSONString(OS, Error         ? "error"
                        : F.Validated ? "proved"
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
