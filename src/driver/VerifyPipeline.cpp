//===- VerifyPipeline.cpp -------------------------------------------------===//

#include "driver/VerifyPipeline.h"

#include "asmparse/AsmParser.h"
#include "driver/BatchPipeline.h"
#include "lint/Lint.h"
#include "lint/TranslationValidator.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "trace/MetricsRegistry.h"
#include "trace/TraceEngine.h"

#include <exception>
#include <fstream>
#include <sstream>

using namespace npral;

namespace {

/// Check one file in paired mode; writes only \p Out. Diagnostics end up
/// sorted by program position so the result is independent of worker
/// scheduling.
void verifyPaired(const std::string &Path, VerifyFileResult &Out) {
  std::ifstream Stream(Path);
  if (!Stream) {
    Out.FailReason = "cannot open '" + Path + "'";
    return;
  }
  std::ostringstream Buf;
  Buf << Stream.rdbuf();
  ErrorOr<MultiThreadProgram> Parsed = parseAssembly(Buf.str());
  if (!Parsed.ok()) {
    Out.FailReason = Parsed.status().str();
    return;
  }
  MultiThreadProgram MTP = Parsed.take();

  // The file carries both sides of the proof obligation: virtual threads
  // first, then the same number of hand-written physical threads.
  if (MTP.getNumThreads() < 2 || MTP.getNumThreads() % 2 != 0) {
    Out.FailReason = "paired mode needs an even number of threads "
                     "(virtual half followed by physical half)";
    return;
  }
  const int Half = MTP.getNumThreads() / 2;
  MultiThreadProgram Virt, Phys;
  Virt.Name = MTP.Name;
  Phys.Name = MTP.Name;
  for (int T = 0; T < Half; ++T)
    Virt.Threads.push_back(MTP.Threads[static_cast<size_t>(T)]);
  for (int T = Half; T < MTP.getNumThreads(); ++T)
    Phys.Threads.push_back(MTP.Threads[static_cast<size_t>(T)]);
  if (Status S = mapNamedPhysicalRegisters(Phys); !S.ok()) {
    Out.FailReason = S.str();
    return;
  }

  DiagnosticEngine Engine;
  ValidationResult V =
      validateTranslation(Virt, Phys, Engine, &MetricsRegistry::global());
  Engine.sortByPosition();
  Out.Proved = V.Proved;
  Out.ThreadsProved = V.ThreadsProved;
  Out.InstructionsMatched = V.InstructionsMatched;
  Out.CopiesInterpreted = V.CopiesInterpreted;
  Out.Diags = Engine.diagnostics();
}

/// Check one file in allocate mode: the shared job path (parse, rename,
/// use-of-undef precondition, allocation, safety verifier, translation
/// validation) proves the allocator's own output against the renamed
/// input. A job that fails before its validate stage is an error.
void verifyAllocated(const std::string &Path, const VerifyOptions &Opts,
                     VerifyFileResult &Out) {
  BatchJob Job;
  Job.Path = Path;
  BatchOptions BO;
  BO.Nreg = Opts.Nreg;
  BO.Validate = true;
  BO.AllowSpill = Opts.AllowSpill;
  BO.MaxSpills = Opts.MaxSpills;
  BO.StaticPGO = Opts.StaticPGO;
  BO.Profile = Opts.Profile;
  const BatchJobResult R = runSingleJob(Job, BO);
  if (!R.Success && R.FailStage != "validate") {
    Out.FailReason = R.failureSummary();
    return;
  }
  Out.Proved = R.Validated;
  Out.ThreadsProved = R.Validation.ThreadsProved;
  Out.InstructionsMatched = R.Validation.InstructionsMatched;
  Out.CopiesInterpreted = R.Validation.CopiesInterpreted;
  Out.UsedSpilling = R.UsedSpilling;
  Out.Diags = R.ValidateDiags.diagnostics();
}

} // namespace

VerifyResult npral::runVerify(const std::vector<std::string> &Paths,
                              const VerifyOptions &Opts) {
  NPRAL_TRACE_SPAN_ARGS("verify", "runVerify",
                        {"files", std::to_string(Paths.size())},
                        {"jobs", std::to_string(std::max(1, Opts.Jobs))});
  VerifyResult Out;
  Out.Files.resize(Paths.size());
  {
    ThreadPool Pool(Opts.Jobs);
    parallelFor(Pool, static_cast<int>(Paths.size()), [&](int I) {
      VerifyFileResult &Slot = Out.Files[static_cast<size_t>(I)];
      const std::string &Path = Paths[static_cast<size_t>(I)];
      Slot.Name = Path;
      NPRAL_TRACE_SPAN_ARGS("verify", "file", {"name", Path});
      try {
        if (Opts.Paired)
          verifyPaired(Path, Slot);
        else
          verifyAllocated(Path, Opts, Slot);
      } catch (const std::exception &E) {
        Slot = VerifyFileResult();
        Slot.Name = Path;
        Slot.FailReason = std::string("uncaught exception: ") + E.what();
      }
    });
  }
  for (const VerifyFileResult &F : Out.Files) {
    if (!F.FailReason.empty())
      ++Out.Errors;
    else if (F.Proved)
      ++Out.Proved;
    else
      ++Out.Rejected;
  }
  return Out;
}

int VerifyResult::warningCount() const {
  int N = 0;
  for (const VerifyFileResult &F : Files)
    for (const Diagnostic &D : F.Diags)
      if (D.Sev == Severity::Warning)
        ++N;
  return N;
}

void VerifyResult::renderText(std::ostream &OS) const {
  for (const VerifyFileResult &F : Files) {
    if (!F.FailReason.empty()) {
      OS << F.Name << ": error: " << F.FailReason << "\n";
      continue;
    }
    if (F.Proved) {
      OS << F.Name << ": proved (" << F.ThreadsProved << " thread(s), "
         << F.InstructionsMatched << " instruction(s) matched, "
         << F.CopiesInterpreted << " copies interpreted)"
         << (F.UsedSpilling ? " [degraded]" : "") << "\n";
      continue;
    }
    OS << F.Name << ": REJECTED\n";
    for (const Diagnostic &D : F.Diags) {
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
    const VerifyFileResult &F = Files[I];
    OS << (I ? ",\n    {" : "\n    {");
    OS << "\"name\": ";
    writeJSONString(OS, F.Name);
    OS << ", \"status\": ";
    writeJSONString(OS, !F.FailReason.empty() ? "error"
                        : F.Proved            ? "proved"
                                              : "rejected");
    OS << ", \"fail_reason\": ";
    writeJSONString(OS, F.FailReason);
    OS << ", \"threads_proved\": " << F.ThreadsProved;
    OS << ", \"instructions_matched\": " << F.InstructionsMatched;
    OS << ", \"copies_interpreted\": " << F.CopiesInterpreted;
    OS << ", \"degraded\": " << (F.UsedSpilling ? "true" : "false");
    OS << ", \"diagnostics\": [";
    for (size_t J = 0; J < F.Diags.size(); ++J) {
      OS << (J ? ", " : "");
      writeDiagnosticJSON(OS, F.Diags[J]);
    }
    OS << "]}";
  }
  OS << (Files.empty() ? "]" : "\n  ]");
  OS << ",\n  \"proved\": " << Proved << ",\n  \"rejected\": " << Rejected
     << ",\n  \"errors\": " << Errors << "\n}\n";
}
