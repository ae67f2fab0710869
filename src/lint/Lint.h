//===- Lint.h - npral-lint pass registry and driver -------------*- C++ -*-===//
///
/// \file
/// The static-analysis subsystem: a registry of checkers that run over a
/// MultiThreadProgram — virtual (pre-allocation) or physical
/// (post-allocation) — and accumulate structured diagnostics in a
/// DiagnosticEngine instead of stopping at the first finding.
///
/// Checkers share the per-thread analyses cached in the LintContext
/// (structural verification, liveness, NSR decomposition), so adding a
/// checker costs only its own traversal. The registry drives both the
/// `npralc lint` subcommand and the runAllCheckers library entry point
/// used by tests and the bench harness.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_LINT_LINT_H
#define NPRAL_LINT_LINT_H

#include "analysis/Liveness.h"
#include "analysis/NSR.h"
#include "ir/Program.h"
#include "support/DiagnosticEngine.h"

#include <string>
#include <string_view>
#include <vector>

namespace npral {

/// What to run and how chatty to be.
struct LintOptions {
  /// Run only these checkers (registry names). Empty = every checker
  /// applicable to the program kind.
  std::vector<std::string> OnlyChecks;
  /// Include advisory checkers (notes such as the over-private splitting
  /// hints). An advisory checker named in OnlyChecks runs regardless.
  bool IncludeAdvice = true;
};

/// Which program kind a checker applies to.
enum class CheckerMode {
  Both,         ///< virtual and physical programs
  VirtualOnly,  ///< pre-allocation programs only
  PhysicalOnly, ///< post-allocation programs only
};

class LintContext;

using CheckerFn = void (*)(LintContext &);

/// One registered checker.
struct CheckerInfo {
  std::string_view Name;        ///< kebab-case registry name
  std::string_view Description; ///< one-line summary for --help and docs
  CheckerMode Mode = CheckerMode::Both;
  /// Advisory checkers only emit notes and are skipped when
  /// LintOptions::IncludeAdvice is off.
  bool Advisory = false;
  CheckerFn Run = nullptr;
};

/// All registered checkers, in execution order.
const std::vector<CheckerInfo> &getCheckerRegistry();

/// Registry lookup by name; nullptr when unknown.
const CheckerInfo *findChecker(std::string_view Name);

/// Per-thread analyses computed once and shared by every checker. The
/// dataflow fields are only valid when HasDataflow is true (the thread
/// passed structural verification).
struct ThreadLintState {
  Status Structure;
  bool HasDataflow = false;
  LivenessInfo Liveness;
  NSRInfo NSRs;
};

/// The program under analysis plus cached analyses and the sink for
/// diagnostics.
class LintContext {
public:
  LintContext(const MultiThreadProgram &MTP, DiagnosticEngine &Engine);

  const MultiThreadProgram &getProgram() const { return MTP; }
  DiagnosticEngine &getEngine() { return Engine; }

  int getNumThreads() const { return MTP.getNumThreads(); }
  const Program &thread(int T) const {
    return MTP.Threads[static_cast<size_t>(T)];
  }
  ThreadLintState &state(int T) { return States[static_cast<size_t>(T)]; }

  /// True when every thread is a physical program (and there is at least
  /// one thread).
  bool isPhysical() const { return Physical; }

  /// Report a diagnostic positioned inside thread \p T at (\p Block,
  /// \p Instr); pass -1 for positions that do not apply.
  Diagnostic &emit(Severity Sev, std::string Check, int T, int Block,
                   int Instr, std::string Message);

private:
  const MultiThreadProgram &MTP;
  DiagnosticEngine &Engine;
  std::vector<ThreadLintState> States;
  bool Physical = false;
};

/// Run every applicable registered checker over \p MTP, accumulating into
/// \p Engine. Returns the number of error diagnostics in the engine after
/// the run.
int runAllCheckers(const MultiThreadProgram &MTP, DiagnosticEngine &Engine,
                   const LintOptions &Opts = {});

/// Reinterpret a parsed (virtual) program whose register names are all of
/// the form p<N> as a physical program: register IDs become the named
/// indices, every thread gets the same register file size (max index + 1),
/// and IsPhysical is set. This is how deliberately-bad allocations are
/// crafted as plain .s fixtures for `npralc lint --physical`. Fails with
/// StatusCode::InvalidIR on a name not of that form, an index above 4095
/// or a program without threads.
Status mapNamedPhysicalRegisters(MultiThreadProgram &MTP);

} // namespace npral

#endif // NPRAL_LINT_LINT_H
