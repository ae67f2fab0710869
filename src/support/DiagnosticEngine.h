//===- DiagnosticEngine.h - Batched structured diagnostics ------*- C++ -*-===//
///
/// \file
/// Accumulating diagnostics for the lint subsystem (and any other client
/// that wants to report *all* problems instead of the first one). A
/// Diagnostic is a structured record — severity, producing check, thread,
/// IR position, message, witness — and the DiagnosticEngine collects many
/// of them and renders the batch as human-readable text or as JSON that
/// parseDiagnosticsJSON round-trips exactly.
///
/// This sits below the IR layer on purpose: positions are plain integers
/// (thread/block/instruction indices), so support code stays dependency
/// free and tools can attach whatever naming they have.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_SUPPORT_DIAGNOSTICENGINE_H
#define NPRAL_SUPPORT_DIAGNOSTICENGINE_H

#include "support/Status.h"

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace npral {

/// How bad a diagnostic is. Errors make a lint run fail; warnings flag
/// likely bugs that do not break the safety invariant; notes are advisory
/// (e.g. splitting opportunities).
enum class Severity { Note, Warning, Error };

/// Stable lowercase name ("note", "warning", "error").
std::string_view getSeverityName(Severity Sev);

/// Reverse of getSeverityName. Returns false on unknown names.
bool parseSeverityName(std::string_view Name, Severity &Sev);

/// One structured finding.
struct Diagnostic {
  Severity Sev = Severity::Warning;
  /// Registry name of the producing check (kebab-case, e.g.
  /// "cross-thread-race").
  std::string Check;
  /// Name of the thread the finding is in; empty for whole-program findings.
  std::string Thread;
  /// Basic block ID within the thread; -1 when not applicable.
  int Block = -1;
  /// Instruction index within Block; -1 when not applicable.
  int Instr = -1;
  /// Human-readable statement of the problem (LLVM error style: lowercase
  /// first letter, no trailing period).
  std::string Message;
  /// Supporting evidence, e.g. the rendered offending instruction(s).
  std::string Witness;
  /// Textual source location when the program came from an assembly file.
  SourceLoc Loc;
};

/// Collects diagnostics and renders the batch.
class DiagnosticEngine {
public:
  void report(Diagnostic D) { Diags.push_back(std::move(D)); }

  /// Convenience: report and return a reference for filling the optional
  /// fields (thread, position, witness) fluently.
  Diagnostic &report(Severity Sev, std::string Check, std::string Message);

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }
  bool empty() const { return Diags.empty(); }
  int size() const { return static_cast<int>(Diags.size()); }

  int count(Severity Sev) const;
  int errorCount() const { return count(Severity::Error); }
  int warningCount() const { return count(Severity::Warning); }
  int noteCount() const { return count(Severity::Note); }
  bool hasErrors() const { return errorCount() > 0; }

  /// First error diagnostic, or nullptr when there is none.
  const Diagnostic *firstError() const;

  /// Sort by severity (errors first), then thread, then position. Stable,
  /// so diagnostics from one check at one point keep their emission order.
  void sortBySeverity();

  /// Sort by program position alone: thread, then block, then instruction
  /// index, ignoring severity. Stable, so two findings at one point keep
  /// their emission order. This is the canonical order for parallel lint
  /// and verify runs — it depends only on the program, not on worker
  /// scheduling, so a `--jobs 8` run renders byte-identically to `--jobs 1`.
  void sortByPosition();

  /// Render one line per diagnostic plus a trailing summary line.
  void renderText(std::ostream &OS) const;

  /// Render the whole batch as a JSON object; parseDiagnosticsJSON inverts
  /// this exactly.
  void renderJSON(std::ostream &OS) const;

private:
  std::vector<Diagnostic> Diags;
};

/// Render a single diagnostic as one line of text (no trailing newline).
std::string formatDiagnostic(const Diagnostic &D);

/// Write a single diagnostic as one JSON object, every field included; the
/// one diagnostic shape in every JSON render (lint, verify).
void writeDiagnosticJSON(std::ostream &OS, const Diagnostic &D);

/// Parse the output of DiagnosticEngine::renderJSON back into diagnostics.
ErrorOr<std::vector<Diagnostic>> parseDiagnosticsJSON(std::string_view JSON);

} // namespace npral

#endif // NPRAL_SUPPORT_DIAGNOSTICENGINE_H
