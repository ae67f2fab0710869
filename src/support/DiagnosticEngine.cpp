//===- DiagnosticEngine.cpp -----------------------------------------------===//

#include "support/DiagnosticEngine.h"

#include "support/JSONReader.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <limits>

using namespace npral;

std::string_view npral::getSeverityName(Severity Sev) {
  switch (Sev) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "unknown";
}

bool npral::parseSeverityName(std::string_view Name, Severity &Sev) {
  if (Name == "note")
    Sev = Severity::Note;
  else if (Name == "warning")
    Sev = Severity::Warning;
  else if (Name == "error")
    Sev = Severity::Error;
  else
    return false;
  return true;
}

Diagnostic &DiagnosticEngine::report(Severity Sev, std::string Check,
                                     std::string Message) {
  Diagnostic D;
  D.Sev = Sev;
  D.Check = std::move(Check);
  D.Message = std::move(Message);
  Diags.push_back(std::move(D));
  return Diags.back();
}

int DiagnosticEngine::count(Severity Sev) const {
  int N = 0;
  for (const Diagnostic &D : Diags)
    if (D.Sev == Sev)
      ++N;
  return N;
}

const Diagnostic *DiagnosticEngine::firstError() const {
  for (const Diagnostic &D : Diags)
    if (D.Sev == Severity::Error)
      return &D;
  return nullptr;
}

void DiagnosticEngine::sortBySeverity() {
  std::stable_sort(Diags.begin(), Diags.end(),
                   [](const Diagnostic &A, const Diagnostic &B) {
                     if (A.Sev != B.Sev)
                       return static_cast<int>(A.Sev) > static_cast<int>(B.Sev);
                     if (A.Thread != B.Thread)
                       return A.Thread < B.Thread;
                     if (A.Block != B.Block)
                       return A.Block < B.Block;
                     return A.Instr < B.Instr;
                   });
}

void DiagnosticEngine::sortByPosition() {
  std::stable_sort(Diags.begin(), Diags.end(),
                   [](const Diagnostic &A, const Diagnostic &B) {
                     if (A.Thread != B.Thread)
                       return A.Thread < B.Thread;
                     if (A.Block != B.Block)
                       return A.Block < B.Block;
                     return A.Instr < B.Instr;
                   });
}

std::string npral::formatDiagnostic(const Diagnostic &D) {
  std::string Out;
  if (!D.Thread.empty()) {
    Out += "thread '" + D.Thread + "'";
    if (D.Block >= 0) {
      Out += ", block " + std::to_string(D.Block);
      if (D.Instr >= 0)
        Out += ", instr " + std::to_string(D.Instr);
    }
    Out += ": ";
  } else if (D.Loc.isValid()) {
    Out += D.Loc.str() + ": ";
  }
  Out += std::string(getSeverityName(D.Sev)) + ": " + D.Message + " [" +
         D.Check + "]";
  return Out;
}

void DiagnosticEngine::renderText(std::ostream &OS) const {
  for (const Diagnostic &D : Diags) {
    OS << formatDiagnostic(D) << "\n";
    if (!D.Witness.empty())
      OS << "    witness: " << D.Witness << "\n";
  }
  OS << errorCount() << " error(s), " << warningCount() << " warning(s), "
     << noteCount() << " note(s)\n";
}

// JSON rendering ------------------------------------------------------------

void npral::writeDiagnosticJSON(std::ostream &OS, const Diagnostic &D) {
  OS << "{\"severity\": ";
  writeJSONString(OS, getSeverityName(D.Sev));
  OS << ", \"check\": ";
  writeJSONString(OS, D.Check);
  OS << ", \"thread\": ";
  writeJSONString(OS, D.Thread);
  OS << ", \"block\": " << D.Block;
  OS << ", \"instr\": " << D.Instr;
  OS << ", \"line\": " << D.Loc.Line;
  OS << ", \"column\": " << D.Loc.Column;
  OS << ", \"message\": ";
  writeJSONString(OS, D.Message);
  OS << ", \"witness\": ";
  writeJSONString(OS, D.Witness);
  OS << "}";
}

void DiagnosticEngine::renderJSON(std::ostream &OS) const {
  OS << "{\n  \"diagnostics\": [";
  for (size_t I = 0; I < Diags.size(); ++I) {
    OS << (I ? ",\n    " : "\n    ");
    writeDiagnosticJSON(OS, Diags[I]);
  }
  OS << (Diags.empty() ? "]" : "\n  ]");
  OS << ",\n  \"errors\": " << errorCount()
     << ",\n  \"warnings\": " << warningCount()
     << ",\n  \"notes\": " << noteCount() << "\n}\n";
}

// JSON parsing: a schema walk over the one JSON reader.

namespace {

Status readDiagnostic(JSONReader &R, Diagnostic &D) {
  return R.readObject([&](const std::string &Key) -> Status {
    std::string *Text = Key == "check"     ? &D.Check
                        : Key == "thread"  ? &D.Thread
                        : Key == "message" ? &D.Message
                        : Key == "witness" ? &D.Witness
                                           : nullptr;
    if (Text)
      return R.readString(*Text);
    int *Int = Key == "block"    ? &D.Block
               : Key == "instr"  ? &D.Instr
               : Key == "line"   ? &D.Loc.Line
               : Key == "column" ? &D.Loc.Column
                                 : nullptr;
    if (Int) {
      int64_t V = 0;
      Status S = R.readInteger(V, std::numeric_limits<int>::min(),
                               std::numeric_limits<int>::max());
      *Int = static_cast<int>(V);
      return S;
    }
    if (Key != "severity")
      return R.fail("unknown diagnostic field '" + Key + "'");
    std::string Name;
    if (Status S = R.readString(Name); !S.ok())
      return S;
    if (!parseSeverityName(Name, D.Sev))
      return R.fail("unknown severity '" + Name + "'");
    return Status::success();
  });
}

} // namespace

ErrorOr<std::vector<Diagnostic>>
npral::parseDiagnosticsJSON(std::string_view JSON) {
  JSONReader R(JSON, "diagnostics JSON");
  std::vector<Diagnostic> Out;
  bool SawDiagnostics = false;
  Status S = R.readObject([&](const std::string &Key) -> Status {
    if (Key != "diagnostics") {
      // The summary counts: integers, checked and dropped.
      int64_t Count = 0;
      return R.readInteger(Count);
    }
    SawDiagnostics = true;
    return R.readArray([&] {
      Out.emplace_back();
      return readDiagnostic(R, Out.back());
    });
  });
  if (S.ok() && !SawDiagnostics)
    S = R.fail("missing 'diagnostics' array");
  if (S.ok())
    S = R.finish();
  if (!S.ok())
    return S;
  return Out;
}
