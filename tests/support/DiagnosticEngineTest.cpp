//===- DiagnosticEngineTest.cpp - DiagnosticEngine unit tests -------------===//

#include "support/DiagnosticEngine.h"

#include "gtest/gtest.h"

#include <sstream>

using namespace npral;

namespace {

Diagnostic makeDiag(Severity Sev, const std::string &Check,
                    const std::string &Message) {
  Diagnostic D;
  D.Sev = Sev;
  D.Check = Check;
  D.Message = Message;
  return D;
}

TEST(DiagnosticEngineTest, StartsEmpty) {
  DiagnosticEngine Engine;
  EXPECT_TRUE(Engine.empty());
  EXPECT_EQ(Engine.size(), 0);
  EXPECT_FALSE(Engine.hasErrors());
  EXPECT_EQ(Engine.firstError(), nullptr);
}

TEST(DiagnosticEngineTest, CountsBySeverity) {
  DiagnosticEngine Engine;
  Engine.report(makeDiag(Severity::Warning, "dead-store", "w1"));
  Engine.report(makeDiag(Severity::Error, "cross-thread-race", "e1"));
  Engine.report(makeDiag(Severity::Note, "over-private", "n1"));
  Engine.report(makeDiag(Severity::Error, "cross-thread-race", "e2"));

  EXPECT_EQ(Engine.size(), 4);
  EXPECT_EQ(Engine.errorCount(), 2);
  EXPECT_EQ(Engine.warningCount(), 1);
  EXPECT_EQ(Engine.noteCount(), 1);
  EXPECT_TRUE(Engine.hasErrors());
  ASSERT_NE(Engine.firstError(), nullptr);
  EXPECT_EQ(Engine.firstError()->Message, "e1");
}

TEST(DiagnosticEngineTest, FluentReportFillsOptionalFields) {
  DiagnosticEngine Engine;
  Diagnostic &D = Engine.report(Severity::Error, "alloc-safety", "boom");
  D.Thread = "alpha";
  D.Block = 2;
  D.Instr = 5;
  D.Witness = "load p3, [p0+0]";

  ASSERT_EQ(Engine.size(), 1);
  EXPECT_EQ(Engine.diagnostics()[0].Thread, "alpha");
  EXPECT_EQ(Engine.diagnostics()[0].Block, 2);
  EXPECT_EQ(Engine.diagnostics()[0].Instr, 5);
  EXPECT_EQ(Engine.diagnostics()[0].Witness, "load p3, [p0+0]");
}

TEST(DiagnosticEngineTest, SortPutsErrorsFirstAndIsStable) {
  DiagnosticEngine Engine;
  Engine.report(makeDiag(Severity::Note, "over-private", "n1"));
  Engine.report(makeDiag(Severity::Warning, "dead-store", "w1"));
  Engine.report(makeDiag(Severity::Error, "cross-thread-race", "e1"));
  Engine.report(makeDiag(Severity::Error, "cross-thread-race", "e2"));
  Engine.sortBySeverity();

  ASSERT_EQ(Engine.size(), 4);
  EXPECT_EQ(Engine.diagnostics()[0].Message, "e1");
  EXPECT_EQ(Engine.diagnostics()[1].Message, "e2");
  EXPECT_EQ(Engine.diagnostics()[2].Message, "w1");
  EXPECT_EQ(Engine.diagnostics()[3].Message, "n1");
}

TEST(DiagnosticEngineTest, SortByPositionOrdersByThreadBlockInstrStably) {
  auto at = [](const std::string &Thread, int Block, int Instr, Severity Sev,
               const std::string &Message) {
    Diagnostic D;
    D.Sev = Sev;
    D.Check = "translation-validation";
    D.Thread = Thread;
    D.Block = Block;
    D.Instr = Instr;
    D.Message = Message;
    return D;
  };
  DiagnosticEngine Engine;
  // Emission order scrambled across threads/blocks, plus two findings at
  // the same point whose relative order must survive (stability).
  Engine.report(at("beta", 1, 0, Severity::Warning, "b-1-0"));
  Engine.report(at("alpha", 2, 3, Severity::Error, "a-2-3"));
  Engine.report(at("alpha", 0, 5, Severity::Note, "a-0-5-first"));
  Engine.report(at("alpha", 0, 5, Severity::Error, "a-0-5-second"));
  Engine.report(at("alpha", 0, 1, Severity::Warning, "a-0-1"));
  Engine.sortByPosition();

  ASSERT_EQ(Engine.size(), 5);
  EXPECT_EQ(Engine.diagnostics()[0].Message, "a-0-1");
  EXPECT_EQ(Engine.diagnostics()[1].Message, "a-0-5-first");
  EXPECT_EQ(Engine.diagnostics()[2].Message, "a-0-5-second");
  EXPECT_EQ(Engine.diagnostics()[3].Message, "a-2-3");
  EXPECT_EQ(Engine.diagnostics()[4].Message, "b-1-0");
}

TEST(DiagnosticEngineTest, TextRenderingIncludesPositionsAndSummary) {
  DiagnosticEngine Engine;
  Diagnostic &D = Engine.report(Severity::Warning, "dead-store",
                                "value of 'x' defined here is never used");
  D.Thread = "worker";
  D.Block = 1;
  D.Instr = 3;
  D.Witness = "imm x, 5";

  std::ostringstream OS;
  Engine.renderText(OS);
  std::string Text = OS.str();
  EXPECT_NE(Text.find("thread 'worker'"), std::string::npos) << Text;
  EXPECT_NE(Text.find("block 1"), std::string::npos) << Text;
  EXPECT_NE(Text.find("instr 3"), std::string::npos) << Text;
  EXPECT_NE(Text.find("[dead-store]"), std::string::npos) << Text;
  EXPECT_NE(Text.find("witness: imm x, 5"), std::string::npos) << Text;
  EXPECT_NE(Text.find("0 error(s), 1 warning(s), 0 note(s)"),
            std::string::npos)
      << Text;
}

TEST(DiagnosticEngineTest, SeverityNamesRoundTrip) {
  for (Severity Sev :
       {Severity::Note, Severity::Warning, Severity::Error}) {
    Severity Parsed;
    ASSERT_TRUE(parseSeverityName(getSeverityName(Sev), Parsed));
    EXPECT_EQ(Parsed, Sev);
  }
  Severity Unused;
  EXPECT_FALSE(parseSeverityName("fatal", Unused));
}

TEST(DiagnosticEngineTest, JSONRoundTripPreservesEveryField) {
  DiagnosticEngine Engine;
  Diagnostic D;
  D.Sev = Severity::Error;
  D.Check = "cross-thread-race";
  D.Thread = "alpha";
  D.Block = 0;
  D.Instr = 2;
  D.Message = "register p1 is live across 2 CSB(s)";
  D.Witness = "CSB 'load p3, [p0+0]'";
  D.Loc.Line = 7;
  D.Loc.Column = 4;
  Engine.report(D);
  Engine.report(makeDiag(Severity::Note, "over-private", "hint"));

  std::ostringstream OS;
  Engine.renderJSON(OS);
  ErrorOr<std::vector<Diagnostic>> Parsed = parseDiagnosticsJSON(OS.str());
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().str();
  ASSERT_EQ(Parsed->size(), 2u);

  const Diagnostic &R = (*Parsed)[0];
  EXPECT_EQ(R.Sev, Severity::Error);
  EXPECT_EQ(R.Check, "cross-thread-race");
  EXPECT_EQ(R.Thread, "alpha");
  EXPECT_EQ(R.Block, 0);
  EXPECT_EQ(R.Instr, 2);
  EXPECT_EQ(R.Message, "register p1 is live across 2 CSB(s)");
  EXPECT_EQ(R.Witness, "CSB 'load p3, [p0+0]'");
  EXPECT_EQ(R.Loc.Line, 7);
  EXPECT_EQ(R.Loc.Column, 4);
  EXPECT_EQ((*Parsed)[1].Sev, Severity::Note);
  EXPECT_EQ((*Parsed)[1].Message, "hint");
}

TEST(DiagnosticEngineTest, JSONEscapesSpecialCharacters) {
  DiagnosticEngine Engine;
  Diagnostic D = makeDiag(Severity::Warning, "structure",
                          "quote \" backslash \\ newline \n tab \t bell \x07");
  D.Witness = "mixed: \"x\\y\"\r\n";
  Engine.report(D);

  std::ostringstream OS;
  Engine.renderJSON(OS);
  ErrorOr<std::vector<Diagnostic>> Parsed = parseDiagnosticsJSON(OS.str());
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().str();
  ASSERT_EQ(Parsed->size(), 1u);
  EXPECT_EQ((*Parsed)[0].Message, D.Message);
  EXPECT_EQ((*Parsed)[0].Witness, D.Witness);
}

TEST(DiagnosticEngineTest, JSONParserRejectsMalformedInput) {
  EXPECT_FALSE(parseDiagnosticsJSON("").ok());
  EXPECT_FALSE(parseDiagnosticsJSON("{").ok());
  EXPECT_FALSE(parseDiagnosticsJSON("[]").ok());
  EXPECT_FALSE(parseDiagnosticsJSON("{\"diagnostics\": 3}").ok());
  EXPECT_FALSE(
      parseDiagnosticsJSON("{\"diagnostics\": [{\"severity\": \"bogus\"}]}")
          .ok());
  // Trailing garbage after a well-formed object.
  DiagnosticEngine Engine;
  Engine.report(makeDiag(Severity::Note, "c", "m"));
  std::ostringstream OS;
  Engine.renderJSON(OS);
  EXPECT_FALSE(parseDiagnosticsJSON(OS.str() + "x").ok());
}

TEST(DiagnosticEngineTest, JSONParserRejectsIntegersOutOfRange) {
  for (const char *Value : {"99999999999999999999", "2147483648"}) {
    const std::string JSON =
        std::string("{\"diagnostics\": [{\"severity\": \"note\", "
                    "\"block\": ") +
        Value + "}]}";
    ErrorOr<std::vector<Diagnostic>> Parsed = parseDiagnosticsJSON(JSON);
    ASSERT_FALSE(Parsed.ok()) << "accepted: " << JSON;
    const std::string Msg = Parsed.status().str();
    EXPECT_NE(Msg.find("integer out of range"), std::string::npos) << Msg;
    EXPECT_NE(Msg.find("line 1, offset "), std::string::npos) << Msg;
    EXPECT_NE(Msg.find("\"block\""), std::string::npos) << Msg;
  }
}

} // namespace
