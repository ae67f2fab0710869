//===- LintTest.cpp - positive/negative coverage for every lint checker ---===//

#include "lint/Lint.h"

#include "asmparse/AsmParser.h"
#include "support/DiagnosticEngine.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

using namespace npral;

namespace {

MultiThreadProgram parseMT(const std::string &Asm) {
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(Asm);
  EXPECT_TRUE(MTP.ok()) << MTP.status().str();
  return MTP.ok() ? MTP.take() : MultiThreadProgram();
}

/// Diagnostics produced by check \p Name.
std::vector<Diagnostic> byCheck(const DiagnosticEngine &Engine,
                                const std::string &Name) {
  std::vector<Diagnostic> Out;
  for (const Diagnostic &D : Engine.diagnostics())
    if (D.Check == Name)
      Out.push_back(D);
  return Out;
}

/// A single well-formed thread: every register initialized and used, and
/// nothing but the base pointer live across a CSB (so even the advisory
/// over-private checker stays silent — 'w' is the load's own def, which
/// LiveAcross excludes, and 'buf' has only one reference per NSR).
const char *CleanAsm = R"(
.thread clean
.entrylive buf
main:
    load w, [buf+0]
    addi w, w, 1
    store [buf+0], w
    halt
)";

/// The deliberately-bad physical allocation from examples/asm/bad_alloc.s:
/// alpha keeps p1/p2 live across its load CSBs; beta clobbers both.
const char *BadAllocAsm = R"(
.thread alpha
.entrylive p0
main:
    imm  p1, 1
    imm  p2, 2
    load p3, [p0+0]
    add  p1, p1, p3
    load p4, [p0+1]
    add  p2, p2, p4
    add  p1, p1, p2
    store [p0+0], p1
    halt

.thread beta
.entrylive p6
main:
    imm  p1, 7
    imm  p2, 9
    add  p5, p1, p2
    store [p6+0], p5
    halt
)";

// --- registry ------------------------------------------------------------

TEST(LintRegistryTest, LooksUpEveryRegisteredChecker) {
  EXPECT_GE(getCheckerRegistry().size(), 8u);
  for (const CheckerInfo &C : getCheckerRegistry()) {
    const CheckerInfo *Found = findChecker(C.Name);
    ASSERT_NE(Found, nullptr);
    EXPECT_EQ(Found->Name, C.Name);
    EXPECT_FALSE(Found->Description.empty());
    EXPECT_NE(Found->Run, nullptr);
  }
  EXPECT_EQ(findChecker("no-such-checker"), nullptr);
}

TEST(LintRegistryTest, CleanProgramProducesNoFindings) {
  DiagnosticEngine Engine;
  int Errors = runAllCheckers(parseMT(CleanAsm), Engine);
  EXPECT_EQ(Errors, 0);
  EXPECT_TRUE(Engine.empty()) << [&] {
    std::ostringstream OS;
    Engine.renderText(OS);
    return OS.str();
  }();
}

// --- structure -----------------------------------------------------------

TEST(LintStructureTest, ReportsEmptyProgram) {
  DiagnosticEngine Engine;
  MultiThreadProgram Empty;
  EXPECT_EQ(runAllCheckers(Empty, Engine), 1);
  std::vector<Diagnostic> Diags = byCheck(Engine, "structure");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Message, "program has no threads");
}

TEST(LintStructureTest, ReportsMalformedThreadButStillChecksOthers) {
  MultiThreadProgram MTP = parseMT(CleanAsm);
  // Break a copy of the thread: dangling branch target.
  Program Broken = MTP.Threads[0];
  Broken.Name = "broken";
  Broken.block(0).Instrs.back() = Instruction::makeBr(9);
  MTP.Threads.push_back(Broken);

  DiagnosticEngine Engine;
  runAllCheckers(MTP, Engine);
  std::vector<Diagnostic> Diags = byCheck(Engine, "structure");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Sev, Severity::Error);
  EXPECT_EQ(Diags[0].Thread, "broken");
  EXPECT_NE(Diags[0].Message.find("branch target out of range"),
            std::string::npos)
      << Diags[0].Message;
}

TEST(LintStructureTest, ReportsMixedPhysicalAndVirtualThreads) {
  MultiThreadProgram MTP = parseMT(CleanAsm);
  Program Phys = MTP.Threads[0];
  Phys.Name = "phys";
  Phys.IsPhysical = true;
  Phys.clearRegNames();
  MTP.Threads.push_back(Phys);

  DiagnosticEngine Engine;
  runAllCheckers(MTP, Engine);
  std::vector<Diagnostic> Diags = byCheck(Engine, "structure");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Message, "program mixes physical and virtual threads");
}

// --- maybe-uninit --------------------------------------------------------

TEST(LintMaybeUninitTest, CleanWhenEveryPathDefines) {
  DiagnosticEngine Engine;
  runAllCheckers(parseMT(CleanAsm), Engine);
  EXPECT_TRUE(byCheck(Engine, "maybe-uninit").empty());
}

TEST(LintMaybeUninitTest, FlagsReadReachedByDefFreePath) {
  DiagnosticEngine Engine;
  runAllCheckers(parseMT(R"(
.thread worker
main:
    imm  c, 1
    bnz  c, join
init:
    imm  x, 42
join:
    add  y, x, x
    storea 0x100, y
    halt
)"),
                 Engine);
  std::vector<Diagnostic> Diags = byCheck(Engine, "maybe-uninit");
  ASSERT_EQ(Diags.size(), 1u); // same register in both slots: one report
  EXPECT_EQ(Diags[0].Sev, Severity::Warning);
  EXPECT_NE(Diags[0].Message.find("'x'"), std::string::npos);
  EXPECT_NE(Diags[0].Witness.find("add y, x, x"), std::string::npos);
}

// --- dead-store and dead-range -------------------------------------------

TEST(LintDeadTest, CleanWhenEveryValueIsRead) {
  DiagnosticEngine Engine;
  runAllCheckers(parseMT(CleanAsm), Engine);
  EXPECT_TRUE(byCheck(Engine, "dead-store").empty());
  EXPECT_TRUE(byCheck(Engine, "dead-range").empty());
}

TEST(LintDeadTest, FlagsUnusedDefinitionAndUnreadRegister) {
  DiagnosticEngine Engine;
  runAllCheckers(parseMT(R"(
.thread worker
.entrylive buf
main:
    imm  t, 5
    imm  a, 1
    store [buf+0], a
    halt
)"),
                 Engine);
  std::vector<Diagnostic> Stores = byCheck(Engine, "dead-store");
  ASSERT_EQ(Stores.size(), 1u);
  EXPECT_NE(Stores[0].Message.find("'t'"), std::string::npos);
  EXPECT_EQ(Stores[0].Block, 0);
  EXPECT_EQ(Stores[0].Instr, 0);

  std::vector<Diagnostic> Ranges = byCheck(Engine, "dead-range");
  ASSERT_EQ(Ranges.size(), 1u);
  EXPECT_NE(Ranges[0].Message.find("written but never read"),
            std::string::npos);
}

TEST(LintDeadTest, DeadLoadKeepsItsContextSwitchCaveat) {
  DiagnosticEngine Engine;
  runAllCheckers(parseMT(R"(
.thread worker
.entrylive buf
main:
    load w, [buf+0]
    imm  a, 1
    store [buf+0], a
    halt
)"),
                 Engine);
  std::vector<Diagnostic> Stores = byCheck(Engine, "dead-store");
  ASSERT_EQ(Stores.size(), 1u);
  EXPECT_NE(Stores[0].Message.find("memory access itself still executes"),
            std::string::npos)
      << Stores[0].Message;
}

// --- unreachable-block ---------------------------------------------------

TEST(LintUnreachableTest, CleanWhenAllBlocksReachable) {
  DiagnosticEngine Engine;
  runAllCheckers(parseMT(CleanAsm), Engine);
  EXPECT_TRUE(byCheck(Engine, "unreachable-block").empty());
}

TEST(LintUnreachableTest, FlagsOrphanBlock) {
  DiagnosticEngine Engine;
  runAllCheckers(parseMT(R"(
.thread worker
main:
    imm  a, 1
    storea 0x100, a
    halt
orphan:
    imm  b, 2
    storea 0x104, b
    halt
)"),
                 Engine);
  std::vector<Diagnostic> Diags = byCheck(Engine, "unreachable-block");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].Message.find("'orphan'"), std::string::npos);
  EXPECT_EQ(Diags[0].Instr, -1);
}

// --- redundant-move ------------------------------------------------------

TEST(LintRedundantMoveTest, CleanOnUsefulMoves) {
  DiagnosticEngine Engine;
  runAllCheckers(parseMT(R"(
.thread worker
main:
    imm  a, 1
    mov  b, a
    storea 0x100, b
    halt
)"),
                 Engine);
  EXPECT_TRUE(byCheck(Engine, "redundant-move").empty());
}

TEST(LintRedundantMoveTest, FlagsSelfMoveAndCancelledPair) {
  DiagnosticEngine Engine;
  runAllCheckers(parseMT(R"(
.thread worker
main:
    imm  a, 1
    mov  a, a
    mov  b, a
    mov  a, b
    storea 0x100, a
    storea 0x104, b
    halt
)"),
                 Engine);
  std::vector<Diagnostic> Diags = byCheck(Engine, "redundant-move");
  ASSERT_EQ(Diags.size(), 2u);
  EXPECT_NE(Diags[0].Message.find("self-move"), std::string::npos);
  EXPECT_EQ(Diags[0].Instr, 1);
  EXPECT_NE(Diags[1].Message.find("back onto itself"), std::string::npos);
  EXPECT_EQ(Diags[1].Instr, 3);
}

// --- cross-thread-race ---------------------------------------------------

TEST(LintRaceTest, CleanOnSafeAllocation) {
  MultiThreadProgram MTP = parseMT(R"(
.thread alpha
.entrylive p0
main:
    imm  p1, 1
    load p2, [p0+0]
    add  p1, p1, p2
    store [p0+0], p1
    halt

.thread beta
.entrylive p8
main:
    imm  p9, 7
    store [p8+0], p9
    halt
)");
  ASSERT_TRUE(mapNamedPhysicalRegisters(MTP).ok());
  DiagnosticEngine Engine;
  EXPECT_EQ(runAllCheckers(MTP, Engine), 0);
  EXPECT_TRUE(byCheck(Engine, "cross-thread-race").empty());
}

TEST(LintRaceTest, ReportsEveryViolationInOneRun) {
  MultiThreadProgram MTP = parseMT(BadAllocAsm);
  ASSERT_TRUE(mapNamedPhysicalRegisters(MTP).ok());
  DiagnosticEngine Engine;
  int Errors = runAllCheckers(MTP, Engine);
  std::vector<Diagnostic> Races = byCheck(Engine, "cross-thread-race");

  // Both clobbered registers must surface in a single run — the old
  // verifier stopped at the first one.
  ASSERT_EQ(Races.size(), 2u);
  EXPECT_EQ(Errors, static_cast<int>(Races.size()));
  bool SawP1 = false, SawP2 = false;
  for (const Diagnostic &D : Races) {
    EXPECT_EQ(D.Sev, Severity::Error);
    EXPECT_EQ(D.Thread, "alpha");
    EXPECT_NE(D.Message.find("live across"), std::string::npos);
    EXPECT_NE(D.Message.find("thread 'beta'"), std::string::npos);
    EXPECT_NE(D.Witness.find("CSB"), std::string::npos);
    SawP1 |= D.Message.find("register p1 ") != std::string::npos;
    SawP2 |= D.Message.find("register p2 ") != std::string::npos;
  }
  EXPECT_TRUE(SawP1);
  EXPECT_TRUE(SawP2);
}

TEST(LintRaceTest, SkippedOnVirtualPrograms) {
  DiagnosticEngine Engine;
  runAllCheckers(parseMT(BadAllocAsm), Engine); // not mapped: still virtual
  EXPECT_TRUE(byCheck(Engine, "cross-thread-race").empty());
}

// --- over-private advisor ------------------------------------------------

TEST(LintAdvisorTest, SuggestsNSRExclusionForClusteredReferences) {
  DiagnosticEngine Engine;
  runAllCheckers(parseMT(R"(
.thread accum
.entrylive buf
main:
    imm  acc, 1
    load w, [buf+0]
    add  acc, acc, w
    add  acc, acc, acc
    store [buf+0], acc
    halt
)"),
                 Engine);
  std::vector<Diagnostic> Notes = byCheck(Engine, "over-private");
  ASSERT_EQ(Notes.size(), 1u);
  EXPECT_EQ(Notes[0].Sev, Severity::Note);
  EXPECT_NE(Notes[0].Message.find("'acc'"), std::string::npos)
      << Notes[0].Message;
  EXPECT_NE(Notes[0].Message.find("NSR exclusion"), std::string::npos);
}

TEST(LintAdvisorTest, SilentWhenNoCheapSplitExists) {
  // buf crosses the load CSB but has only one reference per NSR, so a
  // split would not pay for its reconciling moves.
  DiagnosticEngine Engine;
  runAllCheckers(parseMT(R"(
.thread passthru
.entrylive buf
main:
    load w, [buf+0]
    store [buf+0], w
    halt
)"),
                 Engine);
  EXPECT_TRUE(byCheck(Engine, "over-private").empty());
}

TEST(LintAdvisorTest, AdvisoryGatingFollowsOptions) {
  MultiThreadProgram MTP = parseMT(R"(
.thread accum
.entrylive buf
main:
    imm  acc, 1
    load w, [buf+0]
    add  acc, acc, w
    add  acc, acc, acc
    store [buf+0], acc
    halt
)");
  {
    DiagnosticEngine Engine;
    LintOptions Opts;
    Opts.IncludeAdvice = false;
    runAllCheckers(MTP, Engine, Opts);
    EXPECT_TRUE(byCheck(Engine, "over-private").empty());
  }
  {
    // Naming an advisory checker runs it even with advice off.
    DiagnosticEngine Engine;
    LintOptions Opts;
    Opts.IncludeAdvice = false;
    Opts.OnlyChecks = {"over-private"};
    runAllCheckers(MTP, Engine, Opts);
    EXPECT_EQ(byCheck(Engine, "over-private").size(), 1u);
    EXPECT_EQ(Engine.size(), 1); // nothing else ran
  }
}

// --- options and driver --------------------------------------------------

TEST(LintDriverTest, OnlyChecksRestrictsTheRun) {
  MultiThreadProgram MTP = parseMT(R"(
.thread worker
main:
    imm  t, 5
    imm  a, 1
    mov  a, a
    storea 0x100, a
    halt
)");
  DiagnosticEngine Engine;
  LintOptions Opts;
  Opts.OnlyChecks = {"redundant-move"};
  runAllCheckers(MTP, Engine, Opts);
  ASSERT_EQ(Engine.size(), 1);
  EXPECT_EQ(Engine.diagnostics()[0].Check, "redundant-move");
}

TEST(LintDriverTest, JSONRoundTripsALintRun) {
  MultiThreadProgram MTP = parseMT(BadAllocAsm);
  ASSERT_TRUE(mapNamedPhysicalRegisters(MTP).ok());
  DiagnosticEngine Engine;
  runAllCheckers(MTP, Engine);
  ASSERT_GE(Engine.size(), 2);

  std::ostringstream OS;
  Engine.renderJSON(OS);
  ErrorOr<std::vector<Diagnostic>> Parsed = parseDiagnosticsJSON(OS.str());
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().str();
  ASSERT_EQ(static_cast<int>(Parsed->size()), Engine.size());
  for (size_t I = 0; I < Parsed->size(); ++I) {
    const Diagnostic &A = Engine.diagnostics()[I];
    const Diagnostic &B = (*Parsed)[I];
    EXPECT_EQ(A.Sev, B.Sev);
    EXPECT_EQ(A.Check, B.Check);
    EXPECT_EQ(A.Thread, B.Thread);
    EXPECT_EQ(A.Block, B.Block);
    EXPECT_EQ(A.Instr, B.Instr);
    EXPECT_EQ(A.Message, B.Message);
    EXPECT_EQ(A.Witness, B.Witness);
  }
}

// --- mapNamedPhysicalRegisters -------------------------------------------

TEST(MapPhysicalTest, MapsWellFormedNamesToIndices) {
  MultiThreadProgram MTP = parseMT(R"(
.thread t0
.entrylive p4
main:
    imm  p2, 1
    store [p4+0], p2
    halt
)");
  ASSERT_TRUE(mapNamedPhysicalRegisters(MTP).ok());
  const Program &P = MTP.Threads[0];
  EXPECT_TRUE(P.IsPhysical);
  EXPECT_EQ(P.NumRegs, 5); // p4 is the highest index
  EXPECT_EQ(P.block(0).Instrs[0].Def, 2);
  EXPECT_EQ(P.block(0).Instrs[1].Use1, 4);
  ASSERT_EQ(P.EntryLiveRegs.size(), 1u);
  EXPECT_EQ(P.EntryLiveRegs[0], 4);
  EXPECT_EQ(P.getRegName(2), "p2");
}

TEST(MapPhysicalTest, RejectsNonPhysicalNames) {
  MultiThreadProgram MTP = parseMT(R"(
.thread t0
main:
    imm  p1, 1
    imm  sum, 2
    add  p1, p1, sum
    storea 0x100, p1
    halt
)");
  Status S = mapNamedPhysicalRegisters(MTP);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::InvalidIR);
  EXPECT_NE(S.str().find("'sum'"), std::string::npos) << S.str();
  EXPECT_NE(S.str().find("p<N>"), std::string::npos) << S.str();

  MultiThreadProgram Empty;
  EXPECT_EQ(mapNamedPhysicalRegisters(Empty).code(), StatusCode::InvalidIR);
}

TEST(MapPhysicalTest, RejectsAbsurdIndices) {
  // p4294967296 is 2^32: an index computed in a 32-bit int would wrap to
  // p0 and be accepted.
  for (const char *Reg : {"p99999", "p4294967296"}) {
    SCOPED_TRACE(Reg);
    MultiThreadProgram MTP =
        parseMT(std::string(".thread t0\nmain:\n    imm  ") + Reg +
                ", 1\n    storea 0x100, " + Reg + "\n    halt\n");
    Status S = mapNamedPhysicalRegisters(MTP);
    ASSERT_FALSE(S.ok());
    EXPECT_EQ(S.code(), StatusCode::InvalidIR);
    EXPECT_NE(S.str().find("out of range"), std::string::npos) << S.str();
    EXPECT_NE(S.str().find(Reg + 1), std::string::npos) << S.str();
  }
}

} // namespace
