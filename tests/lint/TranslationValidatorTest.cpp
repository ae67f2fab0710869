//===- TranslationValidatorTest.cpp - Translation validation tests --------===//
//
// The translation validator must prove every allocator output over the
// shipped example programs — unit-cost, profile-guided, and spill-degraded
// paths alike — and must reject hand-miscompiled physical programs with a
// witness that names the offending instruction pair.
//
//===----------------------------------------------------------------------===//

#include "lint/TranslationValidator.h"

#include "alloc/MoveElimination.h"
#include "analysis/LiveRangeRenaming.h"
#include "asmparse/AsmParser.h"
#include "harden/SpillFallback.h"
#include "lint/Lint.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

using namespace npral;
using namespace npral::test;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

MultiThreadProgram parseMT(const std::string &Asm) {
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(Asm);
  EXPECT_TRUE(MTP.ok()) << MTP.status().str();
  return MTP.ok() ? MTP.take() : MultiThreadProgram();
}

MultiThreadProgram renameAll(const MultiThreadProgram &MTP) {
  MultiThreadProgram Renamed;
  Renamed.Name = MTP.Name;
  for (const Program &T : MTP.Threads)
    Renamed.Threads.push_back(renameLiveRanges(T));
  return Renamed;
}

/// Diagnostics rendered as text, for failure messages.
std::string renderDiags(DiagnosticEngine &Engine) {
  std::ostringstream OS;
  Engine.renderText(OS);
  return OS.str();
}

/// Split a paired program (virtual threads followed by as many
/// hand-written physical threads with p<N> register names) into its two
/// halves, as `npralc verify --paired` does.
std::pair<MultiThreadProgram, MultiThreadProgram>
splitPaired(const std::string &Asm) {
  MultiThreadProgram All = parseMT(Asm);
  EXPECT_EQ(All.getNumThreads() % 2, 0) << "paired program needs equal halves";
  const int Half = All.getNumThreads() / 2;
  MultiThreadProgram Virt, Phys;
  Virt.Name = All.Name;
  Phys.Name = All.Name;
  for (int T = 0; T < All.getNumThreads(); ++T)
    (T < Half ? Virt : Phys)
        .Threads.push_back(All.Threads[static_cast<size_t>(T)]);
  EXPECT_TRUE(mapNamedPhysicalRegisters(Phys).ok());
  return {std::move(Virt), std::move(Phys)};
}

/// Validate the physical half of a paired program against its virtual half.
ValidationResult validatePaired(const std::string &Asm,
                                DiagnosticEngine &Engine) {
  auto [Virt, Phys] = splitPaired(Asm);
  return validateTranslation(Virt, Phys, Engine);
}

const char *TwoThreadsAsm = R"(
.thread checksum
.entrylive buf, out
main:
    imm  sum, 0
    imm  cnt, 8
loop:
    load w, [buf+0]
    add  sum, sum, w
    addi buf, buf, 1
    subi cnt, cnt, 1
    bnz  cnt, loop
    store [out+0], sum
    loopend
    halt

.thread counter
main:
    imm  n, 16
loop:
    ctx
    subi n, n, 1
    bnz  n, loop
    imm  addr, 0x300
    store [addr+0], n
    loopend
    halt
)";

TEST(TranslationValidator, ProvesUnitAllocation) {
  MultiThreadProgram Renamed = renameAll(parseMT(TwoThreadsAsm));
  InterThreadResult R = allocateInterThread(Renamed, 8);
  ASSERT_TRUE(R.Success) << R.FailReason;

  DiagnosticEngine Engine;
  ValidationResult V = validateTranslation(Renamed, R.Physical, Engine);
  EXPECT_TRUE(V.Proved) << renderDiags(Engine);
  EXPECT_EQ(V.ThreadsProved, 2);
  EXPECT_GT(V.InstructionsMatched, 0);
  EXPECT_TRUE(Engine.empty()) << renderDiags(Engine);
}

TEST(TranslationValidator, CountsThreadsAndUpdatesMetrics) {
  MultiThreadProgram Renamed = renameAll(parseMT(TwoThreadsAsm));
  InterThreadResult R = allocateInterThread(Renamed, 8);
  ASSERT_TRUE(R.Success);

  MetricsRegistry Metrics;
  DiagnosticEngine Engine;
  ValidationResult V = validateTranslation(Renamed, R.Physical, Engine,
                                           &Metrics);
  ASSERT_TRUE(V.Proved) << renderDiags(Engine);
  EXPECT_EQ(Metrics.counterValue("validator.proved"), 1);
  EXPECT_EQ(Metrics.counterValue("validator.rejected"), 0);
  EXPECT_EQ(Metrics.counterValue("validator.instructions_matched"),
            V.InstructionsMatched);
  EXPECT_EQ(Metrics.counterValue("validator.copies_interpreted"),
            V.CopiesInterpreted);
}

TEST(TranslationValidator, RejectsSwappedOperand) {
  MultiThreadProgram Renamed = renameAll(parseMT(TwoThreadsAsm));
  InterThreadResult R = allocateInterThread(Renamed, 8);
  ASSERT_TRUE(R.Success);

  // Miscompile: make the checksum accumulate the counter register instead
  // of the loaded word (swap one operand of the add).
  MultiThreadProgram Bad = R.Physical;
  bool Mutated = false;
  for (BasicBlock &BB : Bad.Threads[0].Blocks)
    for (Instruction &I : BB.Instrs)
      if (!Mutated && I.Op == Opcode::Add && I.Use1 != I.Use2) {
        std::swap(I.Use1, I.Use2);
        Mutated = I.Use1 != I.Use2;
      }
  ASSERT_TRUE(Mutated);

  DiagnosticEngine Engine;
  ValidationResult V = validateTranslation(Renamed, Bad, Engine);
  // Either the swap is caught as an operand mismatch, or the operands
  // happened to carry equal values (impossible here: sum != w).
  EXPECT_FALSE(V.Proved);
  ASSERT_TRUE(Engine.hasErrors());
  EXPECT_EQ(Engine.firstError()->Check, "translation-validation");
  EXPECT_NE(Engine.firstError()->Witness.find("physical `"),
            std::string::npos)
      << "witness must quote the offending physical instruction";
  EXPECT_NE(Engine.firstError()->Witness.find("path: "), std::string::npos)
      << "witness must carry a block path from entry";
}

TEST(TranslationValidator, RejectsChangedImmediate) {
  MultiThreadProgram Renamed = renameAll(parseMT(TwoThreadsAsm));
  InterThreadResult R = allocateInterThread(Renamed, 8);
  ASSERT_TRUE(R.Success);

  MultiThreadProgram Bad = R.Physical;
  bool Mutated = false;
  for (BasicBlock &BB : Bad.Threads[0].Blocks)
    for (Instruction &I : BB.Instrs)
      if (!Mutated && I.Op == Opcode::Imm) {
        I.Imm += 1;
        Mutated = true;
      }
  ASSERT_TRUE(Mutated);

  DiagnosticEngine Engine;
  ValidationResult V = validateTranslation(Renamed, Bad, Engine);
  EXPECT_FALSE(V.Proved);
  EXPECT_TRUE(Engine.hasErrors());
}

TEST(TranslationValidator, RejectsDroppedInstruction) {
  MultiThreadProgram Renamed = renameAll(parseMT(TwoThreadsAsm));
  InterThreadResult R = allocateInterThread(Renamed, 8);
  ASSERT_TRUE(R.Success);

  MultiThreadProgram Bad = R.Physical;
  // Drop the store that publishes the checksum.
  bool Mutated = false;
  for (BasicBlock &BB : Bad.Threads[0].Blocks)
    for (size_t I = 0; I < BB.Instrs.size(); ++I)
      if (!Mutated && BB.Instrs[I].Op == Opcode::Store) {
        BB.Instrs.erase(BB.Instrs.begin() + static_cast<long>(I));
        Mutated = true;
        break;
      }
  ASSERT_TRUE(Mutated);

  DiagnosticEngine Engine;
  ValidationResult V = validateTranslation(Renamed, Bad, Engine);
  EXPECT_FALSE(V.Proved);
  EXPECT_TRUE(Engine.hasErrors());
}

TEST(TranslationValidator, RejectsThreadCountMismatch) {
  MultiThreadProgram Renamed = renameAll(parseMT(TwoThreadsAsm));
  InterThreadResult R = allocateInterThread(Renamed, 8);
  ASSERT_TRUE(R.Success);
  MultiThreadProgram Bad = R.Physical;
  Bad.Threads.pop_back();

  DiagnosticEngine Engine;
  MetricsRegistry Metrics;
  ValidationResult V = validateTranslation(Renamed, Bad, Engine, &Metrics);
  EXPECT_FALSE(V.Proved);
  EXPECT_TRUE(Engine.hasErrors());
  EXPECT_EQ(Metrics.counterValue("validator.rejected"), 1);
}

TEST(TranslationValidator, ProvesSpillDegradedAllocation) {
  MultiThreadProgram Renamed = renameAll(parseMT(TwoThreadsAsm));
  std::vector<std::shared_ptr<const ThreadAnalysisBundle>> Bundles;
  std::vector<CostModel> Models;

  // Squeeze until the plain allocator gives up and the fallback spills.
  SpillFallbackResult SF;
  bool Spilled = false;
  for (int Nreg = 6; Nreg >= 2 && !Spilled; --Nreg) {
    SF = allocateWithSpillFallback(Renamed, Nreg, Bundles, Models, nullptr,
                                   InterAllocLimits());
    Spilled = SF.Inter.Success && SF.UsedSpilling;
  }
  ASSERT_TRUE(Spilled) << "no budget forced the spill fallback";

  // The reference is the *pre-spill* renamed program: spill code must be
  // recognised as inserted scratch traffic, including the pre-entry block.
  DiagnosticEngine Engine;
  ValidationResult V =
      validateTranslation(Renamed, SF.Inter.Physical, Engine);
  EXPECT_TRUE(V.Proved) << renderDiags(Engine);
  EXPECT_GT(V.CopiesInterpreted, 0)
      << "spill loads/stores must be interpreted, not matched";
}

TEST(TranslationValidator, ProvesAllExampleProgramsAllPaths) {
  int Provable = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(NPRAL_EXAMPLES_ASM_DIR)) {
    if (Entry.path().extension() != ".s")
      continue;
    const std::string Name = Entry.path().filename().string();
    if (Name == "bad_swap.s")
      continue; // the deliberately-miscompiled fixture
    ErrorOr<MultiThreadProgram> Parsed =
        parseAssembly(readFile(Entry.path().string()));
    ASSERT_TRUE(Parsed.ok()) << Name << ": " << Parsed.status().str();
    MultiThreadProgram Renamed = renameAll(Parsed.take());

    std::vector<std::shared_ptr<const ThreadAnalysisBundle>> Bundles;
    std::vector<CostModel> Models;
    SpillFallbackResult SF = allocateWithSpillFallback(
        Renamed, 128, Bundles, Models, nullptr, InterAllocLimits());
    if (!SF.Inter.Success)
      continue; // not allocatable even with spilling (counted below)

    DiagnosticEngine Engine;
    ValidationResult V =
        validateTranslation(Renamed, SF.Inter.Physical, Engine);
    EXPECT_TRUE(V.Proved) << Name << ":\n" << renderDiags(Engine);
    if (V.Proved)
      ++Provable;
  }
  // The shipped example set must keep at least 12 programs that allocate
  // and prove (ISSUE acceptance); growing the set is fine.
  EXPECT_GE(Provable, 12);
}

TEST(TranslationValidator, RejectsBadSwapFixture) {
  DiagnosticEngine Engine;
  ValidationResult V = validatePaired(
      readFile(std::string(NPRAL_EXAMPLES_ASM_DIR) + "/bad_swap.s"), Engine);
  EXPECT_FALSE(V.Proved);
  ASSERT_TRUE(Engine.hasErrors());
  const Diagnostic *D = Engine.firstError();
  EXPECT_EQ(D->Check, "translation-validation");
  EXPECT_NE(D->Message.find("does not carry the value"), std::string::npos)
      << "bad_swap must fail as an operand value mismatch, got: "
      << D->Message;
}

// A copy swap in front of a xor of the two swapped values: the swap is read
// as an exchange before any xor is matched, though its first xor carries
// the operand values of the pending virtual xor.
TEST(TranslationValidator, CopySwapBeforeXorOfSwappedValuesProves) {
  DiagnosticEngine Engine;
  ValidationResult V = validatePaired(
      readFile(std::string(NPRAL_EXAMPLES_ASM_DIR) +
               "/paired/xor_swap_paired.s"),
      Engine);
  EXPECT_TRUE(V.Proved) << renderDiags(Engine);
  EXPECT_EQ(V.InstructionsMatched, 6);
  EXPECT_EQ(V.CopiesInterpreted, 3);
}

// A swap in the virtual program is matched by its physical image like any
// other three instructions: whole, with a copy inside it, and when the
// virtual swap computes into fresh registers that the image colors back
// into the swap idiom.
TEST(TranslationValidator, VirtualSwapMatchesItsImage) {
  const std::string Virtual = R"(
.thread swap
.entrylive a, b, out
main:
    xor  a, a, b
    xor  b, a, b
    xor  a, a, b
    sub  d, a, b
    store [out+0], d
    loopend
    halt
)";
  auto physical = [](const char *Copy) {
    return std::string(R"(
.thread swap.phys
.entrylive p0, p1, p2
main:
    xor  p0, p0, p1
)") + Copy + R"(
    xor  p1, p0, p1
    xor  p0, p0, p1
    sub  p3, p0, p1
    store [p2+0], p3
    loopend
    halt
)";
  };

  DiagnosticEngine Whole;
  ValidationResult V = validatePaired(Virtual + physical(""), Whole);
  EXPECT_TRUE(V.Proved) << renderDiags(Whole);
  EXPECT_EQ(V.InstructionsMatched, 7);
  EXPECT_EQ(V.CopiesInterpreted, 0);

  DiagnosticEngine Split;
  V = validatePaired(Virtual + physical("    mov  p4, p2"), Split);
  EXPECT_TRUE(V.Proved) << renderDiags(Split);
  EXPECT_EQ(V.InstructionsMatched, 7);
  EXPECT_EQ(V.CopiesInterpreted, 1);

  const std::string Computed = R"(
.thread swap
.entrylive a, b, out
main:
    xor  c, a, b
    xor  e, c, b
    xor  f, c, e
    sub  d, f, e
    store [out+0], d
    loopend
    halt
)";
  DiagnosticEngine Colored;
  V = validatePaired(Computed + physical(""), Colored);
  EXPECT_TRUE(V.Proved) << renderDiags(Colored);
  EXPECT_EQ(V.InstructionsMatched, 7);
  EXPECT_EQ(V.CopiesInterpreted, 0);
}

// Xor is matched like add, operands in order: the commuted operands compute
// the same value, but only the allocator's own swap is read algebraically.
TEST(TranslationValidator, RejectsCommutedXorOperands) {
  DiagnosticEngine Engine;
  ValidationResult V = validatePaired(R"(
.thread cx
.entrylive b, a, out
main:
    xor  d, a, b
    store [out+0], d
    loopend
    halt

.thread cx.phys
.entrylive p0, p1, p3
main:
    xor  p2, p0, p1
    store [p3+0], p2
    loopend
    halt
)",
                                      Engine);
  EXPECT_FALSE(V.Proved);
  ASSERT_TRUE(Engine.hasErrors());
  const Diagnostic *D = Engine.firstError();
  EXPECT_EQ(D->Message, "operand 'p0' does not carry the value of virtual 'a'");
  EXPECT_EQ(D->Witness,
            "physical `xor p2, p0, p1` | virtual `xor d, a, b` | path: main");
}

// Two xors that cancel leave p0 as it was, but they are neither a swap nor
// the image of a virtual xor.
TEST(TranslationValidator, RejectsCancellingXors) {
  DiagnosticEngine Engine;
  ValidationResult V = validatePaired(R"(
.thread cancel
.entrylive a, b, out
main:
    store [out+0], a
    loopend
    halt

.thread cancel.phys
.entrylive p0, p1, p2
main:
    xor  p0, p0, p1
    xor  p0, p0, p1
    store [p2+0], p0
    loopend
    halt
)",
                                      Engine);
  EXPECT_FALSE(V.Proved);
  ASSERT_TRUE(Engine.hasErrors());
  EXPECT_EQ(Engine.firstError()->Message,
            "physical instruction does not match the pending virtual "
            "instruction");
}

TEST(TranslationValidator, MoveEliminationOutputStillProves) {
  MultiThreadProgram Renamed = renameAll(parseMT(TwoThreadsAsm));
  InterThreadResult R = allocateInterThread(Renamed, 8);
  ASSERT_TRUE(R.Success);
  for (Program &T : R.Physical.Threads)
    eliminateRedundantMoves(T);

  DiagnosticEngine Engine;
  ValidationResult V = validateTranslation(Renamed, R.Physical, Engine);
  EXPECT_TRUE(V.Proved) << renderDiags(Engine);
}

TEST(CrossCheckDecisionLog, ConsistentLogPasses) {
  MultiThreadProgram Renamed = renameAll(parseMT(TwoThreadsAsm));
  std::vector<std::shared_ptr<const ThreadAnalysisBundle>> Bundles;
  std::vector<CostModel> Models;
  AllocationDecisionLog Log;
  InterThreadResult R =
      allocateInterThread(Renamed, 6, Bundles, Models, &Log);
  ASSERT_TRUE(R.Success) << R.FailReason;

  DiagnosticEngine Engine;
  MetricsRegistry Metrics;
  EXPECT_EQ(crossCheckDecisionLog(Log, R, Engine, &Metrics), 0)
      << renderDiags(Engine);
  EXPECT_TRUE(Engine.empty());
  EXPECT_EQ(Metrics.counterValue("validator.log_crosschecks"), 1);
  EXPECT_EQ(Metrics.counterValue("validator.log_mismatches"), 0);
}

TEST(CrossCheckDecisionLog, TamperedLogIsCaught) {
  MultiThreadProgram Renamed = renameAll(parseMT(TwoThreadsAsm));
  std::vector<std::shared_ptr<const ThreadAnalysisBundle>> Bundles;
  std::vector<CostModel> Models;
  AllocationDecisionLog Log;
  InterThreadResult R =
      allocateInterThread(Renamed, 6, Bundles, Models, &Log);
  ASSERT_TRUE(R.Success);

  AllocationDecisionLog Tampered = Log;
  Tampered.RegistersUsed += 1;
  if (!Tampered.FinalPR.empty())
    Tampered.FinalPR[0] += 1;

  DiagnosticEngine Engine;
  EXPECT_GT(crossCheckDecisionLog(Tampered, R, Engine), 0);
  EXPECT_TRUE(Engine.hasErrors());
  EXPECT_EQ(Engine.firstError()->Check, "validator-log");
}

} // namespace
