//===- AsmParserTest.cpp --------------------------------------------------===//

#include "asmparse/AsmParser.h"

#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

using namespace npral;
using namespace npral::test;

TEST(AsmParserTest, MinimalProgram) {
  Program P = parseOrDie(".thread t\nmain:\n  halt\n");
  EXPECT_EQ(P.Name, "t");
  EXPECT_EQ(P.getNumBlocks(), 1);
  EXPECT_EQ(P.block(0).Instrs.size(), 1u);
}

TEST(AsmParserTest, ImplicitEntryBlock) {
  Program P = parseOrDie(".thread t\n  imm a, 1\n  halt\n");
  EXPECT_EQ(P.blockName(0), "entry");
}

TEST(AsmParserTest, RegistersAreImplicitlyDeclared) {
  Program P = parseOrDie(R"(
.thread t
main:
    imm  a, 1
    add  b, a, a
    halt
)");
  EXPECT_EQ(P.NumRegs, 2);
  EXPECT_EQ(P.getRegName(0), "a");
  EXPECT_EQ(P.getRegName(1), "b");
}

TEST(AsmParserTest, EntryLiveDirective) {
  Program P = parseOrDie(R"(
.thread t
.entrylive buf, len
main:
    add  x, buf, len
    halt
)");
  ASSERT_EQ(P.EntryLiveRegs.size(), 2u);
  EXPECT_EQ(P.getRegName(P.EntryLiveRegs[0]), "buf");
  EXPECT_EQ(P.getRegName(P.EntryLiveRegs[1]), "len");
}

TEST(AsmParserTest, MemOperands) {
  Program P = parseOrDie(R"(
.thread t
main:
    imm   b, 0x100
    load  a, [b+4]
    load  c, [b]
    store [b+8], a
    storea 256, c
    loada d, 257
    store [b+0], d
    halt
)");
  const auto &I = P.block(0).Instrs;
  EXPECT_EQ(I[1].Imm, 4);
  EXPECT_EQ(I[2].Imm, 0);
  EXPECT_EQ(I[3].Imm, 8);
  EXPECT_EQ(I[4].Imm, 256);
  EXPECT_EQ(I[5].Imm, 257);
}

TEST(AsmParserTest, BranchTargetsResolveForwardAndBack) {
  Program P = parseOrDie(R"(
.thread t
top:
    imm  a, 3
loop:
    subi a, a, 1
    bnz  a, loop
    bz   a, done
    br   top
done:
    halt
)");
  ASSERT_TRUE(verifyProgram(P).ok());
  // bnz targets 'loop'.
  bool SawBack = false, SawFwd = false;
  for (int B = 0; B < P.getNumBlocks(); ++B)
    for (const Instruction &I : P.block(B).Instrs) {
      if (I.Op == Opcode::BrNz)
        SawBack = P.blockName(I.Target) == "loop";
      if (I.Op == Opcode::BrZ)
        SawFwd = P.blockName(I.Target) == "done";
    }
  EXPECT_TRUE(SawBack);
  EXPECT_TRUE(SawFwd);
}

TEST(AsmParserTest, MidStreamConditionalSplitsBlock) {
  Program P = parseOrDie(R"(
.thread t
main:
    imm  a, 1
    bz   a, out
    addi a, a, 1
out:
    halt
)");
  // The addi after the bz must live in its own (fallthrough) block.
  EXPECT_GE(P.getNumBlocks(), 3);
  ASSERT_TRUE(verifyProgram(P).ok());
}

TEST(AsmParserTest, CommentsAndBlankLines) {
  Program P = parseOrDie(R"(
; leading comment
.thread t    ; trailing comment

main:        # hash comment
    imm a, 1 ; mid-line
    halt
)");
  EXPECT_EQ(P.countInstructions(), 2);
}

TEST(AsmParserTest, MultipleThreads) {
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(R"(
.thread one
main:
    halt
.thread two
main:
    imm a, 1
    halt
)");
  ASSERT_TRUE(MTP.ok()) << MTP.status().str();
  ASSERT_EQ(MTP->Threads.size(), 2u);
  EXPECT_EQ(MTP->Threads[0].Name, "one");
  EXPECT_EQ(MTP->Threads[1].Name, "two");
  EXPECT_EQ(MTP->Threads[1].NumRegs, 1);
}

TEST(AsmParserTest, ErrorUnknownMnemonic) {
  auto R = parseSingleProgram(".thread t\nmain:\n  frobnicate a, b\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.status().str().find("unknown mnemonic"), std::string::npos);
}

TEST(AsmParserTest, ErrorUndefinedLabel) {
  auto R = parseSingleProgram(".thread t\nmain:\n  br nowhere\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.status().str().find("undefined label"), std::string::npos);
}

TEST(AsmParserTest, ErrorDuplicateLabel) {
  auto R = parseSingleProgram(".thread t\na:\n  halt\na:\n  halt\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.status().str().find("duplicate label"), std::string::npos);
}

TEST(AsmParserTest, LabelRenamesParserNamedBlock) {
  // The `br` after the bz opens a block the parser names "bb1"; the later
  // label bb1 takes the name (and the branch), and the parser's block
  // becomes bb1.1.
  Program P = parseOrDie(R"(
.thread t
main:
    imm a, 1
    bz  a, bb2
    br  bb1
bb1:
    halt
bb2:
    halt
)");
  ASSERT_EQ(P.getNumBlocks(), 4);
  EXPECT_EQ(P.blockName(1), "bb1.1");
  EXPECT_EQ(P.blockName(2), "bb1");
  EXPECT_EQ(P.block(1).Instrs.back().Target, 2);
  EXPECT_EQ(P.block(0).Instrs.back().Target, 3);
}

TEST(AsmParserTest, ErrorMissingOperand) {
  auto R = parseSingleProgram(".thread t\nmain:\n  add a, b\n  halt\n");
  ASSERT_FALSE(R.ok());
}

TEST(AsmParserTest, ErrorTrailingTokens) {
  auto R = parseSingleProgram(".thread t\nmain:\n  ctx extra\n  halt\n");
  ASSERT_FALSE(R.ok());
}

TEST(AsmParserTest, EntryLiveDeclaresRegister) {
  // .entrylive declares registers even when nothing references them (they
  // may be consumed only inside expanded .func bodies).
  auto R = parseSingleProgram(R"(
.thread t
.entrylive ghost
main:
    halt
)");
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_EQ(R->EntryLiveRegs.size(), 1u);
  EXPECT_EQ(R->getRegName(R->EntryLiveRegs[0]), "ghost");
}

TEST(AsmParserTest, ErrorLocationsAreReported) {
  auto R = parseSingleProgram(".thread t\nmain:\n  imm a\n");
  ASSERT_FALSE(R.ok());
  EXPECT_GT(R.status().loc().Line, 0);
}

TEST(AsmParserTest, PrintParseRoundTrip) {
  Program P = parseOrDie(R"(
.thread round
.entrylive buf
main:
    imm  sum, 0
    imm  cnt, 3
loop:
    load w, [buf+0]
    add  sum, sum, w
    addi buf, buf, 1
    subi cnt, cnt, 1
    bnz  cnt, loop
    store [buf+100], sum
    ctx
    loopend
    halt
)");
  std::string Printed = programToString(P);
  Program P2 = parseOrDie(Printed);
  // Same structure.
  EXPECT_EQ(P2.getNumBlocks(), P.getNumBlocks());
  EXPECT_EQ(P2.countInstructions(), P.countInstructions());
  EXPECT_EQ(P2.NumRegs, P.NumRegs);
  // Same behaviour.
  auto R1 = runSingle(P, {0x1000}, 0x1000, 128,
                      std::vector<uint32_t>{7, 8, 9});
  auto R2 = runSingle(P2, {0x1000}, 0x1000, 128,
                      std::vector<uint32_t>{7, 8, 9});
  ASSERT_TRUE(R1.Result.Completed);
  ASSERT_TRUE(R2.Result.Completed);
  EXPECT_EQ(R1.OutputHash, R2.OutputHash);
}
