//===- IRTest.cpp - Opcode, Instruction, Program, CFG ---------------------===//

#include "ir/CFGUtils.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"
#include "ir/Opcode.h"
#include "ir/Program.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

using namespace npral;
using namespace npral::test;

namespace {

/// Successors of \p B as a vector, in the order successors() lists them.
std::vector<int> succs(const Program &P, int B) {
  SuccessorList S = P.successors(B);
  return {S.begin(), S.end()};
}

} // namespace

TEST(OpcodeTest, MnemonicRoundTrip) {
  for (int I = 0; I < getNumOpcodes(); ++I) {
    Opcode Op = static_cast<Opcode>(I);
    Opcode Parsed;
    ASSERT_TRUE(parseOpcode(getOpcodeInfo(Op).Mnemonic, Parsed))
        << "mnemonic of opcode " << I;
    EXPECT_EQ(Parsed, Op);
  }
}

TEST(OpcodeTest, UnknownMnemonicRejected) {
  Opcode Op;
  EXPECT_FALSE(parseOpcode("bogus", Op));
  EXPECT_FALSE(parseOpcode("", Op));
}

TEST(OpcodeTest, CtxSwitchClassification) {
  EXPECT_TRUE(getOpcodeInfo(Opcode::Load).CausesCtxSwitch);
  EXPECT_TRUE(getOpcodeInfo(Opcode::Store).CausesCtxSwitch);
  EXPECT_TRUE(getOpcodeInfo(Opcode::LoadA).CausesCtxSwitch);
  EXPECT_TRUE(getOpcodeInfo(Opcode::StoreA).CausesCtxSwitch);
  EXPECT_TRUE(getOpcodeInfo(Opcode::Ctx).CausesCtxSwitch);
  EXPECT_FALSE(getOpcodeInfo(Opcode::Add).CausesCtxSwitch);
  EXPECT_FALSE(getOpcodeInfo(Opcode::Br).CausesCtxSwitch);
}

TEST(InstructionTest, FactoriesFillSlots) {
  Instruction I = Instruction::makeBinary(Opcode::Add, 1, 2, 3);
  EXPECT_EQ(I.Def, 1);
  EXPECT_EQ(I.Use1, 2);
  EXPECT_EQ(I.Use2, 3);
  std::array<Reg, 2> Uses;
  EXPECT_EQ(I.getUses(Uses), 2);

  Instruction L = Instruction::makeLoad(4, 5, 16);
  EXPECT_EQ(L.Def, 4);
  EXPECT_EQ(L.Use1, 5);
  EXPECT_EQ(L.Imm, 16);
  EXPECT_TRUE(L.causesCtxSwitch());

  Instruction S = Instruction::makeStore(6, -4, 7);
  EXPECT_EQ(S.Def, NoReg);
  EXPECT_EQ(S.Use1, 6);
  EXPECT_EQ(S.Use2, 7);
  EXPECT_EQ(S.Imm, -4);

  Instruction Br = Instruction::makeBr(3);
  EXPECT_TRUE(Br.isTerminator());
  EXPECT_EQ(Br.Target, 3);
}

TEST(ProgramTest, SuccessorsOfBranchShapes) {
  Program P;
  P.Name = "succ";
  int B0 = P.addBlock();
  int B1 = P.addBlock();
  int B2 = P.addBlock();
  Reg R = P.addReg();
  // B0: cond-br to B2, fallthrough B1.
  P.block(B0).Instrs.push_back(Instruction::makeImm(R, 0));
  P.block(B0).Instrs.push_back(Instruction::makeCondBrZ(Opcode::BrZ, R, B2));
  P.block(B0).FallThrough = B1;
  // B1: br B2.
  P.block(B1).Instrs.push_back(Instruction::makeBr(B2));
  // B2: halt.
  P.block(B2).Instrs.push_back(Instruction::makeHalt());

  EXPECT_EQ(succs(P, B0), (std::vector<int>{B2, B1}));
  EXPECT_EQ(succs(P, B1), (std::vector<int>{B2}));
  EXPECT_TRUE(P.successors(B2).empty());
  ASSERT_TRUE(verifyProgram(P).ok());
}

TEST(ProgramTest, CondBrPlusFinalBrPattern) {
  Program P;
  int B0 = P.addBlock();
  int B1 = P.addBlock();
  int B2 = P.addBlock();
  Reg R = P.addReg();
  P.block(B0).Instrs.push_back(Instruction::makeImm(R, 0));
  P.block(B0).Instrs.push_back(Instruction::makeCondBrZ(Opcode::BrNz, R, B1));
  P.block(B0).Instrs.push_back(Instruction::makeBr(B2));
  P.block(B1).Instrs.push_back(Instruction::makeHalt());
  P.block(B2).Instrs.push_back(Instruction::makeHalt());
  EXPECT_EQ(succs(P, B0), (std::vector<int>{B1, B2}));
  EXPECT_TRUE(verifyProgram(P).ok());
}

TEST(ProgramTest, RPOStartsAtEntryAndCoversReachable) {
  Program P = parseOrDie(R"(
.thread rpo
a:
    imm x, 1
    bz  x, c
b:
    addi x, x, 1
c:
    halt
)");
  std::vector<int> RPO = P.computeRPO();
  ASSERT_EQ(RPO.size(), 3u);
  EXPECT_EQ(RPO.front(), P.getEntryBlock());
}

TEST(ProgramTest, CountsInstructionsAndCtx) {
  Program P = parseOrDie(R"(
.thread counts
main:
    imm  a, 1
    load b, [a+0]
    ctx
    mov  c, b
    store [a+1], c
    halt
)");
  EXPECT_EQ(P.countInstructions(), 6);
  EXPECT_EQ(P.countCtxInstructions(), 3);
  EXPECT_EQ(P.countMoves(), 1);
}

TEST(IRVerifierTest, RejectsBadOperandShape) {
  Program P;
  P.addBlock();
  P.addReg();
  Instruction I(Opcode::Add); // missing operands
  P.block(0).Instrs.push_back(I);
  P.block(0).Instrs.push_back(Instruction::makeHalt());
  EXPECT_FALSE(verifyProgram(P).ok());
}

TEST(IRVerifierTest, RejectsOutOfRangeRegister) {
  Program P;
  P.addBlock();
  P.NumRegs = 1;
  P.block(0).Instrs.push_back(Instruction::makeMov(0, 5));
  P.block(0).Instrs.push_back(Instruction::makeHalt());
  EXPECT_FALSE(verifyProgram(P).ok());
}

TEST(IRVerifierTest, RejectsMissingExit) {
  Program P;
  P.addBlock();
  Reg R = P.addReg();
  P.block(0).Instrs.push_back(Instruction::makeImm(R, 1));
  // No terminator, no fallthrough.
  EXPECT_FALSE(verifyProgram(P).ok());
}

TEST(IRVerifierTest, RejectsBranchInMiddle) {
  Program P;
  int B0 = P.addBlock();
  int B1 = P.addBlock();
  Reg R = P.addReg();
  P.block(B0).Instrs.push_back(Instruction::makeBr(B1));
  P.block(B0).Instrs.push_back(Instruction::makeImm(R, 1)); // dead, illegal
  P.block(B0).FallThrough = B1;
  P.block(B1).Instrs.push_back(Instruction::makeHalt());
  EXPECT_FALSE(verifyProgram(P).ok());
}

TEST(IRVerifierTest, RejectsBadEntryBlock) {
  Program P = makeTinyProgram();
  P.EntryBlock = 99;
  EXPECT_FALSE(verifyProgram(P).ok());
}

TEST(CFGUtilsTest, SplitEdgeRedirectsBranch) {
  Program P = parseOrDie(R"(
.thread split
a:
    imm x, 1
    bz  x, c
b:
    addi x, x, 1
c:
    halt
)");
  // Find block ids by name.
  int A = -1, C = -1;
  for (int B = 0; B < P.getNumBlocks(); ++B) {
    if (P.blockName(B) == "a")
      A = B;
    if (P.blockName(B) == "c")
      C = B;
  }
  ASSERT_GE(A, 0);
  ASSERT_GE(C, 0);
  int NewBlock = splitEdge(P, A, C);
  EXPECT_TRUE(verifyProgram(P).ok());
  // a no longer branches straight to c.
  for (const Instruction &I : P.block(A).Instrs)
    if (I.isBranch()) {
      EXPECT_EQ(I.Target, NewBlock);
    }
  // The new block falls straight to c.
  EXPECT_EQ(succs(P, NewBlock), (std::vector<int>{C}));
}

TEST(CFGUtilsTest, TerminatorGroupBegin) {
  Program P;
  int B0 = P.addBlock();
  int B1 = P.addBlock();
  Reg R = P.addReg();
  BasicBlock &BB = P.block(B0);
  BB.Instrs.push_back(Instruction::makeImm(R, 1));
  EXPECT_EQ(getTerminatorGroupBegin(BB), 1) << "no branch -> block size";
  BB.Instrs.push_back(Instruction::makeCondBrZ(Opcode::BrZ, R, B1));
  BB.Instrs.push_back(Instruction::makeBr(B1));
  EXPECT_EQ(getTerminatorGroupBegin(BB), 1) << "cond-br + br pair";
}

TEST(CFGUtilsTest, InsertAtClampsPastTerminator) {
  Program P;
  int B0 = P.addBlock();
  int B1 = P.addBlock();
  Reg R = P.addReg();
  P.block(B0).Instrs.push_back(Instruction::makeImm(R, 1));
  P.block(B0).Instrs.push_back(Instruction::makeBr(B1));
  P.block(B1).Instrs.push_back(Instruction::makeHalt());
  insertAt(P, ProgramPoint{B0, 99}, Instruction::makeImm(R, 2));
  ASSERT_EQ(P.block(B0).Instrs.size(), 3u);
  EXPECT_EQ(P.block(B0).Instrs[1].Op, Opcode::Imm)
      << "insertion lands before the terminator";
  EXPECT_TRUE(verifyProgram(P).ok());
}

TEST(IRPrinterTest, FormatsAllShapes) {
  Program P;
  P.addBlock("bb0");
  Reg A = P.addReg("a"), B = P.addReg("b"), C = P.addReg("c");
  EXPECT_EQ(formatInstruction(P, Instruction::makeImm(A, 42)), "imm a, 42");
  EXPECT_EQ(formatInstruction(P, Instruction::makeBinary(Opcode::Add, C, A, B)),
            "add c, a, b");
  EXPECT_EQ(formatInstruction(P, Instruction::makeLoad(A, B, 4)),
            "load a, [b+4]");
  EXPECT_EQ(formatInstruction(P, Instruction::makeStore(B, 2, C)),
            "store [b+2], c");
  EXPECT_EQ(formatInstruction(P, Instruction::makeStoreAbs(100, A)),
            "storea 100, a");
  EXPECT_EQ(formatInstruction(P, Instruction::makeLoadAbs(A, 100)),
            "loada a, 100");
  EXPECT_EQ(formatInstruction(P, Instruction::makeBr(0)), "br bb0");
  EXPECT_EQ(formatInstruction(P, Instruction::makeCtx()), "ctx");
}

TEST(IRBuilderTest, BuildsVerifiableProgram) {
  Program P;
  P.Name = "built";
  IRBuilder B(P);
  B.startBlock("entry");
  Reg X = B.immNew(5, "x");
  Reg Y = B.immNew(7, "y");
  Reg Z = B.binopNew(Opcode::Mul, X, Y, "z");
  Reg Addr = B.immNew(0x2000, "addr");
  B.store(Addr, 0, Z);
  B.halt();
  ASSERT_TRUE(verifyProgram(P).ok());
  auto Run = npral::test::runSingle(P);
  ASSERT_TRUE(Run.Result.Completed) << Run.Result.FailReason;
}
