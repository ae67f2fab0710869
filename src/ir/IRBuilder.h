//===- IRBuilder.h - Programmatic IR construction ---------------*- C++ -*-===//
///
/// \file
/// Convenience layer for building Programs from C++ (used by the generated
/// workloads such as md5, by tests, and by the random program generator).
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_IR_IRBUILDER_H
#define NPRAL_IR_IRBUILDER_H

#include "ir/Program.h"

#include <cassert>
#include <string>

namespace npral {

/// Builds one Program block by block. The builder keeps an insertion point
/// (always the end of the current block) and exposes one method per opcode
/// family.
class IRBuilder {
public:
  explicit IRBuilder(Program &P) : P(P) {}

  Program &program() { return P; }

  /// Create a register with an optional debug name.
  Reg reg(const std::string &Name = std::string()) { return P.addReg(Name); }

  /// Create a block but do not switch to it.
  int createBlock(const std::string &Name = std::string()) {
    return P.addBlock(Name);
  }

  /// Switch the insertion point to \p BlockId.
  void setInsertBlock(int BlockId) {
    assert(BlockId >= 0 && BlockId < P.getNumBlocks() && "bad block");
    CurBlock = BlockId;
  }

  /// Create a block and switch to it.
  int startBlock(const std::string &Name = std::string()) {
    int B = createBlock(Name);
    setInsertBlock(B);
    return B;
  }

  /// Set the fallthrough successor of the current block.
  void setFallThrough(int BlockId) { P.block(CurBlock).FallThrough = BlockId; }

  /// Append an already-formed instruction.
  void insert(const Instruction &I) { P.block(CurBlock).Instrs.push_back(I); }

  // Per-opcode helpers. Each returns the defined register where applicable.

  Reg imm(Reg Rd, int64_t V) {
    insert(Instruction::makeImm(Rd, V));
    return Rd;
  }
  Reg immNew(int64_t V, const std::string &Name = std::string()) {
    return imm(reg(Name), V);
  }
  Reg mov(Reg Rd, Reg Rs) {
    insert(Instruction::makeMov(Rd, Rs));
    return Rd;
  }
  Reg binop(Opcode Op, Reg Rd, Reg Rs1, Reg Rs2) {
    insert(Instruction::makeBinary(Op, Rd, Rs1, Rs2));
    return Rd;
  }
  Reg binopNew(Opcode Op, Reg Rs1, Reg Rs2,
               const std::string &Name = std::string()) {
    return binop(Op, reg(Name), Rs1, Rs2);
  }
  Reg binopImm(Opcode Op, Reg Rd, Reg Rs, int64_t V) {
    insert(Instruction::makeBinaryImm(Op, Rd, Rs, V));
    return Rd;
  }
  Reg unop(Opcode Op, Reg Rd, Reg Rs) {
    insert(Instruction::makeUnary(Op, Rd, Rs));
    return Rd;
  }
  Reg load(Reg Rd, Reg Base, int64_t Offset) {
    insert(Instruction::makeLoad(Rd, Base, Offset));
    return Rd;
  }
  void store(Reg Base, int64_t Offset, Reg Value) {
    insert(Instruction::makeStore(Base, Offset, Value));
  }
  void ctx() { insert(Instruction::makeCtx()); }
  void br(int Target) { insert(Instruction::makeBr(Target)); }
  void condBrZ(Opcode Op, Reg Rs, int Target) {
    insert(Instruction::makeCondBrZ(Op, Rs, Target));
  }
  void halt() { insert(Instruction::makeHalt()); }
  void loopEnd() { insert(Instruction::makeLoopEnd()); }
  void nop() { insert(Instruction::makeNop()); }

private:
  Program &P;
  int CurBlock = 0;
};

} // namespace npral

#endif // NPRAL_IR_IRBUILDER_H
