//===- Instruction.h - NPRAL instruction ------------------------*- C++ -*-===//
///
/// \file
/// A single three-address instruction. Register operands are dense integer
/// IDs; whether they denote virtual or physical registers is a property of
/// the containing Program.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_IR_INSTRUCTION_H
#define NPRAL_IR_INSTRUCTION_H

#include "ir/Opcode.h"

#include <array>
#include <cstdint>

namespace npral {

/// Register operand: an index into the program's register space.
using Reg = int32_t;

/// Sentinel for "no register in this slot".
constexpr Reg NoReg = -1;

/// Sentinel for "no branch target".
constexpr int NoBlock = -1;

/// One instruction. Fields not used by the opcode's OperandShape hold the
/// sentinel values.
struct Instruction {
  Opcode Op = Opcode::Nop;
  Reg Def = NoReg;
  Reg Use1 = NoReg;
  Reg Use2 = NoReg;
  int64_t Imm = 0;
  int Target = NoBlock; ///< Branch target block ID.

  Instruction() = default;
  explicit Instruction(Opcode Op) : Op(Op) {}

  const OpcodeInfo &info() const { return getOpcodeInfo(Op); }

  bool causesCtxSwitch() const { return info().CausesCtxSwitch; }
  bool isBranch() const { return info().IsBranch; }
  bool isTerminator() const { return info().IsTerminator; }

  /// Collect the (up to two) used registers into \p Out; returns the count.
  int getUses(std::array<Reg, 2> &Out) const {
    int N = 0;
    if (Use1 != NoReg)
      Out[N++] = Use1;
    if (Use2 != NoReg)
      Out[N++] = Use2;
    return N;
  }

  /// True if \p R appears in a use slot.
  bool usesReg(Reg R) const { return Use1 == R || Use2 == R; }

  // Convenience factories -------------------------------------------------

  static Instruction makeImm(Reg Rd, int64_t Value) {
    Instruction I(Opcode::Imm);
    I.Def = Rd;
    I.Imm = Value;
    return I;
  }
  static Instruction makeMov(Reg Rd, Reg Rs) {
    Instruction I(Opcode::Mov);
    I.Def = Rd;
    I.Use1 = Rs;
    return I;
  }
  static Instruction makeBinary(Opcode Op, Reg Rd, Reg Rs1, Reg Rs2) {
    Instruction I(Op);
    I.Def = Rd;
    I.Use1 = Rs1;
    I.Use2 = Rs2;
    return I;
  }
  static Instruction makeBinaryImm(Opcode Op, Reg Rd, Reg Rs, int64_t Value) {
    Instruction I(Op);
    I.Def = Rd;
    I.Use1 = Rs;
    I.Imm = Value;
    return I;
  }
  static Instruction makeUnary(Opcode Op, Reg Rd, Reg Rs) {
    Instruction I(Op);
    I.Def = Rd;
    I.Use1 = Rs;
    return I;
  }
  static Instruction makeLoad(Reg Rd, Reg Base, int64_t Offset) {
    Instruction I(Opcode::Load);
    I.Def = Rd;
    I.Use1 = Base;
    I.Imm = Offset;
    return I;
  }
  static Instruction makeStore(Reg Base, int64_t Offset, Reg Value) {
    Instruction I(Opcode::Store);
    I.Use1 = Base;
    I.Use2 = Value;
    I.Imm = Offset;
    return I;
  }
  static Instruction makeLoadAbs(Reg Rd, int64_t Address) {
    Instruction I(Opcode::LoadA);
    I.Def = Rd;
    I.Imm = Address;
    return I;
  }
  static Instruction makeStoreAbs(int64_t Address, Reg Value) {
    Instruction I(Opcode::StoreA);
    I.Use1 = Value;
    I.Imm = Address;
    return I;
  }
  static Instruction makeCtx() { return Instruction(Opcode::Ctx); }
  static Instruction makeBr(int Target) {
    Instruction I(Opcode::Br);
    I.Target = Target;
    return I;
  }
  static Instruction makeCondBrZ(Opcode Op, Reg Rs, int Target) {
    Instruction I(Op);
    I.Use1 = Rs;
    I.Target = Target;
    return I;
  }
  static Instruction makeHalt() { return Instruction(Opcode::Halt); }
  static Instruction makeLoopEnd() { return Instruction(Opcode::LoopEnd); }
  static Instruction makeNop() { return Instruction(Opcode::Nop); }
};

} // namespace npral

#endif // NPRAL_IR_INSTRUCTION_H
