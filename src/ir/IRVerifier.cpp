//===- IRVerifier.cpp -----------------------------------------------------===//

#include "ir/IRVerifier.h"

#include "ir/IRPrinter.h"
#include "support/StringUtils.h"

using namespace npral;

namespace {

class Verifier {
public:
  explicit Verifier(const Program &P) : P(P) {}

  Status run() {
    if (P.Blocks.empty())
      return fail("program has no blocks");
    if (P.EntryBlock < 0 || P.EntryBlock >= P.getNumBlocks())
      return fail("entry block out of range");
    for (int B = 0; B < P.getNumBlocks(); ++B) {
      if (Status S = checkBlock(B); !S.ok())
        return S;
    }
    for (Reg R : P.EntryLiveRegs)
      if (!regOk(R))
        return fail("entry-live register out of range");
    return Status::success();
  }

private:
  const Program &P;

  Status fail(const std::string &Message) const {
    return Status::error(StatusCode::InvalidIR,
                         "program '" + P.Name + "': " + Message);
  }

  bool regOk(Reg R) const { return R >= 0 && R < P.NumRegs; }
  bool blockOk(int B) const { return B >= 0 && B < P.getNumBlocks(); }

  Status checkBlock(int B) {
    const BasicBlock &BB = P.block(B);
    if (BB.Id != B)
      return fail("block ID mismatch at index " + std::to_string(B));

    for (size_t I = 0; I < BB.Instrs.size(); ++I) {
      const Instruction &Inst = BB.Instrs[I];
      if (Status S = checkInstruction(BB, Inst); !S.ok())
        return S;
      if (Status S = checkPosition(BB, I); !S.ok())
        return S;
    }

    // Every block needs an exit.
    bool EndsClosed = !BB.Instrs.empty() && (BB.Instrs.back().isTerminator());
    if (!EndsClosed && !blockOk(BB.FallThrough))
      return fail("block '" + std::string(P.blockName(B)) +
                  "' has no terminator and no valid "
                  "fallthrough");
    if (EndsClosed && BB.FallThrough != NoBlock)
      return fail("block '" + std::string(P.blockName(B)) +
                  "' has both a terminator and a "
                  "fallthrough");
    return Status::success();
  }

  Status checkInstruction(const BasicBlock &BB, const Instruction &I) {
    if (I.Op == Opcode::Call || I.Op == Opcode::Ret)
      return fail("in block '" + std::string(P.blockName(BB.Id)) + "': '" +
                  std::string(I.info().Mnemonic) +
                  "' must be expanded by the assembler and cannot appear in "
                  "a final program");
    const OpcodeInfo &Info = I.info();
    auto badShape = [&](const char *What) {
      return fail("in block '" + std::string(P.blockName(BB.Id)) +
                  "', instruction '" +
                  formatInstruction(P, I) + "': " + What);
    };

    bool NeedDef = false, NeedUse1 = false, NeedUse2 = false,
         NeedTarget = false;
    switch (Info.Shape) {
    case OperandShape::None:
      break;
    case OperandShape::DefImm:
      NeedDef = true;
      break;
    case OperandShape::DefUse:
      NeedDef = NeedUse1 = true;
      break;
    case OperandShape::DefUseUse:
      NeedDef = NeedUse1 = NeedUse2 = true;
      break;
    case OperandShape::DefUseImm:
      NeedDef = NeedUse1 = true;
      break;
    case OperandShape::UseUseImm:
      NeedUse1 = NeedUse2 = true;
      break;
    case OperandShape::UseImm:
      NeedUse1 = true;
      break;
    case OperandShape::ImmOnly:
      break;
    case OperandShape::Target:
      NeedTarget = true;
      break;
    case OperandShape::UseUseTarget:
      NeedUse1 = NeedUse2 = NeedTarget = true;
      break;
    case OperandShape::UseTarget:
      NeedUse1 = NeedTarget = true;
      break;
    }

    if (NeedDef != (I.Def != NoReg))
      return badShape("def slot does not match operand shape");
    if (NeedUse1 != (I.Use1 != NoReg))
      return badShape("use1 slot does not match operand shape");
    if (NeedUse2 != (I.Use2 != NoReg))
      return badShape("use2 slot does not match operand shape");
    if (NeedTarget != (I.Target != NoBlock))
      return badShape("target slot does not match operand shape");

    if (I.Def != NoReg && !regOk(I.Def))
      return badShape("def register out of range");
    if (I.Use1 != NoReg && !regOk(I.Use1))
      return badShape("use register out of range");
    if (I.Use2 != NoReg && !regOk(I.Use2))
      return badShape("use register out of range");
    if (I.Target != NoBlock && !blockOk(I.Target))
      return badShape("branch target out of range");
    return Status::success();
  }

  /// Branches and halt may only appear in terminator position; the single
  /// allowed exception is a conditional branch immediately followed by the
  /// block's final unconditional `br`.
  Status checkPosition(const BasicBlock &BB, size_t Index) {
    const Instruction &I = BB.Instrs[Index];
    bool IsControl = I.isBranch() || I.Op == Opcode::Halt;
    if (!IsControl)
      return Status::success();
    if (Index + 1 == BB.Instrs.size())
      return Status::success();
    bool CondBeforeFinalBr = I.isBranch() && I.Op != Opcode::Br &&
                             Index + 2 == BB.Instrs.size() &&
                             BB.Instrs.back().Op == Opcode::Br;
    if (CondBeforeFinalBr)
      return Status::success();
    return fail("control-flow instruction '" + formatInstruction(P, I) +
                "' in block '" + std::string(P.blockName(BB.Id)) +
                "' is not in terminator position");
  }
};

} // namespace

Status npral::verifyProgram(const Program &P) { return Verifier(P).run(); }
