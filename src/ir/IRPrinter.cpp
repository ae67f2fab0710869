//===- IRPrinter.cpp ------------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "support/StringUtils.h"

using namespace npral;

static void appendBlockLabel(std::string &Out, const Program &P,
                             int BlockId) {
  if (BlockId == NoBlock) {
    Out += "<none>";
  } else if (BlockId < 0 || BlockId >= P.getNumBlocks()) {
    // The verifier formats malformed instructions, so a dangling target
    // must render instead of indexing out of range.
    Out += "<invalid:";
    appendInteger(Out, BlockId);
    Out += '>';
  } else {
    Out += P.blockName(BlockId);
  }
}

void npral::appendInstruction(std::string &Out, const Program &P,
                              const Instruction &I) {
  const OpcodeInfo &Info = I.info();
  Out += Info.Mnemonic;

  auto reg = [&](Reg R) { P.appendRegName(Out, R); };
  auto imm = [&] { appendInteger(Out, I.Imm); };
  auto target = [&] { appendBlockLabel(Out, P, I.Target); };

  switch (Info.Shape) {
  case OperandShape::None:
    break;
  case OperandShape::DefImm:
    Out += ' ';
    reg(I.Def);
    Out += ", ";
    imm();
    break;
  case OperandShape::DefUse:
    Out += ' ';
    reg(I.Def);
    Out += ", ";
    reg(I.Use1);
    break;
  case OperandShape::DefUseUse:
    Out += ' ';
    reg(I.Def);
    Out += ", ";
    reg(I.Use1);
    Out += ", ";
    reg(I.Use2);
    break;
  case OperandShape::DefUseImm:
    Out += ' ';
    reg(I.Def);
    if (I.Op == Opcode::Load) {
      Out += ", [";
      reg(I.Use1);
      Out += '+';
      imm();
      Out += ']';
    } else {
      Out += ", ";
      reg(I.Use1);
      Out += ", ";
      imm();
    }
    break;
  case OperandShape::UseUseImm:
    Out += " [";
    reg(I.Use1);
    Out += '+';
    imm();
    Out += "], ";
    reg(I.Use2);
    break;
  case OperandShape::UseImm:
    Out += ' ';
    imm();
    Out += ", ";
    reg(I.Use1);
    break;
  case OperandShape::ImmOnly:
    Out += ' ';
    imm();
    break;
  case OperandShape::Target:
    Out += ' ';
    target();
    break;
  case OperandShape::UseUseTarget:
    Out += ' ';
    reg(I.Use1);
    Out += ", ";
    reg(I.Use2);
    Out += ", ";
    target();
    break;
  case OperandShape::UseTarget:
    Out += ' ';
    reg(I.Use1);
    Out += ", ";
    target();
    break;
  }
}

std::string npral::formatInstruction(const Program &P, const Instruction &I) {
  std::string Out;
  appendInstruction(Out, P, I);
  return Out;
}

std::string npral::programToString(const Program &P) {
  std::string Out = ".thread ";
  Out += P.Name.empty() ? std::string_view("unnamed") : P.Name;
  Out += '\n';
  if (!P.EntryLiveRegs.empty()) {
    Out += ".entrylive";
    for (size_t I = 0; I < P.EntryLiveRegs.size(); ++I) {
      Out += I ? ", " : " ";
      P.appendRegName(Out, P.EntryLiveRegs[I]);
    }
    Out += '\n';
  }
  for (int B = 0; B < P.getNumBlocks(); ++B) {
    const BasicBlock &BB = P.block(B);
    Out += P.blockName(B);
    Out += ":\n";
    for (const Instruction &I : BB.Instrs) {
      Out += "    ";
      appendInstruction(Out, P, I);
      Out += '\n';
    }
    // Make fallthrough explicit when it is not the next block in layout
    // order; the parser re-derives implicit fallthrough from layout.
    bool EndsWithTerm = !BB.Instrs.empty() && BB.Instrs.back().isTerminator();
    if (!EndsWithTerm && BB.FallThrough != NoBlock && BB.FallThrough != B + 1) {
      Out += "    br ";
      Out += P.blockName(BB.FallThrough);
      Out += '\n';
    }
  }
  return Out;
}
