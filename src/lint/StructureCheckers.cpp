//===- StructureCheckers.cpp - structure, unreachable-block, moves --------===//

#include "ir/CFGUtils.h"
#include "ir/IRPrinter.h"
#include "lint/Checkers.h"
#include "lint/Lint.h"

#include <vector>

using namespace npral;

void lintchecks::checkStructure(LintContext &Ctx) {
  if (Ctx.getNumThreads() == 0) {
    Ctx.getEngine().report(Severity::Error, "structure",
                           "program has no threads");
    return;
  }
  for (int T = 0; T < Ctx.getNumThreads(); ++T)
    if (const Status &S = Ctx.state(T).Structure; !S.ok())
      Ctx.emit(Severity::Error, "structure", T, -1, -1, S.message());

  // A MultiThreadProgram mixing virtual and physical threads is malformed
  // regardless of per-thread validity (and silently disables the
  // physical-only checkers, so say it loudly here).
  bool AnyPhysical = false, AnyVirtual = false;
  for (int T = 0; T < Ctx.getNumThreads(); ++T)
    (Ctx.thread(T).IsPhysical ? AnyPhysical : AnyVirtual) = true;
  if (AnyPhysical && AnyVirtual)
    Ctx.getEngine().report(Severity::Error, "structure",
                           "program mixes physical and virtual threads");
}

void lintchecks::checkUnreachableBlocks(LintContext &Ctx) {
  for (int T = 0; T < Ctx.getNumThreads(); ++T) {
    if (!Ctx.state(T).HasDataflow)
      continue;
    const Program &P = Ctx.thread(T);
    const std::vector<char> Reached = findReachableBlocks(P);
    for (int B = 0; B < P.getNumBlocks(); ++B)
      if (!Reached[static_cast<size_t>(B)])
        Ctx.emit(Severity::Warning, "unreachable-block", T, B, -1,
                 "block '" + std::string(P.blockName(B)) +
                     "' is unreachable from the entry block");
  }
}

void lintchecks::checkRedundantMoves(LintContext &Ctx) {
  for (int T = 0; T < Ctx.getNumThreads(); ++T) {
    const Program &P = Ctx.thread(T);
    for (int B = 0; B < P.getNumBlocks(); ++B) {
      const BasicBlock &BB = P.block(B);
      for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
        const Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];
        if (Inst.Op != Opcode::Mov)
          continue;
        if (Inst.Def == Inst.Use1) {
          Ctx.emit(Severity::Warning, "redundant-move", T, B, I,
                   "self-move of '" + P.getRegName(Inst.Def) +
                       "' has no effect")
              .Witness = formatInstruction(P, Inst);
          continue;
        }
        if (I > 0) {
          const Instruction &Prev = BB.Instrs[static_cast<size_t>(I - 1)];
          if (Prev.Op == Opcode::Mov && Prev.Def == Inst.Use1 &&
              Prev.Use1 == Inst.Def)
            Ctx.emit(Severity::Warning, "redundant-move", T, B, I,
                     "move copies '" + P.getRegName(Inst.Def) +
                         "' back onto itself right after '" +
                         formatInstruction(P, Prev) + "'")
                .Witness = formatInstruction(P, Inst);
        }
      }
    }
  }
}
