//===- AllocationVerifier.cpp ---------------------------------------------===//

#include "alloc/AllocationVerifier.h"

#include "analysis/NSR.h"
#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"

#include <algorithm>
#include <map>

using namespace npral;

namespace {

constexpr const char *SafetyCheck = "alloc-safety";
constexpr const char *RaceCheck = "cross-thread-race";
constexpr const char *AbsOverlapCheck = "cross-thread-abs-overlap";

/// First position in \p P that references \p R, as (block, instr); returns
/// false when R is only entry-live (or not referenced at all).
bool findFirstReference(const Program &P, Reg R, int &Block, int &Instr) {
  for (int B = 0; B < P.getNumBlocks(); ++B) {
    const BasicBlock &BB = P.block(B);
    for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
      const Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];
      if (Inst.Def == R || Inst.usesReg(R)) {
        Block = B;
        Instr = I;
        return true;
      }
    }
  }
  return false;
}

} // namespace

void npral::collectAllocationSafety(const MultiThreadProgram &Physical,
                                    DiagnosticEngine &Engine,
                                    AllocationSafetyStats *Stats,
                                    bool StructuralDiags) {
  const int Nthd = Physical.getNumThreads();
  if (Nthd == 0) {
    Engine.report(Severity::Error, SafetyCheck, "no threads to verify");
    return;
  }

  int NumRegs = Physical.Threads.front().NumRegs;
  bool PreconditionsOk = true;
  for (const Program &T : Physical.Threads) {
    if (!T.IsPhysical) {
      Engine.report(Severity::Error, SafetyCheck,
                    "thread '" + T.Name + "' is not physical")
          .Thread = T.Name;
      PreconditionsOk = false;
    }
    if (T.NumRegs != NumRegs) {
      Engine.report(Severity::Error, SafetyCheck,
                    "threads disagree on register file size");
      PreconditionsOk = false;
    }
  }
  if (!PreconditionsOk)
    return;

  // Per-thread structural validity, use-before-def, referenced registers
  // and live-across-CSB sets, in one pass sharing a single liveness run per
  // thread. A thread that fails the structural checks drops out of the
  // cross-thread analysis; the remaining pairs are still checked so one
  // malformed thread does not hide another's race.
  std::vector<char> ThreadOk(static_cast<size_t>(Nthd), 1);
  std::vector<BitVector> Referenced(static_cast<size_t>(Nthd),
                                    BitVector(NumRegs));
  std::vector<BitVector> LiveAcrossCSB(static_cast<size_t>(Nthd),
                                       BitVector(NumRegs));
  std::vector<LivenessInfo> ThreadLiveness(static_cast<size_t>(Nthd));
  for (int T = 0; T < Nthd; ++T) {
    const Program &P = Physical.Threads[static_cast<size_t>(T)];
    Status S = verifyProgram(P);
    LivenessInfo &LI = ThreadLiveness[static_cast<size_t>(T)];
    if (S.ok()) {
      LI = computeLiveness(P);
      S = checkNoUseOfUndef(P, LI);
    }
    if (!S.ok()) {
      ThreadOk[static_cast<size_t>(T)] = 0;
      if (StructuralDiags)
        Engine.report(Severity::Error, SafetyCheck, S.message()).Thread =
            P.Name;
      continue;
    }
    for (const BasicBlock &BB : P.Blocks)
      for (const Instruction &I : BB.Instrs) {
        if (I.Def != NoReg)
          Referenced[static_cast<size_t>(T)].set(I.Def);
        if (I.Use1 != NoReg)
          Referenced[static_cast<size_t>(T)].set(I.Use1);
        if (I.Use2 != NoReg)
          Referenced[static_cast<size_t>(T)].set(I.Use2);
      }
    for (Reg R : P.EntryLiveRegs)
      Referenced[static_cast<size_t>(T)].set(R);

    forEachCSB(P, LI, [&](int, int, const BitVector &Across) {
      LiveAcrossCSB[static_cast<size_t>(T)].unionWith(Across);
    });
  }

  // Safety: a register live across thread T's context switches must not be
  // referenced by any other thread. One diagnostic per violated (thread,
  // register, offending thread) triple, witnessed by the first CSB that
  // carries the register and the first offending reference.
  for (int T = 0; T < Nthd; ++T) {
    if (!ThreadOk[static_cast<size_t>(T)])
      continue;
    const Program &P = Physical.Threads[static_cast<size_t>(T)];
    for (int Other = 0; Other < Nthd; ++Other) {
      if (Other == T || !ThreadOk[static_cast<size_t>(Other)])
        continue;
      const Program &OtherP = Physical.Threads[static_cast<size_t>(Other)];
      BitVector Clash = LiveAcrossCSB[static_cast<size_t>(T)];
      Clash.intersectWith(Referenced[static_cast<size_t>(Other)]);
      Clash.forEach([&](int Bad) {
        // Locate the witnessing CSB and count how many carry the register.
        int WitnessBlock = -1, WitnessInstr = -1;
        int NumCarrying = 0;
        forEachCSB(P, ThreadLiveness[static_cast<size_t>(T)],
                   [&](int B, int I, const BitVector &Across) {
                     if (!Across.test(Bad))
                       return;
                     if (WitnessBlock < 0) {
                       WitnessBlock = B;
                       WitnessInstr = I;
                     }
                     ++NumCarrying;
                   });

        Diagnostic &D = Engine.report(
            Severity::Error, RaceCheck,
            "register p" + std::to_string(Bad) + " is live across " +
                std::to_string(NumCarrying) + " CSB(s) of thread '" + P.Name +
                "' but referenced by thread '" + OtherP.Name + "'");
        D.Thread = P.Name;
        if (WitnessBlock >= 0) {
          D.Block = WitnessBlock;
          D.Instr = WitnessInstr;
          const Instruction &CSBInst =
              P.block(WitnessBlock).Instrs[static_cast<size_t>(WitnessInstr)];
          D.Witness = "CSB '" + formatInstruction(P, CSBInst) + "'";
        }
        int RefBlock = -1, RefInstr = -1;
        if (findFirstReference(OtherP, Bad, RefBlock, RefInstr)) {
          const Instruction &RefInst =
              OtherP.block(RefBlock).Instrs[static_cast<size_t>(RefInstr)];
          D.Witness += (D.Witness.empty() ? "" : "; ") + std::string() +
                       "offending reference in thread '" + OtherP.Name +
                       "', block " + std::to_string(RefBlock) + ", instr " +
                       std::to_string(RefInstr) + ": '" +
                       formatInstruction(OtherP, RefInst) + "'";
        } else {
          D.Witness += (D.Witness.empty() ? "" : "; ") + std::string() +
                       "thread '" + OtherP.Name +
                       "' holds the register entry-live";
        }
      });
    }
  }

  // Absolute-address disjointness: a word some thread *writes* with
  // `storea` (spill slots after graceful degradation) must not be touched
  // by any other thread. Loads alone never clash — two threads reading a
  // shared constant table is fine. Warning severity: workloads may
  // communicate through memory on purpose, but a spilled allocation must
  // never trip this (the spill fallback hands each thread a disjoint
  // scratch window).
  {
    std::map<int64_t, std::vector<int>> Writers, Toucher;
    for (int T = 0; T < Nthd; ++T) {
      if (!ThreadOk[static_cast<size_t>(T)])
        continue;
      const Program &P = Physical.Threads[static_cast<size_t>(T)];
      for (const BasicBlock &BB : P.Blocks)
        for (const Instruction &I : BB.Instrs) {
          if (I.Op == Opcode::StoreA) {
            auto &W = Writers[I.Imm];
            if (W.empty() || W.back() != T)
              W.push_back(T);
          }
          if (I.Op == Opcode::StoreA || I.Op == Opcode::LoadA) {
            auto &U = Toucher[I.Imm];
            if (U.empty() || U.back() != T)
              U.push_back(T);
          }
        }
    }
    for (const auto &KV : Writers)
      for (int Writer : KV.second)
        for (int Other : Toucher[KV.first]) {
          if (Other == Writer)
            continue;
          Diagnostic &D = Engine.report(
              Severity::Warning, AbsOverlapCheck,
              "absolute address " + std::to_string(KV.first) +
                  " is written by thread '" +
                  Physical.Threads[static_cast<size_t>(Writer)].Name +
                  "' and accessed by thread '" +
                  Physical.Threads[static_cast<size_t>(Other)].Name + "'");
          D.Thread = Physical.Threads[static_cast<size_t>(Writer)].Name;
        }
  }

  if (Stats) {
    Stats->PrivateRegCount.clear();
    BitVector Union(NumRegs);
    for (int T = 0; T < Nthd; ++T) {
      Stats->PrivateRegCount.push_back(
          LiveAcrossCSB[static_cast<size_t>(T)].count());
      Union.unionWith(Referenced[static_cast<size_t>(T)]);
    }
    int SharedCount = 0;
    for (int R = 0; R < NumRegs; ++R) {
      int NumUsers = 0;
      for (int T = 0; T < Nthd; ++T)
        if (Referenced[static_cast<size_t>(T)].test(R))
          ++NumUsers;
      if (NumUsers > 1)
        ++SharedCount;
    }
    Stats->SharedRegCount = SharedCount;
    int Touched = 0;
    Union.forEach([&](int R) { Touched = std::max(Touched, R + 1); });
    Stats->RegistersTouched = Touched;
  }
}

Status npral::verifyAllocationSafety(const MultiThreadProgram &Physical,
                                     AllocationSafetyStats *Stats) {
  DiagnosticEngine Engine;
  collectAllocationSafety(Physical, Engine, Stats);
  if (const Diagnostic *D = Engine.firstError())
    return Status::error(D->Message);
  return Status::success();
}
