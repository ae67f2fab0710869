//===- Lint.cpp - Registry, context and driver ----------------------------===//

#include "lint/Lint.h"

#include "ir/IRVerifier.h"
#include "lint/Checkers.h"
#include "trace/MetricsRegistry.h"
#include "trace/TraceEngine.h"

#include <algorithm>

using namespace npral;

const std::vector<CheckerInfo> &npral::getCheckerRegistry() {
  using namespace lintchecks;
  static const std::vector<CheckerInfo> Registry = {
      {"structure", "per-thread structural well-formedness (IRVerifier)",
       CheckerMode::Both, false, checkStructure},
      {"maybe-uninit", "reads that may see an uninitialized register",
       CheckerMode::Both, false, checkMaybeUninit},
      {"dead-store", "definitions whose value is never used",
       CheckerMode::Both, false, checkDeadStores},
      {"dead-range", "registers that are written but never read",
       CheckerMode::VirtualOnly, false, checkDeadRanges},
      {"unreachable-block", "blocks not reachable from the entry block",
       CheckerMode::Both, false, checkUnreachableBlocks},
      {"redundant-move", "self-moves and immediately cancelled moves",
       CheckerMode::Both, false, checkRedundantMoves},
      {"cross-thread-race",
       "registers live across one thread's context switch but referenced "
       "by another thread (paper §2, property 5)",
       CheckerMode::PhysicalOnly, false, checkCrossThreadRace},
      {"over-private",
       "private live ranges that NSR exclusion could carve into shared "
       "registers",
       CheckerMode::VirtualOnly, true, adviseOverPrivate},
  };
  return Registry;
}

const CheckerInfo *npral::findChecker(std::string_view Name) {
  for (const CheckerInfo &C : getCheckerRegistry())
    if (C.Name == Name)
      return &C;
  return nullptr;
}

LintContext::LintContext(const MultiThreadProgram &MTP,
                         DiagnosticEngine &Engine)
    : MTP(MTP), Engine(Engine) {
  States.resize(MTP.Threads.size());
  Physical = !MTP.Threads.empty();
  for (size_t T = 0; T < MTP.Threads.size(); ++T) {
    const Program &P = MTP.Threads[T];
    if (!P.IsPhysical)
      Physical = false;
    ThreadLintState &S = States[T];
    S.Structure = verifyProgram(P);
    if (S.Structure.ok()) {
      S.Liveness = computeLiveness(P);
      S.NSRs = computeNSRs(P, S.Liveness);
      S.HasDataflow = true;
    }
  }
}

Diagnostic &LintContext::emit(Severity Sev, std::string Check, int T,
                              int Block, int Instr, std::string Message) {
  Diagnostic &D = Engine.report(Sev, std::move(Check), std::move(Message));
  D.Thread = thread(T).Name;
  D.Block = Block;
  D.Instr = Instr;
  return D;
}

int npral::runAllCheckers(const MultiThreadProgram &MTP,
                          DiagnosticEngine &Engine, const LintOptions &Opts) {
  NPRAL_TRACE_SPAN_ARGS("lint", "runAllCheckers",
                        {"program", MTP.Name},
                        {"threads", std::to_string(MTP.getNumThreads())});
  LintContext Ctx(MTP, Engine);
  for (const CheckerInfo &C : getCheckerRegistry()) {
    bool Named =
        std::find(Opts.OnlyChecks.begin(), Opts.OnlyChecks.end(), C.Name) !=
        Opts.OnlyChecks.end();
    if (!Opts.OnlyChecks.empty() && !Named)
      continue;
    if (C.Mode == CheckerMode::VirtualOnly && Ctx.isPhysical())
      continue;
    if (C.Mode == CheckerMode::PhysicalOnly && !Ctx.isPhysical())
      continue;
    if (C.Advisory && !Opts.IncludeAdvice && !Named)
      continue;
    const int Before = Engine.size();
    {
      NPRAL_TRACE_SPAN_ARGS("lint", "checker", {"check", std::string(C.Name)});
      C.Run(Ctx);
    }
    MetricsRegistry::global()
        .counter("lint." + std::string(C.Name) + ".diagnostics")
        .add(Engine.size() - Before);
    MetricsRegistry::global().counter("lint.checkers_run").increment();
  }
  return Engine.errorCount();
}

Status npral::mapNamedPhysicalRegisters(MultiThreadProgram &MTP) {
  if (MTP.Threads.empty())
    return Status::error(StatusCode::InvalidIR, "no threads to map");

  // Arbitrary ceiling so a typo like p99999 cannot balloon every bit
  // vector in the subsequent analyses.
  constexpr int MaxPhysIndex = 4095;

  std::vector<std::vector<Reg>> Maps;
  int MaxPhys = -1;
  for (const Program &T : MTP.Threads) {
    std::vector<Reg> Map(static_cast<size_t>(T.NumRegs), NoReg);
    for (Reg R = 0; R < T.NumRegs; ++R) {
      std::string Name = T.getRegName(R);
      bool Ok = Name.size() >= 2 && Name[0] == 'p';
      for (size_t I = 1; Ok && I < Name.size(); ++I)
        Ok = Name[I] >= '0' && Name[I] <= '9';
      if (!Ok)
        return Status::error(StatusCode::InvalidIR,
                             "register '" + Name + "' in thread '" + T.Name +
                                 "' is not a physical register name of the "
                                 "form p<N>");
      // Stop as soon as the index passes the ceiling, so no digit string
      // can overflow into a small index.
      int Value = 0;
      for (size_t I = 1; I < Name.size() && Value <= MaxPhysIndex; ++I)
        Value = Value * 10 + (Name[I] - '0');
      if (Value > MaxPhysIndex)
        return Status::error(StatusCode::InvalidIR,
                             "physical register index " + Name.substr(1) +
                                 " in thread '" + T.Name + "' is out of range");
      Map[static_cast<size_t>(R)] = Value;
      MaxPhys = std::max(MaxPhys, Value);
    }
    Maps.push_back(std::move(Map));
  }

  const int NumRegs = MaxPhys + 1;
  for (size_t T = 0; T < MTP.Threads.size(); ++T) {
    Program &P = MTP.Threads[T];
    const std::vector<Reg> &Map = Maps[T];
    auto Remap = [&](Reg R) { return R == NoReg ? NoReg : Map[static_cast<size_t>(R)]; };
    for (BasicBlock &BB : P.Blocks)
      for (Instruction &I : BB.Instrs) {
        I.Def = Remap(I.Def);
        I.Use1 = Remap(I.Use1);
        I.Use2 = Remap(I.Use2);
      }
    for (Reg &R : P.EntryLiveRegs)
      R = Remap(R);
    P.NumRegs = NumRegs;
    // getRegName renders p<N> for physical programs on its own.
    P.clearRegNames();
    P.IsPhysical = true;
  }
  return Status::success();
}
