//===- SpillFallback.cpp --------------------------------------------------===//

#include "harden/SpillFallback.h"

#include "alloc/SpillCode.h"
#include "analysis/LiveRangeRenaming.h"
#include "trace/MetricsRegistry.h"
#include "trace/TraceEngine.h"

#include <algorithm>

using namespace npral;

namespace {

/// First absolute word of the spill scratch region: the top quarter of the
/// 1 Mi-word simulator memory, clear of the example workloads' data.
constexpr int64_t SlotBase = 0xE0000;
/// Scratch words reserved per thread; thread T's slots start at
/// SlotBase + T * SlotStride, so windows of different threads never
/// overlap while a thread demotes fewer than SlotStride ranges.
constexpr int64_t SlotStride = 0x1000;

/// Frequency-weighted reference count of \p V in \p P: the dynamic price of
/// demoting it (one reload per use, one store per def, each executing with
/// its site's block frequency).
int64_t spillPrice(const Program &P, const CostModel &CM, Reg V) {
  int64_t Price = 0;
  for (int B = 0; B < P.getNumBlocks(); ++B)
    for (const Instruction &I : P.block(B).Instrs) {
      if (I.Def == V)
        Price += CM.blockWeight(B);
      if (I.Use1 == V)
        Price += CM.blockWeight(B);
      if (I.Use2 == V)
        Price += CM.blockWeight(B);
    }
  return Price;
}

/// Cheapest spillable register of \p Candidates (weighted refcount, ties to
/// the lowest ID); NoReg when every candidate is marked no-spill.
Reg cheapestVictim(const Program &P, const CostModel &CM,
                   const std::vector<char> &NoSpill,
                   const BitVector &Candidates) {
  Reg Best = NoReg;
  int64_t BestPrice = 0;
  Candidates.forEach([&](int V) {
    if (static_cast<size_t>(V) < NoSpill.size() &&
        NoSpill[static_cast<size_t>(V)])
      return;
    int64_t Price = spillPrice(P, CM, V);
    if (Best == NoReg || Price < BestPrice) {
      Best = V;
      BestPrice = Price;
    }
  });
  return Best;
}

/// Registers live across the fullest CSB of \p TA (the set realising
/// RegPCSBmax). Empty when the thread has no CSBs.
BitVector maxCrossingSet(const ThreadAnalysis &TA, int NumRegs) {
  BitVector Best(NumRegs);
  int BestCount = -1;
  for (const CSB &B : TA.NSRs.getCSBs())
    if (B.LiveAcross.count() > BestCount) {
      BestCount = B.LiveAcross.count();
      Best = B.LiveAcross;
      Best.resize(NumRegs);
    }
  return Best;
}

/// Registers occupying the highest-pressure program point of \p P (the set
/// realising RegPmax, a definition counting at its defining instruction).
BitVector maxPressureSet(const Program &P, const ThreadAnalysis &TA) {
  BitVector Best(P.NumRegs);
  int BestCount = -1;
  for (int B = 0; B < P.getNumBlocks(); ++B) {
    const BasicBlock &BB = P.block(B);
    for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
      BitVector At = TA.Liveness.instrLiveOut(B, I);
      At.resize(P.NumRegs);
      Reg D = BB.Instrs[static_cast<size_t>(I)].Def;
      if (D != NoReg)
        At.set(D);
      if (At.count() > BestCount) {
        BestCount = At.count();
        Best = At;
      }
    }
  }
  return Best;
}

} // namespace

SpillFallbackResult npral::allocateWithSpillFallback(
    const MultiThreadProgram &MTP, int Nreg,
    const std::vector<std::shared_ptr<const ThreadAnalysisBundle>> &Analyses,
    const std::vector<CostModel> &Models, AllocationDecisionLog *Log,
    const InterAllocLimits &Limits, const SpillFallbackOptions &Opts) {
  NPRAL_TRACE_SPAN_ARGS("harden", "allocateWithSpillFallback",
                        {"program", MTP.Name},
                        {"nreg", std::to_string(Nreg)});
  const int Nthd = MTP.getNumThreads();
  SpillFallbackResult R;

  // First attempt: the plain allocator on the caller's own bundles. For
  // feasible inputs this is the *entire* computation — the fallback adds no
  // decision and the output is bit-identical to allocateInterThread.
  R.Attempts = 1;
  R.Inter = allocateInterThread(MTP, Nreg, Analyses, Models, Log, Limits);
  if (R.Inter.Success || R.Inter.FailCode != StatusCode::Infeasible)
    return R;

  MetricsRegistry::global().counter("harden.spill_fallbacks").increment();

  auto modelOf = [&](int T) {
    return static_cast<size_t>(T) < Models.size()
               ? Models[static_cast<size_t>(T)]
               : CostModel();
  };

  // Degradation works on private renamed copies; renaming is idempotent and
  // spill rewriting preserves one-register-per-live-range (victims vanish,
  // temporaries are born single-def/single-use), so bundles can be
  // recomputed without re-renaming and the no-spill marks stay aligned
  // with register IDs across rounds.
  MultiThreadProgram Work;
  Work.Name = MTP.Name;
  std::vector<std::shared_ptr<const ThreadAnalysisBundle>> Bundles;
  std::vector<std::vector<char>> NoSpill(static_cast<size_t>(Nthd));
  std::vector<std::vector<int64_t>> SlotOf(static_cast<size_t>(Nthd));
  std::vector<int64_t> NextSlot(static_cast<size_t>(Nthd), 0);
  for (int T = 0; T < Nthd; ++T) {
    const Program &P = Work.Threads.emplace_back(
        renameLiveRanges(MTP.Threads[static_cast<size_t>(T)]));
    if (static_cast<size_t>(T) < Analyses.size() &&
        Analyses[static_cast<size_t>(T)])
      Bundles.push_back(Analyses[static_cast<size_t>(T)]);
    else
      Bundles.push_back(std::make_shared<ThreadAnalysisBundle>(
          computeThreadAnalysisBundle(P)));
    NoSpill[static_cast<size_t>(T)].assign(static_cast<size_t>(P.NumRegs), 0);
  }

  auto failInfeasible = [&](const std::string &Why) {
    R.Inter = InterThreadResult();
    R.Inter.FailReason = Why;
    R.Inter.FailCode = StatusCode::Infeasible;
    if (Log) {
      *Log = AllocationDecisionLog();
      Log->Success = false;
      Log->FailReason = Why;
    }
    return R;
  };

  while (true) {
    if (Limits.expired()) {
      R.Inter = InterThreadResult();
      R.Inter.FailReason = "deadline exceeded during allocation";
      R.Inter.FailCode = StatusCode::DeadlineExceeded;
      return R;
    }

    std::vector<const RegBounds *> Bounds;
    for (const auto &B : Bundles)
      Bounds.push_back(&B->Bounds);
    int SGRStar = 0;
    const int Floor = feasibilityFloor(Bounds, &SGRStar);
    if (Floor <= Nreg && R.UsedSpilling) {
      // The bounds fit; retry the real allocator on the degraded threads.
      if (Log)
        *Log = AllocationDecisionLog();
      ++R.Attempts;
      R.Inter = allocateInterThread(Work, Nreg, Bundles, Models, Log, Limits);
      if (R.Inter.Success || R.Inter.FailCode != StatusCode::Infeasible) {
        if (R.Inter.Success)
          MetricsRegistry::global()
              .counter("harden.degraded_allocations")
              .increment();
        return R;
      }
      // Bounds said feasible but the allocator disagreed (it may hit its
      // own internal limits); keep demoting.
    }

    if (R.SpilledRanges >= Opts.MaxSpills)
      return failInfeasible(
          "register requirement cannot be reduced to fit Nreg=" +
          std::to_string(Nreg) + " within " +
          std::to_string(Opts.MaxSpills) + " spills");

    // Choose the thread binding the floor at the optimal window, preferring
    // the largest contribution (ties to the lowest thread ID), and demote
    // the cheapest live range attacking its binding constraint. If a
    // thread's candidate set is exhausted, fall through to the next worst.
    std::vector<int> Order(static_cast<size_t>(Nthd));
    for (int T = 0; T < Nthd; ++T)
      Order[static_cast<size_t>(T)] = T;
    auto contribution = [&](int T) {
      const RegBounds &B = Bundles[static_cast<size_t>(T)]->Bounds;
      return std::max(B.MinPR, B.MinR - SGRStar);
    };
    std::stable_sort(Order.begin(), Order.end(), [&](int A, int B) {
      return contribution(A) > contribution(B);
    });

    int VictimThread = -1;
    Reg Victim = NoReg;
    for (int T : Order) {
      const ThreadAnalysisBundle &Bd = *Bundles[static_cast<size_t>(T)];
      const Program &P = Work.Threads[static_cast<size_t>(T)];
      const std::vector<char> &NS = NoSpill[static_cast<size_t>(T)];
      const bool BoundaryBound = Bd.Bounds.MinPR >= Bd.Bounds.MinR - SGRStar;
      BitVector Primary = BoundaryBound
                              ? maxCrossingSet(Bd.TA, P.NumRegs)
                              : maxPressureSet(P, Bd.TA);
      Victim = cheapestVictim(P, modelOf(T), NS, Primary);
      if (Victim == NoReg) {
        BitVector Secondary = BoundaryBound
                                  ? maxPressureSet(P, Bd.TA)
                                  : maxCrossingSet(Bd.TA, P.NumRegs);
        Victim = cheapestVictim(P, modelOf(T), NS, Secondary);
      }
      if (Victim != NoReg) {
        VictimThread = T;
        break;
      }
    }
    if (VictimThread < 0)
      return failInfeasible("no spillable live range remains (Nreg=" +
                            std::to_string(Nreg) + ")");

    // Demote the victim: per-thread disjoint scratch windows keep degraded
    // threads from racing on spill memory.
    Program &P = Work.Threads[static_cast<size_t>(VictimThread)];
    std::vector<int64_t> &Slots = SlotOf[static_cast<size_t>(VictimThread)];
    Slots.resize(static_cast<size_t>(P.NumRegs), 0);
    Slots[static_cast<size_t>(Victim)] =
        SlotBase + VictimThread * SlotStride +
        NextSlot[static_cast<size_t>(VictimThread)]++;
    SpillRewrite SR = insertSpillCode(P, {Victim}, Slots);
    std::vector<char> &NS = NoSpill[static_cast<size_t>(VictimThread)];
    NS.resize(static_cast<size_t>(P.NumRegs), 0);
    NS[static_cast<size_t>(Victim)] = 1;
    for (Reg T : SR.Temps)
      NS[static_cast<size_t>(T)] = 1;
    R.SpillLoads += SR.Loads;
    R.SpillStores += SR.Stores;
    ++R.SpilledRanges;
    R.UsedSpilling = true;
    MetricsRegistry::global().counter("harden.spilled_ranges").increment();
    Bundles[static_cast<size_t>(VictimThread)] =
        std::make_shared<ThreadAnalysisBundle>(computeThreadAnalysisBundle(P));
  }
}
