//===- InterAllocator.cpp -------------------------------------------------===//

#include "alloc/InterAllocator.h"

#include "trace/MetricsRegistry.h"
#include "trace/TraceEngine.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace npral;

MultiThreadProgram npral::materializePhysical(
    const std::vector<const Program *> &ColorPrograms,
    const std::vector<int> &PRs, int SGR, int Nreg, const std::string &Name) {
  assert(ColorPrograms.size() == PRs.size() && "size mismatch");
  MultiThreadProgram Physical;
  Physical.Name = Name;

  int SharedBase = std::accumulate(PRs.begin(), PRs.end(), 0);
  assert(SharedBase + SGR <= Nreg && "allocation exceeds register file");

  int PrivateBase = 0;
  for (size_t T = 0; T < ColorPrograms.size(); ++T) {
    const Program &CP = *ColorPrograms[T];
    const int PR = PRs[T];
    auto mapColor = [&](Reg C) -> Reg {
      assert(C >= 0 && C < CP.NumRegs && "color out of range");
      if (C < PR)
        return PrivateBase + C;
      assert(C - PR < SGR && "shared color beyond SGR");
      return SharedBase + (C - PR);
    };

    Program Phys;
    Phys.Name = CP.Name;
    Phys.NumRegs = Nreg;
    Phys.IsPhysical = true;
    Phys.EntryBlock = CP.EntryBlock;
    Phys.Blocks.reserve(CP.Blocks.size());
    for (int B = 0; B < CP.getNumBlocks(); ++B) {
      const BasicBlock &BB = CP.block(B);
      int NewB = Phys.addBlock(CP.blockName(BB.Id));
      Phys.block(NewB).FallThrough = BB.FallThrough;
      Phys.block(NewB).Instrs.reserve(BB.Instrs.size());
      for (const Instruction &I : BB.Instrs) {
        Instruction NewI = I;
        if (I.Def != NoReg)
          NewI.Def = mapColor(I.Def);
        if (I.Use1 != NoReg)
          NewI.Use1 = mapColor(I.Use1);
        if (I.Use2 != NoReg)
          NewI.Use2 = mapColor(I.Use2);
        Phys.block(NewB).Instrs.push_back(NewI);
      }
    }
    for (Reg C : CP.EntryLiveRegs)
      Phys.EntryLiveRegs.push_back(mapColor(C));
    Physical.Threads.push_back(std::move(Phys));
    PrivateBase += PR;
  }
  return Physical;
}

namespace {

/// Completion fallback for the Fig. 8 loop: sweep the shared-window size.
/// For each SGR, every thread takes the smallest PR with a feasible
/// (PR, SGR) allocation; among fitting configurations the cheapest (by
/// total moves, then registers) wins. Returns false when no SGR fits, or
/// when \p Limits' deadline passes, which it polls at every window.
/// \p Bounds holds each thread's bounds, aligned with \p Intras.
bool sweepSharedWindow(
    std::vector<std::unique_ptr<IntraThreadAllocator>> &Intras,
    const std::vector<const RegBounds *> &Bounds, int Nreg,
    const InterAllocLimits &Limits, std::vector<int> &PR,
    std::vector<int> &SR) {
  const int Nthd = static_cast<int>(Intras.size());
  int MaxSGR = 0;
  for (const auto &Intra : Intras)
    MaxSGR = std::max(MaxSGR, Intra->getMaxR());

  bool Found = false;
  int64_t BestCost = 0;
  int BestTotal = 0;
  std::vector<int> BestPR, BestSR;
  for (int SGR = 0; SGR <= MaxSGR; ++SGR) {
    if (Limits.expired())
      return false;
    // Every thread's PR starts at its floor below, so a window whose
    // Lemma-1 floor exceeds Nreg cannot fit whatever pricing finds.
    if (feasibilityFloorAt(Bounds, SGR) > Nreg)
      continue;
    std::vector<int> CandPR(static_cast<size_t>(Nthd));
    int64_t Cost = 0;
    int SumPR = 0;
    bool Feasible = true;
    for (int T = 0; T < Nthd && Feasible; ++T) {
      IntraThreadAllocator &Intra = *Intras[static_cast<size_t>(T)];
      int Lo = std::max(Intra.getMinPR(), Intra.getMinR() - SGR);
      bool ThreadOk = false;
      for (int P = Lo; P <= Intra.getMaxPR(); ++P) {
        const IntraResult &R = Intra.allocate(P, SGR);
        if (!R.Feasible)
          continue;
        CandPR[static_cast<size_t>(T)] = P;
        Cost += R.WeightedCost;
        SumPR += P;
        ThreadOk = true;
        break;
      }
      Feasible = ThreadOk;
    }
    if (!Feasible || SumPR + SGR > Nreg)
      continue;
    int Total = SumPR + SGR;
    if (!Found || Cost < BestCost ||
        (Cost == BestCost && Total < BestTotal)) {
      Found = true;
      BestCost = Cost;
      BestTotal = Total;
      BestPR = CandPR;
      BestSR.assign(static_cast<size_t>(Nthd), SGR);
    }
  }
  if (!Found)
    return false;
  PR = BestPR;
  SR = BestSR;
  return true;
}

} // namespace

InterThreadResult npral::allocateInterThread(
    const MultiThreadProgram &MTP, int Nreg,
    const std::vector<std::shared_ptr<const ThreadAnalysisBundle>> &Analyses,
    const std::vector<CostModel> &Models, AllocationDecisionLog *Log,
    const InterAllocLimits &Limits) {
  NPRAL_TRACE_SPAN_ARGS("alloc", "allocateInterThread",
                        {"program", MTP.Name},
                        {"threads", std::to_string(MTP.getNumThreads())},
                        {"nreg", std::to_string(Nreg)});
  InterThreadResult Result;
  const int Nthd = MTP.getNumThreads();
  auto fail = [&](std::string Reason, StatusCode Code) {
    Result.FailReason = std::move(Reason);
    Result.FailCode = Code;
    if (Log) {
      Log->Success = false;
      Log->FailReason = Result.FailReason;
    }
    return Result;
  };
  auto failExpired = [&]() {
    return fail("deadline exceeded during allocation",
                StatusCode::DeadlineExceeded);
  };
  auto failInfeasible = [&]() {
    return fail("register requirement cannot be reduced to fit Nreg=" +
                    std::to_string(Nreg),
                StatusCode::Infeasible);
  };
  if (Nthd == 0)
    return fail("no threads", StatusCode::InvalidIR);

  // Build per-thread intra allocators and start from the move-free upper
  // bounds (Fig. 8 lines 1-4).
  std::vector<std::unique_ptr<IntraThreadAllocator>> Intras;
  std::vector<const RegBounds *> Bounds;
  std::vector<int> PR(static_cast<size_t>(Nthd));
  std::vector<int> SR(static_cast<size_t>(Nthd));
  for (int T = 0; T < Nthd; ++T) {
    const Program &P = MTP.Threads[static_cast<size_t>(T)];
    CostModel CM = static_cast<size_t>(T) < Models.size()
                       ? Models[static_cast<size_t>(T)]
                       : CostModel();
    if (static_cast<size_t>(T) < Analyses.size() &&
        Analyses[static_cast<size_t>(T)])
      Intras.push_back(std::make_unique<IntraThreadAllocator>(
          P, Analyses[static_cast<size_t>(T)], std::move(CM)));
    else
      Intras.push_back(
          std::make_unique<IntraThreadAllocator>(P, std::move(CM)));
    if (Log)
      Intras.back()->setDecisionLog(Log, T);
    Intras.back()->setLimits(Limits);
    const RegBounds &B = Intras.back()->getBounds();
    Bounds.push_back(&B);
    PR[static_cast<size_t>(T)] = B.MaxPR;
    SR[static_cast<size_t>(T)] = B.MaxR - B.MaxPR;
  }
  if (Log) {
    Log->Nthd = Nthd;
    Log->Nreg = Nreg;
    Log->InitialPR = PR;
    Log->InitialSR = SR;
  }

  auto requirement = [&]() {
    int Sum = std::accumulate(PR.begin(), PR.end(), 0);
    int MaxSR = *std::max_element(SR.begin(), SR.end());
    return Sum + MaxSR;
  };
  auto costOf = [&](int T) -> int64_t {
    const IntraResult &IR =
        Intras[static_cast<size_t>(T)]->allocate(PR[static_cast<size_t>(T)],
                                                 SR[static_cast<size_t>(T)]);
    assert(IR.Feasible && "current configuration must stay feasible");
    return IR.WeightedCost;
  };

  // Lemma 1 decides an infeasible budget exactly, before any pricing: the
  // loop and the sweep only visit configurations at or above the floor. A
  // run past its deadline still fails as such.
  if (requirement() > Nreg) {
    if (Limits.expired())
      return failExpired();
    if (feasibilityFloor(Bounds) > Nreg)
      return failInfeasible();
  }

  // Greedy reduction loop (Fig. 8 lines 5-16).
  int StepIndex = 0;
  while (requirement() > Nreg) {
    int BestKind = -1; // 0 = reduce PR of BestThread, 1 = reduce max SRs.
    int BestThread = -1;
    int64_t BestDelta = 0;
    ReductionStep Step;
    Step.StepIndex = ++StepIndex;
    Step.RequirementBefore = requirement();

    for (int T = 0; T < Nthd; ++T) {
      const RegBounds &B = Intras[static_cast<size_t>(T)]->getBounds();
      int CurPR = PR[static_cast<size_t>(T)];
      int CurSR = SR[static_cast<size_t>(T)];
      if (CurPR <= B.MinPR || CurPR + CurSR <= B.MinR)
        continue;
      const IntraResult &Candidate =
          Intras[static_cast<size_t>(T)]->allocate(CurPR - 1, CurSR);
      if (!Candidate.Feasible)
        continue;
      int64_t Delta = Candidate.WeightedCost - costOf(T);
      if (Log)
        Step.Bids.push_back({ReductionBid::ReducePR, T, Delta});
      if (BestKind < 0 || Delta < BestDelta) {
        BestKind = 0;
        BestThread = T;
        BestDelta = Delta;
      }
    }

    {
      int MaxSR = *std::max_element(SR.begin(), SR.end());
      bool AllReducible = MaxSR > 0;
      int64_t Delta = 0;
      for (int T = 0; T < Nthd && AllReducible; ++T) {
        if (SR[static_cast<size_t>(T)] != MaxSR)
          continue;
        const RegBounds &B = Intras[static_cast<size_t>(T)]->getBounds();
        if (PR[static_cast<size_t>(T)] + SR[static_cast<size_t>(T)] <=
            B.MinR) {
          AllReducible = false;
          break;
        }
        const IntraResult &Candidate = Intras[static_cast<size_t>(T)]->allocate(
            PR[static_cast<size_t>(T)], SR[static_cast<size_t>(T)] - 1);
        if (!Candidate.Feasible) {
          AllReducible = false;
          break;
        }
        Delta += Candidate.WeightedCost - costOf(T);
      }
      if (Log && AllReducible)
        Step.Bids.push_back({ReductionBid::ReduceSharedRegs, -1, Delta});
      if (AllReducible && (BestKind < 0 || Delta < BestDelta)) {
        BestKind = 1;
        BestDelta = Delta;
      }
    }

    // The deadline may have cut a greedy split short while pricing; no
    // step is chosen from such a bid.
    if (Limits.expired())
      return failExpired();
    if (BestKind < 0) {
      // The pure-reduction loop is stuck: every single step either violates
      // a thread's MinR or fails. This happens when the optimum requires
      // *trading* private for shared registers across several threads at
      // once (e.g. every thread moving from (PR, SR) to (PR-1, SR+1) — the
      // total only drops after all of them convert). Fall back to a direct
      // sweep over the shared-window size SGR: for each candidate SGR every
      // thread takes its smallest feasible PR, which is complete over the
      // per-thread feasibility frontier. Fig. 8 does not include this step;
      // see DESIGN.md ("extensions").
      const bool Swept = sweepSharedWindow(Intras, Bounds, Nreg, Limits, PR, SR);
      if (Limits.expired())
        return failExpired();
      if (!Swept)
        return failInfeasible();
      MetricsRegistry::global().counter("alloc.sweep_fallbacks").increment();
      if (Log) {
        Step.Chosen = ReductionStep::ChoseSweepFallback;
        Step.RequirementAfter = requirement();
        Step.PRAfter = PR;
        Step.SRAfter = SR;
        Log->Reductions.push_back(std::move(Step));
      }
      break;
    }
    if (BestKind == 0) {
      --PR[static_cast<size_t>(BestThread)];
    } else {
      int MaxSR = *std::max_element(SR.begin(), SR.end());
      for (int T = 0; T < Nthd; ++T)
        if (SR[static_cast<size_t>(T)] == MaxSR)
          --SR[static_cast<size_t>(T)];
    }
    MetricsRegistry::global().counter("alloc.reduction_steps").increment();
    if (Log) {
      Step.Chosen =
          BestKind == 0 ? ReductionStep::ChosePR : ReductionStep::ChoseSharedRegs;
      Step.VictimThread = BestKind == 0 ? BestThread : -1;
      Step.ChosenDelta = BestDelta;
      Step.RequirementAfter = requirement();
      Step.PRAfter = PR;
      Step.SRAfter = SR;
      Log->Reductions.push_back(std::move(Step));
    }
  }

  // Profile-guided rebalancing (weighted models only). The Fig. 8 loop is
  // frequency-blind in two ways: it stops at the first configuration whose
  // caps fit (leaving any remaining budget idle), and its greedy single
  // steps never revisit a squeeze that later turns out to be the expensive
  // one. With execution frequencies we can fix both after the fact:
  //   - exchange: shift one private register from a thread where it saves
  //     little dynamic cost to a thread where it saves a lot (net register
  //     use unchanged);
  //   - reinvest: if the caps fit with room to spare, raise the PR of the
  //     thread with the largest weighted saving per register, or widen the
  //     shared window for everyone.
  // Every applied step strictly decreases the total weighted cost, so the
  // pass terminates. Under unit costs the pass is skipped entirely and the
  // result is identical to the frequency-blind allocation.
  bool AnyWeighted = false;
  for (const CostModel &CM : Models)
    if (!CM.isUnit())
      AnyWeighted = true;
  while (AnyWeighted) {
    const bool HaveSlack = requirement() < Nreg;
    int BestKind = -1; // 0 = raise PR, 1 = widen SRs, 2 = exchange PR.
    int BestUp = -1, BestDown = -1;
    int64_t BestSave = 0;

    auto canLower = [&](int T) {
      const RegBounds &B = Intras[static_cast<size_t>(T)]->getBounds();
      if (PR[static_cast<size_t>(T)] <= B.MinPR ||
          PR[static_cast<size_t>(T)] + SR[static_cast<size_t>(T)] <= B.MinR)
        return false;
      return Intras[static_cast<size_t>(T)]
          ->allocate(PR[static_cast<size_t>(T)] - 1,
                     SR[static_cast<size_t>(T)])
          .Feasible;
    };

    for (int T = 0; T < Nthd; ++T) {
      const RegBounds &B = Intras[static_cast<size_t>(T)]->getBounds();
      if (PR[static_cast<size_t>(T)] >= B.MaxPR)
        continue;
      const IntraResult &Raised = Intras[static_cast<size_t>(T)]->allocate(
          PR[static_cast<size_t>(T)] + 1, SR[static_cast<size_t>(T)]);
      if (!Raised.Feasible)
        continue;
      const int64_t Gain = costOf(T) - Raised.WeightedCost;
      if (Gain <= 0)
        continue;
      if (HaveSlack && Gain > BestSave) {
        BestKind = 0;
        BestUp = T;
        BestSave = Gain;
      }
      for (int D = 0; D < Nthd; ++D) {
        if (D == T || !canLower(D))
          continue;
        const IntraResult &Lowered = Intras[static_cast<size_t>(D)]->allocate(
            PR[static_cast<size_t>(D)] - 1, SR[static_cast<size_t>(D)]);
        const int64_t Save = Gain - (Lowered.WeightedCost - costOf(D));
        if (Save > BestSave) {
          BestKind = 2;
          BestUp = T;
          BestDown = D;
          BestSave = Save;
        }
      }
    }

    if (HaveSlack) {
      int64_t Save = 0;
      bool Ok = true;
      for (int T = 0; T < Nthd && Ok; ++T) {
        const IntraResult &Widened = Intras[static_cast<size_t>(T)]->allocate(
            PR[static_cast<size_t>(T)], SR[static_cast<size_t>(T)] + 1);
        if (!Widened.Feasible) {
          Ok = false;
          break;
        }
        Save += costOf(T) - Widened.WeightedCost;
      }
      if (Ok && Save > BestSave) {
        BestKind = 1;
        BestSave = Save;
      }
    }

    if (Limits.expired())
      return failExpired();
    if (BestKind < 0)
      break;
    if (BestKind == 0) {
      ++PR[static_cast<size_t>(BestUp)];
    } else if (BestKind == 1) {
      for (int T = 0; T < Nthd; ++T)
        ++SR[static_cast<size_t>(T)];
    } else {
      ++PR[static_cast<size_t>(BestUp)];
      --PR[static_cast<size_t>(BestDown)];
    }
    MetricsRegistry::global().counter("alloc.rebalance_steps").increment();
    if (Log) {
      RebalanceStep Step;
      Step.K = BestKind == 0   ? RebalanceStep::RaisePR
               : BestKind == 1 ? RebalanceStep::WidenSharedRegs
                               : RebalanceStep::ExchangePR;
      Step.UpThread = BestKind == 1 ? -1 : BestUp;
      Step.DownThread = BestKind == 2 ? BestDown : -1;
      Step.Saving = BestSave;
      Step.PRAfter = PR;
      Step.SRAfter = SR;
      Log->Rebalances.push_back(std::move(Step));
    }
  }

  // Materialise (Fig. 8 lines 18-20).
  Result.SGR = *std::max_element(SR.begin(), SR.end());
  std::vector<const Program *> ColorPrograms;
  int PrivateBase = 0;
  for (int T = 0; T < Nthd; ++T) {
    const IntraResult &IR =
        Intras[static_cast<size_t>(T)]->allocate(PR[static_cast<size_t>(T)],
                                                 SR[static_cast<size_t>(T)]);
    assert(IR.Feasible && "converged configuration must be feasible");
    ThreadAllocation TAl;
    TAl.PR = PR[static_cast<size_t>(T)];
    TAl.SR = SR[static_cast<size_t>(T)];
    TAl.MoveCost = IR.MoveCost;
    TAl.WeightedCost = IR.WeightedCost;
    TAl.Strategy = IR.Strategy;
    TAl.PrivateBase = PrivateBase;
    TAl.Bounds = Intras[static_cast<size_t>(T)]->getBounds();
    PrivateBase += TAl.PR;
    Result.Threads.push_back(std::move(TAl));
    Result.TotalMoveCost += IR.MoveCost;
    Result.TotalWeightedCost += IR.WeightedCost;
    ColorPrograms.push_back(&IR.ColorProgram);
  }
  Result.SharedBase = PrivateBase;
  Result.RegistersUsed = PrivateBase + Result.SGR;
  // The SR values each thread converged to may differ; the shared window is
  // sized by the maximum, and every thread's shared colors fit inside it.
  Result.Physical = materializePhysical(
      ColorPrograms, PR, Result.SGR, std::max(Nreg, Result.RegistersUsed),
      MTP.Name);
  Result.Success = true;
  if (Log) {
    Log->Success = true;
    Log->FinalPR = PR;
    Log->FinalSR = SR;
    Log->SGR = Result.SGR;
    Log->RegistersUsed = Result.RegistersUsed;
    Log->TotalWeightedCost = Result.TotalWeightedCost;
  }
  return Result;
}

SRAResult npral::solveSRA(const Program &P, int Nthd, int Nreg,
                          bool RequireZeroCost) {
  SRAResult Result;
  IntraThreadAllocator Intra(P);
  const RegBounds &B = Intra.getBounds();

  bool Found = false;
  for (int PR = B.MinPR; PR <= B.MaxPR; ++PR) {
    if (PR * Nthd > Nreg)
      break;
    int SRBudget = Nreg - Nthd * PR;
    int SRLo = std::max(0, B.MinR - PR);
    int SRHi = std::min(SRBudget, std::max(B.MaxR - PR, SRLo));
    for (int SR = SRLo; SR <= SRHi; ++SR) {
      const IntraResult &IR = Intra.allocate(PR, SR);
      if (!IR.Feasible)
        continue;
      if (RequireZeroCost && IR.MoveCost > 0)
        continue;
      int Total = Nthd * PR + SR;
      bool Better = !Found || Total < Result.TotalRegisters ||
                    (Total == Result.TotalRegisters && PR < Result.PR);
      if (Better) {
        Result.PR = PR;
        Result.SR = SR;
        Result.MoveCost = IR.MoveCost;
        Result.TotalRegisters = Total;
        Found = true;
      }
      break; // Larger SR at same PR only raises the total.
    }
  }
  Result.Success = Found;
  if (!Found)
    Result.FailReason = "no feasible (PR, SR) within Nreg";
  return Result;
}
