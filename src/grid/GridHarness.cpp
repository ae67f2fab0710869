//===- GridHarness.cpp ----------------------------------------------------===//

#include "grid/GridHarness.h"

#include "alloc/IntraAllocator.h"
#include "analysis/LiveRangeRenaming.h"
#include "driver/AnalysisCache.h"
#include "driver/BatchPipeline.h"
#include "support/Status.h"
#include "trace/CycleTrace.h"
#include "trace/MetricsRegistry.h"
#include "trace/Telemetry.h"
#include "trace/TraceEngine.h"

#include <cassert>
#include <map>
#include <optional>

using namespace npral;

KernelTraits npral::computeKernelTraits(const std::string &Name,
                                        AnalysisCache *Cache) {
  ErrorOr<Workload> W = buildWorkload(Name, /*Slot=*/0);
  if (!W.ok())
    reportFatalError("grid: unknown kernel '" + Name + "': " +
                     W.status().str());
  Program Renamed = renameLiveRanges(std::move(W->Code));
  std::shared_ptr<const ThreadAnalysisBundle> Bundle;
  std::string Text;
  uint64_t Key = 0;
  if (Cache) {
    Text = encodeProgram(Renamed);
    Key = analysisCacheKey(Text, /*Partition=*/0);
    Bundle = Cache->lookup(Key, Text);
  }
  if (!Bundle) {
    Bundle = std::make_shared<const ThreadAnalysisBundle>(
        computeThreadAnalysisBundle(Renamed));
    if (Cache)
      Bundle = Cache->insert(Key, std::move(Text), std::move(Bundle));
  }

  KernelTraits T;
  T.Name = Name;
  T.MinPR = Bundle->Bounds.MinPR;
  T.MaxPR = Bundle->Bounds.MaxPR;
  T.MaxR = Bundle->Bounds.MaxR;
  T.BoundaryNodes = Bundle->TA.BoundaryNodes.count();
  int64_t Instrs = 0, CtxPoints = 0;
  for (const BasicBlock &B : Renamed.Blocks)
    for (const Instruction &I : B.Instrs) {
      ++Instrs;
      if (getOpcodeInfo(I.Op).CausesCtxSwitch)
        ++CtxPoints;
    }
  T.CtxPerMille =
      Instrs > 0 ? static_cast<int>(CtxPoints * 1000 / Instrs) : 0;
  return T;
}

bool npral::buildGridPool(const std::string &ScenarioName, int NumEngines,
                          std::vector<std::string> &Pool) {
  const std::vector<Scenario> &Scen = getAraScenarios();
  std::vector<std::string> Template;
  if (ScenarioName == "s1" || ScenarioName == "s2" || ScenarioName == "s3") {
    const Scenario &S = Scen[static_cast<size_t>(ScenarioName[1] - '1')];
    Template.assign(S.Kernels.begin(), S.Kernels.end());
  } else if (ScenarioName == "mixed") {
    for (const Scenario &S : Scen)
      Template.insert(Template.end(), S.Kernels.begin(), S.Kernels.end());
  } else {
    return false;
  }
  Pool.clear();
  const size_t Want = static_cast<size_t>(NumEngines) * 4;
  for (size_t I = 0; I < Want; ++I)
    Pool.push_back(Template[I % Template.size()]);
  return true;
}

GridReport npral::runKernelPoolGrid(const std::string &Name,
                                    const std::vector<std::string> &Pool,
                                    const GridOptions &Opts) {
  NPRAL_TRACE_SPAN_ARGS("grid", "runKernelPoolGrid", {"name", Name},
                        {"engines", std::to_string(Opts.NumEngines)},
                        {"policy", placementPolicyName(Opts.Policy)});
  GridReport Report;
  Report.Name = Name;
  Report.Policy = placementPolicyName(Opts.Policy);
  Report.NumEngines = Opts.NumEngines;
  assert(Pool.size() == static_cast<size_t>(Opts.NumEngines) * 4 &&
         "pool must provide four threads per engine");

  // Traits once per distinct kernel, in first-appearance order so the
  // trait indices (and everything downstream) are deterministic. Their
  // analyses stay in Cache for the allocation jobs below.
  AnalysisCache Cache;
  PlacementInput In;
  In.NumEngines = Opts.NumEngines;
  In.ThreadsPerEngine = 4;
  In.EngineRegs = Opts.Nreg;
  for (const std::string &Kernel : Pool) {
    int TraitIdx = -1;
    for (size_t T = 0; T < In.Traits.size(); ++T)
      if (In.Traits[T].Name == Kernel)
        TraitIdx = static_cast<int>(T);
    if (TraitIdx < 0) {
      NPRAL_TRACE_SPAN_ARGS("grid", "traits", {"kernel", Kernel});
      In.Traits.push_back(computeKernelTraits(Kernel, &Cache));
      TraitIdx = static_cast<int>(In.Traits.size()) - 1;
    }
    In.Pool.push_back(TraitIdx);
  }
  Report.Placement = placeThreads(In, Opts.Policy);

  // Allocation through the job path, once per distinct bin. Every engine
  // is an independent register file, but engines whose bins hold the same
  // kernels in the same slots get byte-equal job inputs, hence equal
  // allocations: the first such engine runs the job, and each one then
  // simulates its own copy of the physical program and of the bin's
  // workloads (memory image, entry values).
  BatchOptions JobOpts;
  JobOpts.Nreg = Opts.Nreg;
  JobOpts.AllowSpill = true;
  JobOpts.KeepPhysical = true;
  struct BinAllocation {
    std::vector<Workload> Workloads;
    BatchJobResult Job;
  };
  std::map<std::vector<std::string>, BinAllocation> Allocated;
  EngineGrid Grid(Opts.HopLatency, Opts.InitialCredits);
  for (int E = 0; E < Opts.NumEngines; ++E) {
    const std::string EngineName = Name + "_e" + std::to_string(E);
    GridEngineReport ER;
    for (int PoolIdx : Report.Placement.Bins[static_cast<size_t>(E)])
      ER.Kernels.push_back(Pool[static_cast<size_t>(PoolIdx)]);
    auto [It, Fresh] = Allocated.try_emplace(ER.Kernels);
    BinAllocation &Bin = It->second;
    if (Fresh) {
      for (size_t Slot = 0; Slot < ER.Kernels.size(); ++Slot) {
        ErrorOr<Workload> W =
            buildWorkload(ER.Kernels[Slot], static_cast<int>(Slot));
        if (!W.ok())
          reportFatalError("grid: " + W.status().str());
        Bin.Workloads.push_back(W.take());
      }
      BatchJob Job;
      Job.Name = EngineName;
      Job.Program = toMultiThreadProgram(Bin.Workloads, EngineName);
      Bin.Job = runSingleJob(Job, JobOpts, &Cache);
      ++Report.AllocJobs;
      MetricsRegistry::global().counter("grid.alloc_jobs").increment();
    }
    if (!Bin.Job.Success) {
      Report.FailReason =
          "engine " + std::to_string(E) + ": " + Bin.Job.failureSummary();
      return Report;
    }
    ER.RegistersUsed = Bin.Job.RegistersUsed;
    ER.Spilled = Bin.Job.UsedSpilling;
    ER.SpilledRanges = Bin.Job.SpilledRanges;
    Report.Engines.push_back(std::move(ER));

    NPRAL_TRACE_SPAN_ARGS("grid", "setup", {"engine", std::to_string(E)});
    MultiThreadProgram Physical = Bin.Job.Physical;
    Physical.Name = EngineName;
    MicroEngine &ME = Grid.addEngine(std::move(Physical), Opts.Sim);
    for (size_t T = 0; T < Bin.Workloads.size(); ++T) {
      const Workload &W = Bin.Workloads[T];
      for (const Workload::MemRegion &Region : W.InitMemory)
        ME.sim().writeMemory(Region.Base, Region.Words);
      ME.sim().setEntryValues(static_cast<int>(T), W.EntryValues);
    }
  }

  std::optional<TelemetrySampler> Sampler;
  if (Opts.SampleCycles > 0 && Opts.Trace)
    Sampler.emplace(Opts.SampleCycles, Opts.Trace);
  Grid.setTelemetry(Opts.Trace, Sampler ? &*Sampler : nullptr);

  GridRunResult Run = Grid.run();
  Report.MaxEngineCycles = Run.MaxEngineCycles;
  Report.MessagesSent = Run.MessagesSent;
  Report.MessagesDelivered = Run.MessagesDelivered;
  Report.CreditsReturned = Run.CreditsReturned;
  for (int E = 0; E < Opts.NumEngines; ++E) {
    GridEngineReport &ER = Report.Engines[static_cast<size_t>(E)];
    ER.Result = std::move(Run.Engines[static_cast<size_t>(E)]);
    for (const ThreadStats &TS : ER.Result.Threads) {
      ER.Iterations += TS.Iterations;
      ER.InterconnectStallCycles += TS.InterconnectStallCycles;
    }
    Report.TotalIterations += ER.Iterations;
    Report.TotalInterconnectStall += ER.InterconnectStallCycles;
  }
  if (!Run.Completed) {
    Report.FailReason = Run.FailReason;
    return Report;
  }
  if (Report.MaxEngineCycles > 0)
    Report.IterationsPerKilocycle =
        static_cast<double>(Report.TotalIterations) * 1000.0 /
        static_cast<double>(Report.MaxEngineCycles);

  MetricsRegistry &MR = MetricsRegistry::global();
  MR.counter("grid.engines").add(Report.NumEngines);
  MR.counter("grid.iterations").add(Report.TotalIterations);
  MR.counter("grid.interconnect_stall_cycles")
      .add(Report.TotalInterconnectStall);
  for (int E = 0; E < Opts.NumEngines; ++E) {
    const GridEngineReport &ER = Report.Engines[static_cast<size_t>(E)];
    const std::string Prefix = "grid.engine" + std::to_string(E) + ".";
    MR.counter(Prefix + "iterations").add(ER.Iterations);
    if (ER.InterconnectStallCycles > 0)
      MR.counter(Prefix + "interconnect_stall_cycles")
          .add(ER.InterconnectStallCycles);
  }
  Report.Success = true;
  return Report;
}
