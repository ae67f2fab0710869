//===- GridHarness.h - End-to-end multi-engine experiments ------*- C++ -*-===//
///
/// \file
/// Glue from kernel names to a finished grid run: replicate a Table-3
/// scenario template across N engines, extract per-kernel placement traits
/// (register bounds + ctx density), place the pool with a chosen policy,
/// allocate every engine's bin through the batch pipeline's job path
/// (runSingleJob: the paper's inter-thread allocator with the spill
/// fallback engaged, as each engine has its own GPR file, then the
/// CSB-privacy verifier and the translation validator), and simulate the
/// engines, each on its own lane to the ingress over the modeled
/// interconnect.
///
/// Allocation runs once per distinct bin, not once per engine. A bin is its
/// kernel names in slot order, and buildWorkload(Name, Slot) is pure, so
/// engines with equal bins get equal job inputs and hence equal checked
/// allocations; each such engine simulates its own copy of the one result.
/// One run-local AnalysisCache holds the analysis of every distinct kernel:
/// the traits step fills it and every allocation job hits it (a kernel's
/// code, and so its renamed encoding, is the same in every slot).
///
/// The headline number is aggregate throughput in iterations (packets) per
/// kilocycle: total iterations retired across all threads of all engines,
/// divided by the slowest engine's cycle count. The slowest engine is the
/// wall-clock of the grid, which is exactly why placement matters — see
/// docs/grid.md.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_GRID_GRIDHARNESS_H
#define NPRAL_GRID_GRIDHARNESS_H

#include "grid/EngineGrid.h"
#include "grid/Placement.h"
#include "workloads/Harness.h"

#include <string>
#include <vector>

namespace npral {

class AnalysisCache;

struct GridOptions {
  int NumEngines = 4;
  PlacementPolicy Policy = PlacementPolicy::Bounds;
  /// GPR file size of each engine.
  int Nreg = 128;
  /// Interconnect per-hop latency (= spacing of the delivery boundaries),
  /// cycles.
  int HopLatency = 4;
  /// Work tokens each thread starts with (its credit window).
  int InitialCredits = 4;
  SimConfig Sim = defaultExperimentConfig();
  /// Cycle-domain trace sink (virtual-time thread-state slices, counter
  /// tracks, dispatch->delivery flows — trace/CycleTrace.h). Null disables;
  /// owned by the caller, who exports it after the run.
  CycleTrace *Trace = nullptr;
  /// Telemetry sampling period in cycles for Trace's counter tracks
  /// (trace/Telemetry.h); 0 disables sampling.
  int64_t SampleCycles = 0;
};

/// One engine's slice of a grid run.
struct GridEngineReport {
  std::vector<std::string> Kernels;
  /// Inter-thread allocation outcome for this engine's bin.
  int RegistersUsed = 0;
  bool Spilled = false;
  int SpilledRanges = 0;
  SimResult Result;
  int64_t Iterations = 0;
  int64_t InterconnectStallCycles = 0;
};

struct GridReport {
  bool Success = false;
  /// "engine <E>: " + the failing job's BatchJobResult::failureSummary()
  /// for an allocation failure, or the simulator's reason.
  std::string FailReason;
  std::string Name;
  std::string Policy;
  int NumEngines = 0;
  std::vector<GridEngineReport> Engines;
  PlacementResult Placement;
  /// Allocation jobs run: one per distinct bin among the engines allocated
  /// (up to and including a failing one).
  int AllocJobs = 0;
  /// Max over engines of TotalCycles — the grid's wall-clock.
  int64_t MaxEngineCycles = 0;
  int64_t TotalIterations = 0;
  /// Aggregate throughput: TotalIterations * 1000 / MaxEngineCycles.
  double IterationsPerKilocycle = 0.0;
  int64_t TotalInterconnectStall = 0;
  int64_t MessagesSent = 0;
  int64_t MessagesDelivered = 0;
  int64_t CreditsReturned = 0;
};

/// Extract the placement traits of kernel \p Name (built at slot 0,
/// live-range renamed, analysed). Fatal on unknown kernels. With \p Cache,
/// the analysis is looked up, or computed and inserted, under the job
/// path's key (analysisCacheKey, unpartitioned), so a later runSingleJob
/// over this kernel on the same cache reuses it.
KernelTraits computeKernelTraits(const std::string &Name,
                                 AnalysisCache *Cache = nullptr);

/// Run a grid over an explicit kernel-name pool. Pool size must equal
/// NumEngines * 4 (each engine runs the paper's four thread contexts).
GridReport runKernelPoolGrid(const std::string &Name,
                             const std::vector<std::string> &Pool,
                             const GridOptions &Opts);

/// Build the kernel pool for a named grid scenario: "s1"/"s2"/"s3" (the
/// Table-3 scenarios, template replicated) or "mixed" (the three templates
/// concatenated cyclically). Returns false on an unknown name.
bool buildGridPool(const std::string &ScenarioName, int NumEngines,
                   std::vector<std::string> &Pool);

} // namespace npral

#endif // NPRAL_GRID_GRIDHARNESS_H
