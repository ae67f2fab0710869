//===- trace_overhead.cpp - Cost of disabled tracing on the pipeline ------===//
//
// Pins the observability layer's core promise: instrumentation left in the
// shipping binary costs (nearly) nothing while tracing is off.
//
// A disabled instrumentation site is one relaxed atomic load plus a
// branch, so the overhead of a whole run is
//
//   sites_executed x guard_cost / wall_time
//
// Both factors are measured here: the guard cost by timing a tight loop of
// disabled spans, and sites_executed by running the workload once with
// tracing enabled and counting the recorded events (an overestimate of the
// site count — a span's two events share one guarded constructor — so the
// reported overhead is an upper bound). The verdict asserts the bound
// stays under 2% of the batch pipeline's disabled-tracing wall clock.
//
//   bench/trace_overhead [--json]
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "driver/BatchPipeline.h"
#include "sim/Simulator.h"
#include "trace/CycleTrace.h"
#include "trace/TraceEngine.h"
#include "workloads/ProgramGenerator.h"

#include "benchmark/benchmark.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

using namespace npral;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds per disabled NPRAL_TRACE_SPAN site, from a tight loop long
/// enough to drown the clock overhead.
double measureGuardNs() {
  constexpr int64_t Iters = 5'000'000;
  TraceEngine::global().setEnabled(false);
  // Warm-up so the first-call path (lazy engine construction) is off the
  // clock.
  for (int I = 0; I < 1000; ++I) {
    NPRAL_TRACE_SPAN("bench", "warmup");
  }
  double Best = 1e18;
  for (int Round = 0; Round < 3; ++Round) {
    const int64_t T0 = nowNs();
    for (int64_t I = 0; I < Iters; ++I) {
      NPRAL_TRACE_SPAN("bench", "probe");
    }
    const int64_t T1 = nowNs();
    Best = std::min(Best, static_cast<double>(T1 - T0) /
                              static_cast<double>(Iters));
  }
  return Best;
}

/// The batch_throughput corpus: 64 generated two-thread programs with the
/// same generator parameters, so the overhead bound is measured on the
/// workload the throughput numbers come from.
std::vector<BatchJob> corpusJobs() {
  constexpr int CorpusSize = 64;
  std::vector<BatchJob> Jobs;
  for (int I = 0; I < CorpusSize; ++I) {
    const uint64_t Seed = static_cast<uint64_t>(I) + 1;
    BatchJob Job;
    Job.Name = "p" + std::to_string(I);
    for (int T = 0; T < 2; ++T) {
      GeneratorConfig Config;
      Config.TargetInstructions = 90;
      Config.CtxRatePerMille = 160;
      Config.MemBase = 0x1000 + 0x800 * static_cast<uint32_t>(T);
      Config.OutBase = 0x5000 + 0x100 * static_cast<uint32_t>(T);
      Program P = generateRandomProgram(Seed * 10 + static_cast<uint64_t>(T),
                                        Config);
      P.Name = "t" + std::to_string(T);
      Job.Program.Threads.push_back(std::move(P));
    }
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

/// Wall clock of one sequential batch run; best of \p Rounds.
int64_t measureBatchNs(const std::vector<BatchJob> &Jobs, int Rounds) {
  BatchOptions Opts;
  Opts.Jobs = 1;
  int64_t Best = INT64_MAX;
  for (int R = 0; R < Rounds; ++R) {
    const int64_t T0 = nowNs();
    BatchResult Result = runBatch(Jobs, Opts);
    const int64_t T1 = nowNs();
    benchmark::DoNotOptimize(Result);
    if (!Result.allSucceeded())
      reportFatalError("batch failed during trace overhead measurement");
    Best = std::min(Best, T1 - T0);
  }
  return Best;
}

/// Cost of the cycle-domain tracing guard: a null member-pointer test.
/// The volatile load forces the pointer to be re-read each iteration, so
/// this upper-bounds the real guard (a plain member load and branch).
double measurePointerGuardNs() {
  constexpr int64_t Iters = 50'000'000;
  CycleTrace *volatile Ptr = nullptr;
  int64_t Sink = 0;
  double Best = 1e18;
  for (int Round = 0; Round < 3; ++Round) {
    const int64_t T0 = nowNs();
    for (int64_t I = 0; I < Iters; ++I)
      if (Ptr != nullptr)
        ++Sink;
    const int64_t T1 = nowNs();
    benchmark::DoNotOptimize(Sink);
    Best = std::min(Best, static_cast<double>(T1 - T0) /
                              static_cast<double>(Iters));
  }
  return Best;
}

/// The simulator workload for the cycle-domain overhead bound: four
/// generated compute-heavy threads (long ALU runs between memory ops,
/// like the paper's packet kernels), simulated virtual so only the
/// simulator is on the clock.
MultiThreadProgram simCorpus() {
  MultiThreadProgram MTP;
  for (int T = 0; T < 4; ++T) {
    GeneratorConfig Config;
    Config.TargetInstructions = 400;
    Config.CtxRatePerMille = 10;
    Config.MemBase = 0x1000 + 0x800 * static_cast<uint32_t>(T);
    Config.OutBase = 0x5000 + 0x100 * static_cast<uint32_t>(T);
    Program P =
        generateRandomProgram(static_cast<uint64_t>(T) + 21, Config);
    P.Name = "s" + std::to_string(T);
    MTP.Threads.push_back(std::move(P));
  }
  return MTP;
}

SimConfig simCorpusConfig() {
  SimConfig Config;
  Config.TargetIterations = 400;
  return Config;
}

/// Wall clock of one untraced simulator run; best of \p Rounds.
int64_t measureSimNs(const MultiThreadProgram &MTP, int Rounds) {
  int64_t Best = INT64_MAX;
  for (int R = 0; R < Rounds; ++R) {
    Simulator Sim(MTP, simCorpusConfig());
    const int64_t T0 = nowNs();
    SimResult Result = Sim.run();
    const int64_t T1 = nowNs();
    benchmark::DoNotOptimize(Result);
    if (!Result.Completed)
      reportFatalError("sim failed during trace overhead measurement");
    Best = std::min(Best, T1 - T0);
  }
  return Best;
}

/// Guard checks a tracing-disabled simulator run would execute, counted on
/// a traced run of the same workload. The disabled run tests the trace
/// pointer once per span it charges to a bucket, and once more to close
/// the track at the end; a traced run records one interval per charged
/// span, so those are intervals + 1. The sampler pointer is tested once per
/// scheduler pass, and a pass dispatches a thread, idles, or ends the run.
/// A dispatch charges at least two spans (the chosen thread's wait, even
/// an empty one, and its run), so dispatches <= intervals / 2. Without a
/// grid port an idle jump lands where a thread is ready, so the next pass
/// dispatches or fails: idle jumps <= dispatches + 1. Hence passes <=
/// 2 * dispatches + 2 <= intervals + 2, and the sum stays an upper bound.
int64_t countSimGuardSites(const MultiThreadProgram &MTP) {
  Simulator Sim(MTP, simCorpusConfig());
  CycleTrace CT;
  Sim.setCycleTrace(&CT, /*Pid=*/1);
  SimResult Result = Sim.run();
  if (!Result.Completed)
    reportFatalError("traced sim failed");
  const int64_t Intervals = CT.intervalCount();
  return (Intervals + 1) + (Intervals + 2);
}

} // namespace

int main(int argc, char **argv) {
  BenchReport Report("trace_overhead", argc, argv);
  const std::vector<BatchJob> Jobs = corpusJobs();

  // Factor 1: cost of one disabled instrumentation site.
  const double GuardNs = measureGuardNs();

  // Factor 2: sites executed per run, counted on a traced run.
  TraceEngine::global().clear();
  TraceEngine::global().setEnabled(true);
  {
    BatchOptions Opts;
    Opts.Jobs = 1;
    BatchResult Traced = runBatch(Jobs, Opts);
    if (!Traced.allSucceeded())
      reportFatalError("traced batch failed");
  }
  TraceEngine::global().setEnabled(false);
  const int64_t Events = TraceEngine::global().eventCount();
  TraceEngine::global().clear();

  // Factor 3: the run itself, tracing disabled.
  const int64_t WallNs = measureBatchNs(Jobs, /*Rounds=*/5);

  const double OverheadNs = static_cast<double>(Events) * GuardNs;
  const double OverheadPct =
      WallNs > 0 ? 100.0 * OverheadNs / static_cast<double>(WallNs) : 0.0;

  // The cycle-domain (virtual-time) tracing path: its disabled guard is a
  // plain null-pointer test, measured on its own — the atomic span guard
  // above costs an order of magnitude more and would turn this bound into
  // noise about the wrong code.
  const double SimGuardNs = measurePointerGuardNs();
  const MultiThreadProgram SimMTP = simCorpus();
  const int64_t SimSites = countSimGuardSites(SimMTP);
  const int64_t SimWallNs = measureSimNs(SimMTP, /*Rounds=*/5);
  const double SimOverheadNs = static_cast<double>(SimSites) * SimGuardNs;
  const double SimOverheadPct =
      SimWallNs > 0 ? 100.0 * SimOverheadNs / static_cast<double>(SimWallNs)
                    : 0.0;

  const bool Pass = OverheadPct < 2.0 && SimOverheadPct < 2.0;

  TableFormatter Table({"Metric", "Value"});
  Table.row().cell("guard ns/site").cell(GuardNs, 3);
  Table.row().cell("events/run").cell(Events);
  Table.row().cell("batch wall ms (disabled)")
      .cell(static_cast<double>(WallNs) / 1e6, 3);
  Table.row().cell("disabled overhead ms (bound)")
      .cell(OverheadNs / 1e6, 4);
  Table.row().cell("disabled overhead % (bound)").cell(OverheadPct, 4);
  Table.row().cell("sim guard ns/site").cell(SimGuardNs, 3);
  Table.row().cell("sim guard sites/run").cell(SimSites);
  Table.row().cell("sim wall ms (disabled)")
      .cell(static_cast<double>(SimWallNs) / 1e6, 3);
  Table.row().cell("sim overhead % (bound)").cell(SimOverheadPct, 4);
  Table.print(std::cout);
  std::cout << "verdict: " << (Pass ? "PASS" : "FAIL")
            << " (both bounds < 2% required)\n";

  Report.addScalar("guard_ns_per_site", GuardNs);
  Report.addScalar("events_per_run", Events);
  Report.addScalar("batch_wall_ns_disabled", WallNs);
  Report.addScalar("overhead_pct_bound", OverheadPct);
  Report.addScalar("sim_guard_ns_per_site", SimGuardNs);
  Report.addScalar("sim_guard_sites_per_run", SimSites);
  Report.addScalar("sim_wall_ns_disabled", SimWallNs);
  Report.addScalar("sim_overhead_pct_bound", SimOverheadPct);
  Report.addScalar("verdict", Pass ? "PASS" : "FAIL");
  Report.addTable("trace overhead", Table);
  return Report.finish(Pass ? 0 : 1);
}
