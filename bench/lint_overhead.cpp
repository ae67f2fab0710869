//===- lint_overhead.cpp - npral-lint cost on the paper workloads ---------===//
//
// google-benchmark timings of runAllCheckers over the workload kernels,
// before and after allocation, so lint can be judged as an always-on part
// of the pipeline: the virtual-program run measures the source lints, the
// physical-program run adds the cross-thread race sweep over a real
// allocation of an ARA scenario.
//
// The validator column measures translation validation the same way:
// `validate_scenario` times a single validateTranslation proof over an
// allocated ARA scenario, and `batch_proved` runs the batch pipeline over
// the batch_throughput 64-program corpus. Every job is validated, so the
// row is the proved pass, with its validate stage's share as a counter
// (EXPERIMENTS.md, "Translation-validation overhead").
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "alloc/InterAllocator.h"
#include "driver/BatchPipeline.h"
#include "lint/Lint.h"
#include "lint/TranslationValidator.h"
#include "support/DiagnosticEngine.h"
#include "workloads/Harness.h"
#include "workloads/ProgramGenerator.h"

#include "benchmark/benchmark.h"

#include <string>
#include <vector>

using namespace npral;

namespace {

MultiThreadProgram scenarioVirtual(int Index) {
  const Scenario &S = getAraScenarios()[static_cast<size_t>(Index)];
  std::vector<Workload> Workloads = buildScenarioWorkloads(S);
  return toMultiThreadProgram(Workloads, S.Name);
}

void BM_LintVirtual(benchmark::State &State, int Index) {
  MultiThreadProgram Virtual = scenarioVirtual(Index);
  for (auto _ : State) {
    DiagnosticEngine Engine;
    benchmark::DoNotOptimize(runAllCheckers(Virtual, Engine));
  }
}

void BM_LintPhysical(benchmark::State &State, int Index) {
  MultiThreadProgram Virtual = scenarioVirtual(Index);
  InterThreadResult R = allocateInterThread(Virtual, 128);
  if (!R.Success)
    reportFatalError("allocation failed: " + R.FailReason);
  for (auto _ : State) {
    DiagnosticEngine Engine;
    benchmark::DoNotOptimize(runAllCheckers(R.Physical, Engine));
  }
}

void BM_LintSingleKernel(benchmark::State &State, const std::string &Name) {
  ErrorOr<Workload> W = buildWorkload(Name, 0);
  if (!W.ok())
    reportFatalError(W.status().str());
  MultiThreadProgram MTP;
  MTP.Threads.push_back(W->Code);
  for (auto _ : State) {
    DiagnosticEngine Engine;
    benchmark::DoNotOptimize(runAllCheckers(MTP, Engine));
  }
}

void BM_ValidateScenario(benchmark::State &State, int Index) {
  MultiThreadProgram Virtual = scenarioVirtual(Index);
  InterThreadResult R = allocateInterThread(Virtual, 128);
  if (!R.Success)
    reportFatalError("allocation failed: " + R.FailReason);
  for (auto _ : State) {
    DiagnosticEngine Engine;
    ValidationResult V = validateTranslation(Virtual, R.Physical, Engine);
    if (!V.Proved)
      reportFatalError("validator refuted a correct allocation");
    benchmark::DoNotOptimize(V.InstructionsMatched);
  }
}

/// The batch_throughput corpus: 64 distinct two-thread generated programs,
/// so the proved pass is measured on the same workload the batch scaling
/// numbers come from.
std::vector<BatchJob> makeBatchCorpus() {
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

void BM_BatchProved(benchmark::State &State) {
  std::vector<BatchJob> Corpus = makeBatchCorpus();
  BatchOptions Opts;
  Opts.Jobs = 1; // serial, so the overhead is not hidden by idle workers
  PipelineStats Last;
  for (auto _ : State) {
    BatchResult R = runBatch(Corpus, Opts);
    if (!R.allSucceeded())
      reportFatalError("batch corpus failed to allocate");
    Last = R.Stats;
    benchmark::DoNotOptimize(R.Results.data());
  }
  // The last pass's own rate: a plain counter is reported as set, where
  // kAvgIterations would divide it by the iteration count.
  State.counters["programs_per_sec"] = Last.throughput();
  State.counters["validate_ms"] =
      static_cast<double>(Last.StageNs[JobStage::Validate]) / 1e6;
}

} // namespace

int main(int argc, char **argv) {
  for (const char *Name : {"frag", "md5", "wraps_rx"})
    benchmark::RegisterBenchmark(("lint_kernel/" + std::string(Name)).c_str(),
                                 BM_LintSingleKernel, Name);
  for (int I = 0; I < 3; ++I) {
    benchmark::RegisterBenchmark(
        ("lint_virtual/S" + std::to_string(I + 1)).c_str(), BM_LintVirtual,
        I);
    benchmark::RegisterBenchmark(
        ("lint_physical/S" + std::to_string(I + 1)).c_str(), BM_LintPhysical,
        I);
    benchmark::RegisterBenchmark(
        ("validate_scenario/S" + std::to_string(I + 1)).c_str(),
        BM_ValidateScenario, I);
  }
  benchmark::RegisterBenchmark("batch_proved", BM_BatchProved);

  std::vector<std::string> ArgStorage;
  std::vector<char *> ArgPtrs;
  argv = rewriteJsonFlagForGoogleBenchmark("lint_overhead", argc, argv, ArgStorage,
                                           ArgPtrs);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
