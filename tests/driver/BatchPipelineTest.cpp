//===- BatchPipelineTest.cpp - Batch driver unit tests --------------------===//
//
// Covers the batch allocation pipeline: result ordering, worker-count
// independence, cache hit accounting (within a run and across runs sharing
// one AnalysisCache), failure isolation, the stats renderers, and the job
// stage contract between stage times, trace spans and failure verdicts.
//
//===----------------------------------------------------------------------===//

#include "alloc/AllocationVerifier.h"
#include "driver/AnalysisCache.h"
#include "driver/BatchPipeline.h"
#include "ir/IRPrinter.h"
#include "trace/TraceEngine.h"
#include "workloads/ProgramGenerator.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace npral;

namespace {

/// A two-thread in-memory batch job from generator seeds.
BatchJob makeGeneratedJob(uint64_t Seed, const std::string &Name) {
  BatchJob Job;
  Job.Name = Name;
  for (int T = 0; T < 2; ++T) {
    GeneratorConfig Config;
    Config.TargetInstructions = 60;
    Config.MemBase = 0x1000 + 0x800 * static_cast<uint32_t>(T);
    Config.OutBase = 0x5000 + 0x100 * static_cast<uint32_t>(T);
    Program P = generateRandomProgram(Seed * 10 + static_cast<uint64_t>(T),
                                      Config);
    P.Name = "gen" + std::to_string(T);
    Job.Program.Threads.push_back(std::move(P));
  }
  return Job;
}

std::vector<BatchJob> makeCorpus(int N) {
  std::vector<BatchJob> Jobs;
  for (int I = 0; I < N; ++I)
    Jobs.push_back(makeGeneratedJob(static_cast<uint64_t>(I) + 1,
                                    "job" + std::to_string(I)));
  return Jobs;
}

std::string examplePath(const char *File) {
  return std::string(NPRAL_EXAMPLES_ASM_DIR) + "/" + File;
}

/// Every examples/asm program as a file job, in sorted order.
std::vector<BatchJob> exampleJobs() {
  std::vector<std::string> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(NPRAL_EXAMPLES_ASM_DIR))
    if (Entry.path().extension() == ".s")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  std::vector<BatchJob> Jobs(Paths.size());
  for (size_t I = 0; I < Paths.size(); ++I)
    Jobs[I].Path = Paths[I];
  return Jobs;
}

/// Run \p Jobs traced on one worker and return, per job name, the names of
/// its `batch` stage spans in the order they opened.
std::map<std::string, std::vector<std::string>>
tracedStageSpans(const std::vector<BatchJob> &Jobs, const BatchOptions &Opts,
                 BatchResult &Out) {
  TraceEngine &TE = TraceEngine::global();
  TE.clear();
  TE.setEnabled(true);
  Out = runBatch(Jobs, Opts);
  TE.setEnabled(false);
  std::map<std::string, std::vector<std::string>> Spans;
  for (const TraceEvent &E : TE.events()) {
    if (E.Ph != 'B' || E.Cat != "batch" || E.Name == "job" ||
        E.Name == "runBatch")
      continue;
    for (const TraceArg &A : E.Args)
      if (A.Key == "name")
        Spans[A.Value].push_back(E.Name);
  }
  TE.clear();
  return Spans;
}

} // namespace

TEST(BatchPipelineTest, ResultsInInputOrderAndSucceed) {
  std::vector<BatchJob> Jobs = makeCorpus(6);
  BatchOptions Opts;
  Opts.Jobs = 4;
  BatchResult R = runBatch(Jobs, Opts);

  ASSERT_EQ(R.Results.size(), Jobs.size());
  EXPECT_TRUE(R.allSucceeded());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    EXPECT_EQ(R.Results[I].Name, Jobs[I].Name);
    EXPECT_EQ(R.Results[I].NumThreads, 2);
    EXPECT_GT(R.Results[I].RegistersUsed, 0);
    EXPECT_LE(R.Results[I].RegistersUsed, Opts.Nreg);
  }
  EXPECT_EQ(R.Stats.Programs, 6);
  EXPECT_EQ(R.Stats.Succeeded, 6);
  EXPECT_EQ(R.Stats.Failed, 0);
  EXPECT_GT(R.Stats.WallNs, 0);
  EXPECT_GT(R.Stats.throughput(), 0.0);
}

TEST(BatchPipelineTest, FileInputsParseAndAllocate) {
  std::vector<BatchJob> Jobs;
  for (const char *File :
       {"two_threads.s", "fig3_paper.s", "modular_kernel.s"}) {
    BatchJob Job;
    Job.Path = examplePath(File);
    Jobs.push_back(std::move(Job));
  }
  BatchResult R = runBatch(Jobs, BatchOptions{});
  ASSERT_EQ(R.Results.size(), 3u);
  for (const BatchJobResult &Res : R.Results)
    EXPECT_TRUE(Res.Success) << Res.Name << ": " << Res.FailReason;
}

TEST(BatchPipelineTest, MissingFileFailsItsJobOnly) {
  std::vector<BatchJob> Jobs = makeCorpus(2);
  BatchJob Bad;
  Bad.Path = examplePath("does_not_exist.s");
  Jobs.insert(Jobs.begin() + 1, Bad);

  BatchResult R = runBatch(Jobs, BatchOptions{});
  ASSERT_EQ(R.Results.size(), 3u);
  EXPECT_TRUE(R.Results[0].Success);
  EXPECT_FALSE(R.Results[1].Success);
  EXPECT_FALSE(R.Results[1].FailReason.empty());
  EXPECT_TRUE(R.Results[2].Success);
  EXPECT_EQ(R.Stats.Failed, 1);
  EXPECT_FALSE(R.allSucceeded());
}

TEST(BatchPipelineTest, DuplicateInputsHitTheCache) {
  std::vector<BatchJob> Jobs = makeCorpus(3);
  Jobs.push_back(makeGeneratedJob(1, "job0-again")); // same seed as job0
  BatchOptions Opts;
  Opts.UseCache = true;
  BatchResult R = runBatch(Jobs, Opts);

  EXPECT_TRUE(R.allSucceeded());
  EXPECT_TRUE(R.Stats.CacheEnabled);
  // job0-again's two threads are byte-identical to job0's.
  EXPECT_GE(R.Stats.CacheHits, 2);
  EXPECT_GT(R.Stats.CacheMisses, 0);
  EXPECT_GT(R.Stats.cacheHitRate(), 0.0);
}

TEST(BatchPipelineTest, WarmSharedCacheHitsOnEveryThread) {
  std::vector<BatchJob> Jobs = makeCorpus(4);
  AnalysisCache Cache;
  BatchOptions Opts;
  Opts.UseCache = true;

  BatchResult Cold = runBatch(Jobs, Opts, &Cache);
  EXPECT_TRUE(Cold.allSucceeded());
  EXPECT_EQ(Cold.Stats.CacheHits, 0);
  EXPECT_EQ(Cold.Stats.CacheMisses, 8); // 4 jobs x 2 threads

  BatchResult Warm = runBatch(Jobs, Opts, &Cache);
  EXPECT_TRUE(Warm.allSucceeded());
  EXPECT_EQ(Warm.Stats.CacheHits, 8);
  EXPECT_EQ(Warm.Stats.CacheMisses, 0);
  EXPECT_EQ(Warm.Stats.cacheHitRate(), 1.0);

  // Warm results are identical to cold ones.
  for (size_t I = 0; I < Jobs.size(); ++I) {
    EXPECT_EQ(Warm.Results[I].RegistersUsed, Cold.Results[I].RegistersUsed);
    EXPECT_EQ(Warm.Results[I].SGR, Cold.Results[I].SGR);
    EXPECT_EQ(Warm.Results[I].TotalMoveCost, Cold.Results[I].TotalMoveCost);
  }
}

TEST(BatchPipelineTest, WorkerCountDoesNotChangeResults) {
  std::vector<BatchJob> Jobs = makeCorpus(8);
  BatchOptions Serial;
  Serial.Jobs = 1;
  Serial.KeepPhysical = true;
  BatchOptions Parallel;
  Parallel.Jobs = 4;
  Parallel.KeepPhysical = true;
  Parallel.UseCache = true;

  BatchResult A = runBatch(Jobs, Serial);
  BatchResult B = runBatch(Jobs, Parallel);
  ASSERT_EQ(A.Results.size(), B.Results.size());
  for (size_t I = 0; I < A.Results.size(); ++I) {
    EXPECT_EQ(A.Results[I].Success, B.Results[I].Success);
    EXPECT_EQ(A.Results[I].RegistersUsed, B.Results[I].RegistersUsed);
    EXPECT_EQ(A.Results[I].SGR, B.Results[I].SGR);
    EXPECT_EQ(A.Results[I].TotalMoveCost, B.Results[I].TotalMoveCost);
    ASSERT_EQ(A.Results[I].Physical.getNumThreads(),
              B.Results[I].Physical.getNumThreads());
    for (size_t T = 0; T < A.Results[I].Physical.Threads.size(); ++T)
      EXPECT_EQ(programToString(A.Results[I].Physical.Threads[T]),
                programToString(B.Results[I].Physical.Threads[T]))
          << "job " << I << " thread " << T;
  }
}

TEST(BatchPipelineTest, StatsRenderersEmitExpectedKeys) {
  std::vector<BatchJob> Jobs = makeCorpus(2);
  BatchOptions Opts;
  Opts.UseCache = true;
  Opts.Jobs = 2;
  BatchResult R = runBatch(Jobs, Opts);

  std::ostringstream Text;
  R.Stats.renderText(Text);
  EXPECT_NE(Text.str().find("programs"), std::string::npos);
  EXPECT_NE(Text.str().find("cache:"), std::string::npos);
  EXPECT_NE(Text.str().find("wall:"), std::string::npos);

  std::ostringstream JSON;
  R.Stats.renderJSON(JSON);
  const std::string S = JSON.str();
  for (const char *Key :
       {"\"programs\"", "\"succeeded\"", "\"failed\"", "\"jobs\"",
        "\"cache\"", "\"hit_rate\"", "\"stages_ns\"", "\"wall_ns\"",
        "\"throughput_programs_per_sec\""})
    EXPECT_NE(S.find(Key), std::string::npos) << "missing " << Key << " in\n"
                                              << S;
}

// Every job is validated, and both renderers show the validate line on
// every run.
TEST(BatchPipelineTest, ValidateProvesJobsAndFillsStats) {
  std::vector<BatchJob> Jobs = makeCorpus(4);
  BatchOptions Opts;
  Opts.Jobs = 2;
  BatchResult R = runBatch(Jobs, Opts);

  ASSERT_TRUE(R.allSucceeded());
  for (const BatchJobResult &Res : R.Results) {
    EXPECT_TRUE(Res.Validated) << Res.Name;
    EXPECT_GT(Res.StageNs[JobStage::Validate], 0) << Res.Name;
  }
  EXPECT_EQ(R.Stats.Validated, 4);
  EXPECT_EQ(R.Stats.ValidateFailed, 0);
  EXPECT_GT(R.Stats.StageNs[JobStage::Validate], 0);

  // The validate line is rendered by both renderers.
  std::ostringstream Text;
  R.Stats.renderText(Text);
  EXPECT_NE(Text.str().find("validate: 4 proved, 0 refuted"),
            std::string::npos)
      << Text.str();
  std::ostringstream JSON;
  R.Stats.renderJSON(JSON);
  EXPECT_NE(JSON.str().find("\"validate\": {\"proved\": 4"),
            std::string::npos)
      << JSON.str();
}

// A block no path reaches no longer aborts the job: every budget returns a
// proved allocation, or, without spilling, an infeasible verdict.
TEST(BatchPipelineTest, UnreachableBlockGetsAProofOrAVerdict) {
  BatchJob Job;
  Job.Name = "hash_probe_unreachable";
  Job.Text = test::hashProbeWithUnreachableBlock();
  for (int Nreg : {128, 16, 8})
    for (bool Spill : {false, true}) {
      SCOPED_TRACE("Nreg " + std::to_string(Nreg) +
                   (Spill ? " with spilling" : ""));
      BatchOptions Opts;
      Opts.Nreg = Nreg;
      Opts.AllowSpill = Spill;
      Opts.KeepPhysical = true;
      const BatchJobResult R = runSingleJob(Job, Opts);
      if (!R.Success) {
        EXPECT_EQ(R.FailCode, StatusCode::Infeasible) << R.failureSummary();
        EXPECT_FALSE(Spill);
        continue;
      }
      EXPECT_TRUE(R.Validated);
      EXPECT_TRUE(verifyAllocationSafety(R.Physical).ok());
    }
}

// batch.deadline_exceeded counts jobs that failed with DeadlineExceeded,
// and nothing else. An infeasible job whose deadline never passes stays
// infeasible and leaves the harden block out; the Table-3 s1 program on a
// cold cache overruns a 1 ms deadline however fast the host is (each md5
// thread needs ~3 ms of rename, analysis and bounds).
TEST(BatchPipelineTest, CountsOnlyDeadlineFailuresAsDeadlineExceeded) {
  BatchJob Infeasible;
  Infeasible.Path = examplePath("two_threads.s");
  BatchOptions Tight;
  Tight.Nreg = 4;
  Tight.DeadlineMs = 10000;
  BatchResult A = runBatch({Infeasible}, Tight);
  ASSERT_EQ(A.Results.size(), 1u);
  EXPECT_EQ(A.Results[0].FailCode, StatusCode::Infeasible);
  EXPECT_EQ(A.Stats.DeadlineExceeded, 0);
  std::ostringstream AJSON;
  A.Stats.renderJSON(AJSON);
  EXPECT_EQ(AJSON.str().find("\"harden\""), std::string::npos) << AJSON.str();

  BatchJob S1;
  S1.Name = "s1";
  S1.Text = test::printedAraScenario(0);
  BatchOptions Short;
  Short.DeadlineMs = 1;
  BatchResult B = runBatch({S1}, Short);
  ASSERT_EQ(B.Results.size(), 1u);
  EXPECT_EQ(B.Results[0].FailCode, StatusCode::DeadlineExceeded)
      << B.Results[0].failureSummary();
  EXPECT_EQ(B.Stats.DeadlineExceeded, 1);
  std::ostringstream BJSON;
  B.Stats.renderJSON(BJSON);
  EXPECT_NE(BJSON.str().find("\"harden\": {\"degraded\": 0, "
                             "\"deadline_exceeded\": 1, \"faults_injected\": 0}"),
            std::string::npos)
      << BJSON.str();
}

TEST(AnalysisCacheTest, HashDistinguishesPrograms) {
  GeneratorConfig Config;
  Program A = generateRandomProgram(1, Config);
  Program B = generateRandomProgram(2, Config);
  Program A2 = generateRandomProgram(1, Config);
  EXPECT_EQ(hashProgramContent(A), hashProgramContent(A2));
  EXPECT_NE(hashProgramContent(A), hashProgramContent(B));
  // The thread name is part of the content.
  A2.Name = "renamed";
  EXPECT_NE(hashProgramContent(A), hashProgramContent(A2));
}

TEST(AnalysisCacheTest, FirstInsertWins) {
  AnalysisCache Cache;
  GeneratorConfig Config;
  Program P = generateRandomProgram(7, Config);
  const std::string Text = programToString(P);

  EXPECT_EQ(Cache.lookup(42, Text), nullptr);
  EXPECT_EQ(Cache.misses(), 1);

  auto B1 = std::make_shared<const ThreadAnalysisBundle>(
      computeThreadAnalysisBundle(P));
  auto B2 = std::make_shared<const ThreadAnalysisBundle>(
      computeThreadAnalysisBundle(P));
  EXPECT_EQ(Cache.insert(42, Text, B1), B1);
  EXPECT_EQ(Cache.insert(42, Text, B2), B1); // loser dropped, entry kept
  EXPECT_EQ(Cache.lookup(42, Text), B1);
  EXPECT_EQ(Cache.hits(), 1);
  EXPECT_EQ(Cache.size(), 1u);
}

// Soundness under a forced 64-bit hash collision: two different programs
// deliberately inserted under the SAME key must never be served for each
// other. The byte comparison — not the hash — is what decides a hit.
TEST(AnalysisCacheTest, ForcedCollisionIsNeverServed) {
  AnalysisCache Cache;
  GeneratorConfig Config;
  Program A = generateRandomProgram(11, Config);
  Program B = generateRandomProgram(12, Config);
  const std::string TextA = programToString(A);
  const std::string TextB = programToString(B);
  ASSERT_NE(TextA, TextB);

  const uint64_t Key = 0xdeadbeef; // both programs "hash" to this
  auto BundleA = std::make_shared<const ThreadAnalysisBundle>(
      computeThreadAnalysisBundle(A));
  auto BundleB = std::make_shared<const ThreadAnalysisBundle>(
      computeThreadAnalysisBundle(B));

  EXPECT_EQ(Cache.insert(Key, TextA, BundleA), BundleA);

  // Lookup with B's text must miss even though the key is present, and the
  // collision must be observable in the stats.
  EXPECT_EQ(Cache.lookup(Key, TextB), nullptr);
  EXPECT_EQ(Cache.collisions(), 1);
  EXPECT_EQ(Cache.misses(), 1);
  EXPECT_EQ(Cache.hits(), 0);

  // Inserting B under the occupied key must not evict or poison A's entry;
  // the caller keeps its own bundle.
  EXPECT_EQ(Cache.insert(Key, TextB, BundleB), BundleB);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.lookup(Key, TextA), BundleA);
  EXPECT_EQ(Cache.hits(), 1);
  EXPECT_EQ(Cache.lookup(Key, TextB), nullptr);
  EXPECT_EQ(Cache.collisions(), 2);
}

// The contract of JobRun::stage: a job's stage spans carry the names
// jobStageName gives, every stage that took time has a span, and a failed
// job's verdict names the stage of its last span. Each example runs with
// the cache off, then twice with it on (the second copy hits, so it has no
// bounds spans); one more job is failed by an injected fault.
TEST(JobStageTest, StageSpansMatchStageTimesAndVerdicts) {
  const std::vector<BatchJob> Examples = exampleJobs();
  ASSERT_GE(Examples.size(), 12u);
  std::vector<BatchJob> Twice = Examples;
  for (const BatchJob &J : Examples) {
    Twice.push_back(J);
    Twice.back().Name = J.Path + "#2";
  }

  BatchOptions Plain;
  BatchOptions Cached = Plain;
  Cached.UseCache = true;
  BatchOptions Faulted = Plain;
  ErrorOr<FaultInjector> FI = FaultInjector::parse("alloc@100#1");
  ASSERT_TRUE(FI.ok());
  Faulted.Faults = FI.take();

  std::vector<std::string> StageNames;
  for (size_t I = 0; I < NumJobStages; ++I)
    StageNames.push_back(jobStageName(static_cast<JobStage>(I)));

  int BoundsSpans = 0, Failures = 0;
  for (const auto &[Jobs, Opts] :
       {std::pair{Examples, Plain}, std::pair{Twice, Cached},
        std::pair{std::vector<BatchJob>{Examples.front()}, Faulted}}) {
    BatchResult Out;
    auto Spans = tracedStageSpans(Jobs, Opts, Out);
    for (const BatchJobResult &R : Out.Results) {
      SCOPED_TRACE(R.Name);
      const std::vector<std::string> &Mine = Spans[R.Name];
      for (const std::string &Name : Mine)
        EXPECT_NE(std::find(StageNames.begin(), StageNames.end(), Name),
                  StageNames.end())
            << Name;
      for (size_t I = 0; I < NumJobStages; ++I) {
        const JobStage St = static_cast<JobStage>(I);
        if (R.StageNs[St] > 0) {
          EXPECT_NE(std::find(Mine.begin(), Mine.end(), jobStageName(St)),
                    Mine.end())
              << jobStageName(St);
        }
      }
      BoundsSpans += static_cast<int>(
          std::count(Mine.begin(), Mine.end(), jobStageName(JobStage::Bounds)));
      if (R.Success)
        continue;
      ++Failures;
      ASSERT_FALSE(Mine.empty());
      EXPECT_EQ(Mine.back(), jobStageName(*R.FailStage)) << R.failureSummary();
    }
  }
  // lint_buggy.s fails its analysis three times, the faulted job once in
  // alloc; every cache-missed thread that reached its bounds has a span.
  EXPECT_EQ(Failures, 4);
  EXPECT_GT(BoundsSpans, 0);
}
