//===- BatchPipeline.cpp --------------------------------------------------===//

#include "driver/BatchPipeline.h"

#include "analysis/LiveRangeRenaming.h"
#include "asmparse/AsmParser.h"
#include "driver/AnalysisCache.h"
#include "driver/JobRun.h"
#include "harden/SpillFallback.h"
#include "ir/IRVerifier.h"
#include "lint/TranslationValidator.h"
#include "profile/StaticFrequencyEstimator.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "trace/MetricsRegistry.h"
#include "trace/TraceEngine.h"

#include <chrono>
#include <exception>
#include <string_view>

using namespace npral;

namespace {

using Clock = InterAllocLimits::Clock;

/// Every stage a job times, in pipeline order (Internal never is). The
/// stats renderers list all but Validate in their stage line; validation
/// has a line of its own.
constexpr JobStage TimedStages[] = {JobStage::Parse, JobStage::Analysis,
                                    JobStage::Bounds, JobStage::Alloc,
                                    JobStage::Validate};

int64_t nsBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(To - From)
      .count();
}

/// Run one input through the full pipeline into \p R. Touches only \p R
/// (and the shared AnalysisCache, which synchronises internally).
/// \p CacheTag partitions the cache's key space (see runSingleJob).
/// \p Limits carries the job's deadline. \p Log, when non-null, records
/// the allocation's decisions (see runSingleJob).
void processOne(const BatchJob &In, const BatchOptions &Opts,
                AnalysisCache *Cache, uint64_t CacheTag,
                const InterAllocLimits &Limits, AllocationDecisionLog *Log,
                BatchJobResult &R) {
  NPRAL_TRACE_SPAN_ARGS("batch", "job", {"name", R.Name});
  JobRun Job(R, Opts, Limits);

  // Parse (or adopt the in-memory program).
  MultiThreadProgram MTP;
  if (!Job.stage(JobStage::Parse, {}, [&] {
        if (In.Path.empty() && In.Text.empty()) {
          MTP = In.Program;
        } else {
          std::string_view Source = In.Text;
          std::string FileText;
          if (!In.Path.empty()) {
            ErrorOr<std::string> Read = readTextFile(In.Path);
            if (!Read.ok())
              return Job.fail(Read.status());
            FileText = Read.take();
            Source = FileText;
          }
          ErrorOr<MultiThreadProgram> Parsed = parseAssembly(Source);
          if (!Parsed.ok())
            return Job.fail(Parsed.status());
          MTP = Parsed.take();
        }
        R.NumThreads = MTP.getNumThreads();
        return R.NumThreads > 0 ||
               Job.fail(StatusCode::InvalidIR, "no threads");
      }))
    return;

  // Per thread: rename and analyze through the cache, then estimate the
  // bounds of a thread the cache missed. Alongside, resolve each thread's
  // cost model: a collected profile wins (matched by code hash), then the
  // static estimator, then unit weights.
  std::vector<std::shared_ptr<const ThreadAnalysisBundle>> Bundles;
  std::vector<CostModel> Models;
  Bundles.reserve(MTP.Threads.size());
  Models.reserve(MTP.Threads.size());
  for (Program &T : MTP.Threads) {
    std::shared_ptr<const ThreadAnalysisBundle> Bundle;
    std::shared_ptr<ThreadAnalysisBundle> Fresh; // A miss, before its bounds.
    std::string Text;
    uint64_t Key = 0;
    if (!Job.stage(JobStage::Analysis, T.Name, [&] {
          if (Status St = verifyProgram(T); !St.ok())
            return Job.fail(St.code(), "thread '" + T.Name + "': " + St.str());
          T = renameLiveRanges(std::move(T));

          CostModel CM;
          const ThreadProfile *TP =
              Opts.Profile
                  ? Opts.Profile->findByCodeHash(profileCodeHash(T))
                  : nullptr;
          if (TP) {
            ++R.ProfiledThreads;
            const int ProfIdx =
                static_cast<int>(TP - Opts.Profile->Threads.data());
            CM = Opts.Profile->costModel(ProfIdx, T.getNumBlocks());
          } else if (Opts.StaticPGO) {
            CM = estimateCostModel(T);
          }
          Models.push_back(std::move(CM));

          // Cache keying runs on the flat binary encoding — no assembly
          // print in the hot path, and no encoding at all without a cache.
          // Collected profiles are matched by printed-text hash (the
          // collector's convention), so only profile-carrying runs pay for
          // one. The bundle reads no weight, so the key carries none.
          if (Cache) {
            if (Status F = Opts.Faults.check("cache", R.Name); !F.ok())
              return Job.fail(F);
            Text = encodeProgram(T);
            Key = analysisCacheKey(Text, CacheTag);
            Bundle = Cache->lookup(Key, Text);
            ++(Bundle ? R.CacheHits : R.CacheMisses);
            NPRAL_TRACE_INSTANT("batch", Bundle ? "cache-hit" : "cache-miss",
                                {{"thread", T.Name}});
          }
          if (!Bundle) {
            Fresh = std::make_shared<ThreadAnalysisBundle>();
            Fresh->TA = analyzeThread(T);
          }
          // Analysis precondition: no path may read an undefined register.
          // The bundle's liveness answers this without extra dataflow.
          const LivenessInfo &Live = (Bundle ? Bundle->TA : Fresh->TA).Liveness;
          if (Status St = checkNoUseOfUndef(T, Live); !St.ok())
            return Job.fail(St.code(), "thread '" + T.Name + "': " + St.str());
          return true;
        }))
      return;
    if (Fresh && !Job.stage(JobStage::Bounds, T.Name, [&] {
          Fresh->Bounds = estimateRegBounds(Fresh->TA);
          Bundle = Cache ? Cache->insert(Key, std::move(Text), std::move(Fresh))
                         : std::move(Fresh);
          return true;
        }))
      return;
    Bundles.push_back(std::move(Bundle));
  }

  // Inter/intra allocation. The allocator polls the deadline in its own
  // loops, so an expired job stops there instead of wedging its worker.
  InterThreadResult Alloc;
  if (!Job.stage(JobStage::Alloc, {}, [&] {
        if (Opts.AllowSpill) {
          SpillFallbackOptions SpillOpts;
          SpillOpts.MaxSpills = Opts.MaxSpills;
          SpillFallbackResult SF = allocateWithSpillFallback(
              MTP, Opts.Nreg, Bundles, Models, Log, Limits, SpillOpts);
          Alloc = std::move(SF.Inter);
          R.UsedSpilling = SF.UsedSpilling;
          R.SpilledRanges = SF.SpilledRanges;
          R.SpillLoads = SF.SpillLoads;
          R.SpillStores = SF.SpillStores;
          R.SpillAttempts = SF.Attempts;
        } else {
          Alloc = allocateInterThread(MTP, Opts.Nreg, Bundles, Models, Log,
                                      Limits);
        }
        return Alloc.Success ||
               Job.fail(Alloc.FailCode == StatusCode::Ok ? StatusCode::Generic
                                                         : Alloc.FailCode,
                        "allocation failed: " + Alloc.FailReason);
      }))
    return;
  R.RegistersUsed = Alloc.RegistersUsed;
  R.SGR = Alloc.SGR;
  R.TotalMoveCost = Alloc.TotalMoveCost;
  R.TotalWeightedCost = Alloc.TotalWeightedCost;

  // Translation validation, the job's one physical-program check: prove
  // the physical output computes exactly what the renamed virtual program
  // (still held in MTP; allocation does not mutate its input) computes and
  // keeps every register live across a CSB private. Spill-degraded outputs
  // are proved against the same pre-spill reference. A strict run's
  // decision log describes its one allocation attempt, so it must also
  // agree with the result it explains.
  if (!Job.stage(JobStage::Validate, {}, [&] {
        MetricsRegistry *Metrics = &MetricsRegistry::global();
        DiagnosticEngine &Diags = R.ValidateDiags;
        R.Validation = validateTranslation(MTP, Alloc.Physical, Diags, Metrics);
        const int LogMismatches =
            Log && !Opts.AllowSpill
                ? crossCheckDecisionLog(*Log, Alloc, Diags, Metrics)
                : 0;
        Diags.sortByPosition();
        if (R.Validation.Proved && LogMismatches == 0)
          return true;
        const Diagnostic *First = Diags.firstError();
        return Job.fail(StatusCode::Internal,
                        "translation validation refuted the allocation: " +
                            (First ? First->Message
                                   : std::string("program shape mismatch")));
      }))
    return;
  R.Validated = true;

  R.Threads = std::move(Alloc.Threads);
  R.SharedBase = Alloc.SharedBase;
  if (Opts.KeepPhysical)
    R.Physical = std::move(Alloc.Physical);
  R.Success = true;
}

/// The fault-isolation wrapper both entry points share: processOne with an
/// exception net. Whatever the job does lands in its returned result,
/// never in the caller's control flow. The job's deadline is taken here,
/// once.
BatchJobResult runIsolated(const BatchJob &In, const BatchOptions &Opts,
                           AnalysisCache *Cache, uint64_t CacheTag,
                           AllocationDecisionLog *Log) {
  InterAllocLimits Limits;
  if (Opts.DeadlineMs > 0)
    Limits.Deadline =
        Clock::now() + std::chrono::milliseconds(Opts.DeadlineMs);
  BatchJobResult R;
  R.Name = In.Name.empty() ? In.Path : In.Name;
  try {
    processOne(In, Opts, Cache, CacheTag, Limits, Log, R);
  } catch (const std::exception &E) {
    std::string Name = std::move(R.Name);
    R = BatchJobResult();
    R.Name = std::move(Name);
    R.FailStage = JobStage::Internal;
    R.FailCode = StatusCode::Internal;
    R.FailReason = std::string("uncaught exception: ") + E.what();
  }
  return R;
}

} // namespace

TraceArgs JobRun::spanArgs(std::string_view Thread) const {
  TraceArgs Args{{"name", R.Name}};
  if (!Thread.empty())
    Args.push_back({"thread", std::string(Thread)});
  return Args;
}

bool JobRun::fail(StatusCode Code, std::string Reason) {
  if (R.FailStage)
    return false;
  R.FailStage = Stage;
  R.FailCode = Code;
  R.FailReason = std::move(Reason);
  if (Code == StatusCode::DeadlineExceeded || Limits.expired()) {
    R.FailCode = StatusCode::DeadlineExceeded;
    R.FailReason =
        "deadline of " + std::to_string(Opts.DeadlineMs) + " ms exceeded";
  }
  return false;
}

BatchJobResult npral::runSingleJob(const BatchJob &In,
                                   const BatchOptions &Opts,
                                   AnalysisCache *Cache, uint64_t CacheTag,
                                   AllocationDecisionLog *Log) {
  return runIsolated(In, Opts, Cache, CacheTag, Log);
}

BatchResult npral::runBatch(const std::vector<BatchJob> &Inputs,
                            const BatchOptions &Opts, AnalysisCache *Cache) {
  NPRAL_TRACE_SPAN_ARGS("batch", "runBatch",
                        {"programs", std::to_string(Inputs.size())},
                        {"jobs", std::to_string(std::max(1, Opts.Jobs))});
  BatchResult Out;
  Out.Results.resize(Inputs.size());

  AnalysisCache LocalCache(Opts.CacheBytes);
  if (!Cache && Opts.UseCache)
    Cache = &LocalCache;

  // The per-run registry holds the job-latency histogram; the batch.*
  // counters join it from PipelineStats below, and the whole run then
  // folds into the process-wide registry.
  MetricsRegistry RunMetrics;

  const Clock::time_point Wall0 = Clock::now();
  {
    ThreadPool Pool(Opts.Jobs);
    parallelFor(Pool, static_cast<int>(Inputs.size()), [&](int I) {
      const BatchJob &In = Inputs[static_cast<size_t>(I)];
      BatchJobResult &Slot = Out.Results[static_cast<size_t>(I)];
      const Clock::time_point Job0 = Clock::now();
      // Fault isolation: whatever one item does — fail a stage, blow a
      // deadline, or throw — lands in its own result slot; the batch and
      // its siblings continue.
      Slot = runIsolated(In, Opts, Cache, /*CacheTag=*/0, /*Log=*/nullptr);
      RunMetrics.histogram("batch.job_wall_ns")
          .observe(nsBetween(Job0, Clock::now()));
    });
  }

  PipelineStats &S = Out.Stats;
  S.WallNs = nsBetween(Wall0, Clock::now());
  S.Programs = static_cast<int>(Inputs.size());
  S.Jobs = std::max(1, Opts.Jobs);
  S.CacheEnabled = Cache != nullptr;
  for (const BatchJobResult &R : Out.Results) {
    ++(R.Success ? S.Succeeded : S.Failed);
    S.Degraded += R.Success && R.UsedSpilling ? 1 : 0;
    S.DeadlineExceeded += R.FailCode == StatusCode::DeadlineExceeded ? 1 : 0;
    S.FaultsInjected += R.FailCode == StatusCode::FaultInjected ? 1 : 0;
    S.Validated += R.Validated ? 1 : 0;
    // A job whose deadline passed in validate was not refuted.
    const bool Refuted = R.FailStage == JobStage::Validate &&
                         R.FailCode != StatusCode::DeadlineExceeded;
    S.ValidateFailed += Refuted ? 1 : 0;
    S.CacheHits += R.CacheHits;
    S.CacheMisses += R.CacheMisses;
    for (JobStage St : TimedStages)
      S.StageNs[St] += R.StageNs[St];
  }
  if (const Histogram *H = RunMetrics.findHistogram("batch.job_wall_ns")) {
    S.JobWallCount = H->count();
    S.JobWallP50Ns = H->percentile(50);
    S.JobWallP95Ns = H->percentile(95);
    S.JobWallP99Ns = H->percentile(99);
  }
  S.toRegistry(RunMetrics);
  MetricsRegistry::global().merge(RunMetrics);
  return Out;
}

void PipelineStats::toRegistry(MetricsRegistry &MR) const {
  MR.counter("batch.programs").add(Programs);
  MR.counter("batch.succeeded").add(Succeeded);
  MR.counter("batch.failed").add(Failed);
  MR.gauge("batch.jobs").set(Jobs);
  MR.gauge("batch.cache.enabled").set(CacheEnabled ? 1 : 0);
  MR.counter("batch.cache.hits").add(CacheHits);
  MR.counter("batch.cache.misses").add(CacheMisses);
  for (JobStage St : TimedStages)
    MR.counter(std::string("batch.stage.") + jobStageName(St) + "_ns")
        .add(StageNs[St]);
  MR.counter("batch.wall_ns").add(WallNs);
  MR.counter("batch.degraded").add(Degraded);
  MR.counter("batch.deadline_exceeded").add(DeadlineExceeded);
  MR.counter("batch.faults_injected").add(FaultsInjected);
  MR.counter("batch.validated").add(Validated);
  MR.counter("batch.validate_failed").add(ValidateFailed);
}

void PipelineStats::renderText(std::ostream &OS) const {
  auto ms = [](int64_t Ns) { return static_cast<double>(Ns) / 1e6; };
  OS << formatString("batch: %d programs, %d ok, %d failed, jobs=%d\n",
                     Programs, Succeeded, Failed, Jobs);
  OS << "stages (ms):";
  const char *Sep = " ";
  for (JobStage St : TimedStages) {
    if (St == JobStage::Validate)
      continue;
    OS << formatString("%s%s %.2f", Sep, jobStageName(St), ms(StageNs[St]));
    Sep = "  ";
  }
  OS << "\n";
  if (CacheEnabled)
    OS << formatString("cache: %lld hits, %lld misses (%.1f%% hit rate)\n",
                       static_cast<long long>(CacheHits),
                       static_cast<long long>(CacheMisses),
                       cacheHitRate() * 100.0);
  else
    OS << "cache: disabled\n";
  // Robustness line only when something robustness-related happened, so
  // healthy runs keep their historical byte-stable output.
  if (Degraded || DeadlineExceeded || FaultsInjected)
    OS << formatString(
        "harden: %d degraded, %d deadline-exceeded, %d faults injected\n",
        Degraded, DeadlineExceeded, FaultsInjected);
  OS << formatString("validate: %d proved, %d refuted (%.2f ms)\n",
                     Validated, ValidateFailed,
                     ms(StageNs[JobStage::Validate]));
  OS << formatString("wall: %.2f ms (%.1f programs/s)\n", ms(WallNs),
                     throughput());
}

void PipelineStats::renderJSON(std::ostream &OS) const {
  OS << "{\n";
  OS << "  \"programs\": " << Programs << ",\n";
  OS << "  \"succeeded\": " << Succeeded << ",\n";
  OS << "  \"failed\": " << Failed << ",\n";
  OS << "  \"jobs\": " << Jobs << ",\n";
  OS << "  \"cache\": {\"enabled\": " << (CacheEnabled ? "true" : "false")
     << ", \"hits\": " << CacheHits << ", \"misses\": " << CacheMisses
     << formatString(", \"hit_rate\": %.4f}", cacheHitRate()) << ",\n";
  OS << "  \"stages_ns\": {";
  const char *Sep = "";
  for (JobStage St : TimedStages) {
    if (St == JobStage::Validate)
      continue;
    OS << Sep << "\"" << jobStageName(St) << "\": " << StageNs[St];
    Sep = ", ";
  }
  OS << "},\n";
  if (Degraded || DeadlineExceeded || FaultsInjected)
    OS << "  \"harden\": {\"degraded\": " << Degraded
       << ", \"deadline_exceeded\": " << DeadlineExceeded
       << ", \"faults_injected\": " << FaultsInjected << "},\n";
  OS << "  \"validate\": {\"proved\": " << Validated
     << ", \"refuted\": " << ValidateFailed
     << ", \"ns\": " << StageNs[JobStage::Validate] << "},\n";
  // Job-latency percentiles come from the batch.job_wall_ns histogram and
  // only exist for real runs; synthetic stats keep their golden output.
  if (JobWallCount > 0)
    OS << "  \"job_wall_ns\": {\"count\": " << JobWallCount
       << ", \"p50\": " << JobWallP50Ns << ", \"p95\": " << JobWallP95Ns
       << ", \"p99\": " << JobWallP99Ns << "},\n";
  OS << "  \"wall_ns\": " << WallNs << ",\n";
  OS << formatString("  \"throughput_programs_per_sec\": %.2f\n",
                     throughput());
  OS << "}\n";
}
