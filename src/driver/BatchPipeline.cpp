//===- BatchPipeline.cpp --------------------------------------------------===//

#include "driver/BatchPipeline.h"

#include "alloc/AllocationVerifier.h"
#include "analysis/LiveRangeRenaming.h"
#include "asmparse/AsmParser.h"
#include "driver/AnalysisCache.h"
#include "harden/SpillFallback.h"
#include "ir/IRPrinter.h"
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

int64_t nsBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(To - From)
      .count();
}

/// Run one input through the full pipeline. Touches only its own result
/// (and the shared AnalysisCache, which synchronises internally).
/// \p ProfileHash is the content hash of Opts.Profile (0 when absent),
/// computed once by runBatch and folded into every cache key.
/// \p Limits carries the job's deadline, polled after every stage on the
/// clock read that timed it. \p Log, when non-null, records the
/// allocation's decisions (see runSingleJob).
BatchJobResult processOne(const BatchJob &In, const BatchOptions &Opts,
                          AnalysisCache *Cache, uint64_t ProfileHash,
                          const InterAllocLimits &Limits,
                          AllocationDecisionLog *Log) {
  BatchJobResult R;
  R.Name = In.Name.empty() ? In.Path : In.Name;
  NPRAL_TRACE_SPAN_ARGS("batch", "job", {"name", R.Name});

  // Every early return below fills FailStage + FailCode so the failed[]
  // report can say *where* and *why* without parsing the message. It also
  // applies the one deadline rule: once the deadline has passed, the job
  // fails with DeadlineExceeded whatever the stage concluded.
  auto fail = [&](const char *Stage, StatusCode Code,
                  std::string Reason) -> BatchJobResult & {
    R.FailStage = Stage;
    R.FailCode = Code;
    R.FailReason = std::move(Reason);
    if (Code == StatusCode::DeadlineExceeded || Limits.expired()) {
      R.FailCode = StatusCode::DeadlineExceeded;
      R.FailReason =
          "deadline of " + std::to_string(Opts.DeadlineMs) + " ms exceeded";
    }
    return R;
  };

  // Stage 1: parse (or adopt the in-memory program).
  MultiThreadProgram MTP;
  {
    NPRAL_TRACE_SPAN_ARGS("batch", "parse", {"name", R.Name});
    const Clock::time_point T0 = Clock::now();
    if (Status F = Opts.Faults.check("parse", R.Name); !F.ok())
      return fail("parse", F.code(), F.str());
    if (In.Path.empty() && In.Text.empty()) {
      MTP = In.Program;
    } else {
      std::string_view Source = In.Text;
      std::string FileText;
      if (!In.Path.empty()) {
        ErrorOr<std::string> Read = readTextFile(In.Path);
        if (!Read.ok())
          return fail("parse", Read.status().code(), Read.status().str());
        FileText = Read.take();
        Source = FileText;
      }
      ErrorOr<MultiThreadProgram> Parsed = parseAssembly(Source);
      if (!Parsed.ok()) {
        R.ParseNs = nsBetween(T0, Clock::now());
        return fail("parse", Parsed.status().code(), Parsed.status().str());
      }
      MTP = Parsed.take();
    }
    const Clock::time_point T1 = Clock::now();
    R.ParseNs = nsBetween(T0, T1);
    if (Limits.expiredAt(T1))
      return fail("parse", StatusCode::DeadlineExceeded, {});
  }
  R.NumThreads = MTP.getNumThreads();
  if (R.NumThreads == 0)
    return fail("parse", StatusCode::InvalidIR, "no threads");

  // Stage 2+3: per-thread rename, analysis and bounds, through the cache.
  // Alongside, resolve each thread's cost model: a collected profile wins
  // (matched by code hash), then the static estimator, then unit weights.
  std::vector<std::shared_ptr<const ThreadAnalysisBundle>> Bundles;
  std::vector<CostModel> Models;
  Bundles.reserve(MTP.Threads.size());
  Models.reserve(MTP.Threads.size());
  if (Status F = Opts.Faults.check("analysis", R.Name); !F.ok())
    return fail("analysis", F.code(), F.str());
  for (Program &T : MTP.Threads) {
    NPRAL_TRACE_SPAN_ARGS("batch", "analysis", {"name", R.Name},
                          {"thread", T.Name});
    if (Status S = verifyProgram(T); !S.ok())
      return fail("analysis", S.code(), "thread '" + T.Name + "': " + S.str());
    const Clock::time_point T0 = Clock::now();
    T = renameLiveRanges(std::move(T));

    CostModel CM;
    const ThreadProfile *TP =
        Opts.Profile
            ? Opts.Profile->findByCodeHash(fnv1aHash(programToString(T)))
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

    std::shared_ptr<const ThreadAnalysisBundle> Bundle;
    // Cache keying runs on the flat binary encoding — no assembly print in
    // the hot path, and no encoding at all without a cache. Collected
    // profiles are keyed by printed-text hash (the collector's
    // convention), so only profile-carrying runs pay for one.
    std::string Text;
    uint64_t Key = 0;
    if (Cache) {
      if (Status F = Opts.Faults.check("cache", R.Name); !F.ok())
        return fail("analysis", F.code(), F.str());
      Text = encodeProgram(T);
      // The bundle itself is weight-independent, but folding the profile
      // hash keeps the cache partitioned per (program, profile) pair so a
      // long-lived shared cache never crosses PGO configurations.
      Key = analysisCacheKey(Text, ProfileHash);
      Bundle = Cache->lookup(Key, Text);
      ++(Bundle ? R.CacheHits : R.CacheMisses);
    }
    Clock::time_point Done; // When this thread's analysis and bounds ended.
    if (Bundle) {
      Done = Clock::now();
      R.AnalysisNs += nsBetween(T0, Done);
      NPRAL_TRACE_INSTANT("batch", "cache-hit", {{"thread", T.Name}});
    } else {
      if (Cache)
        NPRAL_TRACE_INSTANT("batch", "cache-miss", {{"thread", T.Name}});
      auto Fresh = std::make_shared<ThreadAnalysisBundle>();
      Fresh->TA = analyzeThread(T);
      const Clock::time_point T1 = Clock::now();
      R.AnalysisNs += nsBetween(T0, T1);
      Fresh->Bounds = estimateRegBounds(Fresh->TA);
      Done = Clock::now();
      R.BoundsNs += nsBetween(T1, Done);
      Bundle = Cache ? Cache->insert(Key, std::move(Text), std::move(Fresh))
                     : std::move(Fresh);
    }
    // Analysis precondition: no path may read an undefined register. The
    // bundle's liveness answers this without extra dataflow.
    if (Status S = checkNoUseOfUndef(T, Bundle->TA.Liveness); !S.ok())
      return fail("analysis", S.code(), "thread '" + T.Name + "': " + S.str());
    if (Limits.expiredAt(Done))
      return fail("analysis", StatusCode::DeadlineExceeded, {});
    Bundles.push_back(std::move(Bundle));
  }

  // Stage 4: inter/intra allocation. The allocator polls the deadline in
  // its own loops, so an expired job stops there instead of wedging its
  // worker.
  InterThreadResult Alloc;
  {
    NPRAL_TRACE_SPAN_ARGS("batch", "alloc", {"name", R.Name});
    if (Status F = Opts.Faults.check("alloc", R.Name); !F.ok())
      return fail("alloc", F.code(), F.str());
    const Clock::time_point T0 = Clock::now();
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
    const Clock::time_point T1 = Clock::now();
    R.AllocNs = nsBetween(T0, T1);
    if (Limits.expiredAt(T1))
      return fail("alloc", StatusCode::DeadlineExceeded, {});
  }
  if (!Alloc.Success)
    return fail("alloc",
                Alloc.FailCode == StatusCode::Ok ? StatusCode::Generic
                                                 : Alloc.FailCode,
                "allocation failed: " + Alloc.FailReason);
  R.RegistersUsed = Alloc.RegistersUsed;
  R.SGR = Alloc.SGR;
  R.TotalMoveCost = Alloc.TotalMoveCost;
  R.TotalWeightedCost = Alloc.TotalWeightedCost;

  // Stage 5: independent cross-thread safety verification.
  if (Opts.Verify) {
    NPRAL_TRACE_SPAN_ARGS("batch", "verify", {"name", R.Name});
    const Clock::time_point T0 = Clock::now();
    Status Safety = verifyAllocationSafety(Alloc.Physical);
    const Clock::time_point T1 = Clock::now();
    R.VerifyNs = nsBetween(T0, T1);
    if (Limits.expiredAt(T1))
      return fail("verify", StatusCode::DeadlineExceeded, {});
    if (!Safety.ok())
      return fail("verify", StatusCode::Internal,
                  "unsafe allocation: " + Safety.str());
  }

  // Stage 6: translation validation — prove the physical output computes
  // exactly what the renamed virtual program (still held in MTP; allocation
  // does not mutate its input) computes. Spill-degraded outputs are proved
  // against the same pre-spill reference. A strict run's decision log
  // describes its one allocation attempt, so it must also agree with the
  // result it explains.
  if (Opts.Validate) {
    NPRAL_TRACE_SPAN_ARGS("batch", "validate", {"name", R.Name});
    const Clock::time_point T0 = Clock::now();
    MetricsRegistry *Metrics = &MetricsRegistry::global();
    DiagnosticEngine &Diags = R.ValidateDiags;
    R.Validation = validateTranslation(MTP, Alloc.Physical, Diags, Metrics);
    const int LogMismatches =
        Log && !Opts.AllowSpill
            ? crossCheckDecisionLog(*Log, Alloc, Diags, Metrics)
            : 0;
    const Clock::time_point T1 = Clock::now();
    R.ValidateNs = nsBetween(T0, T1);
    Diags.sortByPosition();
    if (Limits.expiredAt(T1))
      return fail("validate", StatusCode::DeadlineExceeded, {});
    if (!R.Validation.Proved || LogMismatches > 0) {
      const Diagnostic *First = Diags.firstError();
      return fail("validate", StatusCode::Internal,
                  "translation validation refuted the allocation: " +
                      (First ? First->Message
                             : std::string("program shape mismatch")));
    }
    R.Validated = true;
  }

  R.Threads = std::move(Alloc.Threads);
  R.SharedBase = Alloc.SharedBase;
  if (Opts.KeepPhysical)
    R.Physical = std::move(Alloc.Physical);
  R.Success = true;
  return R;
}

/// The fault-isolation wrapper both entry points share: processOne with an
/// exception net. Whatever the job does lands in its returned result,
/// never in the caller's control flow. The job's deadline is taken here,
/// once.
BatchJobResult runIsolated(const BatchJob &In, const BatchOptions &Opts,
                           AnalysisCache *Cache, uint64_t ProfileHash,
                           AllocationDecisionLog *Log) {
  InterAllocLimits Limits;
  if (Opts.DeadlineMs > 0)
    Limits.Deadline =
        Clock::now() + std::chrono::milliseconds(Opts.DeadlineMs);
  try {
    return processOne(In, Opts, Cache, ProfileHash, Limits, Log);
  } catch (const std::exception &E) {
    BatchJobResult R;
    R.Name = In.Name.empty() ? In.Path : In.Name;
    R.FailStage = "internal";
    R.FailCode = StatusCode::Internal;
    R.FailReason = std::string("uncaught exception: ") + E.what();
    return R;
  }
}

/// The cache-key partition tag for a run: a loaded profile's content hash
/// wins, then the static-PGO constant, then the caller's override.
uint64_t resolveProfileHash(const BatchOptions &Opts, uint64_t Override) {
  if (Opts.Profile)
    return Opts.Profile->contentHash();
  if (Opts.StaticPGO)
    return fnv1aHash("static-pgo");
  return Override;
}

} // namespace

BatchJobResult npral::runSingleJob(const BatchJob &In,
                                   const BatchOptions &Opts,
                                   AnalysisCache *Cache, uint64_t ProfileHash,
                                   AllocationDecisionLog *Log) {
  return runIsolated(In, Opts, Cache, resolveProfileHash(Opts, ProfileHash),
                     Log);
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

  // One hash per batch, not per job: the profile is immutable for the run.
  // A distinct constant tag separates static-PGO runs from unweighted ones
  // in a shared cache (the bundles are identical, but keeping the key
  // spaces apart makes hit/miss accounting per configuration exact).
  const uint64_t ProfileHash = resolveProfileHash(Opts, 0);

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
      Slot = runIsolated(In, Opts, Cache, ProfileHash, /*Log=*/nullptr);
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
    S.Degraded += R.UsedSpilling ? 1 : 0;
    S.DeadlineExceeded += R.FailCode == StatusCode::DeadlineExceeded ? 1 : 0;
    S.FaultsInjected += R.FailCode == StatusCode::FaultInjected ? 1 : 0;
    S.Validated += R.Validated ? 1 : 0;
    // A job whose deadline passed in validate was not refuted.
    const bool Refuted = R.FailStage == "validate" &&
                         R.FailCode != StatusCode::DeadlineExceeded;
    S.ValidateFailed += Refuted ? 1 : 0;
    S.CacheHits += R.CacheHits;
    S.CacheMisses += R.CacheMisses;
    S.ParseNs += R.ParseNs;
    S.AnalysisNs += R.AnalysisNs;
    S.BoundsNs += R.BoundsNs;
    S.AllocNs += R.AllocNs;
    S.VerifyNs += R.VerifyNs;
    S.ValidateNs += R.ValidateNs;
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
  MR.counter("batch.stage.parse_ns").add(ParseNs);
  MR.counter("batch.stage.analysis_ns").add(AnalysisNs);
  MR.counter("batch.stage.bounds_ns").add(BoundsNs);
  MR.counter("batch.stage.alloc_ns").add(AllocNs);
  MR.counter("batch.stage.verify_ns").add(VerifyNs);
  MR.counter("batch.wall_ns").add(WallNs);
  MR.counter("batch.degraded").add(Degraded);
  MR.counter("batch.deadline_exceeded").add(DeadlineExceeded);
  MR.counter("batch.faults_injected").add(FaultsInjected);
  MR.counter("batch.validated").add(Validated);
  MR.counter("batch.validate_failed").add(ValidateFailed);
  MR.counter("batch.stage.validate_ns").add(ValidateNs);
}

void PipelineStats::renderText(std::ostream &OS) const {
  auto ms = [](int64_t Ns) { return static_cast<double>(Ns) / 1e6; };
  OS << formatString("batch: %d programs, %d ok, %d failed, jobs=%d\n",
                     Programs, Succeeded, Failed, Jobs);
  OS << formatString(
      "stages (ms): parse %.2f  analysis %.2f  bounds %.2f  alloc %.2f  "
      "verify %.2f\n",
      ms(ParseNs), ms(AnalysisNs), ms(BoundsNs), ms(AllocNs), ms(VerifyNs));
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
  // Same convention for the validation line: only --validate runs have
  // nonzero counters, so plain runs keep their historical output.
  if (Validated || ValidateFailed)
    OS << formatString("validate: %d proved, %d refuted (%.2f ms)\n",
                       Validated, ValidateFailed, ms(ValidateNs));
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
  OS << "  \"stages_ns\": {\"parse\": " << ParseNs
     << ", \"analysis\": " << AnalysisNs << ", \"bounds\": " << BoundsNs
     << ", \"alloc\": " << AllocNs << ", \"verify\": " << VerifyNs << "},\n";
  if (Degraded || DeadlineExceeded || FaultsInjected)
    OS << "  \"harden\": {\"degraded\": " << Degraded
       << ", \"deadline_exceeded\": " << DeadlineExceeded
       << ", \"faults_injected\": " << FaultsInjected << "},\n";
  if (Validated || ValidateFailed)
    OS << "  \"validate\": {\"proved\": " << Validated
       << ", \"refuted\": " << ValidateFailed
       << ", \"ns\": " << ValidateNs << "},\n";
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
