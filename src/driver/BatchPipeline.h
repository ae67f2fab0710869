//===- BatchPipeline.h - Parallel batched allocation ------------*- C++ -*-===//
///
/// \file
/// The batch allocation pipeline: N input programs (assembly files or
/// in-memory MultiThreadPrograms) each run the job stages (JobStage), one
/// JobRun::stage() call per stage (driver/JobRun.h), across a fixed-size
/// ThreadPool. Jobs are independent — each writes only its own result
/// slot — so the output is bit-identical for any worker count. Per-thread
/// analysis artifacts are memoised in a content-hash keyed AnalysisCache,
/// so repeated inputs and shared kernels skip the dataflow recomputation.
///
/// Per-stage wall-clock and cache hit/miss counters are aggregated into a
/// PipelineStats, rendered as text or as JSON following the
/// DiagnosticEngine's conventions (stable key order, FNV-style escaping).
///
/// Fault isolation: one failing input never aborts the batch. Every
/// per-item error — malformed assembly, infeasible budget, expired
/// deadline, injected fault, even a C++ exception escaping a stage — is
/// captured in that item's BatchJobResult (stage, StatusCode, reason) and
/// the remaining items run to completion; BatchResult::failed() is the
/// resulting failed[] report. Optional per-job hardening: a deadline over
/// the whole job and spill-based graceful degradation for infeasible
/// budgets.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_DRIVER_BATCHPIPELINE_H
#define NPRAL_DRIVER_BATCHPIPELINE_H

#include "alloc/InterAllocator.h"
#include "harden/FaultInjector.h"
#include "ir/Program.h"
#include "lint/TranslationValidator.h"
#include "profile/ExecutionProfile.h"
#include "support/DiagnosticEngine.h"
#include "support/Status.h"

#include <array>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace npral {

class AnalysisCache;
class MetricsRegistry;

/// The stages of one job, in pipeline order. jobStageName() is the one
/// place their names are spelled: `[<stage>/<code>]` verdicts, fault sites,
/// `batch` trace spans, `batch.stage.*_ns` metrics and the stats renderers
/// all take them from there.
enum class JobStage {
  Parse,    ///< read and parse the input
  Analysis, ///< per thread: check, rename, analyze (through the cache)
  Bounds,   ///< per cache-missed thread: the §5 register bounds
  Alloc,    ///< Fig. 8 inter-thread allocation, spill fallback included
  Validate, ///< the translation validator, CSB privacy included
  Internal, ///< an exception escaped a stage; never timed
};

inline constexpr size_t NumJobStages =
    static_cast<size_t>(JobStage::Internal) + 1;

inline const char *jobStageName(JobStage S) {
  constexpr const char *Names[NumJobStages] = {
      "parse", "analysis", "bounds", "alloc", "validate", "internal"};
  return Names[static_cast<size_t>(S)];
}

/// Wall clock per stage, in nanoseconds, indexed by JobStage.
struct StageTimes {
  std::array<int64_t, NumJobStages> Ns{};

  int64_t &operator[](JobStage S) { return Ns[static_cast<size_t>(S)]; }
  int64_t operator[](JobStage S) const { return Ns[static_cast<size_t>(S)]; }
};

struct BatchOptions {
  /// Register file size handed to the inter-thread allocator.
  int Nreg = 128;
  /// Worker threads in the pool (clamped to >= 1).
  int Jobs = 1;
  /// Memoise per-thread analyses in the AnalysisCache.
  bool UseCache = false;
  /// Byte budget for the run-local cache created when UseCache is set and
  /// no cache is supplied; 0 = unbounded (the historical batch behavior).
  /// Callers passing their own AnalysisCache configure the bound on it
  /// directly.
  int64_t CacheBytes = 0;
  /// Inert, kept for npral-bench/: no job runs a separate verifier pass.
  bool Verify = false;
  /// Inert, kept for npral-bench/: every job is validated.
  bool Validate = true;
  /// Retain each job's physical program in its result (costs memory;
  /// `npralc batch` leaves it off, `alloc`, `run`, serve and the tests turn
  /// it on).
  bool KeepPhysical = false;
  /// Execution profile to guide allocation (must outlive the batch).
  /// Threads are matched by code hash — a profile acts as a database: any
  /// job thread whose renamed program hashes to a profiled thread gets
  /// that thread's frequency weights; unmatched threads fall back to the
  /// static estimator when StaticPGO is set, else to the unit model.
  /// Weights never reach the analysis cache: its bundles read none.
  const ExecutionProfile *Profile = nullptr;
  /// Weight blocks by 10^loop-depth (StaticFrequencyEstimator) when no
  /// collected profile covers a thread.
  bool StaticPGO = false;
  /// Permit spill-based graceful degradation: when the Fig. 8 loop reports
  /// an infeasible budget, demote cheap live ranges to scratch memory and
  /// retry (harden/SpillFallback.h). Feasible inputs are unaffected — their
  /// output is bit-identical with this on or off.
  bool AllowSpill = false;
  /// Live ranges the spill fallback may demote per job.
  int MaxSpills = 64;
  /// Per-job deadline in milliseconds, taken once at job entry and
  /// covering every stage; 0 sets none. It is polled at stage boundaries
  /// and in the allocator's loops (no thread is involved), and a job whose
  /// deadline has passed fails with StatusCode::DeadlineExceeded, whatever
  /// its stages concluded.
  int DeadlineMs = 0;
  /// Deterministic fault injection (disabled by default). Each stage probes
  /// the site named after it on entry (only parse, analysis and alloc have
  /// one), and Analysis also probes "cache" before each cache lookup; an
  /// injected fault fails that job like any other input-dependent error —
  /// captured in its result slot, never aborting the batch.
  FaultInjector Faults;
};

/// One batch input: a path to an assembly file, in-memory assembly text
/// (the serve daemon's wire format), or an in-memory program (generated
/// workloads, tests). Precedence: Path, then Text, then Program.
struct BatchJob {
  /// Display name; defaults to Path when empty.
  std::string Name;
  /// Assembly file to parse; when empty, Text or Program is used.
  std::string Path;
  /// Assembly text to parse; when empty too, Program is used directly.
  std::string Text;
  MultiThreadProgram Program;
};

/// Outcome of one job.
struct BatchJobResult {
  std::string Name;
  bool Success = false;
  std::string FailReason;
  /// Stage that failed (Internal for a captured exception); empty on
  /// success.
  std::optional<JobStage> FailStage;
  /// Classification of the failure; Ok on success.
  StatusCode FailCode = StatusCode::Ok;
  /// True when the job's allocation came from the spill fallback.
  bool UsedSpilling = false;
  /// True when the translation validator proved the job's output (every
  /// successful job).
  bool Validated = false;
  /// Live ranges demoted to memory by the spill fallback, the spill
  /// instructions it inserted, and its allocateInterThread attempts
  /// (1 = the plain call sufficed; 0 when spilling was not permitted).
  int SpilledRanges = 0;
  int SpillLoads = 0;
  int SpillStores = 0;
  int SpillAttempts = 0;
  int NumThreads = 0;
  int RegistersUsed = 0;
  int SGR = 0;
  /// First shared physical register (= Σ PRᵢ).
  int SharedBase = 0;
  /// Per-thread PR/SR split, move costs and strategy, aligned with the
  /// program's threads. Filled on success.
  std::vector<ThreadAllocation> Threads;
  int TotalMoveCost = 0;
  /// Frequency-weighted total (== TotalMoveCost without PGO).
  int64_t TotalWeightedCost = 0;
  /// Threads whose code hash matched a profiled thread.
  int ProfiledThreads = 0;
  /// Analysis-cache hits/misses attributed to this job's threads.
  int64_t CacheHits = 0;
  int64_t CacheMisses = 0;
  /// Wall clock of each stage the job ran, failed ones included.
  StageTimes StageNs;
  /// Translation-validation counts, and the diagnostics of the validator
  /// (plus the decision-log cross-check's when runSingleJob got a log)
  /// whenever the validate stage ran, refuted or not, sorted by program
  /// position.
  ValidationResult Validation;
  DiagnosticEngine ValidateDiags;
  /// Filled when BatchOptions::KeepPhysical.
  MultiThreadProgram Physical;

  /// "[<stage>/<code>] <reason>": the one-line verdict every front end
  /// reports for a failed job ("[/ok] " on success).
  std::string failureSummary() const {
    return std::string("[") + (FailStage ? jobStageName(*FailStage) : "") +
           "/" + statusCodeName(FailCode) + "] " + FailReason;
  }
};

/// Aggregated batch counters.
struct PipelineStats {
  int Programs = 0;
  int Succeeded = 0;
  int Failed = 0;
  int Jobs = 1;
  bool CacheEnabled = false;
  int64_t CacheHits = 0;
  int64_t CacheMisses = 0;
  /// Per-stage wall clock summed over all jobs. Stages on different
  /// workers overlap, so the sum can exceed WallNs.
  StageTimes StageNs;
  /// End-to-end wall clock of the whole batch, nanoseconds.
  int64_t WallNs = 0;
  /// Robustness counters; all stay zero on a healthy run with hardening
  /// features off, and the renderers only mention them when nonzero, so
  /// the byte-stable golden outputs of plain runs are unchanged.
  int Degraded = 0;        ///< Succeeded jobs that the spill fallback fit.
  int DeadlineExceeded = 0; ///< Jobs that failed with DeadlineExceeded.
  int FaultsInjected = 0;  ///< Jobs failed by an injected fault.
  /// Translation-validation counters, rendered on every run.
  int Validated = 0;       ///< Jobs whose output the validator proved.
  int ValidateFailed = 0;  ///< Jobs the validator refuted.
  /// Per-job latency percentiles from the batch.job_wall_ns histogram
  /// (MetricsRegistry::Histogram::percentile). Rendered in the JSON output
  /// only when JobWallCount > 0, keeping synthetic stats (and their golden
  /// renders) unchanged.
  int64_t JobWallCount = 0;
  int64_t JobWallP50Ns = 0;
  int64_t JobWallP95Ns = 0;
  int64_t JobWallP99Ns = 0;

  /// Hits / (hits + misses); 0 when the cache saw no traffic.
  double cacheHitRate() const {
    const int64_t Total = CacheHits + CacheMisses;
    return Total > 0 ? static_cast<double>(CacheHits) / Total : 0.0;
  }
  /// Programs per second of end-to-end wall clock.
  double throughput() const {
    return WallNs > 0 ? Programs * 1e9 / static_cast<double>(WallNs) : 0.0;
  }

  void renderText(std::ostream &OS) const;
  void renderJSON(std::ostream &OS) const;

  /// Write every field into \p MR under the stable `batch.*` metric names
  /// (counters for additive fields, gauges for per-run configuration).
  /// runBatch fills the struct from its job results and publishes it
  /// through here, once per run.
  void toRegistry(MetricsRegistry &MR) const;
};

struct BatchResult {
  /// One entry per input, in input order regardless of worker scheduling.
  std::vector<BatchJobResult> Results;
  PipelineStats Stats;

  bool allSucceeded() const {
    for (const BatchJobResult &R : Results)
      if (!R.Success)
        return false;
    return true;
  }

  /// The failed jobs in input order — the batch's failed[] report. Each
  /// entry carries the stage, status code and reason of its failure.
  std::vector<const BatchJobResult *> failed() const {
    std::vector<const BatchJobResult *> Out;
    for (const BatchJobResult &R : Results)
      if (!R.Success)
        Out.push_back(&R);
    return Out;
  }
};

/// Run the pipeline over \p Inputs with \p Opts. When \p Cache is non-null
/// it is used (and warmed) regardless of BatchOptions::UseCache, which lets
/// callers share a warm cache across runs; with UseCache set and no cache
/// supplied, a run-local cache is created.
BatchResult runBatch(const std::vector<BatchJob> &Inputs,
                     const BatchOptions &Opts, AnalysisCache *Cache = nullptr);

/// Run ONE job through the pipeline with the full per-job fault-isolation
/// contract of runBatch: every failure — malformed input, infeasible
/// budget, expired deadline, injected fault, an escaping C++ exception —
/// is captured and classified in the returned BatchJobResult, never
/// thrown. This is the serve daemon's per-request entry point: one
/// request, one isolated result, a shared long-lived \p Cache across
/// requests.
///
/// runBatch runs each of its jobs the same way, so this and runBatch are
/// the one path from a program to a checked allocation behind `npralc
/// alloc`, `run`, `batch` and `verify`.
///
/// \p CacheTag is an opaque tag that partitions a shared cache's key
/// space (serve's `profile-hash=`; 0 = the unpartitioned default, which
/// runBatch uses). It carries no weights: Opts.Profile and Opts.StaticPGO
/// pick the cost models, and the cached bundles read none.
///
/// \p Log, when non-null, receives the allocation decision log (of the
/// final attempt when the spill fallback retried). It only observes: the
/// allocation is the same with or without it. With spilling off, the
/// validate stage also cross-checks the log against the result
/// (crossCheckDecisionLog), and a mismatch refutes the job like a failed
/// proof.
BatchJobResult runSingleJob(const BatchJob &In, const BatchOptions &Opts,
                            AnalysisCache *Cache = nullptr,
                            uint64_t CacheTag = 0,
                            AllocationDecisionLog *Log = nullptr);

} // namespace npral

#endif // NPRAL_DRIVER_BATCHPIPELINE_H
