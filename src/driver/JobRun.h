//===- JobRun.h - One job's stage bookkeeping -------------------*- C++ -*-===//
///
/// \file
/// JobRun, internal to the driver (see BatchPipeline.h for JobStage).
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_DRIVER_JOBRUN_H
#define NPRAL_DRIVER_JOBRUN_H

#include "driver/BatchPipeline.h"
#include "trace/TraceEngine.h"

#include <chrono>
#include <string>
#include <string_view>

namespace npral {

/// The bookkeeping of one job: the result it fills, the options it runs
/// under and its deadline. runSingleJob (BatchPipeline.cpp) and paired
/// verification (VerifyPipeline.cpp) run each stage through stage(), so
/// every stage's timer, `batch` trace span, fault probe, deadline poll and
/// failure verdict come from this one place.
class JobRun {
public:
  JobRun(BatchJobResult &R, const BatchOptions &Opts,
         InterAllocLimits Limits = {})
      : R(R), Opts(Opts), Limits(Limits) {}

  /// Run \p Body, a `bool()` that returns fail(...) to fail the job, as
  /// stage \p S (of thread \p Thread when not empty). It probes the fault
  /// site named after \p S, times \p Body into StageNs[S] within a span of
  /// the same name, and polls the deadline on the closing clock read.
  /// Returns false when the job failed in the stage.
  template <typename BodyFn>
  bool stage(JobStage S, std::string_view Thread, BodyFn &&Body) {
    using Clock = InterAllocLimits::Clock;
    NPRAL_TRACE_SPAN_ARGS("batch", jobStageName(S), spanArgs(Thread));
    Stage = S;
    if (Status F = Opts.Faults.check(jobStageName(S), R.Name); !F.ok())
      return fail(F);
    const Clock::time_point Start = Clock::now();
    const bool Ok = Body();
    const Clock::time_point End = Clock::now();
    R.StageNs[S] += (End - Start) / std::chrono::nanoseconds(1);
    return Ok &&
           (!Limits.expiredAt(End) || fail(StatusCode::DeadlineExceeded, {}));
  }

  /// Fail the job in the stage it is running: the one place a verdict is
  /// stamped. The first verdict stands, and a job past its deadline fails
  /// DeadlineExceeded whatever the stage concluded. Returns false.
  bool fail(StatusCode Code, std::string Reason);
  bool fail(const Status &St) { return fail(St.code(), St.str()); }

private:
  TraceArgs spanArgs(std::string_view Thread) const;

  BatchJobResult &R;
  const BatchOptions &Opts;
  const InterAllocLimits Limits;
  JobStage Stage = JobStage::Parse;
};

} // namespace npral

#endif // NPRAL_DRIVER_JOBRUN_H
