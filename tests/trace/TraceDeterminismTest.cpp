//===- TraceDeterminismTest.cpp - Same event multiset for any job count ---===//
///
/// Trace event *content* (phase, category, name, args) must depend only on
/// the work performed, never on worker scheduling: a batch run traced with
/// --jobs 1 and with --jobs N produces the same event multiset, differing
/// only in timestamps and track assignment. The analysis cache is left
/// disabled here — with a shared cache, which thread sees the hit is
/// scheduling-dependent by design.
///
//===----------------------------------------------------------------------===//

#include "trace/TraceEngine.h"
#include "trace/TraceFormat.h"

#include "driver/BatchPipeline.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace npral;

namespace {

std::vector<BatchJob> exampleJobs() {
  const char *Files[] = {"fig3_paper.s", "two_threads.s", "modular_kernel.s",
                         "bad_alloc.s", "lint_buggy.s",
                         // Repeats: multiset counts must also match.
                         "fig3_paper.s", "two_threads.s"};
  std::vector<BatchJob> Jobs;
  for (const char *F : Files) {
    BatchJob J;
    J.Path = std::string(NPRAL_EXAMPLES_ASM_DIR) + "/" + F;
    J.Name = F;
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

/// Run the batch traced and return the event-content multiset. The
/// "runBatch" span is excluded: its args deliberately record the worker
/// count, which is exactly what differs between the two runs.
std::map<std::string, int> tracedRun(int Jobs) {
  TraceEngine &TE = TraceEngine::global();
  TE.setEnabled(false);
  TE.clear();
  TE.setEnabled(true);

  BatchOptions Opts;
  Opts.Jobs = Jobs;
  Opts.UseCache = false;
  BatchResult R = runBatch(exampleJobs(), Opts);
  EXPECT_EQ(R.Stats.Programs, 7);

  TE.setEnabled(false);
  std::ostringstream OS;
  writeChromeTrace(OS, TraceClock::Wall, TE.events());
  const std::string JSON = OS.str();
  TE.clear();

  Status Valid = parseChromeTrace(JSON).status();
  EXPECT_TRUE(Valid.ok()) << Valid.str();
  ErrorOr<std::vector<TraceEvent>> Events = parseChromeTrace(JSON);
  EXPECT_TRUE(Events.ok()) << Events.status().str();
  std::map<std::string, int> Multiset;
  if (Events.ok())
    for (const TraceEvent &E : *Events)
      if (E.Name != "runBatch")
        ++Multiset[E.contentKey()];
  return Multiset;
}

} // namespace

TEST(TraceDeterminismTest, JobCountDoesNotChangeEventContent) {
  const std::map<std::string, int> Sequential = tracedRun(1);
  EXPECT_FALSE(Sequential.empty());
  for (int Jobs : {2, 4, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    const std::map<std::string, int> Parallel = tracedRun(Jobs);
    EXPECT_EQ(Parallel, Sequential);
  }
}

TEST(TraceDeterminismTest, RepeatedRunsAreIdentical) {
  const std::map<std::string, int> First = tracedRun(4);
  const std::map<std::string, int> Second = tracedRun(4);
  EXPECT_EQ(First, Second);
}
