//===- MetricsTest.cpp - MetricsRegistry and PipelineStats adapters -------===//

#include "trace/MetricsRegistry.h"

#include "driver/BatchPipeline.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

#include <sstream>
#include <thread>
#include <vector>

using namespace npral;
using namespace npral::test;

namespace {

std::string renderText(const MetricsRegistry &MR) {
  std::ostringstream OS;
  MR.renderText(OS);
  return OS.str();
}

} // namespace

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  MetricsRegistry MR;
  EXPECT_TRUE(MR.empty());
  MR.counter("c").add(5);
  MR.counter("c").increment();
  MR.gauge("g").set(7);
  MR.gauge("g").set(3);
  MR.histogram("h").observe(10);
  MR.histogram("h").observe(2);
  EXPECT_FALSE(MR.empty());
  EXPECT_EQ(MR.counterValue("c"), 6);
  EXPECT_EQ(MR.gaugeValue("g"), 3);
  EXPECT_EQ(MR.histogram("h").count(), 2);
  EXPECT_EQ(MR.histogram("h").sum(), 12);
  EXPECT_EQ(MR.histogram("h").min(), 2);
  EXPECT_EQ(MR.histogram("h").max(), 10);
  // Snapshot reads of absent instruments are 0, and do not register them.
  EXPECT_EQ(MR.counterValue("absent"), 0);
  EXPECT_EQ(MR.gaugeValue("absent"), 0);
}

TEST(MetricsTest, ReferencesStayValidAcrossInserts) {
  MetricsRegistry MR;
  Counter &C = MR.counter("stable");
  // Force rebalancing pressure on the underlying container.
  for (int I = 0; I < 200; ++I)
    MR.counter("filler." + std::to_string(I)).increment();
  C.add(41);
  C.increment();
  EXPECT_EQ(MR.counterValue("stable"), 42);
}

TEST(MetricsTest, RenderTextIsSortedAndStable) {
  MetricsRegistry MR;
  MR.counter("z.last").add(1);
  MR.gauge("a.first").set(2);
  MR.histogram("m.middle").observe(4);
  EXPECT_EQ(renderText(MR),
            "a.first gauge 2\n"
            "m.middle histogram count=1 sum=4 min=4 max=4 p50=4 p95=4 p99=4\n"
            "z.last counter 1\n");
}

TEST(MetricsTest, PercentilesAreClampedAndDeterministic) {
  Histogram H;
  EXPECT_EQ(H.percentile(50), 0); // empty
  H.observe(4);
  // A single-valued distribution reports that value exactly at every Q —
  // the interpolated estimate is clamped to [min, max].
  EXPECT_EQ(H.percentile(0), 4);
  EXPECT_EQ(H.percentile(50), 4);
  EXPECT_EQ(H.percentile(95), 4);
  EXPECT_EQ(H.percentile(99), 4);
  EXPECT_EQ(H.percentile(100), 4);

  Histogram Wide;
  for (int I = 1; I <= 1000; ++I)
    Wide.observe(I);
  // Bucketed estimates: within a factor of two of the exact rank value,
  // monotone in Q, and clamped to the observed range.
  const int64_t P50 = Wide.percentile(50);
  const int64_t P95 = Wide.percentile(95);
  const int64_t P99 = Wide.percentile(99);
  EXPECT_GE(P50, 250);
  EXPECT_LE(P50, 1000);
  EXPECT_LE(P50, P95);
  EXPECT_LE(P95, P99);
  EXPECT_LE(P99, 1000);
  EXPECT_GE(Wide.percentile(0), 1);
}

TEST(MetricsTest, RenderJSONAgreesWithText) {
  MetricsRegistry MR;
  MR.counter("c").add(3);
  MR.gauge("g").set(-2);
  std::ostringstream OS;
  MR.renderJSON(OS);
  const std::string JSON = OS.str();
  EXPECT_NE(JSON.find("\"metrics\""), std::string::npos);
  EXPECT_NE(JSON.find("\"c\""), std::string::npos);
  EXPECT_NE(JSON.find("\"g\""), std::string::npos);
  // Stable order: "c" renders before "g".
  EXPECT_LT(JSON.find("\"c\""), JSON.find("\"g\""));
}

TEST(MetricsTest, HistogramBucketsArePowersOfTwo) {
  Histogram H;
  H.observe(0); // bucket 0
  H.observe(1); // bucket 1
  H.observe(2); // bucket 2
  H.observe(3); // bucket 2
  H.observe(4); // bucket 3
  EXPECT_EQ(H.bucketCount(0), 1);
  EXPECT_EQ(H.bucketCount(1), 1);
  EXPECT_EQ(H.bucketCount(2), 2);
  EXPECT_EQ(H.bucketCount(3), 1);
  EXPECT_EQ(H.count(), 5);
  EXPECT_EQ(H.sum(), 10);
  EXPECT_EQ(H.min(), 0);
  EXPECT_EQ(H.max(), 4);
}

TEST(MetricsTest, MergeAddsCountersOverwritesGaugesMergesHistograms) {
  MetricsRegistry A, B;
  A.counter("c").add(10);
  B.counter("c").add(5);
  A.gauge("g").set(1);
  B.gauge("g").set(9);
  A.histogram("h").observe(1);
  B.histogram("h").observe(100);
  B.counter("only.b").add(2);
  A.merge(B);
  EXPECT_EQ(A.counterValue("c"), 15);
  EXPECT_EQ(A.gaugeValue("g"), 9);
  EXPECT_EQ(A.histogram("h").count(), 2);
  EXPECT_EQ(A.histogram("h").sum(), 101);
  EXPECT_EQ(A.histogram("h").min(), 1);
  EXPECT_EQ(A.histogram("h").max(), 100);
  EXPECT_EQ(A.counterValue("only.b"), 2);
}

TEST(MetricsTest, ConcurrentUpdatesAreExact) {
  MetricsRegistry MR;
  constexpr int NumThreads = 8;
  constexpr int PerThread = 10000;
  std::vector<std::thread> Workers;
  for (int W = 0; W < NumThreads; ++W)
    Workers.emplace_back([&MR] {
      for (int I = 0; I < PerThread; ++I) {
        MR.counter("contended").increment();
        MR.histogram("dist").observe(I);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(MR.counterValue("contended"),
            static_cast<int64_t>(NumThreads) * PerThread);
  EXPECT_EQ(MR.histogram("dist").count(),
            static_cast<int64_t>(NumThreads) * PerThread);
  EXPECT_EQ(MR.histogram("dist").min(), 0);
  EXPECT_EQ(MR.histogram("dist").max(), PerThread - 1);
}

//===----------------------------------------------------------------------===//
// PipelineStats on the registry: round trip and byte-stable renderers.
//===----------------------------------------------------------------------===//

namespace {

PipelineStats sampleStats() {
  PipelineStats S;
  S.Programs = 4;
  S.Succeeded = 3;
  S.Failed = 1;
  S.Jobs = 2;
  S.CacheEnabled = true;
  S.CacheHits = 3;
  S.CacheMisses = 1;
  S.StageNs[JobStage::Parse] = 1'500'000;
  S.StageNs[JobStage::Analysis] = 2'250'000;
  S.StageNs[JobStage::Bounds] = 0;
  S.StageNs[JobStage::Alloc] = 500'000;
  S.StageNs[JobStage::Validate] = 250'000;
  S.WallNs = 8'000'000;
  return S;
}

} // namespace

TEST(PipelineStatsTest, RenderTextGolden) {
  // Pinned byte-for-byte: the registry migration must not perturb the
  // pre-existing --stats output.
  std::ostringstream OS;
  sampleStats().renderText(OS);
  EXPECT_EQ(OS.str(),
            "batch: 4 programs, 3 ok, 1 failed, jobs=2\n"
            "stages (ms): parse 1.50  analysis 2.25  bounds 0.00  "
            "alloc 0.50\n"
            "cache: 3 hits, 1 misses (75.0% hit rate)\n"
            "validate: 0 proved, 0 refuted (0.25 ms)\n"
            "wall: 8.00 ms (500.0 programs/s)\n");
}

TEST(PipelineStatsTest, RenderTextGoldenCacheDisabled) {
  PipelineStats S = sampleStats();
  S.CacheEnabled = false;
  std::ostringstream OS;
  S.renderText(OS);
  EXPECT_NE(OS.str().find("cache: disabled\n"), std::string::npos);
}

TEST(PipelineStatsTest, RenderJSONGolden) {
  std::ostringstream OS;
  sampleStats().renderJSON(OS);
  EXPECT_EQ(OS.str(),
            "{\n"
            "  \"programs\": 4,\n"
            "  \"succeeded\": 3,\n"
            "  \"failed\": 1,\n"
            "  \"jobs\": 2,\n"
            "  \"cache\": {\"enabled\": true, \"hits\": 3, \"misses\": 1, "
            "\"hit_rate\": 0.7500},\n"
            "  \"stages_ns\": {\"parse\": 1500000, \"analysis\": 2250000, "
            "\"bounds\": 0, \"alloc\": 500000},\n"
            "  \"validate\": {\"proved\": 0, \"refuted\": 0, "
            "\"ns\": 250000},\n"
            "  \"wall_ns\": 8000000,\n"
            "  \"throughput_programs_per_sec\": 500.00\n"
            "}\n");
}

TEST(PipelineStatsTest, RegistryKeySetIsGoldenPinned) {
  // The full batch.* instrument name set, pinned: dashboards and the serve
  // daemon's metrics endpoint key on these names, so adding a field to
  // PipelineStats must extend this golden deliberately. renderText's
  // lexicographic order makes the pin byte-stable.
  MetricsRegistry MR;
  sampleStats().toRegistry(MR);
  std::ostringstream OS;
  MR.renderText(OS);
  EXPECT_EQ(OS.str(),
            "batch.cache.enabled gauge 1\n"
            "batch.cache.hits counter 3\n"
            "batch.cache.misses counter 1\n"
            "batch.deadline_exceeded counter 0\n"
            "batch.degraded counter 0\n"
            "batch.failed counter 1\n"
            "batch.faults_injected counter 0\n"
            "batch.jobs gauge 2\n"
            "batch.programs counter 4\n"
            "batch.stage.alloc_ns counter 500000\n"
            "batch.stage.analysis_ns counter 2250000\n"
            "batch.stage.bounds_ns counter 0\n"
            "batch.stage.parse_ns counter 1500000\n"
            "batch.stage.validate_ns counter 250000\n"
            "batch.succeeded counter 3\n"
            "batch.validate_failed counter 0\n"
            "batch.validated counter 0\n"
            "batch.wall_ns counter 8000000\n");
}

TEST(PipelineStatsTest, RunBatchFeedsTheGlobalRegistry) {
  MetricsRegistry::global().clear();
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(R"(
.thread t0
main:
    imm  a, 1
    add  b, a, a
    halt

.thread t1
main:
    imm  x, 2
    ctx
    addi y, x, 1
    halt
)");
  ASSERT_TRUE(MTP.ok()) << MTP.status().str();
  std::vector<BatchJob> Jobs(3);
  for (BatchJob &J : Jobs)
    J.Program = *MTP;
  Jobs[0].Name = "j0";
  Jobs[1].Name = "j1";
  Jobs[2].Name = "j2";
  BatchOptions Opts;
  Opts.Jobs = 2;
  BatchResult R = runBatch(Jobs, Opts);
  EXPECT_EQ(R.Stats.Programs, 3);
  EXPECT_EQ(R.Stats.Succeeded, 3);
  // runBatch publishes its stats into the global registry; the struct and
  // the global counters must agree.
  EXPECT_EQ(MetricsRegistry::global().counterValue("batch.programs"), 3);
  EXPECT_EQ(MetricsRegistry::global().counterValue("batch.succeeded"), 3);
  EXPECT_EQ(MetricsRegistry::global().gaugeValue("batch.jobs"), 2);
  EXPECT_EQ(MetricsRegistry::global().histogram("batch.job_wall_ns").count(),
            3);
  MetricsRegistry::global().clear();
}
