//===- CycleTraceTest.cpp - Virtual-time telemetry contracts --------------===//
//
// The cycle-domain trace layer's contracts: slices coalesce and partition
// each thread's timeline exactly into the simulator's seven cycle buckets;
// exports are byte-identical regardless of which host thread ran the
// simulation; grid traces validate strictly (counters, flows included) and
// are deterministic per engine count; the telemetry ring and sampler fire
// on the period grid; and the validator's new counter/flow semantics accept
// what the emitter writes while still rejecting malformed traces with
// line/offset/key context.
//
//===----------------------------------------------------------------------===//

#include "trace/CycleTrace.h"

#include "grid/GridHarness.h"
#include "sim/Simulator.h"
#include "support/ThreadPool.h"
#include "trace/Telemetry.h"
#include "trace/TraceFormat.h"
#include "trace/TraceReport.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace npral;
using namespace npral::test;

namespace {

std::string exportToString(const CycleTrace &CT) {
  std::ostringstream OS;
  writeChromeTrace(OS, TraceClock::Cycles, CT.events());
  return OS.str();
}

MultiThreadProgram twoThreadMix() {
  MultiThreadProgram MTP;
  MTP.Threads.push_back(parseOrDie(R"(
.thread worker0
main:
    imm  o, 0x1000
top:
    load r0, [o+0]
    addi r1, r0, 1
    store [o+1], r1
    loopend
    br   top
)"));
  MTP.Threads.push_back(parseOrDie(R"(
.thread worker1
main:
    imm  o, 0x2000
top:
    load r0, [o+0]
    muli r1, r0, 3
    store [o+1], r1
    loopend
    br   top
)"));
  return MTP;
}

/// Run the mix with a fresh trace and sampler; returns the exported JSON.
std::string runTracedSim(int64_t SamplePeriod, SimResult *OutResult = nullptr,
                         CycleTrace *OutTrace = nullptr) {
  MultiThreadProgram MTP = twoThreadMix();
  SimConfig Config;
  Config.TargetIterations = 8;
  Config.MemLatency = 20;
  Simulator Sim(MTP, Config);
  CycleTrace CT;
  Sim.setCycleTrace(&CT, /*Pid=*/1);
  std::optional<TelemetrySampler> Sampler;
  if (SamplePeriod > 0) {
    Sampler.emplace(SamplePeriod, &CT);
    Sim.setSampler(&*Sampler, "sim.");
  }
  SimResult R = Sim.run();
  EXPECT_TRUE(R.Completed) << R.FailReason;
  if (OutResult)
    *OutResult = R;
  if (OutTrace)
    *OutTrace = CT;
  return exportToString(CT);
}

std::string runTracedGrid(int Engines, CycleTrace *OutTrace = nullptr) {
  GridOptions Opts;
  Opts.NumEngines = Engines;
  Opts.Sim = defaultExperimentConfig();
  Opts.Sim.TargetIterations = 10;
  CycleTrace CT;
  Opts.Trace = &CT;
  Opts.SampleCycles = 64;
  std::vector<std::string> Pool;
  EXPECT_TRUE(buildGridPool("s1", Engines, Pool));
  GridReport Report = runKernelPoolGrid("s1", Pool, Opts);
  EXPECT_TRUE(Report.Success) << Report.FailReason;
  if (OutTrace)
    *OutTrace = CT;
  return exportToString(CT);
}

} // namespace

TEST(CycleTraceTest, SlicesCoalesceAndTotalsAccumulate) {
  CycleTrace CT;
  // Two adjacent Run intervals coalesce into one slice; the MemStall break
  // flushes it.
  CT.extendPhase(1, 0, ThreadPhase::Run, 0, 5);
  CT.extendPhase(1, 0, ThreadPhase::Run, 5, 9);
  CT.extendPhase(1, 0, ThreadPhase::MemStall, 9, 20);
  CT.extendPhase(1, 0, ThreadPhase::Run, 20, 22);
  CT.closeTrack(1);
  EXPECT_EQ(CT.eventCount(), 3);
  EXPECT_EQ(CT.phaseCycles(1, 0, ThreadPhase::Run), 11);
  EXPECT_EQ(CT.phaseCycles(1, 0, ThreadPhase::MemStall), 11);
  const std::vector<TraceEvent> &E = CT.events();
  EXPECT_EQ(E[0].Name, "Run");
  EXPECT_EQ(E[0].Ts, 0);
  EXPECT_EQ(E[0].Dur, 9);
  EXPECT_EQ(E[1].Name, "MemStall");
  EXPECT_EQ(E[2].Dur, 2);
  // Empty intervals are ignored.
  CT.extendPhase(1, 0, ThreadPhase::Run, 30, 30);
  EXPECT_EQ(CT.phaseCycles(1, 0, ThreadPhase::Run), 11);
}

TEST(CycleTraceTest, PlainRunSlicesPartitionTheSevenBuckets) {
  SimResult R;
  CycleTrace CT;
  runTracedSim(/*SamplePeriod=*/0, &R, &CT);
  ASSERT_EQ(R.Threads.size(), 2u);
  for (size_t T = 0; T < R.Threads.size(); ++T) {
    const ThreadStats &TS = R.Threads[T];
    const int64_t Tid = static_cast<int64_t>(T);
    // Slices and buckets are fed by the same charge of each span, so each
    // per-phase total equals its bucket exactly — not just the sum.
    EXPECT_EQ(CT.phaseCycles(1, Tid, ThreadPhase::Run), TS.RunCycles);
    EXPECT_EQ(CT.phaseCycles(1, Tid, ThreadPhase::SwitchPenalty),
              TS.SwitchPenaltyCycles);
    EXPECT_EQ(CT.phaseCycles(1, Tid, ThreadPhase::MemStall),
              TS.MemStallCycles);
    EXPECT_EQ(CT.phaseCycles(1, Tid, ThreadPhase::ChannelWait),
              TS.ChannelWaitCycles);
    EXPECT_EQ(CT.phaseCycles(1, Tid, ThreadPhase::InterconnectStall),
              TS.InterconnectStallCycles);
    EXPECT_EQ(CT.phaseCycles(1, Tid, ThreadPhase::ReadyWait),
              TS.ReadyWaitCycles);
    EXPECT_EQ(CT.phaseCycles(1, Tid, ThreadPhase::Halted), TS.HaltedCycles);
    int64_t SliceSum = 0;
    for (int P = 0; P < NumThreadPhases; ++P)
      SliceSum += CT.phaseCycles(1, Tid, static_cast<ThreadPhase>(P));
    EXPECT_EQ(SliceSum, R.TotalCycles);
    EXPECT_EQ(SliceSum, TS.accountedCycles());
  }
}

TEST(CycleTraceTest, ExportIsByteIdenticalAcrossHostThreads) {
  // Virtual time owes nothing to the host scheduler: the same simulation
  // run from pooled worker threads exports the same bytes as inline runs.
  const std::string Reference = runTracedSim(/*SamplePeriod=*/32);
  EXPECT_EQ(runTracedSim(32), Reference);

  constexpr int NumWorkers = 4;
  std::vector<std::string> FromWorkers(NumWorkers);
  {
    ThreadPool Pool(NumWorkers);
    for (int I = 0; I < NumWorkers; ++I)
      Pool.submit([&FromWorkers, I] { FromWorkers[static_cast<size_t>(I)] =
                                          runTracedSim(32); });
    Pool.wait();
  }
  for (const std::string &S : FromWorkers)
    EXPECT_EQ(S, Reference);

  // And the trace passes the strict validator.
  EXPECT_TRUE(parseChromeTrace(Reference).ok());
}

TEST(CycleTraceTest, GridTraceValidatesAndIsDeterministicPerEngineCount) {
  std::string Previous;
  for (int Engines : {1, 2, 4}) {
    const std::string A = runTracedGrid(Engines);
    const std::string B = runTracedGrid(Engines);
    EXPECT_EQ(A, B) << "engine count " << Engines;
    Status V = parseChromeTrace(A).status();
    EXPECT_TRUE(V.ok()) << "engines=" << Engines << ": " << V.str();
    // More engines change the trace (different placement, real fabric).
    EXPECT_NE(A, Previous);
    Previous = A;
  }
}

TEST(CycleTraceTest, MultiEngineGridEmitsCountersAndMatchedFlows) {
  const std::string JSON = runTracedGrid(4);
  ErrorOr<std::vector<TraceEvent>> Events = parseChromeTrace(JSON);
  ASSERT_TRUE(Events.ok()) << Events.status().str();
  int Counters = 0, Starts = 0, Finishes = 0, Slices = 0;
  bool SawFabric = false, SawOccupancy = false, SawInFlight = false;
  for (const TraceEvent &E : *Events) {
    switch (E.Ph) {
    case 'C':
      ++Counters;
      if (E.Name.find("occupancy") != std::string::npos)
        SawOccupancy = true;
      if (E.Name == "fabric.in_flight")
        SawInFlight = true;
      break;
    case 's':
      ++Starts;
      break;
    case 'f':
      ++Finishes;
      break;
    case 'X':
      ++Slices;
      if (E.Pid == 0)
        SawFabric = true;
      break;
    default:
      break;
    }
  }
  EXPECT_GT(Counters, 0);
  EXPECT_GT(Slices, 0);
  EXPECT_TRUE(SawOccupancy);
  EXPECT_TRUE(SawInFlight);
  EXPECT_TRUE(SawFabric);
  // Every dispatched work token was delivered, so flows pair exactly.
  EXPECT_GT(Starts, 0);
  EXPECT_EQ(Starts, Finishes);

  // The report layer digests the same events: the flow latencies it
  // aggregates are exactly the matched pairs.
  TraceReport Report = TraceReport::build(*Events, TraceClock::Cycles);
  ASSERT_EQ(Report.flows().size(), 1u);
  EXPECT_EQ(Report.flows()[0].Name, "work-dispatch");
  EXPECT_EQ(static_cast<int>(Report.flows()[0].Latencies.size()), Finishes);
  EXPECT_FALSE(Report.tracks().empty());
  EXPECT_FALSE(Report.counters().empty());
  std::ostringstream Text, Html;
  Report.renderText(Text);
  Report.renderHTML(Html);
  EXPECT_NE(Text.str().find("work-dispatch"), std::string::npos);
  EXPECT_NE(Html.str().find("work-dispatch"), std::string::npos);
}

TEST(CycleTraceTest, SamplerFiresOnPeriodGridIntoTrace) {
  CycleTrace CT;
  TelemetrySampler Sampler(10, &CT);
  EXPECT_EQ(Sampler.nextDue(), 10);
  EXPECT_FALSE(Sampler.due(9));
  EXPECT_TRUE(Sampler.due(10));
  Sampler.beginSample(Sampler.nextDue());
  Sampler.value(1, "sim.occupancy", 3);
  Sampler.endSample(10);
  EXPECT_EQ(Sampler.nextDue(), 20);
  // A big jump lands the next due strictly after the reached cycle, on the
  // period grid — one sample per check, no burst of catch-up samples.
  EXPECT_TRUE(Sampler.due(57));
  Sampler.beginSample(Sampler.nextDue());
  Sampler.value(1, "sim.occupancy", 2);
  Sampler.endSample(57);
  EXPECT_EQ(Sampler.nextDue(), 60);
  // Sample timestamps sit on the period grid (the due cycle, not the cycle
  // the check happened to run at).
  ASSERT_EQ(CT.eventCount(), 2);
  EXPECT_EQ(CT.events()[0].Ph, 'C');
  EXPECT_EQ(CT.events()[0].Ts, 10);
  EXPECT_EQ(CT.events()[0].Args.front().Value, "3");
  EXPECT_EQ(CT.events()[1].Ph, 'C');
  EXPECT_EQ(CT.events()[1].Ts, 20);
  EXPECT_EQ(CT.events()[1].Args.front().Value, "2");
}

TEST(CycleTraceTest, GridRunSamplesCountersOnThePeriodGrid) {
  GridOptions Opts;
  Opts.NumEngines = 2;
  Opts.Sim = defaultExperimentConfig();
  Opts.Sim.TargetIterations = 10;
  CycleTrace CT;
  Opts.Trace = &CT;
  Opts.SampleCycles = 64;
  std::vector<std::string> Pool;
  ASSERT_TRUE(buildGridPool("s1", 2, Pool));
  GridReport Report = runKernelPoolGrid("s1", Pool, Opts);
  ASSERT_TRUE(Report.Success) << Report.FailReason;
  // Per counter track, samples land on the period grid, strictly
  // increasing.
  std::map<std::pair<int64_t, std::string>, int64_t> Prev;
  for (const TraceEvent &E : CT.events()) {
    if (E.Ph != 'C')
      continue;
    EXPECT_EQ(E.Ts % 64, 0) << E.Name;
    int64_t &Last = Prev[{E.Pid, E.Name}];
    EXPECT_GT(E.Ts, Last) << E.Name;
    Last = E.Ts;
  }
  EXPECT_FALSE(Prev.empty());
}

TEST(CycleTraceValidatorTest, AcceptsCounterAndFlowPhases) {
  const std::string Good =
      "[{\"ph\": \"C\", \"name\": \"occ\", \"ts\": 10, \"pid\": 1, "
      "\"tid\": 0, \"args\": {\"value\": 3}},\n"
      " {\"ph\": \"s\", \"name\": \"w\", \"ts\": 12, \"pid\": 0, "
      "\"tid\": 1, \"id\": 7},\n"
      " {\"ph\": \"C\", \"name\": \"occ\", \"ts\": 20, \"pid\": 1, "
      "\"tid\": 0, \"args\": {\"value\": 2}},\n"
      " {\"ph\": \"f\", \"name\": \"w\", \"ts\": 16, \"pid\": 2, "
      "\"tid\": 0, \"id\": 7, \"bp\": \"e\"}]";
  Status S = parseChromeTrace(Good).status();
  EXPECT_TRUE(S.ok()) << S.str();
}

TEST(CycleTraceValidatorTest, RejectsMalformedCountersAndFlows) {
  // Counter without a value arg.
  EXPECT_FALSE(parseChromeTrace("[{\"ph\": \"C\", \"name\": \"c\", "
                                "\"ts\": 1, \"pid\": 1, \"tid\": 0}]")
                   .ok());
  // Counter series going backwards in time.
  EXPECT_FALSE(
      parseChromeTrace(
          "[{\"ph\": \"C\", \"name\": \"c\", \"ts\": 5, \"pid\": 1, "
          "\"tid\": 0, \"args\": {\"value\": 1}},\n"
          " {\"ph\": \"C\", \"name\": \"c\", \"ts\": 4, \"pid\": 1, "
          "\"tid\": 0, \"args\": {\"value\": 1}}]")
          .ok());
  // Duplicate flow start.
  EXPECT_FALSE(
      parseChromeTrace(
          "[{\"ph\": \"s\", \"name\": \"w\", \"ts\": 1, \"pid\": 0, "
          "\"tid\": 0, \"id\": 3},\n"
          " {\"ph\": \"s\", \"name\": \"w\", \"ts\": 2, \"pid\": 0, "
          "\"tid\": 0, \"id\": 3}]")
          .ok());
  // Finish with no start.
  EXPECT_FALSE(parseChromeTrace("[{\"ph\": \"f\", \"name\": \"w\", "
                                "\"ts\": 2, \"pid\": 0, \"tid\": 0, "
                                "\"id\": 9}]")
                   .ok());
  // Finish before its start.
  EXPECT_FALSE(
      parseChromeTrace(
          "[{\"ph\": \"s\", \"name\": \"w\", \"ts\": 10, \"pid\": 0, "
          "\"tid\": 0, \"id\": 3},\n"
          " {\"ph\": \"f\", \"name\": \"w\", \"ts\": 6, \"pid\": 0, "
          "\"tid\": 0, \"id\": 3}]")
          .ok());
  // Unclosed flow at end of document.
  Status Unclosed = parseChromeTrace(
      "[{\"ph\": \"s\", \"name\": \"w\", \"ts\": 1, \"pid\": 0, "
      "\"tid\": 0, \"id\": 3}]").status();
  EXPECT_FALSE(Unclosed.ok());
  EXPECT_NE(Unclosed.str().find("never finishes"), std::string::npos);
  // Flow events must carry an id.
  EXPECT_FALSE(parseChromeTrace("[{\"ph\": \"s\", \"name\": \"w\", "
                                "\"ts\": 1, \"pid\": 0, \"tid\": 0}]")
                   .ok());
  // Unknown phases are still a hard failure.
  EXPECT_FALSE(parseChromeTrace("[{\"ph\": \"q\", \"name\": \"w\", "
                                "\"ts\": 1, \"pid\": 0, \"tid\": 0}]")
                   .ok());
}

TEST(CycleTraceValidatorTest, ErrorsCarryLineOffsetAndKey) {
  // The broken value sits on line 2, under the "ts" key.
  Status S = parseChromeTrace("[{\"ph\": \"i\", \"name\": \"a\",\n"
                              "  \"ts\": oops, \"pid\": 0, \"tid\": 0}]")
                 .status();
  ASSERT_FALSE(S.ok());
  const std::string Msg = S.str();
  EXPECT_NE(Msg.find("line 2"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("offset"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("\"ts\""), std::string::npos) << Msg;
}

TEST(TraceReportTest, NearestRankPercentilesAndSparklines) {
  // Hand-built events: one track with two states, one counter series.
  std::vector<TraceEvent> Events;
  for (int I = 0; I < 10; ++I) {
    TraceEvent E;
    E.Ph = 'X';
    E.Name = I < 7 ? "Run" : "MemStall";
    E.Ts = I * 10;
    E.Dur = I < 7 ? 8 : 2;
    E.Pid = 1;
    E.Tid = 0;
    Events.push_back(E);
  }
  for (int I = 0; I < 5; ++I) {
    TraceEvent E;
    E.Ph = 'C';
    E.Name = "sim.occupancy";
    E.Ts = I * 16;
    E.Pid = 1;
    E.Args.push_back({"value", std::to_string(I), /*Raw=*/true});
    Events.push_back(E);
  }
  TraceReport R = TraceReport::build(Events, TraceClock::Cycles);
  ASSERT_EQ(R.tracks().size(), 1u);
  const TrackReport &T = R.tracks()[0];
  EXPECT_EQ(T.TotalDur, 7 * 8 + 3 * 2);
  ASSERT_EQ(T.ByName.count("Run"), 1u);
  EXPECT_EQ(T.ByName.at("Run").Count, 7);
  EXPECT_EQ(T.ByName.at("Run").p(50), 8);
  ASSERT_EQ(R.counters().size(), 1u);
  EXPECT_EQ(R.counters()[0].Min, 0);
  EXPECT_EQ(R.counters()[0].Max, 4);
  EXPECT_EQ(R.counters()[0].Last, 4);
  std::ostringstream OS;
  R.renderText(OS);
  const std::string Text = OS.str();
  EXPECT_NE(Text.find("Run"), std::string::npos);
  EXPECT_NE(Text.find("sim.occupancy"), std::string::npos);
  EXPECT_NE(Text.find("90.3%"), std::string::npos);
}

TEST(TraceReportTest, WallSpansCountSelfTimeOnThreadTracks) {
  // A 400 us job: parse takes 300 us, alloc 50 us, and allocation's own
  // span 20 us of that. Each span counts only its self time, so the track
  // adds up to the job's wall time once.
  auto Span = [](char Ph, const char *Name, int64_t Us) {
    return TraceEvent{.Ph = Ph, .Name = Name, .Cat = "batch",
                      .Ts = Us * 1000, .Pid = 1, .Tid = 3};
  };
  const std::vector<TraceEvent> Events = {
      Span('B', "job", 0),
      Span('B', "parse", 10),
      Span('E', "parse", 310),
      Span('B', "alloc", 320),
      Span('B', "allocateInterThread", 330),
      Span('E', "allocateInterThread", 350),
      Span('E', "alloc", 370),
      Span('E', "job", 400),
  };
  TraceReport R = TraceReport::build(Events, TraceClock::Wall);
  ASSERT_EQ(R.tracks().size(), 1u);
  const TrackReport &T = R.tracks()[0];
  EXPECT_EQ(T.TotalDur, 400);
  EXPECT_EQ(T.ByName.at("job").TotalDur, 50);
  EXPECT_EQ(T.ByName.at("parse").TotalDur, 300);
  EXPECT_EQ(T.ByName.at("alloc").TotalDur, 30);
  EXPECT_EQ(T.ByName.at("allocateInterThread").TotalDur, 20);
  std::ostringstream Text, Html;
  R.renderText(Text);
  R.renderHTML(Html);
  EXPECT_NE(Text.str().find("[thread 3] total 400 us"), std::string::npos)
      << Text.str();
  EXPECT_NE(Text.str().find("job                  12.5%"), std::string::npos)
      << Text.str();
  EXPECT_NE(Html.str().find("<h2>thread 3</h2>"), std::string::npos);
  EXPECT_NE(Html.str().find("<th>us</th>"), std::string::npos);
}
