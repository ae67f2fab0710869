//===- TraceFormatTest.cpp - One trace format, written and read back ------===//
//
// Both recorders write one format and parseChromeTrace reads it back
// exactly: an inline golden pins the bytes of a hand-built trace with
// every phase in both clocks, and the three kinds of trace npralc writes
// (a traced batch, a run's cycle trace, a sampled grid's cycle trace) pass
// trace-validate and reproduce byte for byte when parsed and written again.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceFormat.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace npral;

namespace {

/// One event of every phase, on three tracks.
std::vector<TraceEvent> everyPhase() {
  return {
      {.Ph = 'B', .Name = "job", .Cat = "batch", .Ts = 1500, .Pid = 1,
       .Args = {{"name", "a.s"}}},
      {.Ph = 'i', .Name = "cache-hit", .Cat = "batch", .Ts = 2250, .Pid = 1,
       .Args = {{"thread", "t\"1\n"}}},
      {.Ph = 'E', .Name = "job", .Cat = "batch", .Ts = 4000, .Pid = 1},
      {.Ph = 'X', .Name = "Run", .Cat = "sim", .Ts = 0, .Dur = 9, .Pid = 2,
       .Tid = 1},
      {.Ph = 'C', .Name = "occupancy", .Cat = "telemetry", .Ts = 10, .Pid = 2,
       .Args = {{"value", "3", /*Raw=*/true}}},
      {.Ph = 's', .Name = "work", .Cat = "flow", .Ts = 12, .Tid = 1, .Id = 7},
      {.Ph = 'f', .Name = "work", .Cat = "flow", .Ts = 16, .Pid = 2, .Id = 7},
  };
}

const char *const WallGolden =
    R"({"displayTimeUnit": "ms", "traceEvents": [
{"ph": "B", "name": "job", "cat": "batch", "ts": 1.500, "pid": 1, "tid": 0, "args": {"name": "a.s"}},
{"ph": "i", "name": "cache-hit", "cat": "batch", "ts": 2.250, "pid": 1, "tid": 0, "s": "t", "args": {"thread": "t\"1\n"}},
{"ph": "E", "name": "job", "cat": "batch", "ts": 4.000, "pid": 1, "tid": 0},
{"ph": "X", "name": "Run", "cat": "sim", "ts": 0.000, "dur": 0.009, "pid": 2, "tid": 1},
{"ph": "C", "name": "occupancy", "cat": "telemetry", "ts": 0.010, "pid": 2, "tid": 0, "args": {"value": 3}},
{"ph": "s", "name": "work", "cat": "flow", "ts": 0.012, "pid": 0, "tid": 1, "id": 7},
{"ph": "f", "name": "work", "cat": "flow", "ts": 0.016, "pid": 2, "tid": 0, "id": 7, "bp": "e"}
]}
)";

const char *const CyclesGolden =
    R"({"displayTimeUnit": "ms", "virtualClock": "cycles", "traceEvents": [
{"ph": "B", "name": "job", "cat": "batch", "ts": 1500, "pid": 1, "tid": 0, "args": {"name": "a.s"}},
{"ph": "i", "name": "cache-hit", "cat": "batch", "ts": 2250, "pid": 1, "tid": 0, "s": "t", "args": {"thread": "t\"1\n"}},
{"ph": "E", "name": "job", "cat": "batch", "ts": 4000, "pid": 1, "tid": 0},
{"ph": "X", "name": "Run", "cat": "sim", "ts": 0, "dur": 9, "pid": 2, "tid": 1},
{"ph": "C", "name": "occupancy", "cat": "telemetry", "ts": 10, "pid": 2, "tid": 0, "args": {"value": 3}},
{"ph": "s", "name": "work", "cat": "flow", "ts": 12, "pid": 0, "tid": 1, "id": 7},
{"ph": "f", "name": "work", "cat": "flow", "ts": 16, "pid": 2, "tid": 0, "id": 7, "bp": "e"}
]}
)";

std::string write(TraceClock Clock, const std::vector<TraceEvent> &Events) {
  std::ostringstream OS;
  writeChromeTrace(OS, Clock, Events);
  return OS.str();
}

/// Parse \p JSON, expecting \p Clock, and write it again.
std::string rewrite(const std::string &JSON, TraceClock Clock) {
  TraceClock Parsed = Clock == TraceClock::Wall ? TraceClock::Cycles
                                                : TraceClock::Wall;
  ErrorOr<std::vector<TraceEvent>> Events = parseChromeTrace(JSON, &Parsed);
  EXPECT_TRUE(Events.ok()) << Events.status().str();
  EXPECT_EQ(Parsed, Clock);
  return Events.ok() ? write(Clock, *Events) : std::string();
}

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Run npralc with \p Args, its output dropped; true when it exits 0.
bool npralc(const std::string &Args) {
  return std::system((std::string(NPRALC_PATH) + " " + Args +
                      " >/dev/null 2>&1")
                         .c_str()) == 0;
}

} // namespace

TEST(TraceFormatTest, HandBuiltTraceOfEveryPhaseMatchesGolden) {
  EXPECT_EQ(write(TraceClock::Wall, everyPhase()), WallGolden);
  EXPECT_EQ(write(TraceClock::Cycles, everyPhase()), CyclesGolden);
  EXPECT_EQ(rewrite(WallGolden, TraceClock::Wall), WallGolden);
  EXPECT_EQ(rewrite(CyclesGolden, TraceClock::Cycles), CyclesGolden);

  // The parse gives back the recorded fields: ticks of the clock, decoded
  // strings, and a number arg marked Raw.
  ErrorOr<std::vector<TraceEvent>> Wall = parseChromeTrace(WallGolden);
  ASSERT_TRUE(Wall.ok()) << Wall.status().str();
  ASSERT_EQ(Wall->size(), 7u);
  EXPECT_EQ((*Wall)[1].Ts, 2250);
  EXPECT_EQ((*Wall)[1].Args[0].Value, "t\"1\n");
  EXPECT_FALSE((*Wall)[1].Args[0].Raw);
  EXPECT_EQ((*Wall)[3].Dur, 9);
  EXPECT_TRUE((*Wall)[4].Args[0].Raw);
  EXPECT_EQ((*Wall)[6].Id, 7u);
}

TEST(TraceFormatTest, WallTimeKeepsNanosecondsAndSign) {
  // 1.005 and 2.002 us times 1000 are 1004.999... and 2001.999... in
  // doubles: the parser must round to the nanosecond, not truncate.
  const std::vector<TraceEvent> Events = {
      {.Ph = 'X', .Name = "a", .Cat = "sim", .Ts = -1500,
       .Dur = 1234567891},
      {.Ph = 'X', .Name = "b", .Cat = "sim", .Ts = 1005, .Dur = 2002}};
  const std::string JSON = write(TraceClock::Wall, Events);
  EXPECT_NE(JSON.find("\"ts\": -1.500, \"dur\": 1234567.891"),
            std::string::npos)
      << JSON;
  EXPECT_NE(JSON.find("\"ts\": 1.005, \"dur\": 2.002"), std::string::npos)
      << JSON;
  EXPECT_EQ(rewrite(JSON, TraceClock::Wall), JSON);
}

TEST(TraceFormatTest, NpralcTracesRoundTripByteForByte) {
  // The traces live under the test's working directory (the build tree).
  const std::filesystem::path Dir =
      std::filesystem::current_path() / "trace_format_test.out";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  const std::string Asm = NPRAL_EXAMPLES_ASM_DIR;
  const struct {
    const char *File;
    std::string Args;
    TraceClock Clock;
  } Traces[] = {
      {"batch.json",
       "batch " + Asm + "/two_threads.s " + Asm + "/fig3_paper.s --trace-out",
       TraceClock::Wall},
      {"run.json", "run " + Asm + "/fig3_paper.s -iters 5 --trace-cycles",
       TraceClock::Cycles},
      {"grid.json", "grid s1 --engines 4 --sample-cycles 64 --trace-cycles",
       TraceClock::Cycles},
  };
  for (const auto &T : Traces) {
    SCOPED_TRACE(T.File);
    const std::filesystem::path Path = Dir / T.File;
    ASSERT_TRUE(npralc(T.Args + " " + Path.string()));
    EXPECT_TRUE(npralc("trace-validate " + Path.string()));
    const std::string JSON = readFile(Path);
    ASSERT_FALSE(JSON.empty());
    EXPECT_TRUE(JSON == rewrite(JSON, T.Clock))
        << "parse + write changed the bytes of " << Path;
  }
  std::filesystem::remove_all(Dir);
}
