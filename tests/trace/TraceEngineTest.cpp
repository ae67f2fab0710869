//===- TraceEngineTest.cpp - Tracing, export, and strict validation -------===//

#include "trace/TraceEngine.h"
#include "trace/TraceFormat.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

using namespace npral;

namespace {

/// The engine is process-global; every test starts from a clean, disabled
/// generation so earlier tests cannot leak events into later ones.
class TraceEngineTest : public ::testing::Test {
protected:
  void SetUp() override {
    TraceEngine::global().setEnabled(false);
    TraceEngine::global().clear();
  }
  void TearDown() override {
    TraceEngine::global().setEnabled(false);
    TraceEngine::global().clear();
  }

  static std::string exportAll() {
    std::ostringstream OS;
    writeChromeTrace(OS, TraceClock::Wall, TraceEngine::global().events());
    return OS.str();
  }
};

} // namespace

TEST_F(TraceEngineTest, DisabledRecordsNothing) {
  ASSERT_FALSE(TraceEngine::global().isEnabled());
  {
    NPRAL_TRACE_SPAN("cat", "span");
    NPRAL_TRACE_INSTANT("cat", "hit");
  }
  EXPECT_EQ(TraceEngine::global().eventCount(), 0);
  // The empty export is still a valid (empty) trace document.
  EXPECT_TRUE(parseChromeTrace(exportAll()).ok());
}

TEST_F(TraceEngineTest, SpanAndInstantRoundTrip) {
  TraceEngine::global().setEnabled(true);
  {
    NPRAL_TRACE_SPAN_ARGS("alloc", "work", {"key", "value"});
    NPRAL_TRACE_INSTANT("alloc", "tick", {{"n", "1"}});
  }
  TraceEngine::global().setEnabled(false);
  EXPECT_EQ(TraceEngine::global().eventCount(), 3);

  const std::string JSON = exportAll();
  ASSERT_TRUE(parseChromeTrace(JSON).ok())
      << parseChromeTrace(JSON).status().str() << "\n"
      << JSON;
  ErrorOr<std::vector<TraceEvent>> Events = parseChromeTrace(JSON);
  ASSERT_TRUE(Events.ok()) << Events.status().str();
  ASSERT_EQ(Events->size(), 3u);

  // Per-buffer append order: B, i, E — all on one track.
  EXPECT_EQ((*Events)[0].Ph, 'B');
  EXPECT_EQ((*Events)[0].Name, "work");
  EXPECT_EQ((*Events)[0].Cat, "alloc");
  ASSERT_EQ((*Events)[0].Args.size(), 1u);
  EXPECT_EQ((*Events)[0].Args[0].Key, "key");
  EXPECT_EQ((*Events)[0].Args[0].Value, "value");
  EXPECT_EQ((*Events)[1].Ph, 'i');
  EXPECT_EQ((*Events)[1].Name, "tick");
  EXPECT_EQ((*Events)[2].Ph, 'E');
  EXPECT_EQ((*Events)[2].Name, "work");
  EXPECT_EQ((*Events)[0].Tid, (*Events)[2].Tid);
  EXPECT_LE((*Events)[0].Ts, (*Events)[2].Ts);
}

TEST_F(TraceEngineTest, ArgsAreNotEvaluatedWhenDisabled) {
  int Evaluations = 0;
  auto Expensive = [&Evaluations]() {
    ++Evaluations;
    return std::string("x");
  };
  {
    NPRAL_TRACE_SPAN_ARGS("cat", "span", {"k", Expensive()});
    NPRAL_TRACE_INSTANT("cat", "i", {{"k", Expensive()}});
  }
  EXPECT_EQ(Evaluations, 0);
  TraceEngine::global().setEnabled(true);
  {
    NPRAL_TRACE_SPAN_ARGS("cat", "span", {"k", Expensive()});
  }
  EXPECT_EQ(Evaluations, 1);
}

TEST_F(TraceEngineTest, ClearStartsANewGeneration) {
  TraceEngine::global().setEnabled(true);
  NPRAL_TRACE_INSTANT("cat", "before");
  EXPECT_EQ(TraceEngine::global().eventCount(), 1);
  TraceEngine::global().clear();
  EXPECT_EQ(TraceEngine::global().eventCount(), 0);
  NPRAL_TRACE_INSTANT("cat", "after");
  EXPECT_EQ(TraceEngine::global().eventCount(), 1);
  ErrorOr<std::vector<TraceEvent>> Events =
      parseChromeTrace(exportAll());
  ASSERT_TRUE(Events.ok());
  ASSERT_EQ(Events->size(), 1u);
  EXPECT_EQ((*Events)[0].Name, "after");
}

TEST_F(TraceEngineTest, SpanOpenAcrossClearDropsItsEnd) {
  // A span that saw clear() must not emit a dangling 'E' into the new
  // generation — that would unbalance every later export.
  TraceEngine::global().setEnabled(true);
  {
    TraceSpan Span("cat", "stale");
    TraceEngine::global().clear();
    NPRAL_TRACE_INSTANT("cat", "fresh");
  }
  const std::string JSON = exportAll();
  EXPECT_TRUE(parseChromeTrace(JSON).ok())
      << parseChromeTrace(JSON).status().str();
  ErrorOr<std::vector<TraceEvent>> Events = parseChromeTrace(JSON);
  ASSERT_TRUE(Events.ok());
  ASSERT_EQ(Events->size(), 1u);
  EXPECT_EQ((*Events)[0].Name, "fresh");
}

TEST_F(TraceEngineTest, ConcurrentThreadsStayBalanced) {
  // Each OS thread writes its own buffer; the export must be a valid trace
  // with balanced spans per track. Run under TSan in CI.
  constexpr int NumThreads = 8;
  constexpr int SpansPerThread = 200;
  TraceEngine::global().setEnabled(true);
  std::vector<std::thread> Workers;
  for (int W = 0; W < NumThreads; ++W)
    Workers.emplace_back([] {
      for (int I = 0; I < SpansPerThread; ++I) {
        NPRAL_TRACE_SPAN("worker", "unit");
        NPRAL_TRACE_INSTANT("worker", "tick");
      }
    });
  for (std::thread &W : Workers)
    W.join();
  TraceEngine::global().setEnabled(false);

  EXPECT_EQ(TraceEngine::global().eventCount(),
            static_cast<int64_t>(NumThreads) * SpansPerThread * 3);
  const std::string JSON = exportAll();
  Status S = parseChromeTrace(JSON).status();
  EXPECT_TRUE(S.ok()) << S.str();
}

TEST_F(TraceEngineTest, ContentKeyIgnoresTimestampAndTrack) {
  TraceEvent A, B;
  A.Ph = B.Ph = 'i';
  A.Name = B.Name = "tick";
  A.Cat = B.Cat = "cat";
  A.Args = {{"b", "2"}, {"a", "1"}};
  B.Args = {{"a", "1"}, {"b", "2"}}; // sorted inside contentKey
  A.Ts = 1;
  B.Ts = 99;
  A.Tid = 1;
  B.Tid = 7;
  EXPECT_EQ(A.contentKey(), B.contentKey());
  B.Args = {{"a", "1"}, {"b", "3"}};
  EXPECT_NE(A.contentKey(), B.contentKey());
}

//===----------------------------------------------------------------------===//
// Strict validator: accepted forms.
//===----------------------------------------------------------------------===//

TEST(TraceValidatorTest, AcceptsMinimalForms) {
  EXPECT_TRUE(parseChromeTrace("[]").ok());
  EXPECT_TRUE(parseChromeTrace("{\"traceEvents\": []}").ok());
  EXPECT_TRUE(parseChromeTrace(
                  "{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["
                  "{\"ph\": \"i\", \"name\": \"a\", \"ts\": 1.5, "
                  "\"pid\": 1, \"tid\": 2}]}")
                  .ok());
  // Balanced B/E pair with an X event on another track.
  Status S = parseChromeTrace(
      "[{\"ph\": \"B\", \"name\": \"s\", \"ts\": 0, \"pid\": 1, \"tid\": 1},"
      " {\"ph\": \"E\", \"name\": \"s\", \"ts\": 2, \"pid\": 1, \"tid\": 1},"
      " {\"ph\": \"X\", \"name\": \"x\", \"ts\": 0, \"dur\": 5, \"pid\": 1, "
      "\"tid\": 2}]").status();
  EXPECT_TRUE(S.ok()) << S.str();
}

//===----------------------------------------------------------------------===//
// Strict validator: every rejection the tracer must never trigger.
//===----------------------------------------------------------------------===//

namespace {

void expectInvalid(const std::string &JSON) {
  EXPECT_FALSE(parseChromeTrace(JSON).ok()) << "accepted: " << JSON;
}

} // namespace

TEST(TraceValidatorTest, RejectsMalformedJSON) {
  expectInvalid("");
  expectInvalid("hello");
  expectInvalid("[");
  expectInvalid("[] trailing");
  expectInvalid("{\"traceEvents\": [],}");
  // Duplicate traceEvents keys would silently drop half the trace.
  expectInvalid("{\"traceEvents\": [], \"traceEvents\": []}");
}

TEST(TraceValidatorTest, RejectsMissingOrBadFields) {
  // Missing ph / name / ts / pid / tid, one at a time.
  expectInvalid("[{\"name\": \"a\", \"ts\": 0, \"pid\": 1, \"tid\": 1}]");
  expectInvalid("[{\"ph\": \"i\", \"ts\": 0, \"pid\": 1, \"tid\": 1}]");
  expectInvalid("[{\"ph\": \"i\", \"name\": \"a\", \"pid\": 1, \"tid\": 1}]");
  expectInvalid("[{\"ph\": \"i\", \"name\": \"a\", \"ts\": 0, \"tid\": 1}]");
  expectInvalid("[{\"ph\": \"i\", \"name\": \"a\", \"ts\": 0, \"pid\": 1}]");
  // Unknown and malformed phases.
  expectInvalid(
      "[{\"ph\": \"Q\", \"name\": \"a\", \"ts\": 0, \"pid\": 1, \"tid\": 1}]");
  expectInvalid(
      "[{\"ph\": \"BE\", \"name\": \"a\", \"ts\": 0, \"pid\": 1, "
      "\"tid\": 1}]");
  // pid/tid must be integers.
  expectInvalid("[{\"ph\": \"i\", \"name\": \"a\", \"ts\": 0, \"pid\": 1.5, "
                "\"tid\": 1}]");
}

/// \p JSON fails to parse with an error that names a line and an offset.
void expectRejectedAt(const std::string &JSON, const std::string &Why) {
  ErrorOr<std::vector<TraceEvent>> Events = parseChromeTrace(JSON);
  ASSERT_FALSE(Events.ok()) << "accepted: " << JSON;
  const std::string Msg = Events.status().str();
  EXPECT_NE(Msg.find(Why), std::string::npos) << Msg;
  EXPECT_NE(Msg.find(" at line "), std::string::npos) << Msg;
  EXPECT_NE(Msg.find(", offset "), std::string::npos) << Msg;
}

TEST(TraceValidatorTest, RejectsNumbersThatOverflowADouble) {
  expectRejectedAt("[{\"ph\": \"i\", \"name\": \"a\", \"ts\": 1e999, "
                   "\"pid\": 0, \"tid\": 0}]",
                   "number out of range");
}

TEST(TraceValidatorTest, RejectsIntegersOutOfRange) {
  expectRejectedAt("[{\"ph\": \"i\", \"name\": \"a\", \"ts\": 0, "
                   "\"pid\": 99999999999999999999999, \"tid\": 0}]",
                   "integer out of range");
  expectRejectedAt("{\"virtualClock\": \"cycles\", \"traceEvents\": ["
                   "{\"ph\": \"i\", \"name\": \"a\", \"ts\": 0, \"pid\": 0, "
                   "\"tid\": 0, \"args\": {}, \"dur\": 1e30}]}",
                   "expected an integer");
  expectRejectedAt("[{\"ph\": \"s\", \"name\": \"w\", \"ts\": 0, "
                   "\"pid\": 0, \"tid\": 0, \"id\": -1}]",
                   "integer out of range");
}

TEST(TraceValidatorTest, RejectsDuplicateKeys) {
  expectRejectedAt("[{\"ph\": \"i\", \"name\": \"a\", \"name\": \"b\", "
                   "\"ts\": 0, \"pid\": 0, \"tid\": 0}]",
                   "duplicate key \"name\"");
  expectRejectedAt("[{\"ph\": \"i\", \"name\": \"a\", \"ts\": 0, \"pid\": 0, "
                   "\"tid\": 0, \"args\": {\"k\": \"1\", \"k\": \"2\"}}]",
                   "duplicate key \"k\"");
}

TEST(TraceValidatorTest, RejectsDeepNestingWithoutExhaustingTheStack) {
  const std::string Deep = "[{\"ph\": \"i\", \"name\": \"a\", \"ts\": 0, "
                           "\"pid\": 0, \"tid\": 0, \"args\": {\"k\": " +
                           std::string(100000, '[');
  expectRejectedAt(Deep, "nesting deeper than");
}

TEST(TraceValidatorTest, SemanticErrorsNameTheEventsLine) {
  expectRejectedAt(
      "[{\"ph\": \"i\", \"name\": \"a\", \"ts\": 5, \"pid\": 1, \"tid\": 1},\n"
      " {\"ph\": \"i\", \"name\": \"b\", \"ts\": 4, \"pid\": 1, \"tid\": 1}]",
      "event 'b': ts goes backwards on its track at line 2");
}

TEST(TraceValidatorTest, RejectsUnbalancedSpans) {
  // E without a matching B.
  expectInvalid(
      "[{\"ph\": \"E\", \"name\": \"s\", \"ts\": 0, \"pid\": 1, \"tid\": 1}]");
  // B left open at end of trace.
  expectInvalid(
      "[{\"ph\": \"B\", \"name\": \"s\", \"ts\": 0, \"pid\": 1, \"tid\": 1}]");
  // E closing a span of a different name.
  expectInvalid(
      "[{\"ph\": \"B\", \"name\": \"s\", \"ts\": 0, \"pid\": 1, \"tid\": 1},"
      " {\"ph\": \"E\", \"name\": \"t\", \"ts\": 1, \"pid\": 1, \"tid\": 1}]");
  // Balanced overall but crossing tracks: each tid must balance on its own.
  expectInvalid(
      "[{\"ph\": \"B\", \"name\": \"s\", \"ts\": 0, \"pid\": 1, \"tid\": 1},"
      " {\"ph\": \"E\", \"name\": \"s\", \"ts\": 1, \"pid\": 1, \"tid\": 2}]");
}

TEST(TraceValidatorTest, RejectsBackwardsTimestamps) {
  expectInvalid(
      "[{\"ph\": \"i\", \"name\": \"a\", \"ts\": 5, \"pid\": 1, \"tid\": 1},"
      " {\"ph\": \"i\", \"name\": \"b\", \"ts\": 4, \"pid\": 1, \"tid\": 1}]");
  // Different tracks have independent clocks — this one is fine.
  EXPECT_TRUE(
      parseChromeTrace(
          "[{\"ph\": \"i\", \"name\": \"a\", \"ts\": 5, \"pid\": 1, "
          "\"tid\": 1},"
          " {\"ph\": \"i\", \"name\": \"b\", \"ts\": 4, \"pid\": 1, "
          "\"tid\": 2}]")
          .ok());
}
