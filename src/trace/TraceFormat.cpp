//===- TraceFormat.cpp ----------------------------------------------------===//

#include "trace/TraceFormat.h"

#include "support/JSONReader.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <map>

using namespace npral;

namespace {

/// Write \p Ticks in the document's unit: integer cycles, or microseconds
/// with the nanoseconds in a three-digit fraction.
void writeTime(std::ostream &OS, TraceClock Clock, int64_t Ticks) {
  if (Clock == TraceClock::Cycles) {
    OS << Ticks;
    return;
  }
  const uint64_t Abs = Ticks < 0 ? 0 - static_cast<uint64_t>(Ticks)
                                 : static_cast<uint64_t>(Ticks);
  OS << formatString("%s%llu.%03llu", Ticks < 0 ? "-" : "",
                     static_cast<unsigned long long>(Abs / 1000),
                     static_cast<unsigned long long>(Abs % 1000));
}

/// Read a ts or dur into ticks: whole cycles, or microseconds kept to the
/// nanosecond.
Status readTime(JSONReader &R, TraceClock Clock, int64_t &Ticks) {
  if (Clock == TraceClock::Cycles)
    return R.readInteger(Ticks);
  double Us = 0;
  if (Status S = R.readNumber(Us); !S.ok())
    return S;
  // 9e15 us is 9e18 ns, just inside int64_t.
  if (!(std::abs(Us) < 9e15))
    return R.fail("time out of range");
  Ticks = std::llround(Us * 1000);
  return Status::success();
}

Status readEvent(JSONReader &R, TraceClock Clock, TraceEvent &E) {
  // Keys every event needs, in the order a missing one is reported.
  static constexpr std::string_view Required[] = {"ph", "name", "ts", "pid",
                                                  "tid"};
  unsigned Seen = 0;
  bool HaveId = false;
  Status S = R.readObject([&](const std::string &Key) -> Status {
    for (size_t I = 0; I < std::size(Required); ++I)
      if (Key == Required[I])
        Seen |= 1u << I;
    if (Key == "ph") {
      std::string Ph;
      if (Status S = R.readString(Ph); !S.ok())
        return S;
      if (Ph.size() != 1)
        return R.fail("ph must be a single character");
      E.Ph = Ph[0];
      return Status::success();
    }
    if (Key == "name" || Key == "cat")
      return R.readString(Key == "name" ? E.Name : E.Cat);
    if (Key == "ts" || Key == "dur")
      return readTime(R, Clock, Key == "ts" ? E.Ts : E.Dur);
    if (Key == "pid" || Key == "tid")
      return R.readInteger(Key == "pid" ? E.Pid : E.Tid);
    if (Key == "id") {
      HaveId = true;
      int64_t Id = 0;
      Status S = R.readInteger(Id, 0);
      E.Id = static_cast<uint64_t>(Id);
      return S;
    }
    if (Key == "args")
      return R.readObject([&](const std::string &ArgKey) {
        E.Args.push_back({ArgKey, "", false});
        bool IsString = false;
        Status S = R.readValue(E.Args.back().Value, IsString);
        E.Args.back().Raw = !IsString;
        return S;
      });
    // "s" and "bp" follow from ph; foreign keys are checked, not kept.
    return R.skipValue();
  });
  if (!S.ok())
    return S;
  for (size_t I = 0; I < std::size(Required); ++I)
    if (!(Seen & (1u << I)))
      return R.fail("event missing " + std::string(Required[I]));
  if ((E.Ph == 's' || E.Ph == 'f') && !HaveId)
    return R.fail("flow event without an id");
  return Status::success();
}

/// The semantic rules, applied to each event as it is read, so that a
/// violation reports the line and offset of the event that breaks it.
class EventChecker {
public:
  Status check(JSONReader &R, const TraceEvent &E) {
    auto Fail = [&](const std::string &Msg) {
      return R.fail("event '" + E.Name + "': " + Msg);
    };
    if (std::string_view("BEXiCsf").find(E.Ph) == std::string_view::npos)
      return Fail(std::string("invalid phase '") + E.Ph + "'");
    if (E.Ph == 'C') {
      if (E.Args.empty())
        return Fail("counter event without args");
      for (const TraceArg &A : E.Args)
        // Raw JSON text is a number exactly when it starts like one.
        if (!A.Raw || (A.Value[0] != '-' &&
                       !std::isdigit(static_cast<unsigned char>(A.Value[0]))))
          return Fail("counter arg '" + A.Key + "' is not a number");
      // A counter plot that goes backwards in time is as corrupt as a
      // track that does.
      int64_t &Last = CounterLastTs.try_emplace({E.Pid, E.Name}, INT64_MIN)
                          .first->second;
      if (E.Ts < Last)
        return Fail("ts goes backwards on its counter series");
      Last = E.Ts;
      return Status::success();
    }
    if (E.Ph == 's') {
      if (!OpenFlows.try_emplace(E.Id, E.Ts, E.Name).second)
        return Fail("flow id " + std::to_string(E.Id) + " started twice");
      return Status::success();
    }
    if (E.Ph == 'f') {
      auto It = OpenFlows.find(E.Id);
      if (It == OpenFlows.end())
        return Fail("flow finish with no open start for id " +
                    std::to_string(E.Id));
      if (E.Ts < It->second.first)
        return Fail("flow finishes before it starts");
      OpenFlows.erase(It);
      return Status::success();
    }
    Track &T = Tracks[{E.Pid, E.Tid}];
    // X events sort by start time within nesting; only B/E/i must be
    // non-decreasing along the track.
    if (E.Ph != 'X') {
      if (E.Ts < T.LastTs)
        return Fail("ts goes backwards on its track");
      T.LastTs = E.Ts;
    }
    if (E.Ph == 'B')
      T.OpenSpans.push_back(E.Name);
    if (E.Ph != 'E')
      return Status::success();
    if (T.OpenSpans.empty())
      return Fail("end event with no open span");
    if (T.OpenSpans.back() != E.Name)
      return Fail("end event name mismatch (open span '" +
                  T.OpenSpans.back() + "')");
    T.OpenSpans.pop_back();
    return Status::success();
  }

  /// Every span ends and every flow finishes (our emitters always deliver
  /// what they send).
  Status finish(JSONReader &R) const {
    for (const auto &[Id, T] : Tracks)
      if (!T.OpenSpans.empty())
        return R.fail("unbalanced trace: span '" + T.OpenSpans.back() +
                      "' on tid " + std::to_string(Id.second) + " never ends");
    if (!OpenFlows.empty())
      return R.fail("unbalanced trace: flow '" +
                    OpenFlows.begin()->second.second + "' (id " +
                    std::to_string(OpenFlows.begin()->first) +
                    ") never finishes");
    return Status::success();
  }

private:
  /// Per-(pid, tid) track: open B names (for balance and nesting) and the
  /// last B/E/i timestamp.
  struct Track {
    std::vector<std::string> OpenSpans;
    int64_t LastTs = INT64_MIN;
  };
  std::map<std::pair<int64_t, int64_t>, Track> Tracks;
  /// Last ts of each (pid, name) counter series.
  std::map<std::pair<int64_t, std::string>, int64_t> CounterLastTs;
  /// Open flows by id: start ts and name.
  std::map<uint64_t, std::pair<int64_t, std::string>> OpenFlows;
};

} // namespace

std::string TraceEvent::contentKey() const {
  std::string Key;
  Key += Ph;
  Key += '|';
  Key += Cat;
  Key += '|';
  Key += Name;
  std::vector<std::pair<std::string, std::string>> Sorted;
  Sorted.reserve(Args.size());
  for (const TraceArg &A : Args)
    Sorted.emplace_back(A.Key, A.Value);
  std::sort(Sorted.begin(), Sorted.end());
  for (const auto &[K, V] : Sorted) {
    Key += '|';
    Key += K;
    Key += '=';
    Key += V;
  }
  return Key;
}

void npral::writeChromeTrace(std::ostream &OS, TraceClock Clock,
                             const std::vector<TraceEvent> &Events) {
  OS << "{\"displayTimeUnit\": \"ms\", ";
  if (Clock == TraceClock::Cycles)
    OS << "\"virtualClock\": \"cycles\", ";
  OS << "\"traceEvents\": [";
  const char *Sep = "\n";
  for (const TraceEvent &E : Events) {
    OS << Sep << "{\"ph\": \"" << E.Ph << "\", \"name\": ";
    Sep = ",\n";
    writeJSONString(OS, E.Name);
    if (!E.Cat.empty()) {
      OS << ", \"cat\": ";
      writeJSONString(OS, E.Cat);
    }
    OS << ", \"ts\": ";
    writeTime(OS, Clock, E.Ts);
    if (E.Ph == 'X') {
      OS << ", \"dur\": ";
      writeTime(OS, Clock, E.Dur);
    }
    OS << ", \"pid\": " << E.Pid << ", \"tid\": " << E.Tid;
    if (E.Ph == 's' || E.Ph == 'f')
      OS << ", \"id\": " << E.Id;
    if (E.Ph == 'f')
      OS << ", \"bp\": \"e\"";
    if (E.Ph == 'i')
      OS << ", \"s\": \"t\"";
    if (!E.Args.empty()) {
      OS << ", \"args\": {";
      for (size_t I = 0; I < E.Args.size(); ++I) {
        if (I)
          OS << ", ";
        writeJSONString(OS, E.Args[I].Key);
        OS << ": ";
        if (E.Args[I].Raw)
          OS << E.Args[I].Value;
        else
          writeJSONString(OS, E.Args[I].Value);
      }
      OS << "}";
    }
    OS << "}";
  }
  OS << "\n]}\n";
}

ErrorOr<std::vector<TraceEvent>> npral::parseChromeTrace(std::string_view JSON,
                                                         TraceClock *Clock) {
  JSONReader R(JSON, "trace JSON");
  // A document without a virtualClock key is a wall trace.
  TraceClock DocClock = TraceClock::Wall;
  std::vector<TraceEvent> Events;
  bool SawEvents = false;
  EventChecker Checker;
  auto ReadEvents = [&] {
    SawEvents = true;
    return R.readArray([&] {
      Events.emplace_back();
      Status S = readEvent(R, DocClock, Events.back());
      return S.ok() ? Checker.check(R, Events.back()) : S;
    });
  };
  Status S = R.peek() == '['
                 ? ReadEvents()
                 : R.readObject([&](const std::string &Key) -> Status {
                     if (Key == "traceEvents")
                       return ReadEvents();
                     if (Key != "virtualClock")
                       return R.skipValue();
                     std::string Name;
                     if (Status S = R.readString(Name); !S.ok())
                       return S;
                     if (Name != "cycles")
                       return R.fail("unknown virtualClock \"" + Name + "\"");
                     if (SawEvents)
                       return R.fail("virtualClock must precede traceEvents");
                     DocClock = TraceClock::Cycles;
                     return Status::success();
                   });
  if (S.ok() && !SawEvents)
    S = R.fail("missing traceEvents array");
  if (S.ok())
    S = R.finish();
  if (S.ok())
    S = Checker.finish(R);
  if (!S.ok())
    return S;
  if (Clock)
    *Clock = DocClock;
  return Events;
}
