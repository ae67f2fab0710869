//===- TraceReport.cpp ----------------------------------------------------===//

#include "trace/TraceReport.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

using namespace npral;

namespace {

/// Nearest-rank percentile over a sorted vector; 0 when empty.
double nearestRank(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  const double Clamped = std::clamp(Q, 0.0, 100.0);
  size_t Rank = static_cast<size_t>(
      std::ceil(Clamped / 100.0 * static_cast<double>(Sorted.size())));
  if (Rank == 0)
    Rank = 1;
  return Sorted[std::min(Rank, Sorted.size()) - 1];
}

/// Format a cycle count / duration without trailing ".0" noise: integers
/// print as integers, everything else with one decimal.
std::string fmtNum(double V) {
  if (V == std::floor(V) && std::abs(V) < 1e15)
    return formatString("%lld", static_cast<long long>(V));
  return formatString("%.1f", V);
}

/// An ASCII percentage bar of width \p Width.
std::string bar(double Fraction, int Width) {
  const int Filled = static_cast<int>(
      std::lround(std::clamp(Fraction, 0.0, 1.0) * Width));
  std::string S;
  S.reserve(static_cast<size_t>(Width));
  for (int I = 0; I < Width; ++I)
    S += I < Filled ? '#' : '.';
  return S;
}

/// A sparkline of the series sampled/duplicated onto \p Width columns,
/// using the eight block glyphs (min..max normalised per series).
std::string sparkline(const std::vector<double> &Values, int Width) {
  static const char *Glyphs[8] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (Values.empty())
    return "";
  double Lo = Values[0], Hi = Values[0];
  for (double V : Values) {
    Lo = std::min(Lo, V);
    Hi = std::max(Hi, V);
  }
  const size_t N = Values.size();
  const int Cols = std::min<int>(Width, static_cast<int>(N));
  std::string S;
  for (int C = 0; C < Cols; ++C) {
    // Column C summarises the slice [C, C+1) of the series scaled to Cols
    // columns; take the max inside the slice so spikes stay visible.
    const size_t Begin = static_cast<size_t>(C) * N / static_cast<size_t>(Cols);
    const size_t End = std::max(
        Begin + 1, (static_cast<size_t>(C) + 1) * N / static_cast<size_t>(Cols));
    double V = Values[Begin];
    for (size_t I = Begin + 1; I < End && I < N; ++I)
      V = std::max(V, Values[I]);
    int Level = 0;
    if (Hi > Lo)
      Level = static_cast<int>((V - Lo) / (Hi - Lo) * 7.0 + 0.5);
    S += Glyphs[std::clamp(Level, 0, 7)];
  }
  return S;
}

void htmlEscape(std::ostream &OS, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '&':
      OS << "&amp;";
      break;
    case '<':
      OS << "&lt;";
      break;
    case '>':
      OS << "&gt;";
      break;
    case '"':
      OS << "&quot;";
      break;
    default:
      OS << C;
    }
  }
}

/// Display name for a track. A wall trace has one track per recording
/// thread. A cycle trace follows its pid convention: pid 0 is the
/// interconnect fabric, pid E+1 is engine E (a plain single-simulator run
/// is pid 1 == "engine 0").
std::string trackLabel(TraceClock Clock, int64_t Pid, int64_t Tid) {
  if (Clock == TraceClock::Wall)
    return formatString("thread %lld", static_cast<long long>(Tid));
  if (Pid == 0)
    return formatString("fabric lane %lld", static_cast<long long>(Tid));
  return formatString("engine %lld thread %lld",
                      static_cast<long long>(Pid - 1),
                      static_cast<long long>(Tid));
}

} // namespace

double SliceBucket::p(double Q) const { return nearestRank(Durations, Q); }
double FlowReport::p(double Q) const { return nearestRank(Latencies, Q); }

TraceReport TraceReport::build(const std::vector<TraceEvent> &Events,
                               TraceClock Clock) {
  TraceReport R;
  R.Clock = Clock;
  R.NumEvents = static_cast<int64_t>(Events.size());
  // Ticks per report unit: cycles, or nanoseconds per microsecond.
  const double TicksPerUnit = Clock == TraceClock::Cycles ? 1.0 : 1000.0;

  std::map<std::pair<int64_t, int64_t>, TrackReport> Tracks;
  // Open B events per track, for wall-clock traces that use B/E pairs, with
  // the summed durations of each span's finished children.
  struct OpenSpan {
    std::string Name;
    int64_t Ts = 0;
    int64_t ChildTicks = 0;
  };
  std::map<std::pair<int64_t, int64_t>, std::vector<OpenSpan>> OpenBegins;
  std::map<std::pair<int64_t, std::string>, CounterReport> Counters;
  // Flow id -> (name, start ts).
  std::map<uint64_t, std::pair<std::string, int64_t>> OpenFlows;
  std::map<std::string, FlowReport> Flows;

  auto AddSlice = [&](int64_t Pid, int64_t Tid, const std::string &Name,
                      double Dur) {
    TrackReport &T = Tracks[{Pid, Tid}];
    T.Pid = Pid;
    T.Tid = Tid;
    SliceBucket &B = T.ByName[Name];
    ++B.Count;
    B.TotalDur += Dur;
    B.Durations.push_back(Dur);
    T.TotalDur += Dur;
  };

  for (const TraceEvent &E : Events) {
    switch (E.Ph) {
    case 'X':
      AddSlice(E.Pid, E.Tid, E.Name, static_cast<double>(E.Dur) / TicksPerUnit);
      break;
    case 'B':
      OpenBegins[{E.Pid, E.Tid}].push_back({E.Name, E.Ts, 0});
      break;
    case 'E': {
      auto &Stack = OpenBegins[{E.Pid, E.Tid}];
      if (Stack.empty())
        break;
      const OpenSpan Span = std::move(Stack.back());
      Stack.pop_back();
      const int64_t Ticks = E.Ts - Span.Ts;
      if (!Stack.empty())
        Stack.back().ChildTicks += Ticks;
      AddSlice(E.Pid, E.Tid, Span.Name,
               static_cast<double>(Ticks - Span.ChildTicks) / TicksPerUnit);
      break;
    }
    case 'C': {
      if (E.Args.empty())
        break;
      CounterReport &C = Counters[{E.Pid, E.Name}];
      C.Pid = E.Pid;
      C.Name = E.Name;
      // The first numeric arg is the counter value (the validator already
      // required one).
      C.Values.push_back(std::strtod(E.Args.front().Value.c_str(), nullptr));
      break;
    }
    case 's':
      OpenFlows[E.Id] = {E.Name, E.Ts};
      break;
    case 'f': {
      auto It = OpenFlows.find(E.Id);
      if (It == OpenFlows.end())
        break;
      Flows[It->second.first].Latencies.push_back(
          static_cast<double>(E.Ts - It->second.second) / TicksPerUnit);
      OpenFlows.erase(It);
      break;
    }
    default:
      break; // 'i' and anything else carries no duration.
    }
  }

  for (auto &[Key, T] : Tracks) {
    for (auto &[Name, B] : T.ByName)
      std::sort(B.Durations.begin(), B.Durations.end());
    R.Tracks.push_back(std::move(T));
  }
  for (auto &[Key, C] : Counters) {
    if (C.Values.empty())
      continue;
    C.Min = *std::min_element(C.Values.begin(), C.Values.end());
    C.Max = *std::max_element(C.Values.begin(), C.Values.end());
    C.Last = C.Values.back();
    R.Counters.push_back(std::move(C));
  }
  for (auto &[Name, F] : Flows) {
    F.Name = Name;
    std::sort(F.Latencies.begin(), F.Latencies.end());
    R.Flows.push_back(std::move(F));
  }
  return R;
}

void TraceReport::renderText(std::ostream &OS) const {
  OS << "trace report: " << NumEvents << " events, " << Tracks.size()
     << " timeline track(s), " << Counters.size() << " counter series, "
     << Flows.size() << " flow name(s)\n";
  for (const TrackReport &T : Tracks) {
    OS << "\n[" << trackLabel(Clock, T.Pid, T.Tid) << "] total "
       << fmtNum(T.TotalDur) << (Clock == TraceClock::Wall ? " us" : "")
       << "\n";
    for (const auto &[Name, B] : T.ByName) {
      const double Frac = T.TotalDur > 0 ? B.TotalDur / T.TotalDur : 0;
      OS << formatString("  %-18s %6.1f%% |%s| ", Name.c_str(), Frac * 100.0,
                         bar(Frac, 30).c_str())
         << fmtNum(B.TotalDur) << " over " << B.Count
         << " slice(s), p50=" << fmtNum(B.p(50)) << " p95=" << fmtNum(B.p(95))
         << " p99=" << fmtNum(B.p(99)) << "\n";
    }
  }
  if (!Counters.empty()) {
    OS << "\ncounters:\n";
    for (const CounterReport &C : Counters)
      OS << formatString("  pid %-3lld %-28s ",
                         static_cast<long long>(C.Pid), C.Name.c_str())
         << sparkline(C.Values, 32) << "  min=" << fmtNum(C.Min)
         << " max=" << fmtNum(C.Max) << " last=" << fmtNum(C.Last) << " ("
         << C.Values.size() << " samples)\n";
  }
  if (!Flows.empty()) {
    OS << "\nflows:\n";
    for (const FlowReport &F : Flows)
      OS << formatString("  %-18s ", F.Name.c_str()) << F.Latencies.size()
         << " delivered, latency p50=" << fmtNum(F.p(50))
         << " p95=" << fmtNum(F.p(95)) << " p99=" << fmtNum(F.p(99))
         << " max=" << fmtNum(F.Latencies.empty() ? 0 : F.Latencies.back())
         << "\n";
  }
}

void TraceReport::renderHTML(std::ostream &OS) const {
  OS << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
        "<title>npral trace report</title>\n<style>\n"
        "body{font-family:system-ui,sans-serif;margin:2em;max-width:60em}\n"
        "h2{border-bottom:1px solid #ccc;padding-bottom:.2em}\n"
        "table{border-collapse:collapse;margin:.5em 0}\n"
        "td,th{padding:.2em .6em;text-align:left;font-size:.9em}\n"
        ".bar{background:#e8e8e8;width:12em;height:.9em;display:inline-block}"
        "\n.bar>span{background:#4a84c4;height:100%;display:block}\n"
        ".spark{font-family:monospace;color:#4a84c4}\n"
        ".num{font-variant-numeric:tabular-nums}\n</style></head><body>\n"
        "<h1>npral trace report</h1>\n<p>"
     << NumEvents << " events &middot; " << Tracks.size()
     << " timeline track(s) &middot; " << Counters.size()
     << " counter series &middot; " << Flows.size() << " flow name(s)</p>\n";
  for (const TrackReport &T : Tracks) {
    OS << "<h2>";
    htmlEscape(OS, trackLabel(Clock, T.Pid, T.Tid));
    OS << "</h2>\n<table><tr><th>state</th><th>share</th><th></th><th>"
       << (Clock == TraceClock::Cycles ? "cycles" : "us")
       << "</th><th>slices</th><th>p50</th><th>p95</th><th>p99</th></tr>\n";
    for (const auto &[Name, B] : T.ByName) {
      const double Frac = T.TotalDur > 0 ? B.TotalDur / T.TotalDur : 0;
      OS << "<tr><td>";
      htmlEscape(OS, Name);
      OS << formatString("</td><td class=num>%.1f%%</td>", Frac * 100.0)
         << formatString("<td><span class=bar><span style=\"width:%.1f%%\">"
                         "</span></span></td>",
                         std::clamp(Frac, 0.0, 1.0) * 100.0)
         << "<td class=num>" << fmtNum(B.TotalDur) << "</td><td class=num>"
         << B.Count << "</td><td class=num>" << fmtNum(B.p(50))
         << "</td><td class=num>" << fmtNum(B.p(95)) << "</td><td class=num>"
         << fmtNum(B.p(99)) << "</td></tr>\n";
    }
    OS << "</table>\n";
  }
  if (!Counters.empty()) {
    OS << "<h2>counters</h2>\n<table><tr><th>pid</th><th>name</th>"
          "<th>series</th><th>min</th><th>max</th><th>last</th>"
          "<th>samples</th></tr>\n";
    for (const CounterReport &C : Counters) {
      OS << "<tr><td class=num>" << C.Pid << "</td><td>";
      htmlEscape(OS, C.Name);
      OS << "</td><td class=spark>" << sparkline(C.Values, 48)
         << "</td><td class=num>" << fmtNum(C.Min) << "</td><td class=num>"
         << fmtNum(C.Max) << "</td><td class=num>" << fmtNum(C.Last)
         << "</td><td class=num>" << C.Values.size() << "</td></tr>\n";
    }
    OS << "</table>\n";
  }
  if (!Flows.empty()) {
    OS << "<h2>flows</h2>\n<table><tr><th>name</th><th>delivered</th>"
          "<th>p50</th><th>p95</th><th>p99</th><th>max</th></tr>\n";
    for (const FlowReport &F : Flows) {
      OS << "<tr><td>";
      htmlEscape(OS, F.Name);
      OS << "</td><td class=num>" << F.Latencies.size()
         << "</td><td class=num>" << fmtNum(F.p(50)) << "</td><td class=num>"
         << fmtNum(F.p(95)) << "</td><td class=num>" << fmtNum(F.p(99))
         << "</td><td class=num>"
         << fmtNum(F.Latencies.empty() ? 0 : F.Latencies.back())
         << "</td></tr>\n";
    }
    OS << "</table>\n";
  }
  OS << "</body></html>\n";
}
