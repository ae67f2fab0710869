//===- CycleTrace.cpp -----------------------------------------------------===//

#include "trace/CycleTrace.h"

#include <cassert>

using namespace npral;

const char *npral::threadPhaseName(ThreadPhase P) {
  switch (P) {
  case ThreadPhase::Run:
    return "Run";
  case ThreadPhase::SwitchPenalty:
    return "SwitchPenalty";
  case ThreadPhase::MemStall:
    return "MemStall";
  case ThreadPhase::ChannelWait:
    return "ChannelWait";
  case ThreadPhase::InterconnectStall:
    return "InterconnectStall";
  case ThreadPhase::ReadyWait:
    return "ReadyWait";
  case ThreadPhase::Halted:
    return "Halted";
  }
  return "?";
}

void CycleTrace::flushSlice(const std::pair<int64_t, int64_t> &Track,
                            const OpenSlice &S) {
  if (S.End > S.Begin)
    completeSlice(Track.first, Track.second, threadPhaseName(S.Phase), "sim",
                  S.Begin, S.End - S.Begin);
}

void CycleTrace::extendPhase(int64_t Pid, int64_t Tid, ThreadPhase P,
                             int64_t C0, int64_t C1) {
  ++Intervals; // counted before the empty-interval cut: guards still ran
  if (C1 <= C0)
    return;
  const std::pair<int64_t, int64_t> Track{Pid, Tid};
  PhaseTotals[Track][static_cast<size_t>(P)] += C1 - C0;
  auto It = Open.find(Track);
  if (It != Open.end()) {
    OpenSlice &S = It->second;
    if (S.Phase == P && S.End == C0) {
      S.End = C1;
      return;
    }
    flushSlice(Track, S);
  }
  Open[Track] = OpenSlice{P, C0, C1};
}

void CycleTrace::closeTrack(int64_t Pid) {
  auto It = Open.lower_bound({Pid, INT64_MIN});
  while (It != Open.end() && It->first.first == Pid) {
    flushSlice(It->first, It->second);
    It = Open.erase(It);
  }
}

void CycleTrace::completeSlice(int64_t Pid, int64_t Tid, std::string Name,
                               std::string Cat, int64_t Ts, int64_t Dur) {
  Events.push_back({.Ph = 'X', .Name = std::move(Name), .Cat = std::move(Cat),
                    .Ts = Ts, .Dur = Dur, .Pid = Pid, .Tid = Tid});
}

void CycleTrace::counter(int64_t Pid, std::string Name, int64_t Cycle,
                         int64_t V) {
  Events.push_back({.Ph = 'C', .Name = std::move(Name), .Cat = "telemetry",
                    .Ts = Cycle, .Pid = Pid,
                    .Args = {{"value", std::to_string(V), /*Raw=*/true}}});
}

void CycleTrace::flowStart(uint64_t Id, int64_t Pid, int64_t Tid,
                           std::string Name, int64_t Cycle) {
  Events.push_back({.Ph = 's', .Name = std::move(Name), .Cat = "flow",
                    .Ts = Cycle, .Pid = Pid, .Tid = Tid, .Id = Id});
}

void CycleTrace::flowFinish(uint64_t Id, int64_t Pid, int64_t Tid,
                            std::string Name, int64_t Cycle) {
  Events.push_back({.Ph = 'f', .Name = std::move(Name), .Cat = "flow",
                    .Ts = Cycle, .Pid = Pid, .Tid = Tid, .Id = Id});
}

int64_t CycleTrace::phaseCycles(int64_t Pid, int64_t Tid,
                                ThreadPhase P) const {
  auto It = PhaseTotals.find({Pid, Tid});
  return It == PhaseTotals.end() ? 0 : It->second[static_cast<size_t>(P)];
}

void CycleTrace::append(CycleTrace &&Other, uint64_t FlowIdBase) {
  assert(Other.Open.empty() && "append a trace with open thread-state "
                               "slices; closeTrack() every pid first");
  Events.reserve(Events.size() + Other.Events.size());
  for (TraceEvent &E : Other.Events) {
    if (E.Ph == 's' || E.Ph == 'f')
      E.Id += FlowIdBase;
    Events.push_back(std::move(E));
  }
  Intervals += Other.Intervals;
  for (const auto &[Track, Totals] : Other.PhaseTotals)
    for (size_t P = 0; P < Totals.size(); ++P)
      PhaseTotals[Track][P] += Totals[P];
  Other.clear();
}

void CycleTrace::clear() {
  Events.clear();
  Intervals = 0;
  Open.clear();
  PhaseTotals.clear();
}
