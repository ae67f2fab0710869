//===- CycleTrace.cpp -----------------------------------------------------===//

#include "trace/CycleTrace.h"

#include "support/StringUtils.h"

#include <cassert>
#include <fstream>

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
  if (S.End <= S.Begin)
    return;
  CycleEvent E;
  E.Ph = 'X';
  E.Ts = S.Begin;
  E.Dur = S.End - S.Begin;
  E.Pid = Track.first;
  E.Tid = Track.second;
  E.Name = threadPhaseName(S.Phase);
  E.Cat = "sim";
  Events.push_back(std::move(E));
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
  CycleEvent E;
  E.Ph = 'X';
  E.Ts = Ts;
  E.Dur = Dur;
  E.Pid = Pid;
  E.Tid = Tid;
  E.Name = std::move(Name);
  E.Cat = std::move(Cat);
  Events.push_back(std::move(E));
}

void CycleTrace::counter(int64_t Pid, std::string Name, int64_t Cycle,
                         int64_t V) {
  CycleEvent E;
  E.Ph = 'C';
  E.Ts = Cycle;
  E.Pid = Pid;
  E.Tid = 0;
  E.Name = std::move(Name);
  E.Cat = "telemetry";
  E.Args.emplace_back("value", V);
  Events.push_back(std::move(E));
}

void CycleTrace::flowStart(uint64_t Id, int64_t Pid, int64_t Tid,
                           std::string Name, int64_t Cycle) {
  CycleEvent E;
  E.Ph = 's';
  E.Ts = Cycle;
  E.Pid = Pid;
  E.Tid = Tid;
  E.FlowId = Id;
  E.Name = std::move(Name);
  E.Cat = "flow";
  Events.push_back(std::move(E));
}

void CycleTrace::flowFinish(uint64_t Id, int64_t Pid, int64_t Tid,
                            std::string Name, int64_t Cycle) {
  CycleEvent E;
  E.Ph = 'f';
  E.Ts = Cycle;
  E.Pid = Pid;
  E.Tid = Tid;
  E.FlowId = Id;
  E.Name = std::move(Name);
  E.Cat = "flow";
  Events.push_back(std::move(E));
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
  for (CycleEvent &E : Other.Events) {
    if (E.Ph == 's' || E.Ph == 'f')
      E.FlowId += FlowIdBase;
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

void CycleTrace::exportJSON(std::ostream &OS) const {
  assert(Open.empty() && "export with open thread-state slices; "
                         "closeTrack() every pid first");
  OS << "{\"displayTimeUnit\": \"ms\", \"virtualClock\": \"cycles\", "
        "\"traceEvents\": [";
  bool First = true;
  for (const CycleEvent &E : Events) {
    OS << (First ? "\n" : ",\n") << "{\"ph\": \"" << E.Ph << "\", \"name\": ";
    First = false;
    writeJSONString(OS, E.Name);
    if (!E.Cat.empty()) {
      OS << ", \"cat\": ";
      writeJSONString(OS, E.Cat);
    }
    OS << ", \"ts\": " << E.Ts;
    if (E.Ph == 'X')
      OS << ", \"dur\": " << E.Dur;
    OS << ", \"pid\": " << E.Pid << ", \"tid\": " << E.Tid;
    if (E.Ph == 's' || E.Ph == 'f') {
      OS << ", \"id\": " << E.FlowId;
      if (E.Ph == 'f')
        OS << ", \"bp\": \"e\"";
    }
    if (!E.Args.empty()) {
      OS << ", \"args\": {";
      bool FirstArg = true;
      for (const auto &[K, V] : E.Args) {
        if (!FirstArg)
          OS << ", ";
        FirstArg = false;
        writeJSONString(OS, K);
        OS << ": " << V;
      }
      OS << "}";
    }
    OS << "}";
  }
  OS << "\n]}\n";
}

Status CycleTrace::writeFile(const std::string &Path) const {
  std::ofstream OS(Path, std::ios::binary);
  if (!OS)
    return Status::error("cannot open trace output file: " + Path);
  exportJSON(OS);
  OS.flush();
  if (!OS)
    return Status::error("failed writing trace output file: " + Path);
  return Status::success();
}
