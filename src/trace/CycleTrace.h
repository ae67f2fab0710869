//===- CycleTrace.h - Virtual-time (cycle-domain) tracing -------*- C++ -*-===//
///
/// \file
/// The cycle-domain half of the tracing layer. Where TraceEngine records
/// wall-clock spans of the *toolchain*, a CycleTrace records what the
/// *simulated machine* did, with `ts` measured in simulated cycles — a
/// virtual clock. Because virtual time depends only on the work simulated,
/// never on host scheduling, two runs of the same scenario export
/// byte-identical traces regardless of worker count or engine interleaving
/// (pinned by tests/trace/CycleTraceTest).
///
/// It records the same TraceEvent as TraceEngine (trace/TraceFormat.h), in
/// the Cycles clock. Three event families, all loadable in Perfetto
/// alongside wall traces:
///
///  * Thread-state slices — one 'X' slice per contiguous interval of a
///    thread's state machine (Run / SwitchPenalty / MemStall / ChannelWait /
///    InterconnectStall / ReadyWait / Halted). Per thread the slices
///    partition the timeline, so their durations sum exactly to the seven
///    sim.thread<T>.*_cycles buckets; the simulator feeds every span it
///    charges to a bucket through extendPhase() and the cross-check is
///    pinned by test. A thread's waiting span is charged when the thread
///    settles, so slices of different threads need not come in time order.
///
///  * Counter tracks — 'C' events with one numeric `value` arg, sampled on
///    a fixed cycle period by a TelemetrySampler (trace/Telemetry.h):
///    occupancy, ready-queue depth, credits in hand, in-flight messages.
///
///  * Flow events — 's'/'f' pairs keyed by the interconnect message
///    sequence number, linking each grid WorkDispatch send (on the fabric
///    track, inside an 'X' slice spanning the modeled latency) to its
///    delivery on the destination thread's track, so cross-engine latency
///    renders as arrows.
///
/// Track convention: pid 0 is the interconnect fabric (tid = destination
/// engine lane), engine E is pid E+1 (tid = thread index); a plain
/// single-simulator run uses pid 1. A CycleTrace is owned by one run and is
/// not thread-safe — concurrent jobs each record into their own instance,
/// which is what makes the determinism guarantee trivial to keep. A
/// multi-engine grid does the same per engine lane and appends the lanes'
/// traces in engine order, so its events come engine-major.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_TRACE_CYCLETRACE_H
#define NPRAL_TRACE_CYCLETRACE_H

#include "trace/TraceFormat.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace npral {

/// The simulator's per-thread state machine, one value per cycle bucket of
/// ThreadStats. Slice names in the export are threadPhaseName() strings.
enum class ThreadPhase {
  Run,
  SwitchPenalty,
  MemStall,
  ChannelWait,
  InterconnectStall,
  ReadyWait,
  Halted,
};

constexpr int NumThreadPhases = 7;

const char *threadPhaseName(ThreadPhase P);

class CycleTrace {
public:
  /// Extend thread (\p Pid, \p Tid)'s state timeline with phase \p P over
  /// [\p C0, \p C1). Contiguous same-phase intervals coalesce into one
  /// slice; a phase change (or a gap) flushes the open slice as an 'X'
  /// event. Intervals must arrive in non-decreasing time order per track,
  /// which the simulator guarantees by settling each thread forward only.
  void extendPhase(int64_t Pid, int64_t Tid, ThreadPhase P, int64_t C0,
                   int64_t C1);

  /// Flush every open coalesced slice of process \p Pid (end of that
  /// engine's run).
  void closeTrack(int64_t Pid);

  /// Record a generic complete slice (fabric message spans).
  void completeSlice(int64_t Pid, int64_t Tid, std::string Name,
                     std::string Cat, int64_t Ts, int64_t Dur);

  /// Record a counter sample: a 'C' event named \p Name with the single
  /// numeric arg {"value": V}. Perfetto renders one counter track per
  /// (pid, name).
  void counter(int64_t Pid, std::string Name, int64_t Cycle, int64_t V);

  /// Record a flow start/finish pair member. \p Id pairs the two ends; the
  /// start lands on the sender's track, the finish on the receiver's.
  void flowStart(uint64_t Id, int64_t Pid, int64_t Tid, std::string Name,
                 int64_t Cycle);
  void flowFinish(uint64_t Id, int64_t Pid, int64_t Tid, std::string Name,
                  int64_t Cycle);

  int64_t eventCount() const { return static_cast<int64_t>(Events.size()); }
  /// Every event recorded, in recording order: 'X' slices, 'C' counters
  /// and 's'/'f' flows, ts/dur in cycles. Deterministic for a
  /// deterministic recording order.
  const std::vector<TraceEvent> &events() const {
    assert(Open.empty() && "read events with open thread-state slices; "
                           "closeTrack() every pid first");
    return Events;
  }

  /// extendPhase invocations recorded (pre-coalescing): one per span the
  /// simulator charged, each behind one tracing guard. bench/trace_overhead
  /// derives the guard count of an untraced run from it to bound the
  /// tracing-disabled overhead.
  int64_t intervalCount() const { return Intervals; }

  /// Total cycles recorded for (\p Pid, \p Tid) in phase \p P, including
  /// the still-open slice — the cross-check against ThreadStats buckets.
  int64_t phaseCycles(int64_t Pid, int64_t Tid, ThreadPhase P) const;

  /// Move every event of \p Other to the end of this trace, adding
  /// \p FlowIdBase to its flow ids, and fold in its phase totals and
  /// interval count; \p Other is left empty. Every track of \p Other must
  /// be closed. Grid lanes record into their own traces and are appended
  /// in engine order after the run.
  void append(CycleTrace &&Other, uint64_t FlowIdBase);

  /// Drop everything recorded.
  void clear();

private:
  /// Open coalesced slice per (pid, tid).
  struct OpenSlice {
    ThreadPhase Phase = ThreadPhase::Run;
    int64_t Begin = 0;
    int64_t End = 0;
  };

  void flushSlice(const std::pair<int64_t, int64_t> &Track,
                  const OpenSlice &S);

  std::vector<TraceEvent> Events;
  int64_t Intervals = 0;
  std::map<std::pair<int64_t, int64_t>, OpenSlice> Open;
  /// Accumulated per-phase cycles per (pid, tid), kept exact even while a
  /// slice is open.
  std::map<std::pair<int64_t, int64_t>, std::array<int64_t, NumThreadPhases>>
      PhaseTotals;
};

} // namespace npral

#endif // NPRAL_TRACE_CYCLETRACE_H
