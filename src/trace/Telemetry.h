//===- Telemetry.h - Cycle-period sampling into traces and rings -*- C++ -*-===//
///
/// \file
/// Streamed time-series telemetry from the running simulator. A
/// TelemetrySampler fires on a fixed virtual-time period (every N simulated
/// cycles) and records each sample twice:
///
///  * as Perfetto counter tracks — one 'C' event per value into the
///    attached CycleTrace, so occupancy/ready/credits/in-flight render as
///    counter plots under the engine's process track;
///  * as a TelemetrySample into a bounded TelemetryRing — the programmatic
///    sink for recent samples that ROADMAP item 4 (online traffic-adaptive
///    reallocation) will read to detect drift without parsing a trace file.
///
/// Sampling is driven by the simulation itself (the scheduler loop for a
/// plain run, the engine lanes' sample boundaries for a grid), so sample
/// cycles and values are deterministic; the host never perturbs them.
/// Either sink may be null; a sampler with neither is never constructed in
/// practice.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_TRACE_TELEMETRY_H
#define NPRAL_TRACE_TELEMETRY_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace npral {

class CycleTrace;

/// One sample instant: every value recorded at that cycle, in recording
/// order, keyed by the fully qualified counter name (`grid.engine2.ready`,
/// `fabric.in_flight`, ...).
struct TelemetrySample {
  int64_t Cycle = 0;
  std::vector<std::pair<std::string, int64_t>> Values;
};

/// Fixed-capacity ring of the most recent samples. Single-writer (the
/// simulation driving the sampler); readers consume between runs.
class TelemetryRing {
public:
  explicit TelemetryRing(size_t Capacity = 256);

  size_t capacity() const { return Buf.size(); }
  /// Samples currently retained (<= capacity()).
  size_t size() const { return Count; }
  /// Samples pushed over the ring's lifetime (>= size(); the difference is
  /// what was evicted).
  int64_t totalPushed() const { return Pushed; }

  void push(TelemetrySample S);

  /// Retained sample \p I, 0 = oldest retained .. size()-1 = newest.
  const TelemetrySample &at(size_t I) const;

  /// Copy of the retained samples, oldest first.
  std::vector<TelemetrySample> snapshot() const;

  void clear();

private:
  std::vector<TelemetrySample> Buf;
  /// Index the next push writes to.
  size_t Head = 0;
  size_t Count = 0;
  int64_t Pushed = 0;
};

/// Periodic sampler. The driving loop checks due(now) and, when true,
/// brackets its value() calls in beginSample()/endSample(); endSample
/// advances the schedule past the cycle the simulation has reached, so a
/// coarse-stepping driver takes at most one sample per check instead of
/// back-filling stale ones.
class TelemetrySampler {
public:
  /// \p PeriodCycles must be >= 1. Either sink may be null.
  TelemetrySampler(int64_t PeriodCycles, CycleTrace *Trace,
                   TelemetryRing *Ring);

  int64_t period() const { return Period; }
  /// Cycle of the next scheduled sample.
  int64_t nextDue() const { return Next; }
  bool due(int64_t Now) const { return Now >= Next; }

  /// Open a sample at \p Cycle (callers pass nextDue(), keeping sample
  /// timestamps on the period grid).
  void beginSample(int64_t Cycle);
  /// Record one value of the open sample: a 'C' event named \p Name on
  /// process track \p Pid, and a (\p Name, \p V) entry in the ring sample.
  void value(int64_t Pid, const std::string &Name, int64_t V);
  /// Close the sample, push it to the ring, and schedule the next sample at
  /// the first period multiple after \p ReachedCycle.
  void endSample(int64_t ReachedCycle);

  /// The schedule endSample() follows: the next due cycle after a sample
  /// due at \p Next closes at \p ReachedCycle. Grid lanes run it on their
  /// own to stop at the boundaries the sampler will be driven at.
  static int64_t nextDueAfter(int64_t Next, int64_t Period,
                              int64_t ReachedCycle);

private:
  int64_t Period;
  int64_t Next;
  CycleTrace *Trace;
  TelemetryRing *Ring;
  TelemetrySample Pending;
  bool InSample = false;
};

} // namespace npral

#endif // NPRAL_TRACE_TELEMETRY_H
