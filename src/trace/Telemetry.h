//===- Telemetry.h - Cycle-period sampling into traces ----------*- C++ -*-===//
///
/// \file
/// Streamed time-series telemetry from the running simulator. A
/// TelemetrySampler fires on a fixed virtual-time period (every N simulated
/// cycles) and records each sampled value as a Perfetto counter event —
/// one 'C' event per value into the attached CycleTrace, so
/// occupancy/ready/credits/in-flight render as counter plots under the
/// engine's process track.
///
/// Sampling is driven by the simulation itself (the scheduler loop for a
/// plain run, the engine lanes' sample boundaries for a grid), so sample
/// cycles and values are deterministic; the host never perturbs them.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_TRACE_TELEMETRY_H
#define NPRAL_TRACE_TELEMETRY_H

#include <cstdint>
#include <string>

namespace npral {

class CycleTrace;

/// Periodic sampler. The driving loop checks due(now) and, when true,
/// brackets its value() calls in beginSample()/endSample(); endSample
/// advances the schedule past the cycle the simulation has reached, so a
/// coarse-stepping driver takes at most one sample per check instead of
/// back-filling stale ones.
class TelemetrySampler {
public:
  /// \p PeriodCycles must be >= 1; \p Trace (non-null) receives the
  /// counter events.
  TelemetrySampler(int64_t PeriodCycles, CycleTrace *Trace);

  int64_t period() const { return Period; }
  /// Cycle of the next scheduled sample.
  int64_t nextDue() const { return Next; }
  bool due(int64_t Now) const { return Now >= Next; }

  /// Open a sample at \p Cycle (callers pass nextDue(), keeping sample
  /// timestamps on the period grid).
  void beginSample(int64_t Cycle);
  /// Record one value of the open sample: a 'C' event named \p Name on
  /// process track \p Pid.
  void value(int64_t Pid, const std::string &Name, int64_t V);
  /// Close the sample and schedule the next one at the first period
  /// multiple after \p ReachedCycle.
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
  /// Cycle of the open sample.
  int64_t SampleCycle = 0;
  bool InSample = false;
};

} // namespace npral

#endif // NPRAL_TRACE_TELEMETRY_H
