//===- Telemetry.cpp ------------------------------------------------------===//

#include "trace/Telemetry.h"

#include "trace/CycleTrace.h"

#include <cassert>

using namespace npral;

TelemetrySampler::TelemetrySampler(int64_t PeriodCycles, CycleTrace *Trace)
    : Period(PeriodCycles), Next(PeriodCycles), Trace(Trace) {
  assert(PeriodCycles >= 1 && "sample period must be at least one cycle");
  assert(Trace && "a sampler needs a trace to write counter events to");
}

void TelemetrySampler::beginSample(int64_t Cycle) {
  assert(!InSample && "beginSample with a sample already open");
  InSample = true;
  SampleCycle = Cycle;
}

void TelemetrySampler::value(int64_t Pid, const std::string &Name, int64_t V) {
  assert(InSample && "value() outside beginSample/endSample");
  Trace->counter(Pid, Name, SampleCycle, V);
}

void TelemetrySampler::endSample(int64_t ReachedCycle) {
  assert(InSample && "endSample without beginSample");
  InSample = false;
  Next = nextDueAfter(Next, Period, ReachedCycle);
}

int64_t TelemetrySampler::nextDueAfter(int64_t Next, int64_t Period,
                                       int64_t ReachedCycle) {
  // First period multiple strictly after what the simulation has reached:
  // a driver that stepped over several periods takes one sample, not a
  // back-filled burst of identical ones.
  if (ReachedCycle >= Next)
    Next += ((ReachedCycle - Next) / Period + 1) * Period;
  return Next;
}
