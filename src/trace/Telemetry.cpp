//===- Telemetry.cpp ------------------------------------------------------===//

#include "trace/Telemetry.h"

#include "trace/CycleTrace.h"

#include <cassert>

using namespace npral;

TelemetryRing::TelemetryRing(size_t Capacity) {
  assert(Capacity >= 1 && "a telemetry ring needs room for one sample");
  Buf.resize(Capacity);
}

void TelemetryRing::push(TelemetrySample S) {
  Buf[Head] = std::move(S);
  Head = (Head + 1) % Buf.size();
  if (Count < Buf.size())
    ++Count;
  ++Pushed;
}

const TelemetrySample &TelemetryRing::at(size_t I) const {
  assert(I < Count && "telemetry ring index out of range");
  const size_t Oldest = (Head + Buf.size() - Count) % Buf.size();
  return Buf[(Oldest + I) % Buf.size()];
}

std::vector<TelemetrySample> TelemetryRing::snapshot() const {
  std::vector<TelemetrySample> Out;
  Out.reserve(Count);
  for (size_t I = 0; I < Count; ++I)
    Out.push_back(at(I));
  return Out;
}

void TelemetryRing::clear() {
  for (TelemetrySample &S : Buf)
    S = TelemetrySample();
  Head = 0;
  Count = 0;
  Pushed = 0;
}

TelemetrySampler::TelemetrySampler(int64_t PeriodCycles, CycleTrace *Trace,
                                   TelemetryRing *Ring)
    : Period(PeriodCycles), Next(PeriodCycles), Trace(Trace), Ring(Ring) {
  assert(PeriodCycles >= 1 && "sample period must be at least one cycle");
}

void TelemetrySampler::beginSample(int64_t Cycle) {
  assert(!InSample && "beginSample with a sample already open");
  InSample = true;
  Pending = TelemetrySample();
  Pending.Cycle = Cycle;
}

void TelemetrySampler::value(int64_t Pid, const std::string &Name, int64_t V) {
  assert(InSample && "value() outside beginSample/endSample");
  if (Trace)
    Trace->counter(Pid, Name, Pending.Cycle, V);
  Pending.Values.emplace_back(Name, V);
}

void TelemetrySampler::endSample(int64_t ReachedCycle) {
  assert(InSample && "endSample without beginSample");
  InSample = false;
  if (Ring)
    Ring->push(std::move(Pending));
  Pending = TelemetrySample();
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
