//===- TraceReport.h - Offline trace summarisation --------------*- C++ -*-===//
///
/// \file
/// Turns a parsed Chrome trace (parseChromeTrace's TraceEvent stream and
/// its clock) into a human-readable summary: per-track slice breakdowns
/// rendered as bars, counter tracks rendered as sparklines, and flow-event
/// latency percentiles. This is the analysis half of `npralc report` — the
/// CLI loads a trace file, validates it, and hands the events here.
///
/// Durations are cycles in a cycle trace and microseconds in a wall trace.
/// A wall span ('B'/'E') counts by its self time — its duration minus its
/// children's — so nested spans do not count twice.
///
/// The report is computed once (build) and rendered on demand as plain
/// text or as a single self-contained HTML page (inline CSS, no external
/// assets) so a CI artifact can be opened anywhere.
///
/// All aggregation is purely a function of the event stream, so reports of
/// the virtual-time traces (docs/observability.md) are deterministic and
/// diffable across runs.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_TRACE_TRACEREPORT_H
#define NPRAL_TRACE_TRACEREPORT_H

#include "trace/TraceFormat.h"

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace npral {

/// Aggregated durations of one slice name on one (pid, tid) track.
struct SliceBucket {
  int64_t Count = 0;
  double TotalDur = 0;
  /// Individual durations, kept for percentile queries (sorted by build).
  std::vector<double> Durations;

  double p(double Q) const; ///< Nearest-rank percentile over Durations.
};

/// One (pid, tid) timeline track: every 'X' slice plus balanced 'B'/'E'
/// pairs (by self time), grouped by slice name.
struct TrackReport {
  int64_t Pid = 0;
  int64_t Tid = 0;
  double TotalDur = 0; ///< Sum over all buckets (the 100% of the bars).
  std::map<std::string, SliceBucket> ByName;
};

/// One counter series: 'C' events with the same (pid, name).
struct CounterReport {
  int64_t Pid = 0;
  std::string Name;
  std::vector<double> Values; ///< In timestamp order.
  double Min = 0, Max = 0, Last = 0;
};

/// Latencies of matched 's'/'f' flow pairs sharing a name.
struct FlowReport {
  std::string Name;
  std::vector<double> Latencies; ///< finish.ts - start.ts, sorted.

  double p(double Q) const; ///< Nearest-rank percentile over Latencies.
};

/// The computed summary. Orderings are map-stable (pid, tid, name), so
/// renders are byte-deterministic for a given event stream.
class TraceReport {
public:
  /// Aggregate \p Events (document order; assumed already validated —
  /// unmatched B/E or flow events are skipped, not diagnosed).
  static TraceReport build(const std::vector<TraceEvent> &Events,
                           TraceClock Clock);

  const std::vector<TrackReport> &tracks() const { return Tracks; }
  const std::vector<CounterReport> &counters() const { return Counters; }
  const std::vector<FlowReport> &flows() const { return Flows; }
  int64_t eventCount() const { return NumEvents; }

  /// Plain-text report: one section per track with percentage bars, one
  /// sparkline per counter series, one percentile line per flow name.
  void renderText(std::ostream &OS) const;

  /// Single-file HTML with the same content (inline CSS bars).
  void renderHTML(std::ostream &OS) const;

private:
  TraceClock Clock = TraceClock::Wall;
  std::vector<TrackReport> Tracks;
  std::vector<CounterReport> Counters;
  std::vector<FlowReport> Flows;
  int64_t NumEvents = 0;
};

} // namespace npral

#endif // NPRAL_TRACE_TRACEREPORT_H
