//===- TraceFormat.h - The one Chrome trace-event format --------*- C++ -*-===//
///
/// \file
/// One event struct, one Chrome trace-event JSON writer and one strict
/// parser. TraceEngine (wall-clock spans of the toolchain) and CycleTrace
/// (simulated cycles) record TraceEvents and export them through
/// writeChromeTrace; parseChromeTrace returns the same struct to
/// TraceReport and the tests. Parsing a written trace and writing it again
/// reproduces it byte for byte.
///
/// The document is one envelope, {"displayTimeUnit": "ms", "traceEvents":
/// [...]}, with one event per line and only the keys an event's phase
/// uses, in one order: ph, name, cat, ts, dur ('X'), pid, tid, id
/// ('s'/'f'), "bp": "e" ('f'), "s": "t" ('i'), args. Only the clock
/// differs between the two recorders: a cycle trace adds "virtualClock":
/// "cycles" before "traceEvents" and writes integer cycles; a wall trace
/// writes microseconds with a nanosecond fraction ("ts": 12.345).
///
/// The parser is strict, and every error reports the line and the byte
/// offset, and the key being read when there is one (support/JSONReader.h,
/// which also rejects duplicate keys and out-of-range numbers):
///  * the document is one object whose "traceEvents" is an array of event
///    objects (a top-level bare array is also accepted, as a wall trace —
///    Chrome reads both); "virtualClock", when present, is "cycles" and
///    precedes "traceEvents";
///  * every event has string "ph"/"name" and numeric "ts"/"pid"/"tid";
///    pid/tid/id are integers and a cycle trace's ts/dur are too;
///  * every "ph" is one of B, E, X, i, C, s, f;
///  * B/E events nest and balance per (pid, tid) track, with matching
///    names;
///  * "ts" is non-decreasing along each track for B/E/i ("X" events are
///    placed by start time and exempt, matching Chrome's sorting
///    behavior); counter ('C') series are instead non-decreasing per
///    (pid, name), and flow events are ordered through their id;
///  * every 'C' event carries at least one arg, and all its args are
///    numbers;
///  * flow events carry an id and pair up: 's' opens an id (reopening an
///    open id is an error), 'f' closes an id previously opened at a ts <=
///    its own, and no id is left open at end of document.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_TRACE_TRACEFORMAT_H
#define NPRAL_TRACE_TRACEFORMAT_H

#include "support/Status.h"

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace npral {

/// One key/value annotation. Recorded values are strings; a parsed value
/// that is not a string (a number, literal, array or object) keeps its JSON
/// text and is marked Raw, and the writer emits it as is.
struct TraceArg {
  std::string Key;
  std::string Value;
  bool Raw = false;
};

/// Args attached to an event. Keep values short and deterministic.
using TraceArgs = std::vector<TraceArg>;

/// The clock a trace's ts/dur count in.
enum class TraceClock {
  /// Nanoseconds; written as microseconds with a nanosecond fraction.
  Wall,
  /// Simulated cycles (a virtual clock); written as integers.
  Cycles,
};

/// One trace event. `Ph` follows the Chrome trace-event phase codes: 'B'
/// span begin, 'E' span end, 'i' instant, 'X' complete slice, 'C' counter,
/// 's'/'f' flow start/finish.
struct TraceEvent {
  char Ph = 'i';
  std::string Name;
  std::string Cat;
  /// Ticks of the trace's clock.
  int64_t Ts = 0;
  /// 'X' only, in the same ticks.
  int64_t Dur = 0;
  int64_t Pid = 0;
  int64_t Tid = 0;
  /// 's'/'f' only: the flow id pairing start with finish.
  uint64_t Id = 0;
  TraceArgs Args = {};

  /// Scheduling-independent identity: everything except ts/pid/tid, with
  /// args order-normalized. The determinism test compares multisets of
  /// these keys across worker counts.
  std::string contentKey() const;
};

/// Write \p Events, in order, as one Chrome trace-event JSON document.
void writeChromeTrace(std::ostream &OS, TraceClock Clock,
                      const std::vector<TraceEvent> &Events);

/// Parse and validate \p JSON; returns the events in document order, and
/// the document's clock through \p Clock when given, or the first
/// violation.
ErrorOr<std::vector<TraceEvent>> parseChromeTrace(std::string_view JSON,
                                                  TraceClock *Clock = nullptr);

} // namespace npral

#endif // NPRAL_TRACE_TRACEFORMAT_H
