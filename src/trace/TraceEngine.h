//===- TraceEngine.h - Chrome trace-event recording -------------*- C++ -*-===//
///
/// \file
/// The tracing half of the observability layer: a process-wide TraceEngine
/// that records begin/end spans and instant events into per-thread buffers
/// as wall-clock TraceEvents (trace/TraceFormat.h), which writeChromeTrace
/// exports as Chrome trace-event JSON (loadable in Perfetto or
/// chrome://tracing).
///
/// Design constraints, in order:
///
///  1. *Near-zero cost when disabled.* Every instrumentation site is
///     guarded by one relaxed atomic load (`traceEnabled()`); the
///     NPRAL_TRACE_* macros evaluate no arguments and construct nothing
///     until that load says yes. Compiling with -DNPRAL_TRACE=0 removes
///     the sites entirely. bench/trace_overhead pins the disabled cost.
///
///  2. *Thread safety without contention.* Each OS thread appends to its
///     own buffer; the engine's mutex is taken only to register a new
///     buffer (once per thread per engine generation) and to export.
///     Buffers are never written concurrently, so the tracer itself is
///     clean under TSan even when the batch pipeline fans out.
///
///  3. *Deterministic content.* Event names, categories, and args depend
///     only on the work performed, never on scheduling; only `ts` and
///     `tid` vary run to run. The determinism test compares the event
///     multiset of --jobs 1 against --jobs N.
///
/// Reading the events requires quiescence: every thread that traced must
/// have finished (the batch pipeline joins its pool before the driver
/// exports) and no span may still be open.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_TRACE_TRACEENGINE_H
#define NPRAL_TRACE_TRACEENGINE_H

#include "trace/TraceFormat.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace npral {

class TraceEngine {
public:
  /// The process-wide engine every NPRAL_TRACE_* macro records into.
  static TraceEngine &global();

  /// Turn recording on or off. Disabled is the default; instrumentation
  /// sites then cost one relaxed atomic load.
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool isEnabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Record an instant event on the calling thread's buffer.
  void instant(std::string_view Cat, std::string_view Name,
               TraceArgs Args = {});

  /// Total events recorded since the last clear().
  int64_t eventCount() const;

  /// Drop every buffer and start a new generation. Threads that cached a
  /// buffer pointer re-register on their next event. Requires the same
  /// quiescence as export.
  void clear();

  /// Everything recorded, as wall-clock events ('B', 'E', 'i'; ts in
  /// nanoseconds since the engine epoch): pid 1, one tid per recording
  /// thread, tracks in registration order and each track in append order
  /// (which is its time order). Requires the same quiescence as clear().
  std::vector<TraceEvent> events() const;

  /// Per-thread append-only event sink. Owned by the engine, written only
  /// by the registering thread. Public so the thread-local handle in the
  /// implementation can name it; not part of the recording API.
  struct Buffer {
    int64_t Tid = 0;
    std::vector<TraceEvent> Events;
  };

private:
  friend class TraceSpan;

  TraceEngine();

  /// The calling thread's buffer for the current generation, registering
  /// one if needed.
  Buffer &localBuffer();
  int64_t now() const;
  void append(Buffer &B, char Ph, std::string_view Cat, std::string_view Name,
              TraceArgs Args);

  std::atomic<bool> Enabled{false};
  /// Bumped by clear() so threads drop stale buffer pointers.
  std::atomic<uint64_t> Generation{1};
  int64_t EpochNs = 0;
  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<Buffer>> Buffers;
};

/// True when the global engine is recording; the macro guard.
inline bool traceEnabled() { return TraceEngine::global().isEnabled(); }

/// RAII span: emits 'B' at construction and the matching 'E' at
/// destruction, both into the constructing thread's buffer — so begin/end
/// pairs are balanced per track by construction, even if the engine is
/// disabled or cleared mid-span (a span that saw clear() drops its end
/// event instead of unbalancing the new generation).
class TraceSpan {
public:
  TraceSpan(std::string_view Cat, std::string_view Name, TraceArgs Args = {});
  ~TraceSpan();

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  /// Attach \p Args to the span's end event, for values only known once
  /// the span's work is done (viewers merge them with the begin args).
  void setEndArgs(TraceArgs Args) { EndArgs = std::move(Args); }

private:
  TraceEngine::Buffer *Buf = nullptr;
  uint64_t Gen = 0;
  std::string Name;
  std::string Cat;
  TraceArgs EndArgs;
};

// Instrumentation macros. NPRAL_TRACE defaults to 1; building with
// -DNPRAL_TRACE=0 compiles every site out.
#ifndef NPRAL_TRACE
#define NPRAL_TRACE 1
#endif

#if NPRAL_TRACE
#define NPRAL_TRACE_CONCAT_IMPL(A, B) A##B
#define NPRAL_TRACE_CONCAT(A, B) NPRAL_TRACE_CONCAT_IMPL(A, B)
/// Open a span covering the rest of the enclosing scope.
#define NPRAL_TRACE_SPAN(Cat, Name)                                            \
  ::npral::TraceSpan NPRAL_TRACE_CONCAT(NpralTraceSpan_, __LINE__)(Cat, Name)
/// Span with args; the arg expressions (a brace list of {"key", value}
/// pairs) are only evaluated when tracing is enabled.
#define NPRAL_TRACE_SPAN_ARGS(Cat, Name, ...)                                  \
  ::npral::TraceSpan NPRAL_TRACE_CONCAT(NpralTraceSpan_, __LINE__)(            \
      Cat, Name,                                                               \
      ::npral::traceEnabled() ? ::npral::TraceArgs{__VA_ARGS__}                \
                              : ::npral::TraceArgs())
/// Record an instant event; arguments are not evaluated when disabled.
#define NPRAL_TRACE_INSTANT(...)                                               \
  do {                                                                         \
    if (::npral::traceEnabled())                                               \
      ::npral::TraceEngine::global().instant(__VA_ARGS__);                     \
  } while (false)
#else
#define NPRAL_TRACE_SPAN(Cat, Name)                                            \
  do {                                                                         \
  } while (false)
#define NPRAL_TRACE_SPAN_ARGS(Cat, Name, ...)                                  \
  do {                                                                         \
  } while (false)
#define NPRAL_TRACE_INSTANT(...)                                               \
  do {                                                                         \
  } while (false)
#endif

} // namespace npral

#endif // NPRAL_TRACE_TRACEENGINE_H
