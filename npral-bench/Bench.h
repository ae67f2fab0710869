//===- Bench.h - npral-bench shared run plumbing ----------------*- C++ -*-===//
///
/// \file
/// What every workload of the benchmark shares: the run settings parsed
/// from the command line, the result a run reports (metrics by name and
/// unit, attempted/failed counts, correctness), latency samples with
/// exact percentiles, and the span log of the traced mode.
///
/// Spans are recorded only from the benchmark's own code, around its calls
/// into each layer's public functions; the program under test is not
/// instrumented. A span is (name, start, end, parent, job id); spans stay
/// in memory and are written out once, when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_BENCH_BENCH_H
#define NPRAL_BENCH_BENCH_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace npralbench {

int64_t nowNs();
inline double nsToMs(int64_t Ns) { return static_cast<double>(Ns) / 1e6; }

/// Settings of one run, from the command line.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for the daemon's socket and the span file.
  std::string WorkDir = ".";
  /// Where the traced mode writes its spans.
  std::string SpansPath;
};

/// Latency samples in milliseconds with exact (linearly interpolated)
/// percentiles.
class Samples {
public:
  void add(double Ms) { Values.push_back(Ms); }
  void merge(const Samples &Other) {
    Values.insert(Values.end(), Other.Values.begin(), Other.Values.end());
  }
  size_t size() const { return Values.size(); }
  double total() const;
  /// \p Q in [0, 100]; 0 when empty.
  double percentile(double Q) const;

private:
  std::vector<double> Values;
};

/// What one run reports. Every metric carries its unit; Notes are
/// human-readable lines (sample counts, which percentile a tail is) printed
/// ahead of the JSON result.
struct RunResult {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  /// False when any output check failed, including checks that are not
  /// per-operation (expected model outputs, trace consistency).
  bool Correct = true;
  std::map<std::string, std::pair<double, std::string>> Metrics;
  std::vector<std::string> Notes;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  /// Count one operation; \p Ok false marks it failed and the run incorrect.
  void check(bool Ok, const std::string &What);
  void note(const std::string &Line) { Notes.push_back(Line); }
};

/// Times a workload's set-up. It runs a few times before measuring and,
/// in untraced runs, once more between passes whenever SetupEverySeconds
/// have passed since the last, so the set-ups are spread over the whole
/// run: the conditions of one moment (a cold heap at start-up, a burst
/// from another tenant) do not decide `setup_s`, which is the fastest of
/// them all (interference only adds time).
class SetupTimer {
public:
  static constexpr int Upfront = 5;
  static constexpr double SetupEverySeconds = 1.0;

  explicit SetupTimer(std::function<void()> Setup) : Setup(std::move(Setup)) {}
  /// Time one set-up.
  void time();
  /// Time one more set-up if SetupEverySeconds passed since the last;
  /// returns whether it ran.
  bool due();
  /// Report `setup_s` and a note with the count and the median.
  void report(RunResult &R) const;

private:
  std::function<void()> Setup;
  Samples Ms;
  int64_t LastNs = 0;
};

/// Workloads measure whole passes over their inputs, so every run sees the
/// same mix. Another pass runs when, at the mean pass time so far, it would
/// end within \p Seconds of \p StartNs; the first pass always runs.
bool anotherPass(int64_t StartNs, int Passes, double Seconds);

/// One measured pass: its wall time and the latency of each job in it.
struct Pass {
  double WallMs = 0;
  Samples JobMs;
};

/// The end-to-end metrics every untraced run reports, taken over the
/// fastest tenth of \p Passes (at least one): jobs per second over their
/// wall, the per-job p50 and the \p TailQ percentile over their jobs, and
/// the process's peak RSS. The host shares its cores with other tenants;
/// interference only ever adds time, so the fastest passes are the ones
/// that measure the program rather than its neighbours.
void reportEndToEnd(RunResult &R, std::vector<Pass> Passes, double TailQ);

/// One span of the traced mode.
struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the enclosing span in the same log, or -1.
  int32_t Parent = -1;
  int64_t Job = 0;
};

/// Append-only span store of one thread.
class SpanLog {
public:
  int32_t begin(const char *Name, int64_t Job, int32_t Parent = -1);
  void end(int32_t Id) { Spans[static_cast<size_t>(Id)].EndNs = nowNs(); }
  /// Record a span measured elsewhere (e.g. a value the program returned).
  void add(const char *Name, int64_t StartNs, int64_t EndNs, int64_t Job,
           int32_t Parent = -1);
  const std::vector<Span> &spans() const { return Spans; }
  size_t size() const { return Spans.size(); }
  /// Duration of span \p Id in nanoseconds.
  int64_t duration(int32_t Id) const {
    const Span &S = Spans[static_cast<size_t>(Id)];
    return S.EndNs - S.StartNs;
  }

private:
  std::vector<Span> Spans;
};

/// RAII span: begins at construction, ends at destruction.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, const char *Name, int64_t Job, int32_t Parent)
      : Log(Log), Id(Log.begin(Name, Job, Parent)) {}
  ~ScopedSpan() { Log.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int32_t id() const { return Id; }

private:
  SpanLog &Log;
  int32_t Id;
};

/// Per-layer time accounting for the traced mode: each job contributes one
/// sample per layer it ran (the sum of that layer's self times within the
/// job), giving a per-job p50 and a run total per layer.
class LayerTable {
public:
  /// Fold the self times of spans [From, To) of \p Log as one job. A span's
  /// self time is its duration minus that of its direct children.
  void addJob(const SpanLog &Log, size_t From, size_t To);
  /// Add one job's sample for \p Layer directly (derived layers).
  void addSample(const std::string &Layer, double Ms);
  /// Emit `<layer>_ms.p50` and `<layer>_ms.total` for every name in
  /// \p Layers (zero when the layer never ran).
  void report(RunResult &R, const std::vector<std::string> &Layers) const;

private:
  std::map<std::string, Samples> PerLayer;
};

/// Write \p Logs as one Chrome trace-event JSON file (one `tid` per log)
/// so the spans can be opened in a trace viewer.
void writeSpans(const std::string &Path, const std::vector<const SpanLog *> &Logs);

/// Peak resident set size of this process, MB.
double peakRssMb();

/// 0..N-1 in an order drawn from \p Seed by a Fisher-Yates shuffle that is
/// identical on every platform (std::shuffle's algorithm is
/// implementation-defined).
std::vector<size_t> shuffledIndices(size_t N, uint64_t Seed);

// The four workloads.
void runBatchCorpus(const RunConfig &Cfg, RunResult &R);
void runFuzzAdversarial(const RunConfig &Cfg, RunResult &R);
void runServeMixed(const RunConfig &Cfg, RunResult &R);
void runGridTable3(const RunConfig &Cfg, RunResult &R);

} // namespace npralbench

#endif // NPRAL_BENCH_BENCH_H
