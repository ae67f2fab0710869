//===- Bench.cpp - npral-bench shared run plumbing ------------------------===//

#include "Bench.h"

#include "support/Random.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

using namespace npralbench;

int64_t npralbench::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Samples::total() const {
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum;
}

double Samples::percentile(double Q) const {
  if (Values.empty())
    return 0.0;
  std::vector<double> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  const double Rank = Q / 100.0 * static_cast<double>(Sorted.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Rank));
  const size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * (Rank - static_cast<double>(Lo));
}

void RunResult::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  // Keep the report short: the first few failures say what went wrong.
  if (Failed <= 5)
    note("FAILED: " + What);
  Correct = false;
}

void SetupTimer::time() {
  const int64_t T0 = nowNs();
  Setup();
  LastNs = nowNs();
  Ms.add(nsToMs(LastNs - T0));
}

bool SetupTimer::due() {
  if (static_cast<double>(nowNs() - LastNs) / 1e9 < SetupEverySeconds)
    return false;
  time();
  return true;
}

void SetupTimer::report(RunResult &R) const {
  R.metric("setup_s", Ms.percentile(0) / 1e3, "s");
  char Buf[120];
  snprintf(Buf, sizeof(Buf),
           "setup: fastest of %zu set-ups spread over the run %.1f ms "
           "(median %.1f ms)",
           Ms.size(), Ms.percentile(0), Ms.percentile(50));
  R.note(Buf);
}

bool npralbench::anotherPass(int64_t StartNs, int Passes, double Seconds) {
  if (Passes == 0)
    return true;
  const double Elapsed = static_cast<double>(nowNs() - StartNs) / 1e9;
  return Elapsed + Elapsed / Passes <= Seconds;
}

void npralbench::reportEndToEnd(RunResult &R, std::vector<Pass> Passes,
                                double TailQ) {
  // Every pass of a workload does the same work, so rank by wall.
  std::sort(Passes.begin(), Passes.end(),
            [](const Pass &A, const Pass &B) { return A.WallMs < B.WallMs; });
  const size_t Kept = std::max<size_t>(1, Passes.size() / 10);
  Samples JobMs;
  double WallMs = 0;
  for (size_t I = 0; I < Kept && I < Passes.size(); ++I) {
    JobMs.merge(Passes[I].JobMs);
    WallMs += Passes[I].WallMs;
  }
  R.metric("jobs_per_s",
           WallMs > 0 ? static_cast<double>(JobMs.size()) * 1e3 / WallMs : 0.0,
           "1/s");
  R.metric("job_ms_p50", JobMs.percentile(50), "ms");
  R.metric("job_ms_tail", JobMs.percentile(TailQ), "ms");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  char Buf[200];
  snprintf(Buf, sizeof(Buf),
           "latency: fastest %zu of %zu passes, %zu samples; job_ms_tail is "
           "p%g (%.0f samples beyond it)",
           Kept, Passes.size(), JobMs.size(), TailQ,
           static_cast<double>(JobMs.size()) * (100.0 - TailQ) / 100.0);
  R.note(Buf);
}

int32_t SpanLog::begin(const char *Name, int64_t Job, int32_t Parent) {
  Span S;
  S.Name = Name;
  S.Parent = Parent;
  S.Job = Job;
  S.StartNs = nowNs();
  Spans.push_back(S);
  return static_cast<int32_t>(Spans.size() - 1);
}

void SpanLog::add(const char *Name, int64_t StartNs, int64_t EndNs, int64_t Job,
                  int32_t Parent) {
  Span S;
  S.Name = Name;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  S.Parent = Parent;
  S.Job = Job;
  Spans.push_back(S);
}

void LayerTable::addJob(const SpanLog &Log, size_t From, size_t To) {
  const std::vector<Span> &Spans = Log.spans();
  std::vector<int64_t> Self(To - From);
  for (size_t I = From; I < To; ++I)
    Self[I - From] = Spans[I].EndNs - Spans[I].StartNs;
  for (size_t I = From; I < To; ++I) {
    const int32_t P = Spans[I].Parent;
    if (P >= 0 && static_cast<size_t>(P) >= From && static_cast<size_t>(P) < To)
      Self[static_cast<size_t>(P) - From] -= Spans[I].EndNs - Spans[I].StartNs;
  }
  std::map<std::string, int64_t> PerJob;
  for (size_t I = From; I < To; ++I)
    PerJob[Spans[I].Name] += Self[I - From];
  for (const auto &[Layer, Ns] : PerJob)
    PerLayer[Layer].add(nsToMs(Ns));
}

void LayerTable::addSample(const std::string &Layer, double Ms) {
  PerLayer[Layer].add(Ms);
}

void LayerTable::report(RunResult &R,
                        const std::vector<std::string> &Layers) const {
  for (const std::string &L : Layers) {
    auto It = PerLayer.find(L);
    const bool Ran = It != PerLayer.end();
    R.metric(L + "_ms.p50", Ran ? It->second.percentile(50) : 0.0, "ms");
    R.metric(L + "_ms.total", Ran ? It->second.total() : 0.0, "ms");
  }
}

void npralbench::writeSpans(const std::string &Path,
                            const std::vector<const SpanLog *> &Logs) {
  std::ofstream Out(Path);
  if (!Out)
    return;
  int64_t Epoch = INT64_MAX;
  for (const SpanLog *L : Logs)
    for (const Span &S : L->spans())
      Epoch = std::min(Epoch, S.StartNs);
  Out << "{\"traceEvents\":[\n";
  bool First = true;
  for (size_t Tid = 0; Tid < Logs.size(); ++Tid) {
    const std::vector<Span> &Spans = Logs[Tid]->spans();
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      char Buf[256];
      snprintf(Buf, sizeof(Buf),
               "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
               "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
               "\"job\":%lld}}",
               First ? "" : ",\n", S.Name, Tid,
               static_cast<double>(S.StartNs - Epoch) / 1e3,
               static_cast<double>(S.EndNs - S.StartNs) / 1e3, I, S.Parent,
               static_cast<long long>(S.Job));
      Out << Buf;
      First = false;
    }
  }
  Out << "\n]}\n";
}

double npralbench::peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // exec, so it would report the launching process's peak when that is
  // larger.
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // kB
  return 0.0;
}

std::vector<size_t> npralbench::shuffledIndices(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  npral::Rng R(Seed * 0x2545F4914F6CDD1DULL + 0xBE7C);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}
