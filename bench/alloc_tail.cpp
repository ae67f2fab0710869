//===- alloc_tail.cpp - Allocator tail over the adversarial fuzz corpus ---===//
//
// The allocator's worst case, measured on the corpus alloc_fuzz_test and
// its goldens pin (tests/integration/FuzzCaseFactory.h): the 200 plain
// seeds at their own budgets, infeasible ones included, plus spill seeds
// 0..11 squeezed below the feasibility bound and recovered by the spill
// fallback.
//
// Each case is analysed outside the clock, then allocated twice: once
// with a decision log, for the counts, and once unlogged and timed. Two
// reports come out of one pass over the corpus:
//
//  * per-case allocation wall time, p50 / p95 / p99 / max, printed only:
//    it depends on the host;
//  * the decision log's counts, summed over the pass — recolors, NSR
//    exclusions, block splits, fragment fallbacks, reduction steps — and
//    the moves the successful allocations inserted. They are exact, so
//    `--json` records them as the BenchReport scalars CI gates against
//    bench/baseline_alloc_tail.json at 0 % tolerance.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "FuzzCaseFactory.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

using namespace npral;

namespace {

/// The gated counts, summed over one corpus pass.
struct Counts {
  int64_t Recolors = 0;
  int64_t NSRExclusions = 0;
  int64_t BlockSplits = 0;
  int64_t FragmentFallbacks = 0;
  int64_t ReductionSteps = 0;
  int64_t MovesInserted = 0;

  void addLog(const AllocationDecisionLog &Log) {
    ReductionSteps += static_cast<int64_t>(Log.Reductions.size());
    for (const IntraEvent &E : Log.IntraEvents) {
      Recolors += E.K == IntraEvent::Recolor;
      NSRExclusions += E.K == IntraEvent::ExcludeNSR;
      BlockSplits += E.K == IntraEvent::BlockSplit;
      FragmentFallbacks += E.K == IntraEvent::FragmentFallback;
    }
  }
};

/// One corpus entry: a plain seed at its own budget, or a spill seed at
/// its squeezed budget through the spill fallback.
struct Case {
  MultiThreadProgram Program;
  std::vector<std::shared_ptr<const ThreadAnalysisBundle>> Bundles;
  int Nreg = 0;
  bool Spill = false;
};

std::vector<Case> makeCorpus() {
  std::vector<Case> Corpus;
  auto add = [&Corpus](fuzzcase::FuzzCase C, int Nreg, bool Spill) {
    Case K;
    for (const Program &P : C.Renamed.Threads)
      K.Bundles.push_back(std::make_shared<const ThreadAnalysisBundle>(
          computeThreadAnalysisBundle(P)));
    K.Program = std::move(C.Renamed);
    K.Nreg = Nreg;
    K.Spill = Spill;
    Corpus.push_back(std::move(K));
  };
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    fuzzcase::FuzzCase C = fuzzcase::makeCase(Seed);
    const int Nreg = C.Nreg;
    add(std::move(C), Nreg, false);
  }
  for (uint64_t Seed = 0; Seed < 12; ++Seed) {
    fuzzcase::FuzzCase C = fuzzcase::makeCase(Seed, /*SmallPrograms=*/true);
    if (const int Tight = fuzzcase::squeezedBudget(C, Seed))
      add(std::move(C), Tight, true);
  }
  return Corpus;
}

/// Allocate \p K as its golden mode does; \p Log may be null.
InterThreadResult allocate(const Case &K, AllocationDecisionLog *Log) {
  if (!K.Spill)
    return allocateInterThread(K.Program, K.Nreg, K.Bundles, {}, Log);
  SpillFallbackOptions Opts;
  Opts.MaxSpills = 256;
  return allocateWithSpillFallback(K.Program, K.Nreg, K.Bundles, {}, Log,
                                   InterAllocLimits(), Opts)
      .Inter;
}

/// Nearest-rank percentile of the ascending \p Sorted.
double percentile(const std::vector<double> &Sorted, double Q) {
  const size_t Rank = static_cast<size_t>(
      std::ceil(Q * static_cast<double>(Sorted.size())));
  return Sorted[std::max<size_t>(Rank, 1) - 1];
}

} // namespace

int main(int argc, char **argv) {
  BenchReport Report("alloc_tail", argc, argv);
  const std::vector<Case> Corpus = makeCorpus();

  Counts C;
  int Infeasible = 0;
  std::vector<double> WallMs;
  for (const Case &K : Corpus) {
    AllocationDecisionLog Log;
    const InterThreadResult Logged = allocate(K, &Log);
    C.addLog(Log);
    if (Logged.Success)
      C.MovesInserted += Logged.TotalMoveCost;
    else
      ++Infeasible;

    const auto T0 = std::chrono::steady_clock::now();
    (void)allocate(K, nullptr);
    const auto T1 = std::chrono::steady_clock::now();
    WallMs.push_back(std::chrono::duration<double, std::milli>(T1 - T0).count());
  }
  std::sort(WallMs.begin(), WallMs.end());

  TableFormatter Wall(
      {"Cases", "Infeasible", "p50 ms", "p95 ms", "p99 ms", "max ms"});
  Wall.row()
      .cell(static_cast<int>(Corpus.size()))
      .cell(Infeasible)
      .cell(percentile(WallMs, 0.50), 3)
      .cell(percentile(WallMs, 0.95), 3)
      .cell(percentile(WallMs, 0.99), 3)
      .cell(WallMs.back(), 3);
  std::cout << "Per-case allocation wall time (host-dependent, not gated)\n";
  Wall.print(std::cout);
  Report.addTable("wall_time", Wall);

  const std::vector<std::pair<const char *, int64_t>> Gated = {
      {"recolors", C.Recolors},
      {"nsr_exclusions", C.NSRExclusions},
      {"block_splits", C.BlockSplits},
      {"fragment_fallbacks", C.FragmentFallbacks},
      {"reduction_steps", C.ReductionSteps},
      {"moves_inserted", C.MovesInserted}};
  TableFormatter Table({"Count", "Per pass"});
  for (const auto &[Name, Value] : Gated) {
    Table.row().cell(Name).cell(static_cast<long long>(Value));
    Report.addScalar(Name, Value);
  }
  std::cout << "\nDecision-log counts per corpus pass (exact, gated)\n";
  Table.print(std::cout);
  return Report.finish(0);
}
