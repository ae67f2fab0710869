//===- FuzzCaseFactory.h - Shared fuzz-case construction --------*- C++ -*-===//
///
/// \file
/// The seeded case factory shared by `alloc_fuzz_test` and the golden
/// recorder tool (`record_alloc_goldens`). Keeping both on one definition is
/// what makes the pre-rewrite goldens meaningful: the recorder and the test
/// must derive the exact same programs, budgets and allocator calls from a
/// seed, or byte-equality would compare apples to oranges.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_TESTS_INTEGRATION_FUZZCASEFACTORY_H
#define NPRAL_TESTS_INTEGRATION_FUZZCASEFACTORY_H

#include "alloc/InterAllocator.h"
#include "analysis/LiveRangeRenaming.h"
#include "harden/SpillFallback.h"
#include "ir/IRPrinter.h"
#include "profile/StaticFrequencyEstimator.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "workloads/ProgramGenerator.h"

#include <algorithm>
#include <string>
#include <vector>

namespace npral {
namespace fuzzcase {

/// One fuzz case: Nthd generated threads (each with its own memory regions)
/// plus the register file size to allocate into.
struct FuzzCase {
  int Nthd = 0;
  int Nreg = 0;
  MultiThreadProgram Virtual;
  MultiThreadProgram Renamed;
};

/// \p SmallPrograms caps every thread at the smallest generator size. The
/// spill-fallback property re-runs the full allocator once per demoted
/// range, so full-size threads would cost seconds per seed; small threads
/// keep the 200-seed sweep fast while preserving structural variety.
inline FuzzCase makeCase(uint64_t Seed, bool SmallPrograms = false) {
  Rng R(Seed * 0x9E3779B97F4A7C15ULL + 0xFC5Eull);
  FuzzCase C;
  C.Nthd = static_cast<int>(2 + R.nextBelow(3)); // 2..4 threads
  static const int NregChoices[] = {32, 48, 64, 96, 128};
  C.Nreg = NregChoices[R.nextBelow(5)];
  static const int CtxRates[] = {40, 140, 280}; // CSB density per mille
  static const int Sizes[] = {40, 90, 150};

  for (int T = 0; T < C.Nthd; ++T) {
    GeneratorConfig Config;
    Config.TargetInstructions = SmallPrograms ? 40 : Sizes[R.nextBelow(3)];
    Config.CtxRatePerMille = CtxRates[R.nextBelow(3)];
    Config.NumLongLived = static_cast<int>(4 + R.nextBelow(5));
    Config.MaxDepth = static_cast<int>(2 + R.nextBelow(3));
    Config.MemBase = 0x1000 + 0x800 * static_cast<uint32_t>(T);
    Config.OutBase = 0x5000 + 0x100 * static_cast<uint32_t>(T);
    Program P = generateRandomProgram(Seed * 31 + static_cast<uint64_t>(T),
                                      Config);
    P.Name = "fuzz" + std::to_string(T);
    C.Virtual.Threads.push_back(P);
    C.Renamed.Threads.push_back(renameLiveRanges(P));
  }
  return C;
}

/// The spill mode's budget for \p C (built with SmallPrograms from
/// \p Seed): 1..4 registers, varied by seed, below the feasibility lower
/// bound Σ MinPRᵢ + maxᵢ(MinRᵢ − MinPRᵢ), but never under 4 registers per
/// thread. Returns 0 when that leaves no gap below the bound.
inline int squeezedBudget(const FuzzCase &C, uint64_t Seed) {
  int SumMinPR = 0, MaxMinSRGap = 0;
  for (const Program &P : C.Renamed.Threads) {
    const RegBounds B = estimateRegBounds(analyzeThread(P));
    SumMinPR += B.MinPR;
    MaxMinSRGap = std::max(MaxMinSRGap, B.MinR - B.MinPR);
  }
  const int LowerBound = SumMinPR + MaxMinSRGap;
  const int Squeeze = 1 + static_cast<int>(Seed % 4);
  const int Tight = std::max(4 * C.Nthd, LowerBound - Squeeze);
  return Tight < LowerBound ? Tight : 0;
}

/// The printed assembly of every physical thread, concatenated. This is the
/// byte string the bit-identity goldens are hashes of.
inline std::string printPhysicalThreads(const MultiThreadProgram &MTP) {
  std::string S;
  for (const Program &T : MTP.Threads) {
    S += "=== ";
    S += T.Name;
    S += "\n";
    S += programToString(T);
  }
  return S;
}

/// One golden record: `ok:<fnv64-hex of printed assembly>`, `infeasible`
/// (allocator reported an infeasible budget), or `skip` (the seed has no
/// squeezable gap for the spill mode).
inline std::string goldenOutcome(uint64_t Seed, const std::string &Mode) {
  auto hashed = [](const MultiThreadProgram &Physical) {
    char Buf[32];
    snprintf(Buf, sizeof(Buf), "ok:%016llx",
             static_cast<unsigned long long>(
                 fnv1aHash(printPhysicalThreads(Physical))));
    return std::string(Buf);
  };

  if (Mode == "plain" || Mode == "pgo") {
    FuzzCase C = makeCase(Seed);
    std::vector<CostModel> Models;
    if (Mode == "pgo")
      for (const Program &P : C.Renamed.Threads)
        Models.push_back(estimateCostModel(P));
    InterThreadResult R = allocateInterThread(C.Renamed, C.Nreg, {}, Models);
    return R.Success ? hashed(R.Physical) : "infeasible";
  }

  // Spill mode: squeeze the budget below the feasibility lower bound, as in
  // AllocFuzzTest.SpillFallbackRecoversInfeasibleBudgets.
  FuzzCase C = makeCase(Seed, /*SmallPrograms=*/true);
  const int Tight = squeezedBudget(C, Seed);
  if (Tight == 0)
    return "skip";
  SpillFallbackOptions Opts;
  Opts.MaxSpills = 256;
  SpillFallbackResult SF = allocateWithSpillFallback(
      C.Renamed, Tight, {}, {}, nullptr, InterAllocLimits(), Opts);
  return SF.Inter.Success ? hashed(SF.Inter.Physical) : "infeasible";
}

} // namespace fuzzcase
} // namespace npral

#endif // NPRAL_TESTS_INTEGRATION_FUZZCASEFACTORY_H
