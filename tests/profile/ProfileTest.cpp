//===- ProfileTest.cpp - Execution profile subsystem ----------------------===//
//
// Covers the profile subsystem end to end: exact collector counts on a
// program with known trip counts, the .npprof fixed-point guarantee
// (print(parse(T)) == T), parser error handling, the profile-to-cost-
// model conversion, and the static loop-nesting estimator.
//
//===----------------------------------------------------------------------===//

#include "profile/ExecutionProfile.h"
#include "profile/ProfileCollector.h"
#include "profile/StaticFrequencyEstimator.h"

#include "ir/IRPrinter.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

using namespace npral;
using namespace npral::test;

namespace {

/// A thread with one entry block, a loop that runs exactly eight times
/// (with a ctx inside), and an exit block.
const char *LoopAsm = R"(
.thread looper
main:
    imm  o, 0x3000
    imm  cnt, 8
    imm  sum, 0
loop:
    ctx
    add  sum, sum, cnt
    subi cnt, cnt, 1
    bnz  cnt, loop
    store [o+0], sum
    halt
)";

MultiThreadProgram loopProgram() {
  MultiThreadProgram MTP;
  MTP.Name = "profile_test";
  MTP.Threads.push_back(parseOrDie(LoopAsm));
  return MTP;
}

int blockIdByName(const Program &P, const std::string &Name) {
  for (int B = 0; B < P.getNumBlocks(); ++B)
    if (P.blockName(B) == Name)
      return B;
  return -1;
}

ExecutionProfile collectOnce(const MultiThreadProgram &MTP) {
  ProfileCollector Collector(MTP);
  Simulator Sim(MTP, SimConfig());
  Sim.setObserver(&Collector);
  SimResult R = Sim.run();
  EXPECT_TRUE(R.Completed) << R.FailReason;
  return Collector.takeProfile();
}

} // namespace

TEST(ProfileCollectorTest, ExactCountsOnKnownTripCounts) {
  MultiThreadProgram MTP = loopProgram();
  ExecutionProfile Prof = collectOnce(MTP);

  ASSERT_EQ(Prof.getNumThreads(), 1);
  const ThreadProfile &TP = Prof.Threads[0];
  EXPECT_EQ(TP.Name, "looper");
  EXPECT_EQ(TP.CodeHash, fnv1aHash(programToString(MTP.Threads[0])));
  EXPECT_EQ(TP.CodeHash, profileCodeHash(MTP.Threads[0]));

  const int Entry = blockIdByName(MTP.Threads[0], "main");
  const int Loop = blockIdByName(MTP.Threads[0], "loop");
  ASSERT_GE(Entry, 0);
  ASSERT_GE(Loop, 0);
  EXPECT_EQ(TP.blockCount(Entry), 1);
  EXPECT_EQ(TP.blockCount(Loop), 8);
}

TEST(ProfileFormatTest, PrintParseIsFixedPoint) {
  ExecutionProfile Prof = collectOnce(loopProgram());
  const std::string Text = Prof.print();

  std::string Error;
  std::optional<ExecutionProfile> Parsed = ExecutionProfile::parse(Text, Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(Parsed->print(), Text);

  ASSERT_EQ(Parsed->getNumThreads(), Prof.getNumThreads());
  EXPECT_EQ(Parsed->Threads[0].CodeHash, Prof.Threads[0].CodeHash);
  EXPECT_EQ(Parsed->Threads[0].BlockCounts, Prof.Threads[0].BlockCounts);
}

TEST(ProfileFormatTest, ParseRejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(ExecutionProfile::parse("not a profile", Error).has_value());
  EXPECT_FALSE(Error.empty());

  // block line before any thread line.
  Error.clear();
  EXPECT_FALSE(
      ExecutionProfile::parse("npprof 1\nblock 0 5\nend\n", Error)
          .has_value());
  EXPECT_FALSE(Error.empty());

  // Garbage where a count should be.
  Error.clear();
  EXPECT_FALSE(
      ExecutionProfile::parse(
          "npprof 1\nprogram p\nthread 0 0 t\nblock zero five\nend\n", Error)
          .has_value());
  EXPECT_FALSE(Error.empty());

  // A profile still carrying the CSB counts older collectors wrote; the
  // format holds block counts only.
  Error.clear();
  EXPECT_FALSE(ExecutionProfile::parse(
                   "npprof 1\nprogram p\nthread 0 0 t\nblock 0 1\n"
                   "csb 0 0 1\nend\n",
                   Error)
                   .has_value());
  EXPECT_EQ(Error, "npprof line 5: unknown keyword 'csb'");
}

TEST(ProfileCostModelTest, WeightsAreExecutionCounts) {
  MultiThreadProgram MTP = loopProgram();
  ExecutionProfile Prof = collectOnce(MTP);
  const Program &P = MTP.Threads[0];

  CostModel CM = Prof.costModel(0, P.getNumBlocks());
  EXPECT_FALSE(CM.isUnit());
  for (int B = 0; B < P.getNumBlocks(); ++B)
    EXPECT_EQ(CM.blockWeight(B), Prof.Threads[0].blockCount(B))
        << "block " << B;

  // Out-of-range thread index degrades to the unit model.
  EXPECT_TRUE(Prof.costModel(7, P.getNumBlocks()).isUnit());
}

TEST(ProfileCostModelTest, FindByCodeHashMatchesContent) {
  MultiThreadProgram MTP = loopProgram();
  ExecutionProfile Prof = collectOnce(MTP);
  const uint64_t Hash = fnv1aHash(programToString(MTP.Threads[0]));
  const ThreadProfile *TP = Prof.findByCodeHash(Hash);
  ASSERT_NE(TP, nullptr);
  EXPECT_EQ(TP->Index, 0);
  EXPECT_EQ(Prof.findByCodeHash(Hash + 1), nullptr);
}

TEST(CostModelTest, UnitModelAndExplicitWeights) {
  CostModel CM;
  EXPECT_TRUE(CM.isUnit());
  EXPECT_EQ(CM.blockWeight(0), 1);
  EXPECT_EQ(CM.blockWeight(123), 1);

  CM.setBlockWeight(2, 50);
  EXPECT_FALSE(CM.isUnit());
  EXPECT_EQ(CM.blockWeight(2), 50);
  // Slots grown on the way default to 1, out-of-range stays 1.
  EXPECT_EQ(CM.blockWeight(0), 1);
  EXPECT_EQ(CM.blockWeight(3), 1);
}

TEST(StaticFrequencyEstimatorTest, LoopNestingWeights) {
  Program P = parseOrDie(R"(
.thread nest
main:
    imm  i, 3
outer:
    imm  j, 3
inner:
    subi j, j, 1
    bnz  j, inner
    subi i, i, 1
    bnz  i, outer
    halt
)");
  std::vector<int64_t> W = estimateBlockFrequencies(P);
  ASSERT_EQ(static_cast<int>(W.size()), P.getNumBlocks());
  EXPECT_EQ(W[static_cast<size_t>(blockIdByName(P, "main"))], 1);
  EXPECT_EQ(W[static_cast<size_t>(blockIdByName(P, "outer"))], 10);
  EXPECT_EQ(W[static_cast<size_t>(blockIdByName(P, "inner"))], 100);

  CostModel CM = estimateCostModel(P);
  EXPECT_FALSE(CM.isUnit());
  EXPECT_EQ(CM.blockWeight(blockIdByName(P, "inner")), 100);

  // Even a loop-free program yields a non-unit (frequency-aware) model.
  Program Flat = parseOrDie(R"(
.thread flat
main:
    halt
)");
  EXPECT_FALSE(estimateCostModel(Flat).isUnit());
}
