//===- WorkloadTest.cpp - Benchmark kernels and generator -----------------===//

#include "workloads/Harness.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/Workload.h"

#include "analysis/InterferenceGraph.h"
#include "analysis/LiveRangeRenaming.h"
#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

using namespace npral;
using namespace npral::test;

TEST(WorkloadTest, RegistryListsElevenBenchmarks) {
  EXPECT_EQ(getWorkloadNames().size(), 11u);
}

TEST(WorkloadTest, UnknownNameRejected) {
  EXPECT_FALSE(buildWorkload("nonesuch", 0).ok());
  EXPECT_FALSE(buildWorkload("md5", 7).ok());
}

class WorkloadParamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadParamTest, BuildsAndVerifies) {
  auto W = buildWorkload(GetParam(), 0);
  ASSERT_TRUE(W.ok()) << W.status().str();
  EXPECT_TRUE(verifyProgram(W->Code).ok());
  LivenessInfo LI = computeLiveness(W->Code);
  EXPECT_TRUE(checkNoUseOfUndef(W->Code, LI).ok());
  EXPECT_EQ(W->Code.EntryLiveRegs.size(), W->EntryValues.size());
  EXPECT_GT(W->OutputLen, 0u);
}

TEST_P(WorkloadParamTest, RunsStandalone) {
  auto W = buildWorkload(GetParam(), 0);
  ASSERT_TRUE(W.ok());
  std::vector<Workload> Ws = {W.take()};
  MultiThreadProgram MTP = toMultiThreadProgram(Ws, GetParam());
  SimConfig Config = equivalenceConfig();
  Config.TargetIterations = 3;
  ScenarioRun Run = simulateWithWorkloads(Ws, MTP, Config);
  ASSERT_TRUE(Run.Success) << Run.FailReason;
  EXPECT_GE(Run.Threads[0].Iterations, 3);
  EXPECT_GT(Run.Threads[0].MemOps, 0);
}

TEST_P(WorkloadParamTest, DeterministicAcrossRuns) {
  auto W1 = buildWorkload(GetParam(), 0);
  auto W2 = buildWorkload(GetParam(), 0);
  ASSERT_TRUE(W1.ok() && W2.ok());
  std::vector<Workload> A = {W1.take()}, B = {W2.take()};
  SimConfig Config = equivalenceConfig();
  Config.TargetIterations = 2;
  ScenarioRun R1 =
      simulateWithWorkloads(A, toMultiThreadProgram(A, "a"), Config);
  ScenarioRun R2 =
      simulateWithWorkloads(B, toMultiThreadProgram(B, "b"), Config);
  ASSERT_TRUE(R1.Success && R2.Success);
  EXPECT_EQ(R1.Threads[0].OutputHash, R2.Threads[0].OutputHash);
}

TEST_P(WorkloadParamTest, SlotsUseDisjointMemory) {
  auto W0 = buildWorkload(GetParam(), 0);
  auto W3 = buildWorkload(GetParam(), 3);
  ASSERT_TRUE(W0.ok() && W3.ok());
  EXPECT_NE(W0->OutputBase, W3->OutputBase);
  EXPECT_NE(W0->SpillBase, W3->SpillBase);
}

TEST_P(WorkloadParamTest, WebRenamed) {
  // Workloads come pre-renamed: analyzeThread must not fault and every
  // internal node has exactly one home NSR.
  auto W = buildWorkload(GetParam(), 0);
  ASSERT_TRUE(W.ok());
  ThreadAnalysis TA = analyzeThread(W->Code);
  TA.InternalNodes.forEach([&](int Node) {
    EXPECT_GE(TA.HomeNSR[static_cast<size_t>(Node)], 0);
  });
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadParamTest,
                         ::testing::ValuesIn(getWorkloadNames()),
                         [](const auto &Info) { return Info.param; });

TEST(WorkloadSignatureTest, CriticalKernelsExceedFixedPartition) {
  // md5 and wraps must exceed the 32-register fixed partition so the
  // spilling baseline suffers (the premise of Table 3).
  for (const char *Name : {"md5", "wraps_rx", "wraps_tx"}) {
    auto W = buildWorkload(Name, 0);
    ASSERT_TRUE(W.ok());
    ThreadAnalysis TA = analyzeThread(W->Code);
    EXPECT_GT(TA.getRegPmax(), 32) << Name;
  }
}

TEST(WorkloadSignatureTest, CompanionKernelsFitFixedPartition) {
  for (const char *Name : {"frag", "crc", "url", "l2l3fwd_rx", "l2l3fwd_tx",
                           "fir2dim", "drr"}) {
    auto W = buildWorkload(Name, 0);
    ASSERT_TRUE(W.ok());
    ThreadAnalysis TA = analyzeThread(W->Code);
    EXPECT_LE(TA.getRegPmax(), 32) << Name;
  }
}

TEST(WorkloadSignatureTest, SRAFeasibleForAllBenchmarksAt128) {
  // Figure 14's premise: four identical threads of every benchmark fit in
  // the 128-register file using sharing.
  for (const std::string &Name : getWorkloadNames()) {
    auto W = buildWorkload(Name, 0);
    ASSERT_TRUE(W.ok());
    ThreadAnalysis TA = analyzeThread(W->Code);
    EXPECT_LE(4 * TA.getRegPCSBmax() +
                  (TA.getRegPmax() - TA.getRegPCSBmax()),
              128)
        << Name << " cannot fit 4x in 128 registers even at the bounds";
  }
}

TEST(ScenarioTest, ThreeAraScenariosDefined) {
  const auto &Scenarios = getAraScenarios();
  ASSERT_EQ(Scenarios.size(), 3u);
  for (const Scenario &S : Scenarios) {
    std::vector<Workload> Ws = buildScenarioWorkloads(S);
    EXPECT_EQ(Ws.size(), 4u);
    EXPECT_FALSE(S.CriticalThreads.empty());
  }
}

TEST(GeneratorTest, ProducesVerifiedTerminatingPrograms) {
  GeneratorConfig Config;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Program P = generateRandomProgram(Seed, Config);
    ASSERT_TRUE(verifyProgram(P).ok()) << "seed " << Seed;
    LivenessInfo LI = computeLiveness(P);
    EXPECT_TRUE(checkNoUseOfUndef(P, LI).ok()) << "seed " << Seed;
    auto Run = runSingle(P, {}, Config.OutBase, Config.OutLen, {},
                         Config.MemBase);
    EXPECT_TRUE(Run.Result.Completed)
        << "seed " << Seed << ": " << Run.Result.FailReason;
    EXPECT_GE(Run.Result.Threads[0].Iterations, 1) << "seed " << Seed;
  }
}

TEST(GeneratorTest, DeterministicPerSeed) {
  GeneratorConfig Config;
  Program A = generateRandomProgram(42, Config);
  Program B = generateRandomProgram(42, Config);
  EXPECT_EQ(A.countInstructions(), B.countInstructions());
  EXPECT_EQ(A.NumRegs, B.NumRegs);
  Program C = generateRandomProgram(43, Config);
  EXPECT_TRUE(A.countInstructions() != C.countInstructions() ||
              A.getNumBlocks() != C.getNumBlocks() ||
              A.NumRegs != C.NumRegs);
}

TEST(GeneratorTest, CtxRateRoughlyHonoured) {
  GeneratorConfig Config;
  Config.TargetInstructions = 400;
  Config.CtxRatePerMille = 150;
  Program P = generateRandomProgram(7, Config);
  double Rate = static_cast<double>(P.countCtxInstructions()) /
                P.countInstructions();
  EXPECT_GT(Rate, 0.02);
  EXPECT_LT(Rate, 0.40);
}

TEST(GeneratorTest, PressureTargetForcesDenseMultiWordRows) {
  // The knob exists to push analysis into multi-word live sets and >32-
  // degree interference rows; check the distribution actually lands there.
  GeneratorConfig Config;
  Config.TargetInstructions = 120;
  Config.PressureTarget = 48;
  int SeedsWithDenseRow = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Program P = generateRandomProgram(Seed, Config);
    ASSERT_TRUE(verifyProgram(P).ok()) << "seed " << Seed;
    // All pool registers stay live to the store trail, so peak pressure
    // must clear the target (pool + pointers), i.e. live sets span >1 word.
    ThreadAnalysis TA = analyzeThread(P);
    EXPECT_GE(TA.getRegPmax(), Config.PressureTarget) << "seed " << Seed;
    int MaxDegree = 0;
    for (int N = 0; N < P.NumRegs; ++N)
      MaxDegree = std::max(MaxDegree, TA.GIG.degree(N));
    if (MaxDegree > 32)
      ++SeedsWithDenseRow;
  }
  EXPECT_EQ(SeedsWithDenseRow, 10);
}

TEST(GeneratorTest, PressureTargetZeroKeepsSeedStream) {
  // Default knob values must not perturb existing seed streams — the
  // pre-rewrite allocator goldens depend on that.
  GeneratorConfig Plain;
  GeneratorConfig Explicit;
  Explicit.PressureTarget = 0;
  Explicit.MaxLoopNest = -1;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    Program A = generateRandomProgram(Seed, Plain);
    Program B = generateRandomProgram(Seed, Explicit);
    EXPECT_EQ(programToString(A), programToString(B)) << "seed " << Seed;
  }
}

TEST(GeneratorTest, GenericKindKeepsSeedStream) {
  // Kind is another default-inert knob: an explicit Generic must be
  // byte-identical to the pre-knob stream.
  GeneratorConfig Plain;
  GeneratorConfig Explicit;
  Explicit.Kind = ProgramKind::Generic;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    Program A = generateRandomProgram(Seed, Plain);
    Program B = generateRandomProgram(Seed, Explicit);
    EXPECT_EQ(programToString(A), programToString(B)) << "seed " << Seed;
  }
}

namespace {

double ctxFraction(ProgramKind Kind, uint64_t Seed) {
  GeneratorConfig Config;
  Config.Kind = Kind;
  Config.TargetInstructions = 400;
  Program P = generateRandomProgram(Seed, Config);
  EXPECT_TRUE(verifyProgram(P).ok());
  return static_cast<double>(P.countCtxInstructions()) /
         static_cast<double>(P.countInstructions());
}

int countOpcode(const Program &P, Opcode Op) {
  int N = 0;
  for (const BasicBlock &B : P.Blocks)
    for (const Instruction &I : B.Instrs)
      if (I.Op == Op)
        ++N;
  return N;
}

} // namespace

TEST(GeneratorTest, KindSkewsCtxDistribution) {
  // Forward emulates memory-bound forwarding kernels (ctx rate up),
  // Crypto compute-bound rounds (ctx rate down); measured over seeds, the
  // ordering Forward > Generic > Crypto must hold in aggregate.
  double FwdSum = 0, GenSum = 0, CrySum = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    FwdSum += ctxFraction(ProgramKind::Forward, Seed);
    GenSum += ctxFraction(ProgramKind::Generic, Seed);
    CrySum += ctxFraction(ProgramKind::Crypto, Seed);
  }
  EXPECT_GT(FwdSum, GenSum * 1.5);
  EXPECT_LT(CrySum, GenSum * 0.8);
}

TEST(GeneratorTest, ChecksumKindFoldsWithXorShift) {
  // The checksum opcode tables drop Mul entirely and lean on xor/shift.
  GeneratorConfig Config;
  Config.Kind = ProgramKind::Checksum;
  Config.TargetInstructions = 400;
  int Xors = 0, Muls = 0, GenericXors = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Program P = generateRandomProgram(Seed, Config);
    ASSERT_TRUE(verifyProgram(P).ok()) << "seed " << Seed;
    Xors += countOpcode(P, Opcode::Xor) + countOpcode(P, Opcode::XorI);
    Muls += countOpcode(P, Opcode::Mul) + countOpcode(P, Opcode::MulI);
    GeneratorConfig Generic;
    Generic.TargetInstructions = 400;
    Program G = generateRandomProgram(Seed, Generic);
    GenericXors += countOpcode(G, Opcode::Xor) + countOpcode(G, Opcode::XorI);
  }
  EXPECT_EQ(Muls, 0);
  EXPECT_GT(Xors, GenericXors * 2);
}

TEST(GeneratorTest, SchedKindIsBranchHeavy) {
  // More if/loop bands per dice roll -> more basic blocks per instruction.
  double SchedBlocks = 0, GenericBlocks = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    GeneratorConfig Sched;
    Sched.Kind = ProgramKind::Sched;
    Sched.TargetInstructions = 300;
    Program S = generateRandomProgram(Seed, Sched);
    ASSERT_TRUE(verifyProgram(S).ok()) << "seed " << Seed;
    SchedBlocks += static_cast<double>(S.getNumBlocks()) /
                   static_cast<double>(S.countInstructions());
    GeneratorConfig Generic;
    Generic.TargetInstructions = 300;
    Program G = generateRandomProgram(Seed, Generic);
    GenericBlocks += static_cast<double>(G.getNumBlocks()) /
                     static_cast<double>(G.countInstructions());
  }
  EXPECT_GT(SchedBlocks, GenericBlocks * 1.3);
}

TEST(GeneratorTest, CryptoKindWidensThePool) {
  // The crypto pool carries eight extra long-lived round-state registers,
  // which shows up directly in sustained pressure.
  GeneratorConfig Crypto;
  Crypto.Kind = ProgramKind::Crypto;
  GeneratorConfig Generic;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    Program C = generateRandomProgram(Seed, Crypto);
    Program G = generateRandomProgram(Seed, Generic);
    ThreadAnalysis CA = analyzeThread(renameLiveRanges(C));
    ThreadAnalysis GA = analyzeThread(renameLiveRanges(G));
    EXPECT_GT(CA.getRegPmax(), GA.getRegPmax()) << "seed " << Seed;
  }
}

namespace {

/// DFS three-color cycle detection over Program::successors.
bool hasCycle(const Program &P) {
  enum { White, Grey, Black };
  std::vector<char> Color(static_cast<size_t>(P.getNumBlocks()), White);
  std::vector<std::pair<int, size_t>> Stack;
  std::vector<SuccessorList> Succs(static_cast<size_t>(P.getNumBlocks()));
  for (int B = 0; B < P.getNumBlocks(); ++B)
    Succs[static_cast<size_t>(B)] = P.successors(B);
  for (int Start = 0; Start < P.getNumBlocks(); ++Start) {
    if (Color[static_cast<size_t>(Start)] != White)
      continue;
    Color[static_cast<size_t>(Start)] = Grey;
    Stack.push_back({Start, 0});
    while (!Stack.empty()) {
      auto &[B, Next] = Stack.back();
      if (Next < Succs[static_cast<size_t>(B)].size()) {
        int S = Succs[static_cast<size_t>(B)][Next++];
        if (Color[static_cast<size_t>(S)] == Grey)
          return true;
        if (Color[static_cast<size_t>(S)] == White) {
          Color[static_cast<size_t>(S)] = Grey;
          Stack.push_back({S, 0});
        }
      } else {
        Color[static_cast<size_t>(B)] = Black;
        Stack.pop_back();
      }
    }
  }
  return false;
}

} // namespace

TEST(GeneratorTest, MaxLoopNestZeroGeneratesAcyclicBodies) {
  GeneratorConfig Config;
  Config.TargetInstructions = 150;
  Config.MaxLoopNest = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Program P = generateRandomProgram(Seed, Config);
    ASSERT_TRUE(verifyProgram(P).ok()) << "seed " << Seed;
    EXPECT_FALSE(hasCycle(P)) << "seed " << Seed;
  }
}

TEST(GeneratorTest, MaxLoopNestOneStillLoops) {
  // The cap bounds nesting, not loop count: depth-1 loops stay available.
  GeneratorConfig Config;
  Config.TargetInstructions = 300;
  Config.MaxLoopNest = 1;
  int SeedsWithLoop = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed)
    if (hasCycle(generateRandomProgram(Seed, Config)))
      ++SeedsWithLoop;
  EXPECT_GT(SeedsWithLoop, 5);
}
