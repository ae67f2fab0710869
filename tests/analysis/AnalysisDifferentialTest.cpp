//===- AnalysisDifferentialTest.cpp - Old-vs-new analysis equality --------===//
//
// The lockdown layer for the word-parallel/arena rewrite: every analysis
// result the allocator consumes — live sets, interference edges, NSR/CSB
// crossing sets, Fig. 7 bounds, renamed programs — must be *equal*, not
// just equivalent, between the frozen pre-rewrite reference implementation
// (ReferenceAnalysis.cpp) and the production stack. Runs over every fixture
// in examples/asm, the 11 paper kernels, and a few thousand generated
// programs spanning one-word and multi-word register files.
//
//===----------------------------------------------------------------------===//

#include "ReferenceAnalysis.h"

#include "alloc/BoundsEstimator.h"
#include "analysis/InterferenceGraph.h"
#include "analysis/LiveRangeRenaming.h"
#include "analysis/Liveness.h"
#include "analysis/NSR.h"
#include "asmparse/AsmParser.h"
#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/Workload.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace npral;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

/// Renders a BitVector as its set-bit list, so a mismatch prints as a
/// readable diff instead of two opaque objects.
std::string bits(const BitVector &V) {
  std::string S = "{";
  V.forEach([&](int B) {
    if (S.size() > 1)
      S += ",";
    S += std::to_string(B);
  });
  return S + "}";
}

#define EXPECT_BITS_EQ(Prod, Ref, Where)                                       \
  EXPECT_TRUE((Prod) == (Ref)) << Where << ": got " << bits(Prod)              \
                               << " want " << bits(Ref)

/// Full-stack comparison on one (renamed, analyzable) program.
void expectSameAnalysis(const Program &P, const std::string &Where) {
  const ThreadAnalysis TA = analyzeThread(P);
  const refimpl::RefThreadAnalysis RT = refimpl::analyzeThread(P);
  const int N = P.NumRegs;

  // Live sets, per block and per instruction.
  ASSERT_EQ(P.getNumBlocks(), static_cast<int>(RT.Liveness.BlockLiveIn.size()))
      << Where;
  for (int B = 0; B < P.getNumBlocks(); ++B) {
    EXPECT_BITS_EQ(TA.Liveness.blockLiveIn(B), RT.Liveness.blockLiveIn(B),
                   Where + " live-in b" + std::to_string(B));
    EXPECT_BITS_EQ(TA.Liveness.blockLiveOut(B), RT.Liveness.blockLiveOut(B),
                   Where + " live-out b" + std::to_string(B));
    const int Sz = static_cast<int>(P.block(B).Instrs.size());
    for (int I = 0; I < Sz; ++I)
      EXPECT_BITS_EQ(BitVector(TA.Liveness.instrLiveOut(B, I)),
                     RT.Liveness.instrLiveOut(B, I),
                     Where + " instr-live-out b" + std::to_string(B) + " i" + std::to_string(I));
  }
  EXPECT_EQ(TA.Liveness.getRegPmax(), RT.Liveness.RegPmax) << Where;
  for (Reg R = 0; R < N; ++R)
    EXPECT_EQ(TA.Liveness.isEverReferenced(R), RT.Liveness.isEverReferenced(R))
        << Where << " referenced r" << R;

  // NSR decomposition and CSB crossing sets.
  ASSERT_EQ(TA.NSRs.getNumNSRs(), RT.NSRs.NumNSRs) << Where;
  ASSERT_EQ(TA.NSRs.getCSBs().size(), RT.NSRs.CSBs.size()) << Where;
  for (size_t C = 0; C < RT.NSRs.CSBs.size(); ++C) {
    const CSB &PC = TA.NSRs.getCSBs()[C];
    const refimpl::RefCSB &RC = RT.NSRs.CSBs[C];
    EXPECT_EQ(PC.Block, RC.Block) << Where << " csb " << C;
    EXPECT_EQ(PC.InstrIndex, RC.InstrIndex) << Where << " csb " << C;
    EXPECT_EQ(PC.PreNSR, RC.PreNSR) << Where << " csb " << C;
    EXPECT_EQ(PC.PostNSR, RC.PostNSR) << Where << " csb " << C;
    EXPECT_BITS_EQ(PC.LiveAcross, RC.LiveAcross,
                   Where + " crossing set of csb " + std::to_string(C));
  }
  for (int B = 0; B < P.getNumBlocks(); ++B)
    for (int I = 0; I <= static_cast<int>(P.block(B).Instrs.size()); ++I)
      EXPECT_EQ(TA.NSRs.pointNSR(B, I), RT.NSRs.pointNSR(B, I))
          << Where << " point-NSR b" << B << " i" << I;
  EXPECT_EQ(TA.getRegPCSBmax(), RT.NSRs.RegPCSBmax) << Where;

  // Interference graphs: exact edge sets, both views.
  auto expectSameGraph = [&](const InterferenceGraph &PG,
                             const refimpl::RefInterferenceGraph &RG,
                             const char *Tag) {
    ASSERT_EQ(PG.getNumNodes(), RG.getNumNodes()) << Where << " " << Tag;
    EXPECT_EQ(PG.getNumEdges(), RG.getNumEdges()) << Where << " " << Tag;
    for (int A = 0; A < N; ++A) {
      EXPECT_EQ(PG.degree(A), RG.degree(A))
          << Where << " " << Tag << " degree of " << A;
      for (int B = A + 1; B < N; ++B)
        EXPECT_EQ(PG.hasEdge(A, B), RG.hasEdge(A, B))
            << Where << " " << Tag << " edge " << A << "-" << B;
    }
  };
  expectSameGraph(TA.GIG, RT.GIG, "GIG");
  expectSameGraph(TA.BIG, RT.BIG, "BIG");

  // Node classification feeding the Fig. 8 loop.
  EXPECT_BITS_EQ(TA.BoundaryNodes, RT.BoundaryNodes, Where + " boundary");
  EXPECT_BITS_EQ(TA.InternalNodes, RT.InternalNodes, Where + " internal");
  EXPECT_BITS_EQ(TA.ReferencedNodes, RT.ReferencedNodes, Where + " refd");
  EXPECT_EQ(TA.HomeNSR, RT.HomeNSR) << Where;
  ASSERT_EQ(TA.IIGMembers.size(), RT.IIGMembers.size()) << Where;
  for (size_t S = 0; S < RT.IIGMembers.size(); ++S)
    EXPECT_BITS_EQ(TA.IIGMembers[S], RT.IIGMembers[S],
                   Where + " IIG " + std::to_string(S) + " members");

  // Fig. 7 bounds, including the witness coloring (bit-identity, not just
  // equal bounds).
  const RegBounds PB = estimateRegBounds(TA);
  const refimpl::RefRegBounds RB = refimpl::estimateRegBounds(RT);
  EXPECT_EQ(PB.MinPR, RB.MinPR) << Where;
  EXPECT_EQ(PB.MaxPR, RB.MaxPR) << Where;
  EXPECT_EQ(PB.MinR, RB.MinR) << Where;
  EXPECT_EQ(PB.MaxR, RB.MaxR) << Where;
  EXPECT_EQ(PB.Colors, RB.Colors) << Where;
}

/// Renaming first (its output is what the analyses run on), then the
/// analysis stack on the renamed program.
void expectSamePipeline(const Program &P, const std::string &Where) {
  const Program Prod = renameLiveRanges(P);
  const Program Ref = refimpl::renameLiveRanges(P);
  ASSERT_EQ(programToString(Prod), programToString(Ref))
      << Where << ": renamed programs diverge";
  expectSameAnalysis(Prod, Where);
}

} // namespace

TEST(AnalysisDifferentialTest, ExampleFixtures) {
  std::vector<std::string> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(NPRAL_EXAMPLES_ASM_DIR))
    if (Entry.path().extension() == ".s")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  ASSERT_FALSE(Paths.empty());

  for (const std::string &Path : Paths) {
    ErrorOr<MultiThreadProgram> MTP = parseAssembly(readFile(Path));
    ASSERT_TRUE(MTP.ok()) << Path << ": " << MTP.status().message();
    for (const Program &P : (*MTP).Threads) {
      // Fixtures must be analyzable to be comparable; a fixture that fails
      // verification would silently shrink the oracle's coverage.
      ASSERT_TRUE(verifyProgram(P).ok()) << Path << " thread " << P.Name;
      expectSamePipeline(P, Path + " thread " + P.Name);
    }
  }
}

TEST(AnalysisDifferentialTest, GeneratedPrograms) {
  // 2000+ seeds. Sizes and CSB densities vary with the seed; register-file
  // shape is exercised from "fits in half a word" to "multi-word rows" (the
  // generator's long-lived count plus renaming drives NumRegs well past 64
  // at the dense end).
  constexpr int NumSeeds = 2048;
  for (int Seed = 0; Seed < NumSeeds; ++Seed) {
    GeneratorConfig Config;
    Config.TargetInstructions = 30 + (Seed % 5) * 25; // 30..130
    Config.CtxRatePerMille = 40 + (Seed % 7) * 60;    // 40..400
    Config.NumLongLived = 3 + (Seed % 11);            // 3..13
    Config.MaxDepth = 2 + (Seed % 3);
    const Program P =
        generateRandomProgram(0xD1FFu * static_cast<uint64_t>(Seed) + 17u,
                              Config);
    expectSamePipeline(P, "seed " + std::to_string(Seed));
  }
}

TEST(AnalysisDifferentialTest, PaperKernels) {
  // The Table 1 kernels, md5's 487-node Fig. 7 merge the largest of them:
  // the production merge resumes its conflict scan where the reference
  // rescans from node 0 after every resolved conflict.
  for (const std::string &Name : getWorkloadNames()) {
    ErrorOr<Workload> W = buildWorkload(Name, /*Slot=*/0);
    ASSERT_TRUE(W.ok()) << Name << ": " << W.status().message();
    ASSERT_TRUE(verifyProgram(W->Code).ok()) << Name;
    expectSamePipeline(W->Code, "kernel " + Name);
  }
}
