//===- VerifyPipelineTest.cpp - Verify driver unit tests ------------------===//
//
// Covers the `npralc verify` pipeline library: allocate-mode proofs over
// the example corpus, paired-mode rejection of the bad_swap fixture, error
// isolation, and the satellite determinism pin — the rendered JSON report
// must be byte-identical between --jobs 1 and --jobs 8.
//
//===----------------------------------------------------------------------===//

#include "driver/VerifyPipeline.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

using namespace npral;

namespace {

std::string examplePath(const char *File) {
  return std::string(NPRAL_EXAMPLES_ASM_DIR) + "/" + File;
}

/// All example .s files in sorted order (deterministic input list).
std::vector<std::string> allExamples() {
  std::vector<std::string> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(NPRAL_EXAMPLES_ASM_DIR))
    if (Entry.path().extension() == ".s")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

std::string renderJSON(const VerifyResult &R) {
  std::ostringstream OS;
  R.renderJSON(OS);
  return OS.str();
}

} // namespace

TEST(VerifyPipelineTest, ProvesAllExamplesInAllocateMode) {
  // In allocate mode even bad_swap.s proves: the allocator re-allocates
  // its threads correctly; the planted miscompile only exists in the
  // hand-written physical half that --paired checks. lint_buggy.s reads a
  // register before it may be defined, so the shared job path stops it at
  // its analysis precondition, exactly as batch does.
  std::vector<std::string> Paths = allExamples();
  ASSERT_GE(Paths.size(), 12u);
  VerifyOptions Opts;
  Opts.Jobs = 4;
  VerifyResult R = runVerify(Paths, Opts);
  EXPECT_EQ(R.Rejected, 0);
  EXPECT_EQ(R.Errors, 1);
  EXPECT_EQ(R.Proved, static_cast<int>(Paths.size()) - 1);
  for (const VerifyFileResult &F : R.Files) {
    if (std::filesystem::path(F.Name).filename() == "lint_buggy.s") {
      EXPECT_FALSE(F.Proved);
      EXPECT_NE(F.FailReason.find("may be undefined"), std::string::npos)
          << F.FailReason;
      continue;
    }
    EXPECT_TRUE(F.Proved) << F.Name << ": " << F.FailReason;
    EXPECT_GT(F.ThreadsProved, 0) << F.Name;
    EXPECT_GT(F.InstructionsMatched, 0) << F.Name;
  }
}

TEST(VerifyPipelineTest, PairedModeRejectsBadSwapWithWitness) {
  VerifyOptions Opts;
  Opts.Paired = true;
  VerifyResult R = runVerify({examplePath("bad_swap.s")}, Opts);
  ASSERT_EQ(R.Files.size(), 1u);
  EXPECT_EQ(R.Rejected, 1);
  EXPECT_FALSE(R.Files[0].Proved);
  ASSERT_FALSE(R.Files[0].Diags.empty());
  const Diagnostic &D = R.Files[0].Diags.front();
  EXPECT_EQ(D.Check, "translation-validation");
  EXPECT_NE(D.Message.find("does not carry the value"), std::string::npos)
      << D.Message;
  EXPECT_NE(D.Witness.find("path:"), std::string::npos) << D.Witness;
}

TEST(VerifyPipelineTest, SpillDegradedOutputStillProves) {
  // A budget far below two_threads.s's requirement forces the spill
  // fallback; the degraded output must prove against the pre-spill input.
  VerifyOptions Opts;
  Opts.AllowSpill = true;
  bool SawDegradedProof = false;
  for (int Nreg = 6; Nreg >= 2 && !SawDegradedProof; --Nreg) {
    Opts.Nreg = Nreg;
    VerifyResult R = runVerify({examplePath("two_threads.s")}, Opts);
    ASSERT_EQ(R.Files.size(), 1u);
    if (!R.Files[0].UsedSpilling)
      continue;
    EXPECT_TRUE(R.Files[0].Proved)
        << "degraded output rejected at Nreg=" << Nreg;
    SawDegradedProof = R.Files[0].Proved;
  }
  EXPECT_TRUE(SawDegradedProof)
      << "no budget in [2,6] forced the spill fallback";
}

TEST(VerifyPipelineTest, UnreadableFileIsAnErrorNotARejection) {
  VerifyResult R =
      runVerify({examplePath("two_threads.s"), "/nonexistent/nope.s"},
                VerifyOptions{});
  ASSERT_EQ(R.Files.size(), 2u);
  EXPECT_EQ(R.Proved, 1);
  EXPECT_EQ(R.Rejected, 0);
  EXPECT_EQ(R.Errors, 1);
  EXPECT_FALSE(R.allProved());
  EXPECT_FALSE(R.Files[1].FailReason.empty());
}

TEST(VerifyPipelineTest, ReportIsByteIdenticalAcrossWorkerCounts) {
  // The satellite determinism pin: diagnostics are sorted by program
  // position and every job writes only its own slot, so the rendered JSON
  // must not depend on worker scheduling. Include a rejection (paired
  // bad_swap would need a separate run, so squeeze budgets instead) to
  // make sure diagnostic-carrying results are covered too.
  std::vector<std::string> Paths = allExamples();
  VerifyOptions Serial;
  Serial.Jobs = 1;
  VerifyOptions Parallel;
  Parallel.Jobs = 8;
  const std::string A = renderJSON(runVerify(Paths, Serial));
  const std::string B = renderJSON(runVerify(Paths, Parallel));
  EXPECT_EQ(A, B);

  // Same pin for paired mode, where rejections carry witness diagnostics.
  Serial.Paired = Parallel.Paired = true;
  const std::vector<std::string> Pair{examplePath("bad_swap.s"),
                                      examplePath("bad_swap.s"),
                                      examplePath("bad_swap.s")};
  const std::string PA = renderJSON(runVerify(Pair, Serial));
  const std::string PB = renderJSON(runVerify(Pair, Parallel));
  EXPECT_EQ(PA, PB);
}
