//===- VerifyPipelineTest.cpp - Verify driver unit tests ------------------===//
//
// Covers the `npralc verify` pipeline library: allocate-mode proofs over
// the example corpus, paired-mode rejection of the bad_swap fixture, the
// paired CSB-privacy fixtures, error isolation, and the determinism pin —
// the rendered JSON report must be byte-identical between --jobs 1 and
// --jobs 8.
//
//===----------------------------------------------------------------------===//

#include "driver/VerifyPipeline.h"

#include "alloc/AllocationVerifier.h"
#include "asmparse/AsmParser.h"
#include "lint/Lint.h"
#include "support/StringUtils.h"

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
  BatchOptions Opts;
  Opts.Jobs = 4;
  VerifyResult R = runVerify(Paths, Opts);
  EXPECT_EQ(R.Rejected, 0);
  EXPECT_EQ(R.Errors, 1);
  EXPECT_EQ(R.Proved, static_cast<int>(Paths.size()) - 1);
  for (const BatchJobResult &F : R.Files) {
    if (std::filesystem::path(F.Name).filename() == "lint_buggy.s") {
      EXPECT_FALSE(F.Validated);
      EXPECT_EQ(F.FailStage, JobStage::Analysis);
      EXPECT_NE(F.FailReason.find("may be undefined"), std::string::npos)
          << F.FailReason;
      continue;
    }
    EXPECT_TRUE(F.Validated) << F.Name << ": " << F.failureSummary();
    EXPECT_GT(F.Validation.ThreadsProved, 0) << F.Name;
    EXPECT_GT(F.Validation.InstructionsMatched, 0) << F.Name;
  }
}

TEST(VerifyPipelineTest, PairedModeRejectsBadSwapWithWitness) {
  VerifyResult R =
      runVerify({examplePath("bad_swap.s")}, BatchOptions(), /*Paired=*/true);
  ASSERT_EQ(R.Files.size(), 1u);
  EXPECT_EQ(R.Rejected, 1);
  EXPECT_FALSE(R.Files[0].Validated);
  EXPECT_EQ(R.Files[0].FailStage, JobStage::Validate);
  const std::vector<Diagnostic> &Diags = R.Files[0].ValidateDiags.diagnostics();
  ASSERT_FALSE(Diags.empty());
  const Diagnostic &D = Diags.front();
  EXPECT_EQ(D.Check, "translation-validation");
  EXPECT_NE(D.Message.find("does not carry the value"), std::string::npos)
      << D.Message;
  EXPECT_NE(D.Witness.find("path:"), std::string::npos) << D.Witness;
}

TEST(VerifyPipelineTest, CsbPrivacyFixturesSplitValidatorAndVerifier) {
  // Paired verify runs parse and validate only; the validator enforces CSB
  // privacy during its walk. It rejects the paired bad_alloc at each read
  // of a clobbered register, and the dead copy at its mov, whose result is
  // never read. The safety verifier, kept as lint's independent check of
  // hand-written physical code, refuses both physical halves for the same
  // registers.
  struct Case {
    const char *File;
    int PrivacyErrors;
  };
  for (const Case &C : {Case{"bad_alloc_paired.s", 3},
                        Case{"dead_copy_paired.s", 1}}) {
    SCOPED_TRACE(C.File);
    const std::string Path =
        std::string(NPRAL_EXAMPLES_ASM_DIR) + "/paired/" + C.File;
    VerifyResult R = runVerify({Path}, BatchOptions(), /*Paired=*/true);
    ASSERT_EQ(R.Files.size(), 1u);
    const BatchJobResult &F = R.Files[0];
    EXPECT_EQ(R.Errors, 0) << F.failureSummary();
    EXPECT_FALSE(F.Validated);
    EXPECT_EQ(R.Rejected, 1);
    EXPECT_EQ(R.Proved, 0);
    EXPECT_FALSE(F.Success);
    EXPECT_EQ(F.FailStage, JobStage::Validate);
    int Privacy = 0;
    for (const Diagnostic &D : F.ValidateDiags.diagnostics()) {
      EXPECT_EQ(D.Check, "translation-validation") << D.Message;
      Privacy += D.Message.find("is live across a CSB of thread "
                                "'alpha.phys' but referenced by thread "
                                "'beta.phys'") != std::string::npos;
    }
    EXPECT_EQ(Privacy, C.PrivacyErrors);
    EXPECT_EQ(F.ValidateDiags.errorCount(), C.PrivacyErrors);
    const Diagnostic *First = F.ValidateDiags.firstError();
    ASSERT_NE(First, nullptr);
    EXPECT_NE(First->Witness.find(C.PrivacyErrors == 3
                                      ? "physical `add p1, p1, p3`"
                                      : "physical `mov p3, p1`"),
              std::string::npos)
        << First->Witness;
    std::ostringstream Report;
    R.renderText(Report);
    EXPECT_NE(Report.str().find(": REJECTED\n"), std::string::npos)
        << Report.str();
    EXPECT_NE(Report.str().find("register p1 is live across a CSB"),
              std::string::npos)
        << Report.str();

    ErrorOr<std::string> Text = readTextFile(Path);
    ASSERT_TRUE(Text.ok()) << Text.status().str();
    ErrorOr<MultiThreadProgram> Parsed = parseAssembly(*Text);
    ASSERT_TRUE(Parsed.ok()) << Parsed.status().str();
    MultiThreadProgram Phys = Parsed.take();
    Phys.Threads.erase(Phys.Threads.begin(),
                       Phys.Threads.begin() + Phys.getNumThreads() / 2);
    ASSERT_TRUE(mapNamedPhysicalRegisters(Phys).ok());
    DiagnosticEngine Engine;
    collectAllocationSafety(Phys, Engine);
    const Diagnostic *D = Engine.firstError();
    ASSERT_NE(D, nullptr);
    EXPECT_NE(D->Message.find("register p1 is live across"),
              std::string::npos)
        << D->Message;
    EXPECT_NE(D->Message.find("but referenced by thread 'beta.phys'"),
              std::string::npos)
        << D->Message;
  }
}

TEST(VerifyPipelineTest, SpillDegradedOutputStillProves) {
  // A budget far below two_threads.s's requirement forces the spill
  // fallback; the degraded output must prove against the pre-spill input.
  BatchOptions Opts;
  Opts.AllowSpill = true;
  bool SawDegradedProof = false;
  for (int Nreg = 6; Nreg >= 2 && !SawDegradedProof; --Nreg) {
    Opts.Nreg = Nreg;
    VerifyResult R = runVerify({examplePath("two_threads.s")}, Opts);
    ASSERT_EQ(R.Files.size(), 1u);
    if (!R.Files[0].UsedSpilling)
      continue;
    EXPECT_TRUE(R.Files[0].Validated)
        << "degraded output rejected at Nreg=" << Nreg;
    SawDegradedProof = R.Files[0].Validated;
  }
  EXPECT_TRUE(SawDegradedProof)
      << "no budget in [2,6] forced the spill fallback";
}

TEST(VerifyPipelineTest, UnreadableFileIsAnErrorNotARejection) {
  // A missing file and a directory are I/O errors in both modes, reported
  // with the [stage/code] prefix every front end prints.
  const std::vector<std::string> Paths{examplePath("two_threads.s"),
                                       "/nonexistent/nope.s",
                                       NPRAL_EXAMPLES_ASM_DIR};
  for (bool Paired : {false, true}) {
    VerifyResult R = runVerify(Paths, BatchOptions(), Paired);
    ASSERT_EQ(R.Files.size(), 3u);
    EXPECT_EQ(R.Proved, Paired ? 0 : 1);
    EXPECT_EQ(R.Rejected, 0);
    EXPECT_EQ(R.Errors, Paired ? 3 : 2);
    EXPECT_FALSE(R.allProved());
    for (size_t I = 1; I < Paths.size(); ++I) {
      EXPECT_EQ(R.Files[I].FailCode, StatusCode::IOError)
          << R.Files[I].failureSummary();
      std::ostringstream Text;
      R.renderText(Text);
      EXPECT_NE(Text.str().find(Paths[I] + ": error: [parse/io-error] "),
                std::string::npos)
          << Text.str();
    }
  }
}

TEST(VerifyPipelineTest, ReportIsByteIdenticalAcrossWorkerCounts) {
  // The satellite determinism pin: diagnostics are sorted by program
  // position and every job writes only its own slot, so the rendered JSON
  // must not depend on worker scheduling. Include a rejection (paired
  // bad_swap would need a separate run, so squeeze budgets instead) to
  // make sure diagnostic-carrying results are covered too.
  std::vector<std::string> Paths = allExamples();
  BatchOptions Serial;
  Serial.Jobs = 1;
  BatchOptions Parallel;
  Parallel.Jobs = 8;
  const std::string A = renderJSON(runVerify(Paths, Serial));
  const std::string B = renderJSON(runVerify(Paths, Parallel));
  EXPECT_EQ(A, B);

  // Same pin for paired mode, where rejections carry witness diagnostics.
  const std::vector<std::string> Pair{examplePath("bad_swap.s"),
                                      examplePath("bad_swap.s"),
                                      examplePath("bad_swap.s")};
  const std::string PA = renderJSON(runVerify(Pair, Serial, true));
  const std::string PB = renderJSON(runVerify(Pair, Parallel, true));
  EXPECT_EQ(PA, PB);
}

TEST(VerifyPipelineTest, JSONWritesEachDiagnosticInTheLintShape) {
  // verify --json and lint --json write a Diagnostic through one writer,
  // line and column included.
  VerifyResult R =
      runVerify({examplePath("bad_swap.s")}, BatchOptions(), /*Paired=*/true);
  ASSERT_EQ(R.Rejected, 1);
  const std::vector<Diagnostic> &Diags = R.Files[0].ValidateDiags.diagnostics();
  ASSERT_FALSE(Diags.empty());
  const std::string JSON = renderJSON(R);
  EXPECT_NE(JSON.find("\"line\": "), std::string::npos) << JSON;
  EXPECT_NE(JSON.find("\"column\": "), std::string::npos) << JSON;
  for (const Diagnostic &D : Diags) {
    std::ostringstream One;
    writeDiagnosticJSON(One, D);
    EXPECT_NE(JSON.find(One.str()), std::string::npos) << One.str();
  }
}
