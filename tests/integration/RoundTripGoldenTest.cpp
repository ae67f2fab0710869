//===- RoundTripGoldenTest.cpp - Parser/printer fixed-point goldens -------===//
//
// Guards the invariants the analysis cache's content hashing rests on: the
// printer's output is byte-stable, print -> parse is a fixed point, and
// parsing the same text twice yields the same flat content hash (the cache
// key is computed from the IR a job actually analyses, so equal input text
// must mean equal keys). The hash may legitimately differ across a
// print -> parse round trip: function expansion leaves fall-through edges
// to non-adjacent blocks, which the printer materialises as explicit `br`
// instructions, and the two forms are different analysis inputs (different
// instruction counts index different per-instruction live sets). One round
// trip normalises; after that the hash is a fixed point too.
//
// The fixtures are every examples/asm file and the three Table-3 scenarios
// as printed programs (~2,500 instructions each), the largest texts the
// serve daemon parses and prints.
//
//===----------------------------------------------------------------------===//

#include "asmparse/AsmParser.h"
#include "driver/AnalysisCache.h"
#include "ir/IRPrinter.h"
#include "workloads/Harness.h"
#include "workloads/ProgramGenerator.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace npral;

namespace {

constexpr std::string_view Table3Prefix = "table3/";

/// examples/asm paths, then "table3/<scenario>" for each Table-3 scenario.
std::vector<std::string> collectFixtures() {
  std::vector<std::string> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(NPRAL_EXAMPLES_ASM_DIR))
    if (Entry.path().extension() == ".s")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  for (const Scenario &S : getAraScenarios())
    Paths.push_back(std::string(Table3Prefix) + S.Name);
  return Paths;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

/// The text of fixture \p Path: the file, or the scenario's threads
/// printed one after another.
std::string fixtureText(const std::string &Path) {
  if (Path.rfind(Table3Prefix, 0) != 0)
    return readFile(Path);
  const std::string Name = Path.substr(Table3Prefix.size());
  for (const Scenario &S : getAraScenarios()) {
    if (S.Name != Name)
      continue;
    std::string Text;
    for (const Program &P :
         toMultiThreadProgram(buildScenarioWorkloads(S), S.Name).Threads)
      Text += programToString(P) + "\n";
    return Text;
  }
  ADD_FAILURE() << "no scenario " << Name;
  return {};
}

} // namespace

class RoundTripGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundTripGoldenTest, PrintParseFixedPoint) {
  const std::string Path = GetParam();
  ErrorOr<MultiThreadProgram> First = parseAssembly(fixtureText(Path));
  ASSERT_TRUE(First.ok()) << Path << ": " << First.status().message();

  for (const Program &P : (*First).Threads) {
    const std::string Printed = programToString(P);
    // Byte stability: printing the same program twice is identical.
    EXPECT_EQ(Printed, programToString(P)) << Path << " thread " << P.Name;

    ErrorOr<Program> Second = parseSingleProgram(Printed);
    ASSERT_TRUE(Second.ok())
        << Path << " thread " << P.Name
        << ": printed form does not reparse: " << Second.status().message()
        << "\n" << Printed;
    // Fixed point: one print normalises; further round trips are identity.
    EXPECT_EQ(programToString((*Second)), Printed)
        << Path << " thread " << P.Name;
    // Equal text parses to equal content: two jobs reading the same file
    // derive the same cache key.
    ErrorOr<Program> SecondAgain = parseSingleProgram(Printed);
    ASSERT_TRUE(SecondAgain.ok()) << Path << " thread " << P.Name;
    EXPECT_EQ(hashProgramContent((*SecondAgain)), hashProgramContent((*Second)))
        << Path << " thread " << P.Name;
    // After the normalising round trip the content hash is a fixed point.
    ErrorOr<Program> Third = parseSingleProgram(programToString((*Second)));
    ASSERT_TRUE(Third.ok()) << Path << " thread " << P.Name;
    EXPECT_EQ(hashProgramContent((*Third)), hashProgramContent((*Second)))
        << Path << " thread " << P.Name;
  }
}

TEST_P(RoundTripGoldenTest, WholeFileReassembles) {
  const std::string Path = GetParam();
  ErrorOr<MultiThreadProgram> First = parseAssembly(fixtureText(Path));
  ASSERT_TRUE(First.ok()) << Path << ": " << First.status().message();

  // Concatenate every thread's printed form and reparse the whole file.
  std::string Whole;
  for (const Program &P : (*First).Threads)
    Whole += programToString(P);
  ErrorOr<MultiThreadProgram> Again = parseAssembly(Whole);
  ASSERT_TRUE(Again.ok()) << Path << ": " << Again.status().message();
  ASSERT_EQ((*Again).getNumThreads(),
            (*First).getNumThreads());
  for (size_t T = 0; T < (*First).Threads.size(); ++T)
    EXPECT_EQ(programToString((*Again).Threads[T]),
              programToString((*First).Threads[T]))
        << Path << " thread " << T;
}

TEST(RoundTripGoldenCorpus, GeneratedProgramsReparse) {
  // Generated programs print an explicit `br` after a conditional branch
  // whose fall-through block is not adjacent. The parser opens a block of
  // its own for that `br`, named "bb<N>" like the printed labels, so a
  // later label of the same name must rename it instead of failing.
  for (uint64_t Seed = 0; Seed < 650; ++Seed) {
    GeneratorConfig Config;
    Config.TargetInstructions = 90;
    Config.CtxRatePerMille = 160;
    const std::string Printed =
        programToString(generateRandomProgram(Seed, Config));
    ErrorOr<Program> First = parseSingleProgram(Printed);
    ASSERT_TRUE(First.ok()) << "seed " << Seed << ": "
                            << First.status().message();
    // One round trip normalises; after it print -> parse is the identity.
    const std::string Normalised = programToString(*First);
    ErrorOr<Program> Second = parseSingleProgram(Normalised);
    ASSERT_TRUE(Second.ok()) << "seed " << Seed << ": "
                             << Second.status().message();
    EXPECT_EQ(programToString(*Second), Normalised) << "seed " << Seed;
  }
}

TEST(RoundTripGoldenCorpus, FindsAllFixtures) {
  // Keep the glob honest: the shipped corpus has at least these fixtures,
  // besides the three Table-3 scenarios.
  EXPECT_GE(collectFixtures().size(), 8u);
}

INSTANTIATE_TEST_SUITE_P(ExamplesAsm, RoundTripGoldenTest,
                         ::testing::ValuesIn(collectFixtures()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           std::string Name =
                               I.param.rfind(Table3Prefix, 0) == 0
                                   ? "table3_" + I.param.substr(
                                                     Table3Prefix.size())
                                   : std::filesystem::path(I.param)
                                         .stem()
                                         .string();
                           std::replace_if(
                               Name.begin(), Name.end(),
                               [](char C) { return !std::isalnum(C); }, '_');
                           return Name;
                         });
