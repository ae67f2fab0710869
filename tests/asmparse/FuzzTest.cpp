//===- FuzzTest.cpp - Parser robustness on hostile input ------------------===//
//
// The parser must never crash and must return a Status for any byte soup:
// random printable garbage, truncations of valid programs, and random
// line-level mutations. When it does accept an input, the result must
// verify, and the job path must return for it.
//
//===----------------------------------------------------------------------===//

#include "asmparse/AsmParser.h"

#include "TextMutations.h"

#include "driver/BatchPipeline.h"
#include "ir/IRVerifier.h"
#include "support/Random.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace npral;

namespace {

const char *ValidBase = R"(
.thread base
.entrylive buf
main:
    imm  sum, 0
    imm  cnt, 4
loop:
    load w, [buf+0]
    add  sum, sum, w
    addi buf, buf, 1
    subi cnt, cnt, 1
    bnz  cnt, loop
    store [buf+1], sum
    ctx
    loopend
    halt
)";

void expectNoCrashAndConsistent(const std::string &Input) {
  ErrorOr<MultiThreadProgram> R = parseAssembly(Input);
  if (!R.ok())
    return; // a rejection with a message is always acceptable
  for (const Program &T : R->Threads)
    EXPECT_TRUE(verifyProgram(T).ok())
        << "parser accepted a program that does not verify";
}

} // namespace

TEST(ParserFuzzTest, RandomPrintableGarbage) {
  Rng R(77);
  const char Alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 ,:[]+-.;#\n\t";
  for (int Trial = 0; Trial < 300; ++Trial) {
    std::string Input;
    size_t Len = R.nextBelow(400);
    for (size_t I = 0; I < Len; ++I)
      Input += Alphabet[R.nextBelow(sizeof(Alphabet) - 1)];
    expectNoCrashAndConsistent(Input);
  }
}

TEST(ParserFuzzTest, TruncationsOfValidProgram) {
  std::string Base = ValidBase;
  for (size_t Cut = 0; Cut < Base.size(); Cut += 3)
    expectNoCrashAndConsistent(Base.substr(0, Cut));
}

TEST(ParserFuzzTest, LineLevelMutations) {
  Rng R(88);
  std::string Base = ValidBase;
  for (int Trial = 0; Trial < 300; ++Trial) {
    std::string Mutated = Base;
    size_t Pos = R.nextBelow(Mutated.size());
    switch (R.nextBelow(3)) {
    case 0:
      Mutated[Pos] = static_cast<char>('!' + R.nextBelow(90));
      break;
    case 1:
      Mutated.erase(Pos, 1 + R.nextBelow(5));
      break;
    default:
      Mutated.insert(Pos, std::string(1 + R.nextBelow(3),
                                      static_cast<char>('0' + R.nextBelow(75))));
      break;
    }
    expectNoCrashAndConsistent(Mutated);
  }
}

TEST(ParserFuzzTest, DeterministicAcceptance) {
  // Parsing is a pure function of the input.
  ErrorOr<MultiThreadProgram> A = parseAssembly(ValidBase);
  ErrorOr<MultiThreadProgram> B = parseAssembly(ValidBase);
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_EQ(A->Threads[0].countInstructions(),
            B->Threads[0].countInstructions());
  EXPECT_EQ(A->Threads[0].NumRegs, B->Threads[0].NumRegs);
}

// Every mutation of the parse/print golden's corpus that the parser
// accepts goes through the job path and returns, whatever its verdict. A
// mutation can leave a block no path reaches (a swapped label), which once
// aborted the bounds estimator.
TEST(ParserFuzzTest, EveryAcceptedMutationReturnsFromTheJobPath) {
  const std::vector<textmut::Input> Inputs = textmut::corpus();
  int Accepted = 0;
  for (size_t I = textmut::baseCount(Inputs); I < Inputs.size(); ++I) {
    BatchJob Job;
    Job.Name = Inputs[I].Label;
    Job.Text = Inputs[I].Text;
    BatchOptions Opts;
    Opts.AllowSpill = true;
    const BatchJobResult R = runSingleJob(Job, Opts);
    Accepted += R.FailStage != JobStage::Parse;
  }
  // tests/asmparse/parse_print.golden records 991 accepted mutations.
  EXPECT_EQ(Accepted, 991);
}
