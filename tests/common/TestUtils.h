//===- TestUtils.h - Shared helpers for NPRAL tests -------------*- C++ -*-===//
///
/// \file
/// Helpers shared by the unit, integration and property tests: assembling
/// programs from string literals, running single programs on the simulator,
/// and checking full allocation pipelines for semantic equivalence.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_TESTS_COMMON_TESTUTILS_H
#define NPRAL_TESTS_COMMON_TESTUTILS_H

#include "asmparse/AsmParser.h"
#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"
#include "ir/Program.h"
#include "sim/Simulator.h"
#include "workloads/Harness.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

namespace npral {
namespace test {

/// The assembly text of Table-3 scenario \p Index (0 = s1), every thread
/// printed with one blank line after it: the text a serve client sends.
inline std::string printedAraScenario(size_t Index) {
  const Scenario &S = getAraScenarios()[Index];
  std::string Text;
  for (const Program &P :
       toMultiThreadProgram(buildScenarioWorkloads(S), S.Name).Threads)
    Text += programToString(P) + "\n";
  return Text;
}

/// Assemble a single-thread program; fails the test on parse errors.
inline Program parseOrDie(const std::string &Asm) {
  ErrorOr<Program> P = parseSingleProgram(Asm);
  EXPECT_TRUE(P.ok()) << P.status().str();
  if (!P.ok()) {
    // Keep downstream code runnable so one parse failure doesn't cascade
    // into crashes: a single halting block.
    Program Fallback;
    Fallback.addBlock("entry");
    Fallback.block(0).Instrs.push_back(Instruction::makeHalt());
    return Fallback;
  }
  return P.take();
}

/// Run a single program to completion (virtual registers, halting) with
/// optional entry values; returns the simulator for memory inspection.
struct SingleRun {
  SimResult Result;
  uint64_t OutputHash = 0;
};

inline SingleRun runSingle(const Program &P,
                           const std::vector<uint32_t> &EntryValues = {},
                           uint32_t HashBase = 0x2000, uint32_t HashLen = 64,
                           const std::vector<uint32_t> &MemInit = {},
                           uint32_t MemInitBase = 0x1000,
                           int64_t TargetIterations = 0) {
  MultiThreadProgram MTP;
  MTP.Threads.push_back(P);
  SimConfig Config;
  Config.TargetIterations = TargetIterations;
  Config.HaltAtTarget = TargetIterations > 0;
  Simulator Sim(MTP, Config);
  if (!MemInit.empty())
    Sim.writeMemory(MemInitBase, MemInit);
  if (!EntryValues.empty())
    Sim.setEntryValues(0, EntryValues);
  SingleRun Run;
  Run.Result = Sim.run();
  Run.OutputHash = Sim.hashMemoryRange(HashBase, HashLen);
  return Run;
}

/// A tiny two-block straight-line program for structural tests:
///   entry: imm a, 1 / imm b, 2 / add c, a, b / store [outp+0], c / halt
inline Program makeTinyProgram() {
  return parseOrDie(R"(
.thread tiny
entry:
    imm  outp, 0x2000
    imm  a, 1
    imm  b, 2
    add  c, a, b
    store [outp+0], c
    halt
)");
}

} // namespace test
} // namespace npral

#endif // NPRAL_TESTS_COMMON_TESTUTILS_H
