//===- SimulatorTest.cpp - Micro-engine semantics and timing --------------===//

#include "sim/Simulator.h"

#include "../common/TestUtils.h"
#include "workloads/Harness.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <utility>

using namespace npral;
using namespace npral::test;

namespace {

MultiThreadProgram singleThread(const Program &P) {
  MultiThreadProgram MTP;
  MTP.Threads.push_back(P);
  return MTP;
}

} // namespace

TEST(SimulatorTest, AluSemantics) {
  Program P = parseOrDie(R"(
.thread alu
main:
    imm  o, 0x3000
    imm  a, 10
    imm  b, 3
    add  r0, a, b
    sub  r1, a, b
    and  r2, a, b
    or   r3, a, b
    xor  r4, a, b
    shl  r5, a, b
    shr  r6, a, b
    mul  r7, a, b
    not  r8, a
    neg  r9, a
    store [o+0], r0
    store [o+1], r1
    store [o+2], r2
    store [o+3], r3
    store [o+4], r4
    store [o+5], r5
    store [o+6], r6
    store [o+7], r7
    store [o+8], r8
    store [o+9], r9
    halt
)");
  MultiThreadProgram MTP = singleThread(P);
  Simulator Sim(MTP, SimConfig());
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Completed) << R.FailReason;
  EXPECT_EQ(Sim.readMemoryWord(0x3000), 13u);
  EXPECT_EQ(Sim.readMemoryWord(0x3001), 7u);
  EXPECT_EQ(Sim.readMemoryWord(0x3002), 2u);
  EXPECT_EQ(Sim.readMemoryWord(0x3003), 11u);
  EXPECT_EQ(Sim.readMemoryWord(0x3004), 9u);
  EXPECT_EQ(Sim.readMemoryWord(0x3005), 80u);
  EXPECT_EQ(Sim.readMemoryWord(0x3006), 1u);
  EXPECT_EQ(Sim.readMemoryWord(0x3007), 30u);
  EXPECT_EQ(Sim.readMemoryWord(0x3008), ~10u);
  EXPECT_EQ(Sim.readMemoryWord(0x3009), 0u - 10u);
}

TEST(SimulatorTest, ImmediateForms) {
  Program P = parseOrDie(R"(
.thread immf
main:
    imm  o, 0x3000
    imm  a, 9
    addi r0, a, 5
    subi r1, a, 2
    andi r2, a, 8
    ori  r3, a, 4
    xori r4, a, 1
    shli r5, a, 2
    shri r6, a, 1
    muli r7, a, 7
    store [o+0], r0
    store [o+1], r1
    store [o+2], r2
    store [o+3], r3
    store [o+4], r4
    store [o+5], r5
    store [o+6], r6
    store [o+7], r7
    halt
)");
  MultiThreadProgram MTP = singleThread(P);
  Simulator Sim(MTP, SimConfig());
  ASSERT_TRUE(Sim.run().Completed);
  EXPECT_EQ(Sim.readMemoryWord(0x3000), 14u);
  EXPECT_EQ(Sim.readMemoryWord(0x3001), 7u);
  EXPECT_EQ(Sim.readMemoryWord(0x3002), 8u);
  EXPECT_EQ(Sim.readMemoryWord(0x3003), 13u);
  EXPECT_EQ(Sim.readMemoryWord(0x3004), 8u);
  EXPECT_EQ(Sim.readMemoryWord(0x3005), 36u);
  EXPECT_EQ(Sim.readMemoryWord(0x3006), 4u);
  EXPECT_EQ(Sim.readMemoryWord(0x3007), 63u);
}

TEST(SimulatorTest, BranchSemantics) {
  Program P = parseOrDie(R"(
.thread br
main:
    imm  o, 0x3000
    imm  a, 5
    imm  b, 5
    imm  r, 0
    bne  a, b, skip1
    ori  r, r, 1
skip1:
    beq  a, b, take1
    br   skip2
take1:
    ori  r, r, 2
skip2:
    imm  c, 0xFFFFFFFF
    blt  c, a, take2
    br   skip3
take2:
    ori  r, r, 4
skip3:
    bge  a, b, take3
    br   done
take3:
    ori  r, r, 8
done:
    store [o+0], r
    halt
)");
  MultiThreadProgram MTP = singleThread(P);
  Simulator Sim(MTP, SimConfig());
  ASSERT_TRUE(Sim.run().Completed);
  // bne not taken (so the ori after it runs: bit 0), beq taken (bit 1),
  // blt signed (-1 < 5) taken (bit 2), bge taken (bit 3).
  EXPECT_EQ(Sim.readMemoryWord(0x3000), 1u + 2u + 4u + 8u);
}

TEST(SimulatorTest, LoadWritesAtResume) {
  // The load destination keeps its old value until the thread resumes;
  // another thread that runs in between sees memory already written at
  // issue time for stores.
  Program P = parseOrDie(R"(
.thread t
main:
    imm  addr, 0x100
    imm  v, 7
    store [addr+0], v
    load w, [addr+0]
    store [addr+1], w
    halt
)");
  MultiThreadProgram MTP = singleThread(P);
  Simulator Sim(MTP, SimConfig());
  ASSERT_TRUE(Sim.run().Completed);
  EXPECT_EQ(Sim.readMemoryWord(0x101), 7u);
}

TEST(SimulatorTest, MemoryLatencyCharged) {
  Program P = parseOrDie(R"(
.thread lat
main:
    imm  a, 0x100
    load b, [a+0]
    store [a+1], b
    halt
)");
  MultiThreadProgram MTP = singleThread(P);
  SimConfig Fast;
  Fast.MemLatency = 5;
  SimConfig Slow;
  Slow.MemLatency = 50;
  Simulator S1(MTP, Fast), S2(MTP, Slow);
  SimResult R1 = S1.run(), R2 = S2.run();
  ASSERT_TRUE(R1.Completed);
  ASSERT_TRUE(R2.Completed);
  EXPECT_EQ(R2.TotalCycles - R1.TotalCycles, 2 * 45)
      << "two memory ops, 45 extra cycles each";
}

TEST(SimulatorTest, LatencyHiddenByOtherThread) {
  // One memory-heavy thread plus one ALU thread: the ALU thread fills the
  // memory stalls, so total cycles grow far less than the sum.
  const char *MemAsm = R"(
.thread mem
main:
    imm  a, 0x100
    imm  n, 10
loop:
    load b, [a+0]
    subi n, n, 1
    bnz  n, loop
    halt
)";
  const char *AluAsm = R"(
.thread alu
main:
    imm  x, 0
    imm  n, 150
loop:
    addi x, x, 1
    subi n, n, 1
    bnz  n, loop
    halt
)";
  ErrorOr<MultiThreadProgram> Both =
      parseAssembly(std::string(MemAsm) + AluAsm);
  ASSERT_TRUE(Both.ok());
  MultiThreadProgram MemOnly;
  MemOnly.Threads.push_back(Both->Threads[0]);
  MultiThreadProgram AluOnly;
  AluOnly.Threads.push_back(Both->Threads[1]);

  SimConfig Config;
  Config.MemLatency = 40;
  Simulator SMem(MemOnly, Config), SAlu(AluOnly, Config), SBoth(*Both, Config);
  int64_t MemCycles = SMem.run().TotalCycles;
  int64_t AluCycles = SAlu.run().TotalCycles;
  int64_t BothCycles = SBoth.run().TotalCycles;
  EXPECT_LT(BothCycles, MemCycles + AluCycles)
      << "multithreading must hide memory latency";
  EXPECT_GE(BothCycles, std::max(MemCycles, AluCycles));
}

TEST(SimulatorTest, RoundRobinIsFair) {
  // Two identical ctx-yielding threads must make interleaved progress.
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(R"(
.thread a
main:
    imm  n, 20
loop:
    ctx
    subi n, n, 1
    bnz  n, loop
    loopend
    halt
.thread b
main:
    imm  n, 20
loop:
    ctx
    subi n, n, 1
    bnz  n, loop
    loopend
    halt
)");
  ASSERT_TRUE(MTP.ok());
  Simulator Sim(*MTP, SimConfig());
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.Threads[0].Iterations, 1);
  EXPECT_EQ(R.Threads[1].Iterations, 1);
  EXPECT_NEAR(static_cast<double>(R.Threads[0].InstrsExecuted),
              static_cast<double>(R.Threads[1].InstrsExecuted), 4.0);
}

TEST(SimulatorTest, TargetIterationsStopsRun) {
  Program P = parseOrDie(R"(
.thread loopy
main:
    imm  x, 1
top:
    addi x, x, 1
    loopend
    br   top
)");
  MultiThreadProgram MTP = singleThread(P);
  SimConfig Config;
  Config.TargetIterations = 5;
  Simulator Sim(MTP, Config);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Completed);
  EXPECT_GE(R.Threads[0].Iterations, 5);
  EXPECT_GT(R.Threads[0].CyclesAtTarget, 0);
}

TEST(SimulatorTest, HaltAtTargetFreezesIterations) {
  Program P = parseOrDie(R"(
.thread loopy
main:
    imm  x, 1
top:
    addi x, x, 1
    loopend
    br   top
)");
  MultiThreadProgram MTP = singleThread(P);
  SimConfig Config;
  Config.TargetIterations = 5;
  Config.HaltAtTarget = true;
  Simulator Sim(MTP, Config);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.Threads[0].Iterations, 5);
  EXPECT_TRUE(R.Threads[0].Halted);
}

TEST(SimulatorTest, CycleBudgetEnforced) {
  Program P = parseOrDie(R"(
.thread forever
main:
    imm x, 1
top:
    addi x, x, 1
    br   top
)");
  MultiThreadProgram MTP = singleThread(P);
  SimConfig Config;
  Config.MaxCycles = 1000;
  Simulator Sim(MTP, Config);
  SimResult R = Sim.run();
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.FailReason.find("budget"), std::string::npos);
}

TEST(SimulatorTest, OutOfRangeMemoryFails) {
  Program P = parseOrDie(R"(
.thread oob
main:
    imm  a, 0xFFFFFF
    muli a, a, 4096
    load b, [a+0]
    halt
)");
  MultiThreadProgram MTP = singleThread(P);
  Simulator Sim(MTP, SimConfig());
  SimResult R = Sim.run();
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.FailReason.find("out of range"), std::string::npos);
}

TEST(SimulatorTest, EntryValuesSeedRegisters) {
  Program P = parseOrDie(R"(
.thread seeded
.entrylive base, off
main:
    add  a, base, off
    store [a+0], a
    halt
)");
  MultiThreadProgram MTP = singleThread(P);
  Simulator Sim(MTP, SimConfig());
  Sim.setEntryValues(0, {0x200, 0x20});
  ASSERT_TRUE(Sim.run().Completed);
  EXPECT_EQ(Sim.readMemoryWord(0x220), 0x220u);
}

TEST(SimulatorTest, HashIsStableAndSensitive) {
  Program P = makeTinyProgram();
  MultiThreadProgram MTP = singleThread(P);
  Simulator S1(MTP, SimConfig()), S2(MTP, SimConfig());
  ASSERT_TRUE(S1.run().Completed);
  ASSERT_TRUE(S2.run().Completed);
  EXPECT_EQ(S1.hashMemoryRange(0x2000, 8), S2.hashMemoryRange(0x2000, 8));
  EXPECT_NE(S1.hashMemoryRange(0x2000, 8), S1.hashMemoryRange(0x2001, 8));
}

TEST(SimulatorTest, IdleCyclesTrackMemoryStalls) {
  // A single memory-bound thread leaves the CPU idle during every load;
  // utilisation must be well below 1 and idle + busy == total.
  Program P = parseOrDie(R"(
.thread membound
main:
    imm  a, 0x100
    imm  n, 10
loop:
    load b, [a+0]
    subi n, n, 1
    bnz  n, loop
    halt
)");
  MultiThreadProgram MTP;
  MTP.Threads.push_back(P);
  SimConfig Config;
  Config.MemLatency = 50;
  Simulator Sim(MTP, Config);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Completed);
  EXPECT_GT(R.IdleCycles, 10 * 40) << "ten 50-cycle stalls, mostly idle";
  EXPECT_LT(R.cpuUtilisation(), 0.3);
  EXPECT_GE(R.IdleCycles, 0);
  EXPECT_LE(R.IdleCycles, R.TotalCycles);
}

TEST(SimulatorTest, SecondThreadRaisesUtilisation) {
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(R"(
.thread membound
main:
    imm  a, 0x100
    imm  n, 10
loop:
    load b, [a+0]
    subi n, n, 1
    bnz  n, loop
    halt
.thread alu
main:
    imm  x, 0
    imm  n, 200
loop:
    addi x, x, 1
    subi n, n, 1
    bnz  n, loop
    halt
)");
  ASSERT_TRUE(MTP.ok());
  MultiThreadProgram MemOnly;
  MemOnly.Threads.push_back(MTP->Threads[0]);
  SimConfig Config;
  Config.MemLatency = 50;
  Simulator SAlone(MemOnly, Config), SBoth(*MTP, Config);
  SimResult Alone = SAlone.run();
  SimResult Both = SBoth.run();
  ASSERT_TRUE(Alone.Completed && Both.Completed);
  EXPECT_GT(Both.cpuUtilisation(), Alone.cpuUtilisation())
      << "the ALU thread fills the memory thread's stalls";
}

TEST(SimulatorTest, SharedFileVisibleAcrossThreads) {
  // Two physical threads share one register file; thread two reads what
  // thread one left in a shared register after a yield (values dead across
  // the CSB from thread one's perspective, so this is exactly the sharing
  // the paper allows).
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(R"(
.thread w
main:
    imm  a, 0x42
    ctx
    imm  b, 0
    store [b+0], b
    halt
.thread r
main:
    ctx
    store [a+4], a
    halt
)");
  ASSERT_TRUE(MTP.ok());
  // Hand-assign: both threads' register ids already overlap (a=0 in both).
  for (Program &T : MTP->Threads) {
    T.IsPhysical = true;
    T.NumRegs = 4;
  }
  Simulator Sim(*MTP, SimConfig());
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Completed) << R.FailReason;
  // Thread r stored p0's content (0x42 written by thread w) at 0x42+4.
  EXPECT_EQ(Sim.readMemoryWord(0x46), 0x42u);
}

TEST(SimulatorTest, CycleBreakdownSumsToTotalSingleThread) {
  Program P = parseOrDie(R"(
.thread solo
main:
    imm  a, 0x100
    load b, [a+0]
    store [a+1], b
    halt
)");
  MultiThreadProgram MTP = singleThread(P);
  SimConfig Config;
  Config.MemLatency = 25;
  Simulator Sim(MTP, Config);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Completed) << R.FailReason;
  ASSERT_EQ(R.Threads.size(), 1u);
  const ThreadStats &TS = R.Threads[0];
  EXPECT_EQ(TS.accountedCycles(), R.TotalCycles);
  // Alone on the engine: no switch penalties, no waiting for the CPU.
  EXPECT_EQ(TS.SwitchPenaltyCycles, 0);
  EXPECT_EQ(TS.ReadyWaitCycles, 0);
  EXPECT_EQ(TS.ChannelWaitCycles, 0);
  // Two memory ops of latency 25 each, minus the cycles the thread would
  // have been charged anyway — the stall bucket must dominate.
  EXPECT_GE(TS.MemStallCycles, 2 * (25 - 1));
  EXPECT_GT(TS.RunCycles, 0);
}

TEST(SimulatorTest, CycleBreakdownSumsToTotalMultiThread) {
  // Memory-heavy + ALU thread: every cycle of the run lands in exactly one
  // bucket of each thread, and the buckets tell the hiding story — the ALU
  // thread runs while the memory thread stalls.
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(R"(
.thread mem
main:
    imm  a, 0x100
    imm  n, 8
loop:
    load b, [a+0]
    subi n, n, 1
    bnz  n, loop
    halt

.thread alu
main:
    imm  x, 0
    imm  n, 120
loop:
    addi x, x, 1
    subi n, n, 1
    bnz  n, loop
    halt
)");
  ASSERT_TRUE(MTP.ok()) << MTP.status().str();
  SimConfig Config;
  Config.MemLatency = 40;
  Simulator Sim(*MTP, Config);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Completed) << R.FailReason;
  ASSERT_EQ(R.Threads.size(), 2u);
  for (const ThreadStats &TS : R.Threads) {
    EXPECT_EQ(TS.accountedCycles(), R.TotalCycles);
    EXPECT_GE(TS.RunCycles, 0);
    EXPECT_GE(TS.SwitchPenaltyCycles, 0);
    EXPECT_GE(TS.MemStallCycles, 0);
    EXPECT_GE(TS.ChannelWaitCycles, 0);
    EXPECT_GE(TS.ReadyWaitCycles, 0);
    EXPECT_GE(TS.HaltedCycles, 0);
  }
  const ThreadStats &Mem = R.Threads[0];
  const ThreadStats &Alu = R.Threads[1];
  EXPECT_GT(Mem.MemStallCycles, 0);
  EXPECT_GT(Alu.RunCycles, 0);
  // At most one thread occupies the CPU at a time, so run + penalty
  // cycles across threads can never exceed the wall clock.
  EXPECT_LE(Mem.RunCycles + Mem.SwitchPenaltyCycles + Alu.RunCycles +
                Alu.SwitchPenaltyCycles,
            R.TotalCycles);
}

TEST(SimulatorTest, CycleBreakdownCoversCtxAndHalt) {
  // Thread a halts quickly and then accrues HaltedCycles while b keeps
  // yielding through ctx instructions.
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(R"(
.thread a
main:
    imm  x, 1
    halt

.thread b
main:
    imm  n, 6
loop:
    ctx
    subi n, n, 1
    bnz  n, loop
    halt
)");
  ASSERT_TRUE(MTP.ok()) << MTP.status().str();
  Simulator Sim(*MTP, SimConfig());
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Completed) << R.FailReason;
  ASSERT_EQ(R.Threads.size(), 2u);
  EXPECT_EQ(R.Threads[0].accountedCycles(), R.TotalCycles);
  EXPECT_EQ(R.Threads[1].accountedCycles(), R.TotalCycles);
  EXPECT_GT(R.Threads[0].HaltedCycles, 0)
      << "thread a halted first and must be billed halted cycles";
  EXPECT_GT(R.Threads[1].RunCycles, R.Threads[0].RunCycles);
}

//===--- Memory contract: sparse pages behave like one dense array -------===//

namespace {

/// FNV-1a over \p Words, the hash hashMemoryRange computes over memory.
uint64_t denseHash(const std::vector<uint32_t> &Words, size_t Begin,
                   size_t Len) {
  uint64_t Hash = 1469598103934665603ULL;
  for (size_t I = Begin; I < Begin + Len; ++I)
    for (int Byte = 0; Byte < 4; ++Byte) {
      Hash ^= (Words[I] >> (8 * Byte)) & 0xFF;
      Hash *= 1099511628211ULL;
    }
  return Hash;
}

/// Stores 0x1234 at entry register `a`, loads it back and stores it plus
/// one at the same address.
const char *const RoundTripAsm = R"(
.thread rt
.entrylive a
main:
    imm  v, 0x1234
    store [a+0], v
    load w, [a+0]
    addi w, w, 1
    store [a+0], w
    halt
)";

/// Loads from entry register `a`.
const char *const LoadAsm = R"(
.thread ld
.entrylive a
main:
    load w, [a+0]
    halt
)";

/// Stores to entry register `a`.
const char *const StoreAsm = R"(
.thread st
.entrylive a
main:
    imm  v, 1
    store [a+0], v
    halt
)";

/// A run's result, its memory's last word and the pages it allocated.
struct AddressRun {
  SimResult Result;
  uint32_t LastWord = 0;
  int Pages = 0;
};

/// Runs \p Asm with entry register `a` = \p Address on a memory of
/// \p MemWords words.
AddressRun runAt(const char *Asm, uint32_t MemWords, uint32_t Address) {
  MultiThreadProgram MTP = singleThread(parseOrDie(Asm));
  SimConfig Config;
  Config.MemWords = MemWords;
  Simulator Sim(MTP, Config);
  Sim.setEntryValues(0, {Address});
  AddressRun Run;
  Run.Result = Sim.run();
  if (Run.Result.Completed)
    Run.LastWord = Sim.readMemoryWord(MemWords - 1);
  Run.Pages = Sim.memoryPages();
  return Run;
}

/// The exact out-of-range failure for an access at \p Address.
std::string oobReason(uint32_t Address) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf),
                "thread 0: memory access out of range (0x%x)", Address);
  return Buf;
}

} // namespace

TEST(SimulatorMemoryTest, UntouchedMemoryReadsZeroWithoutAllocating) {
  Program P = parseOrDie(R"(
.thread reader
main:
    imm  a, 0x4000
    imm  b, 7
    load b, [a+0]
    addi c, b, 5
    imm  o, 0x9000
    store [o+0], c
    halt
)");
  MultiThreadProgram MTP = singleThread(P);
  Simulator Sim(MTP, SimConfig());
  EXPECT_EQ(Sim.memoryPages(), 0) << "construction allocates no page";
  EXPECT_EQ(Sim.readMemoryWord(0x4000), 0u);
  EXPECT_EQ(Sim.readMemoryWord(SimConfig().MemWords - 1), 0u);
  EXPECT_EQ(Sim.hashMemoryRange(0x3F00, 0x300),
            denseHash(std::vector<uint32_t>(0x300, 0), 0, 0x300));
  EXPECT_EQ(Sim.memoryPages(), 0) << "reads and hashes allocate nothing";

  SimResult R = Sim.run();
  ASSERT_TRUE(R.Completed) << R.FailReason;
  // The load read 0 (b was 7 before it), and only the store's page exists.
  EXPECT_EQ(Sim.readMemoryWord(0x9000), 5u);
  EXPECT_EQ(Sim.memoryPages(), 1);
}

TEST(SimulatorMemoryTest, LastWordRoundTripsAndTheBoundFails) {
  const uint32_t Words = SimConfig().MemWords;
  AddressRun Last = runAt(RoundTripAsm, Words, Words - 1);
  ASSERT_TRUE(Last.Result.Completed) << Last.Result.FailReason;
  EXPECT_EQ(Last.LastWord, 0x1235u);
  EXPECT_EQ(Last.Pages, 1);

  for (const char *Asm : {LoadAsm, StoreAsm}) {
    AddressRun Out = runAt(Asm, Words, Words);
    EXPECT_FALSE(Out.Result.Completed);
    EXPECT_EQ(Out.Result.FailReason, oobReason(Words));
    EXPECT_EQ(Out.Pages, 0);
  }
}

TEST(SimulatorMemoryTest, BoundHoldsExactlyForPartialLastPage) {
  // 1500 words: the second page is only partly inside memory, and the
  // words past 1500 stay out of range although the page could hold them.
  constexpr uint32_t Words = 1500;
  static_assert(Words % Simulator::MemPageWords != 0, "not a page multiple");
  AddressRun Last = runAt(RoundTripAsm, Words, Words - 1);
  ASSERT_TRUE(Last.Result.Completed) << Last.Result.FailReason;
  EXPECT_EQ(Last.LastWord, 0x1235u);
  EXPECT_EQ(Last.Pages, 1);

  for (const char *Asm : {LoadAsm, StoreAsm})
    for (uint32_t Address : {Words, 2 * Simulator::MemPageWords - 1}) {
      AddressRun Out = runAt(Asm, Words, Address);
      EXPECT_FALSE(Out.Result.Completed) << Address;
      EXPECT_EQ(Out.Result.FailReason, oobReason(Address));
      EXPECT_EQ(Out.Pages, 0);
    }
}

TEST(SimulatorMemoryTest, WritesAndHashesMatchDenseReference) {
  // Pages 4..8 of memory, mirrored by a dense vector: page 5 and 6 get one
  // write across their boundary, page 8 one word; pages 4 and 7 stay
  // absent.
  constexpr uint32_t PW = Simulator::MemPageWords;
  const uint32_t Base = 4 * PW;
  std::vector<uint32_t> Dense(5 * PW, 0);
  MultiThreadProgram MTP = singleThread(makeTinyProgram());
  Simulator Sim(MTP, SimConfig());
  auto write = [&](uint32_t Address, const std::vector<uint32_t> &Words) {
    Sim.writeMemory(Address, Words);
    std::copy(Words.begin(), Words.end(), Dense.begin() + (Address - Base));
  };
  write(6 * PW - 3, {1, 2, 3, 4, 5, 6});
  write(8 * PW + 10, {0xDEADBEEF});
  write(5 * PW, {0}); // a zero word still allocates its page (page 5)
  EXPECT_EQ(Sim.memoryPages(), 3);

  for (uint32_t I = 0; I < Dense.size(); ++I)
    ASSERT_EQ(Sim.readMemoryWord(Base + I), Dense[I]) << "word " << Base + I;
  const std::pair<uint32_t, uint32_t> Ranges[] = {
      {Base, 5 * PW},             // all five pages
      {6 * PW - 5, PW + 20},      // present -> present
      {7 * PW - 2, PW + 50},      // present -> absent -> present
      {4 * PW + 7, PW},           // absent -> present
      {7 * PW + 1, 3},            // inside an absent page
      {8 * PW + 10, 1}};          // one present word
  for (auto [Begin, Len] : Ranges)
    EXPECT_EQ(Sim.hashMemoryRange(Begin, Len),
              denseHash(Dense, Begin - Base, Len))
        << "range [" << Begin << ", " << Begin + Len << ")";
  EXPECT_EQ(Sim.memoryPages(), 3) << "reads and hashes allocate nothing";
}

TEST(SimulatorMemoryTest, AraBinTouchesTwelvePages) {
  // The s1 engine bin of a grid with bounds placement: md5 in slots 0-1,
  // fir2dim in slots 2-3, each slot with its own 64K-word window.
  std::vector<Workload> Workloads;
  for (const char *Kernel : {"md5", "md5", "fir2dim", "fir2dim"}) {
    ErrorOr<Workload> W =
        buildWorkload(Kernel, static_cast<int>(Workloads.size()));
    ASSERT_TRUE(W.ok()) << W.status().str();
    Workloads.push_back(W.take());
  }
  MultiThreadProgram MTP = toMultiThreadProgram(Workloads, "s1_bin");
  SimConfig Config;
  Config.TargetIterations = 50;
  Simulator Sim(MTP, Config);
  for (size_t T = 0; T < Workloads.size(); ++T) {
    for (const Workload::MemRegion &Region : Workloads[T].InitMemory)
      Sim.writeMemory(Region.Base, Region.Words);
    Sim.setEntryValues(static_cast<int>(T), Workloads[T].EntryValues);
  }
  SimResult R = Sim.run();
  ASSERT_TRUE(R.Completed) << R.FailReason;
  EXPECT_EQ(Sim.memoryPages(), 12) << "of " << Config.MemWords /
                                                  Simulator::MemPageWords;
}
