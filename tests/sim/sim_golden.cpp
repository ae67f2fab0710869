//===- sim_golden.cpp - One line per simulator run, for a golden diff -----===//
//
// Prints everything a run of the simulator returns, one line per run:
// Completed, FailReason, TotalCycles and IdleCycles, every ThreadStats
// field of every thread, and FNV-1a hashes of the context-switch trace and
// of the whole memory. The runs cover the three Table-3 (ARA) scenarios
// allocated by the inter-thread allocator (the timing config) and unallocated
// (the equivalence config), memory latencies 10 and 60, switch penalties 0
// and 3, a signal/wait program, and every way a run fails.
//
// ctest's sim_golden_test diffs the output against tests/sim/sim_golden.golden
// (tests/stdout_golden_test.sh). The lane tests compare two drivers of the
// same Simulator, so they cannot see the simulator's own numbers drift;
// this golden can.
//
//===----------------------------------------------------------------------===//

#include "alloc/InterAllocator.h"
#include "asmparse/AsmParser.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"
#include "workloads/Harness.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

using namespace npral;

namespace {

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "sim_golden: %s\n", Message.c_str());
  std::exit(1);
}

MultiThreadProgram parseOrDie(const char *Asm) {
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(Asm);
  if (!MTP.ok())
    die(MTP.status().str());
  return MTP.take();
}

uint64_t hashCtxTrace(const std::vector<CtxSwitchEvent> &Trace) {
  uint64_t Hash = 1469598103934665603ULL;
  auto mix = [&](uint64_t V) {
    for (int Byte = 0; Byte < 8; ++Byte) {
      Hash ^= (V >> (8 * Byte)) & 0xFF;
      Hash *= 1099511628211ULL;
    }
  };
  for (const CtxSwitchEvent &E : Trace) {
    mix(static_cast<uint64_t>(E.Cycle));
    mix(static_cast<uint64_t>(E.Thread));
  }
  return Hash;
}

/// Run \p MTP under \p Config (context-switch trace on) after \p Setup
/// seeded memory and registers, and print the run's line.
void record(const std::string &Name, const MultiThreadProgram &MTP,
            SimConfig Config,
            const std::function<void(Simulator &)> &Setup = {}) {
  Config.RecordCtxTrace = true;
  Simulator Sim(MTP, Config);
  if (Setup)
    Setup(Sim);
  const SimResult R = Sim.run();
  std::string Line = formatString(
      "%s completed=%d fail='%s' total=%lld idle=%lld", Name.c_str(),
      R.Completed ? 1 : 0, R.FailReason.c_str(),
      static_cast<long long>(R.TotalCycles),
      static_cast<long long>(R.IdleCycles));
  for (size_t T = 0; T < R.Threads.size(); ++T) {
    const ThreadStats &S = R.Threads[T];
    Line += formatString(
        " | t%zu iter=%lld at_target=%lld instrs=%lld ctx=%lld mem_ops=%lld "
        "abs=%lld halted=%d run=%lld penalty=%lld mem=%lld chan=%lld "
        "net=%lld ready=%lld halt=%lld",
        T, static_cast<long long>(S.Iterations),
        static_cast<long long>(S.CyclesAtTarget),
        static_cast<long long>(S.InstrsExecuted),
        static_cast<long long>(S.CtxEvents), static_cast<long long>(S.MemOps),
        static_cast<long long>(S.AbsMemOps), S.Halted ? 1 : 0,
        static_cast<long long>(S.RunCycles),
        static_cast<long long>(S.SwitchPenaltyCycles),
        static_cast<long long>(S.MemStallCycles),
        static_cast<long long>(S.ChannelWaitCycles),
        static_cast<long long>(S.InterconnectStallCycles),
        static_cast<long long>(S.ReadyWaitCycles),
        static_cast<long long>(S.HaltedCycles));
  }
  Line += formatString(
      " | switches=%zu ctx_trace=%016llx memory=%016llx", R.CtxTrace.size(),
      static_cast<unsigned long long>(hashCtxTrace(R.CtxTrace)),
      static_cast<unsigned long long>(
          Sim.hashMemoryRange(0, Config.MemWords)));
  std::printf("%s\n", Line.c_str());
}

/// Table-3 scenario \p S: its workloads' memory and entry values, and its
/// threads unallocated and allocated over 128 registers.
struct AraBin {
  std::string Name;
  std::vector<Workload> Workloads;
  MultiThreadProgram Virtual;
  MultiThreadProgram Physical;

  void seed(Simulator &Sim) const {
    for (size_t T = 0; T < Workloads.size(); ++T) {
      for (const Workload::MemRegion &Region : Workloads[T].InitMemory)
        Sim.writeMemory(Region.Base, Region.Words);
      Sim.setEntryValues(static_cast<int>(T), Workloads[T].EntryValues);
    }
  }
};

AraBin araBin(const Scenario &S) {
  AraBin Bin;
  Bin.Name = S.Name;
  Bin.Workloads = buildScenarioWorkloads(S);
  Bin.Virtual = toMultiThreadProgram(Bin.Workloads, S.Name);
  InterThreadResult Alloc = allocateInterThread(Bin.Virtual, 128);
  if (!Alloc.Success)
    die(S.Name + ": " + Alloc.FailReason);
  Bin.Physical = std::move(Alloc.Physical);
  return Bin;
}

const char *ProducerConsumerAsm = R"(
.thread producer
main:
    imm  addr, 0x400
    imm  n, 5
    imm  v, 100
loop:
    store [addr+0], v
    signal 1
    wait   2
    addi v, v, 1
    addi addr, addr, 1
    subi n, n, 1
    bnz  n, loop
    loopend
    halt
.thread consumer
main:
    imm  src, 0x400
    imm  dst, 0x500
    imm  n, 5
loop:
    wait 1
    load w, [src+0]
    muli w, w, 2
    store [dst+0], w
    signal 2
    addi src, src, 1
    addi dst, dst, 1
    subi n, n, 1
    bnz  n, loop
    loopend
    halt
)";

/// A thread that loads forever, so it is memory-stalled or waiting for the
/// CPU whenever a run fails.
const char *LoaderAsm = R"(
.thread loader
main:
    imm  a, 0x100
top:
    load b, [a+0]
    addi a, a, 1
    br   top
)";

MultiThreadProgram withLoader(const char *Asm) {
  MultiThreadProgram MTP = parseOrDie(LoaderAsm);
  for (Program &P : parseOrDie(Asm).Threads)
    MTP.Threads.push_back(std::move(P));
  return MTP;
}

} // namespace

int main() {
  std::vector<AraBin> Bins;
  for (const Scenario &S : getAraScenarios())
    Bins.push_back(araBin(S));
  for (const AraBin &Bin : Bins) {
    auto Seed = [&](Simulator &Sim) { Bin.seed(Sim); };
    record(Bin.Name + ".physical", Bin.Physical, defaultExperimentConfig(),
           Seed);
    record(Bin.Name + ".virtual", Bin.Virtual, equivalenceConfig(), Seed);
  }

  const AraBin &S1 = Bins[0];
  auto SeedS1 = [&](Simulator &Sim) { S1.seed(Sim); };
  for (int Latency : {10, 60}) {
    SimConfig Config = defaultExperimentConfig();
    Config.MemLatency = Latency;
    record(S1.Name + ".physical.memlat" + std::to_string(Latency),
           S1.Physical, Config, SeedS1);
  }
  for (int Penalty : {0, 3}) {
    SimConfig Config = defaultExperimentConfig();
    Config.CtxSwitchPenalty = Penalty;
    record(S1.Name + ".physical.penalty" + std::to_string(Penalty),
           S1.Physical, Config, SeedS1);
  }

  record("signal_wait", parseOrDie(ProducerConsumerAsm), SimConfig());

  // The cycle budget runs out inside a step: the spinner never yields.
  {
    SimConfig Config;
    Config.MaxCycles = 1000;
    record("fail.budget_in_step", withLoader(R"(
.thread spin
main:
    imm  x, 1
top:
    addi x, x, 1
    br   top
)"),
           Config);
  }
  // The cycle budget runs out while the CPU idles: the loader's second load
  // completes after it, one thread waits on a channel, one has halted.
  {
    SimConfig Config;
    Config.MemLatency = 700;
    Config.MaxCycles = 1000;
    record("fail.budget_at_idle", withLoader(R"(
.thread parked
main:
    wait 3
    halt
.thread quitter
main:
    halt
)"),
           Config);
  }
  // Two threads wait on channels nobody signals; the third does two loads
  // and halts, after which nothing can wake them.
  record("fail.deadlock", parseOrDie(R"(
.thread a
main:
    wait 0
    halt
.thread b
main:
    wait 1
    halt
.thread c
main:
    imm  a, 0x100
    load x, [a+0]
    load x, [a+1]
    signal 2
    halt
)"),
         SimConfig());
  record("fail.out_of_range", withLoader(R"(
.thread oob
main:
    imm  a, 0x100
    load b, [a+0]
    imm  a, 0xFFFFFF
    muli a, a, 4096
    load b, [a+0]
    halt
)"),
         SimConfig());
  // A block with neither a terminator nor a fallthrough, which the IR
  // verifier would reject: its halt is dropped after parsing.
  {
    MultiThreadProgram MTP = withLoader(R"(
.thread faller
main:
    imm  a, 0x100
    load b, [a+0]
    addi b, b, 1
    halt
)");
    MTP.Threads[1].block(0).Instrs.pop_back();
    record("fail.fell_off", MTP, SimConfig());
  }
  return 0;
}
