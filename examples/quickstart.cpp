//===- quickstart.cpp - NPRAL in five minutes ------------------------------===//
//
// Allocate registers for two threads sharing one IXP-style micro-engine:
//
//   1. write the threads in NPRAL assembly,
//   2. run the inter-thread register allocator,
//   3. inspect the private/shared split it chose,
//   4. verify cross-thread safety,
//   5. simulate the allocated program.
//
// Build:  cmake --build build --target quickstart
// Run:    ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "alloc/AllocationVerifier.h"
#include "alloc/InterAllocator.h"
#include "asmparse/AsmParser.h"
#include "ir/IRPrinter.h"
#include "sim/Simulator.h"

#include <iostream>

using namespace npral;

int main() {
  // Two threads: a checksum worker whose accumulator lives across context
  // switches (it needs a private register) and a scaling worker whose
  // values are all dead at every switch (they can live in shared
  // registers).
  const char *Asm = R"(
.thread checksum
.entrylive buf, out
main:
    imm  sum, 0
    imm  cnt, 8
loop:
    load w, [buf+0]         ; context switch: sum/cnt/buf/out live across
    add  sum, sum, w
    addi buf, buf, 1
    subi cnt, cnt, 1
    bnz  cnt, loop
    store [out+0], sum
    loopend
    halt

.thread scale
.entrylive src, dst
main:
    imm  cnt, 8
loop:
    load v, [src+0]         ; v is dead at every other context switch
    muli t, v, 3
    addi t, t, 1
    store [dst+0], t
    addi src, src, 1
    addi dst, dst, 1
    subi cnt, cnt, 1
    bnz  cnt, loop
    loopend
    halt
)";

  ErrorOr<MultiThreadProgram> MTP = parseAssembly(Asm);
  if (!MTP.ok()) {
    std::cerr << "parse error: " << MTP.status().str() << "\n";
    return 1;
  }

  // Allocate the pair onto a 16-register file.
  const int Nreg = 16;
  InterThreadResult R = allocateInterThread(*MTP, Nreg);
  if (!R.Success) {
    std::cerr << "allocation failed: " << R.FailReason << "\n";
    return 1;
  }

  std::cout << "Allocated " << MTP->Threads.size() << " threads onto " << Nreg
            << " registers:\n";
  for (size_t T = 0; T < R.Threads.size(); ++T) {
    const ThreadAllocation &TA = R.Threads[T];
    std::cout << "  " << MTP->Threads[T].Name << ": PR=" << TA.PR
              << " private (p" << TA.PrivateBase << "..p"
              << TA.PrivateBase + TA.PR - 1 << "), SR=" << TA.SR
              << " shared, " << TA.MoveCost << " moves ("
              << TA.Strategy << ")\n";
  }
  std::cout << "  shared window: " << R.SGR << " registers from p"
            << R.SharedBase << "; total used " << R.RegistersUsed << "/"
            << Nreg << "\n\n";

  if (Status S = verifyAllocationSafety(R.Physical); !S.ok()) {
    std::cerr << "safety violation: " << S.str() << "\n";
    return 1;
  }
  std::cout << "Safety check passed: no register that crosses one thread's "
               "context switch\nis touched by the other thread.\n\n";

  // Simulate: each thread reads 8 words and writes results.
  SimConfig Config;
  Config.TargetIterations = 1;
  Config.HaltAtTarget = true;
  Simulator Sim(R.Physical, Config);
  Sim.writeMemory(0x100, {1, 2, 3, 4, 5, 6, 7, 8});    // checksum input
  Sim.writeMemory(0x200, {10, 20, 30, 40, 50, 60, 70, 80}); // scale input
  Sim.setEntryValues(0, {0x100, 0x180});
  Sim.setEntryValues(1, {0x200, 0x280});
  SimResult Run = Sim.run();
  if (!Run.Completed) {
    std::cerr << "simulation failed: " << Run.FailReason << "\n";
    return 1;
  }

  std::cout << "Simulation finished in " << Run.TotalCycles << " cycles.\n";
  std::cout << "  checksum result: " << Sim.readMemoryWord(0x180)
            << " (expected 36)\n";
  std::cout << "  scale results:   ";
  for (int I = 0; I < 8; ++I)
    std::cout << Sim.readMemoryWord(0x280 + static_cast<uint32_t>(I)) << " ";
  std::cout << "\n\nFirst thread, allocated form:\n\n";
  std::cout << programToString(R.Physical.Threads[0]);
  return 0;
}
