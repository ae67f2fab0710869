//===- Workload.h - Benchmark kernels ---------------------------*- C++ -*-===//
///
/// \file
/// The benchmark suite. The paper evaluates 11 kernels drawn from CommBench,
/// NetBench, Intel example code and the WRAPS scheduler; the originals were
/// rewritten by the authors in IXP-C/microcode, which we do not have. Each
/// kernel here is reconstructed in NPRAL assembly (or via IRBuilder for the
/// unrolled md5 transform) to match the *register-allocation signature* the
/// paper describes: md5 and wraps are register hungry (spill under a fixed
/// 32-register partition), fir2dim/frag/l2l3fwd are moderate, roughly 10 %
/// of instructions cause context switches, and boundary pressure sits well
/// below total pressure so shared registers have room to work.
/// `src/workloads/README.md` documents each reconstruction.
///
/// Memory layout (word addresses), per thread slot t in [0, 4):
///   IN    = 0x10000*(t+1) + 0x0000   input packets / tables
///   OUT   = 0x10000*(t+1) + 0x8000   kernel output (checked for
///                                    equivalence between allocators)
///   SPILL = 0x10000*(t+1) + 0xF000   baseline spill slots
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_WORKLOADS_WORKLOAD_H
#define NPRAL_WORKLOADS_WORKLOAD_H

#include "ir/Program.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace npral {

/// Word-address layout helpers.
struct ThreadMemLayout {
  uint32_t InBase = 0;
  uint32_t OutBase = 0;
  uint32_t SpillBase = 0;

  static ThreadMemLayout forSlot(int Slot) {
    ThreadMemLayout L;
    uint32_t Base = 0x10000u * (static_cast<uint32_t>(Slot) + 1);
    L.InBase = Base;
    L.OutBase = Base + 0x8000u;
    L.SpillBase = Base + 0xF000u;
    return L;
  }
};

/// A benchmark kernel instantiated for one thread slot.
struct Workload {
  std::string Name;
  Program Code;
  /// Initial values for Code.EntryLiveRegs, in order.
  std::vector<uint32_t> EntryValues;
  /// Memory regions to initialise before simulation.
  struct MemRegion {
    uint32_t Base;
    std::vector<uint32_t> Words;
  };
  std::vector<MemRegion> InitMemory;
  /// Output region compared across allocators for semantic equivalence.
  uint32_t OutputBase = 0;
  uint32_t OutputLen = 0;
  /// Spill area for the baseline allocator.
  uint32_t SpillBase = 0;
};

/// Names of the 11 paper benchmarks, in Table 1 order.
const std::vector<std::string> &getWorkloadNames();

/// Instantiate benchmark \p Name for thread slot \p Slot (0..3). Slot only
/// shifts the memory layout; the code is identical across slots. Fails on
/// an unknown name.
ErrorOr<Workload> buildWorkload(const std::string &Name, int Slot);

} // namespace npral

#endif // NPRAL_WORKLOADS_WORKLOAD_H
