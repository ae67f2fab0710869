//===- Workload.cpp - Registry and shared kernel helpers ------------------===//

#include "workloads/Workload.h"

#include "analysis/LiveRangeRenaming.h"
#include "asmparse/AsmParser.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "workloads/Kernels.h"

#include <functional>

using namespace npral;
using namespace npral::kernels;

const std::vector<std::string> &npral::getWorkloadNames() {
  static const std::vector<std::string> Names = {
      "frag",    "drr",        "cast",       "fir2dim", "md5",  "crc",
      "url",     "l2l3fwd_rx", "l2l3fwd_tx", "wraps_rx", "wraps_tx"};
  return Names;
}

ErrorOr<Workload> npral::buildWorkload(const std::string &Name, int Slot) {
  if (Slot < 0 || Slot >= 4)
    return Status::error("thread slot must be in [0, 4)");
  ThreadMemLayout L = ThreadMemLayout::forSlot(Slot);
  if (Name == "frag")
    return buildFrag(L, Slot);
  if (Name == "drr")
    return buildDrr(L, Slot);
  if (Name == "cast")
    return buildCast(L, Slot);
  if (Name == "fir2dim")
    return buildFir2dim(L, Slot);
  if (Name == "md5")
    return buildMd5(L, Slot);
  if (Name == "crc")
    return buildCrc(L, Slot);
  if (Name == "url")
    return buildUrl(L, Slot);
  if (Name == "l2l3fwd_rx")
    return buildL2l3fwdRx(L, Slot);
  if (Name == "l2l3fwd_tx")
    return buildL2l3fwdTx(L, Slot);
  if (Name == "wraps_rx")
    return buildWrapsRx(L, Slot);
  if (Name == "wraps_tx")
    return buildWrapsTx(L, Slot);
  return Status::error("unknown workload '" + Name + "'");
}

Workload kernels::fromAsm(const std::string &Name, const std::string &AsmText,
                          std::vector<uint32_t> EntryValues,
                          Workload Partial) {
  ErrorOr<Program> P = parseSingleProgram(AsmText);
  if (!P.ok())
    reportFatalError("kernel '" + Name + "' failed to assemble: " +
                     P.status().str());
  Partial.Name = Name;
  // One register per live range (paper §9: live ranges are restored from
  // the source); analyzeThread depends on this.
  Partial.Code = renameLiveRanges(P.take());
  Partial.EntryValues = std::move(EntryValues);
  if (Partial.Code.EntryLiveRegs.size() != Partial.EntryValues.size())
    reportFatalError("kernel '" + Name +
                     "': entry value count does not match .entrylive");
  return Partial;
}

std::vector<uint32_t> kernels::makeInputData(const std::string &Name, int Slot,
                                             size_t Words) {
  // Deterministic per (kernel, slot) so experiments are reproducible.
  uint64_t Seed = fnv1aAppend(FNV1aOffsetBasis, Name);
  Seed ^= static_cast<uint64_t>(Slot) * 0x9e3779b97f4a7c15ULL;
  Rng R(Seed);
  std::vector<uint32_t> Data(Words);
  for (uint32_t &W : Data)
    W = static_cast<uint32_t>(R.next());
  return Data;
}
