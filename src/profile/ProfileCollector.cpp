//===- ProfileCollector.cpp -----------------------------------------------===//

#include "profile/ProfileCollector.h"

#include "trace/MetricsRegistry.h"

using namespace npral;

ProfileCollector::ProfileCollector(const MultiThreadProgram &MTP)
    : BlockEvents(
          &MetricsRegistry::global().counter("profile.block_events")) {
  Profile.ProgramName = MTP.Name;
  Profile.Threads.reserve(MTP.Threads.size());
  for (int T = 0; T < MTP.getNumThreads(); ++T) {
    ThreadProfile TP;
    TP.Index = T;
    TP.Name = MTP.Threads[static_cast<size_t>(T)].Name;
    TP.CodeHash = profileCodeHash(MTP.Threads[static_cast<size_t>(T)]);
    Profile.Threads.push_back(std::move(TP));
  }
}

void ProfileCollector::onBlockEntered(int Thread, int Block) {
  if (Thread < 0 || static_cast<size_t>(Thread) >= Profile.Threads.size())
    return;
  ++Profile.Threads[static_cast<size_t>(Thread)].BlockCounts[Block];
  BlockEvents->increment();
}
