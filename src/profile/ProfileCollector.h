//===- ProfileCollector.h - Sim-fed profile collection ----------*- C++ -*-===//
///
/// \file
/// The bridge from the simulator to the profile subsystem: a SimObserver
/// that counts block entries per thread and packages them as an
/// ExecutionProfile.
///
/// Collection runs on the *virtual* (renamed, pre-allocation) program in
/// the simulator's reference mode, so the block IDs in the profile are
/// exactly the ones the allocators see.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_PROFILE_PROFILECOLLECTOR_H
#define NPRAL_PROFILE_PROFILECOLLECTOR_H

#include "profile/ExecutionProfile.h"
#include "sim/Simulator.h"

namespace npral {

class Counter;

class ProfileCollector : public SimObserver {
public:
  /// Prepares one ThreadProfile per thread of \p MTP, capturing each
  /// thread's name and code hash. \p MTP must outlive the collector only
  /// for the duration of the constructor.
  explicit ProfileCollector(const MultiThreadProgram &MTP);

  void onBlockEntered(int Thread, int Block) override;

  /// The profile accumulated so far. Counts keep accumulating if the
  /// simulator runs again, so two runs observed by one collector produce
  /// one profile of both.
  const ExecutionProfile &getProfile() const { return Profile; }

  /// Move the accumulated profile out, leaving the collector empty.
  ExecutionProfile takeProfile() { return std::move(Profile); }

private:
  ExecutionProfile Profile;
  /// Cached global-registry instrument (the reference stays valid until a
  /// registry clear; the observer callback is too hot for name lookups).
  Counter *BlockEvents = nullptr;
};

} // namespace npral

#endif // NPRAL_PROFILE_PROFILECOLLECTOR_H
