//===- ExecutionProfile.h - .npprof execution profiles ----------*- C++ -*-===//
///
/// \file
/// The on-disk and in-memory representation of a simulated execution
/// profile: per-thread basic-block execution counts, collected by
/// ProfileCollector and consumed by the allocators through CostModel.
///
/// Profiles serialize to a line-oriented text format (`.npprof`):
///
/// \code
///   npprof 1
///   program <name>
///   thread <index> <code-hash-hex> <name>
///   block <block-id> <count>
///   end
/// \endcode
///
/// `block` lines belong to the most recent `thread` line and are emitted in
/// ascending block order, so print(parse(T)) == T for any valid T
/// (serialization is a fixed point). The code hash is profileCodeHash of
/// the thread, so a profile is matched against a program by content, not
/// by name.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_PROFILE_EXECUTIONPROFILE_H
#define NPRAL_PROFILE_EXECUTIONPROFILE_H

#include "profile/CostModel.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace npral {

/// A thread's identity in a profile: the FNV-1a hash of its printed
/// program. The collector stamps it and the job path matches by it.
uint64_t profileCodeHash(const Program &Thread);

/// Execution counts for one thread of a MultiThreadProgram.
struct ThreadProfile {
  int Index = 0;
  std::string Name;
  /// profileCodeHash of the thread program the counts were collected on.
  /// Consumers refuse to apply a profile to a thread whose code hash
  /// differs — block IDs would not line up.
  uint64_t CodeHash = 0;
  /// Times each basic block was entered. Blocks never executed may be
  /// absent (equivalent to count 0).
  std::map<int, int64_t> BlockCounts;

  int64_t blockCount(int Block) const {
    auto It = BlockCounts.find(Block);
    return It == BlockCounts.end() ? 0 : It->second;
  }
};

/// A full execution profile of one MultiThreadProgram run.
class ExecutionProfile {
public:
  std::string ProgramName;
  std::vector<ThreadProfile> Threads;

  int getNumThreads() const { return static_cast<int>(Threads.size()); }

  /// Serialize to the canonical `.npprof` text form. Byte-stable: maps are
  /// emitted in key order, so printing a parsed profile reproduces the
  /// input exactly.
  std::string print() const;

  /// Parse the text form. Returns std::nullopt and sets \p Error on
  /// malformed input.
  static std::optional<ExecutionProfile> parse(std::string_view Text,
                                               std::string &Error);

  /// Find the thread profile whose code hash is \p CodeHash (nullptr when
  /// absent). Batch mode uses this to match profiles to programs by
  /// content rather than position.
  const ThreadProfile *findByCodeHash(uint64_t CodeHash) const;

  /// Build the cost model for thread \p Thread: block weight = execution
  /// count (0 for never-executed blocks). Out-of-range \p Thread yields
  /// the unit model.
  CostModel costModel(int Thread, int NumBlocks) const;
};

} // namespace npral

#endif // NPRAL_PROFILE_EXECUTIONPROFILE_H
