//===- CostModel.h - Frequency-weighted move-cost model ---------*- C++ -*-===//
///
/// \file
/// The profile subsystem's contract with the allocators: a per-thread map
/// from basic blocks to execution-frequency weights.
///
/// A move inserted into block b costs `blockWeight(b)` weighted units — one
/// per dynamic execution under a collected profile, 10^loop-depth under the
/// static estimator, and exactly 1 under the default *unit* model. Every
/// move the allocators insert is priced through this one formula, so under
/// the unit model each weighted sum is the raw move count the paper reports
/// and every output program is the unweighted allocator's.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_PROFILE_COSTMODEL_H
#define NPRAL_PROFILE_COSTMODEL_H

#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace npral {

/// Per-thread block-frequency weights. Default-constructed it is the *unit*
/// model (every block weighs 1); profile- or estimator-built models carry
/// one weight per block of the thread they were built for. Blocks created
/// after construction (edge splits during allocation) fall back to the
/// weight the creator registers via setBlockWeight, or 1.
class CostModel {
public:
  /// The unit model: every block weighs 1. This is the identity element —
  /// allocating under it reproduces the unweighted allocator bit-for-bit.
  CostModel() = default;

  /// True when every block weighs 1 (i.e. no profile data was attached).
  /// Costs never need it: a weighted sum under the unit model is the raw
  /// count. It only picks a policy, at three sites where the paper's rule
  /// and the frequency-aware one differ:
  ///  * IntraThreadAllocator, NSR exclusion: the NSR with the most
  ///    references, or the one with the cheapest weighted moves;
  ///  * IntraThreadAllocator, internal block split: the block with the most
  ///    references, or the one with the cheapest weighted moves;
  ///  * allocateInterThread: the rebalance pass, which runs only when some
  ///    thread's model is weighted.
  bool isUnit() const { return Weights.empty(); }

  /// Weight of block \p Block; 1 for blocks beyond the known range.
  int64_t blockWeight(int Block) const {
    if (Block < 0 || static_cast<size_t>(Block) >= Weights.size())
      return 1;
    return Weights[static_cast<size_t>(Block)];
  }

  /// Set the weight of \p Block, growing the map as needed (new slots
  /// default to 1). Negative weights are invalid.
  void setBlockWeight(int Block, int64_t Weight);

  /// Number of blocks with an explicit weight.
  int size() const { return static_cast<int>(Weights.size()); }

  /// The explicit weights by block ID (empty for the unit model); blocks
  /// beyond them weigh 1, the convention eliminateRedundantMoves shares.
  const std::vector<int64_t> &blockWeights() const { return Weights; }

private:
  std::vector<int64_t> Weights; ///< Empty = unit model.
};

} // namespace npral

#endif // NPRAL_PROFILE_COSTMODEL_H
