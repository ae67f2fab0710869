//===- GenKill.h - Word-parallel bitset gen/kill problems -------*- C++ -*-===//
///
/// \file
/// The workhorse dataflow domain: per-block gen/kill sets over a dense
/// BitVector, solved word-parallel (64 registers per machine operation)
/// by the generic solver in Dataflow.h. The transfer function is the
/// classic
///
///   flow(V) = Gen[B] | (V & ~Kill[B])
///
/// with set-union join — a may-analysis in either direction. Liveness
/// (backward: Gen = upward-exposed uses, Kill = defs) and maybe-uninit
/// (forward: Gen = empty, Kill = defs, boundary = registers not entry-
/// live) are both instances.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_LINT_DATAFLOW_GENKILL_H
#define NPRAL_LINT_DATAFLOW_GENKILL_H

#include "lint/dataflow/Dataflow.h"
#include "support/BitVector.h"

#include <vector>

namespace npral {

/// A union-join gen/kill problem over BitVector facts.
struct GenKillProblem {
  using Value = BitVector;

  DataflowDirection Dir;
  int NumBits;
  /// Words per set: (NumBits + 63) / 64.
  int WordsPerSet;
  /// Per-block facts generated (flow-side) and killed, each in one flat
  /// word pool: block B's set occupies WordsPerSet words at B * WordsPerSet.
  std::vector<uint64_t> Gen;
  std::vector<uint64_t> Kill;
  /// Facts holding at the CFG boundary: the entry block's join side for a
  /// forward problem, every exit block's join side for a backward one.
  BitVector BoundaryValue;

  /// An empty problem over \p NumBlocks blocks and \p Bits facts.
  GenKillProblem(DataflowDirection D, int NumBlocks, int Bits)
      : Dir(D), NumBits(Bits), WordsPerSet((Bits + 63) / 64),
        Gen(static_cast<size_t>(NumBlocks) * static_cast<size_t>(WordsPerSet)),
        Kill(Gen.size()), BoundaryValue(Bits) {}

  BitSpan gen(int Block) const { return {Gen.data() + offset(Block), NumBits}; }
  BitSpan kill(int Block) const {
    return {Kill.data() + offset(Block), NumBits};
  }

  DataflowDirection direction() const { return Dir; }
  Value boundary(const Program &) const { return BoundaryValue; }
  Value bottom(const Program &) const { return BitVector(NumBits); }
  bool join(Value &Into, const Value &From) const {
    return Into.unionWith(From);
  }
  void transfer(const Program &, int Block, Value &V) const {
    V.subtractSpan(kill(Block));
    V.unionWithSpan(gen(Block));
  }

private:
  size_t offset(int Block) const {
    return static_cast<size_t>(Block) * static_cast<size_t>(WordsPerSet);
  }
};

/// Backward liveness over \p P: Gen = upward-exposed uses, Kill = defs,
/// empty boundary. solveDataflow yields In = block live-in, Out = block
/// live-out — the facts LivenessInfo is built from.
GenKillProblem makeLivenessProblem(const Program &P);

/// Forward maybe-uninitialized over \p P: a register is maybe-undef at a
/// point when some path from entry reaches it without a def. Kill = defs,
/// Gen = empty, boundary = all registers minus the declared entry-live
/// ones. In = maybe-undef at block entry.
GenKillProblem makeMaybeUninitProblem(const Program &P);

} // namespace npral

#endif // NPRAL_LINT_DATAFLOW_GENKILL_H
