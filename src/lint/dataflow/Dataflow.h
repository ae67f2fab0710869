//===- Dataflow.h - Generic worklist dataflow solver ------------*- C++ -*-===//
///
/// \file
/// One dataflow engine for the whole repo instead of a hand-rolled
/// iterate-until-stable loop per client. A client describes its problem as
/// a *lattice* (the per-block value type with a join), a *direction*, and a
/// *transfer function*; the solver owns the fixpoint iteration over a
/// Program CFG and hands back the per-block boundary values.
///
/// The framework is deliberately small:
///
///  * DataflowProblem<ValueT> — the client contract: direction, the
///    boundary value injected at the entry (forward) or exit (backward)
///    side, a bottom value for all other blocks, `join` (must return
///    whether it changed its accumulator, and must be monotone), and
///    `transfer` over one whole block.
///  * solveDataflow — round-robin worklist iteration in reverse post
///    order (forward) or post order (backward) until no join changes,
///    exactly the schedule the previous ad-hoc loops used, so migrated
///    clients reproduce their old results bit for bit.
///  * GenKill.h builds the word-parallel BitVector gen/kill instance on
///    top of this — the domain every core analysis (liveness,
///    maybe-uninit) runs on.
///
/// A solve allocates up front (its result, its visit order, a forward
/// problem's predecessor lists and one scratch value); visiting a block
/// allocates nothing (successor lists are inline and the scratch value's
/// storage is reused).
///
/// Termination is the client's obligation (finite-height lattice plus a
/// monotone join/transfer); every domain in this repo is a finite bitset
/// or a finite equivalence relation, so the solver needs no widening.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_LINT_DATAFLOW_DATAFLOW_H
#define NPRAL_LINT_DATAFLOW_DATAFLOW_H

#include "ir/Program.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace npral {

enum class DataflowDirection {
  Forward,  ///< facts flow entry -> exit; In(B) joins preds' Out
  Backward, ///< facts flow exit -> entry; Out(B) joins succs' In
};

/// Per-block fixpoint result. For a forward problem In[B] is the join over
/// predecessors and Out[B] = transfer(B, In[B]); for a backward problem
/// Out[B] is the join over successors and In[B] = transfer(B, Out[B]).
template <typename ValueT> struct DataflowResult {
  std::vector<ValueT> In;
  std::vector<ValueT> Out;
};

/// Solve \p Problem over \p P's CFG. ProblemT must provide:
///
///   using Value = ...;
///   DataflowDirection direction() const;
///   Value boundary(const Program &P) const;  // entry/exit-side seed
///   Value bottom(const Program &P) const;    // identity of join
///   bool join(Value &Into, const Value &From) const;  // true if changed
///   void transfer(const Program &P, int Block, Value &V) const;
///
/// `transfer` mutates the incoming-side value into the outgoing-side value
/// for the whole block. Unreachable blocks keep bottom on their join side
/// (computeRPO appends them, so their transfer still runs — matching the
/// historical per-client loops).
template <typename ProblemT>
DataflowResult<typename ProblemT::Value> solveDataflow(const Program &P,
                                                       const ProblemT &Problem) {
  using Value = typename ProblemT::Value;
  const bool Forward = Problem.direction() == DataflowDirection::Forward;
  const size_t NumBlocks = static_cast<size_t>(P.getNumBlocks());

  DataflowResult<Value> R;
  R.In.assign(NumBlocks, Problem.bottom(P));
  R.Out.assign(NumBlocks, Problem.bottom(P));
  if (NumBlocks == 0)
    return R;

  // Join sides: forward joins into In, backward joins into Out.
  std::vector<Value> &JoinSide = Forward ? R.In : R.Out;
  std::vector<Value> &FlowSide = Forward ? R.Out : R.In;

  if (Forward)
    JoinSide[static_cast<size_t>(P.getEntryBlock())] = Problem.boundary(P);
  // A backward boundary applies to every exit block (no successors); seed
  // all blocks with it joined in once so halt-terminated blocks see it.
  std::vector<std::vector<int>> Preds;
  if (Forward)
    Preds = P.computePredecessors();
  if (!Forward) {
    const Value Boundary = Problem.boundary(P);
    for (size_t B = 0; B < NumBlocks; ++B)
      if (P.successors(static_cast<int>(B)).empty())
        Problem.join(JoinSide[B], Boundary);
  }

  // Iteration order: RPO for forward problems, post order for backward —
  // the schedule that converges in O(loop depth) passes on reducible CFGs.
  std::vector<int> Order = P.computeRPO();
  if (!Forward)
    std::reverse(Order.begin(), Order.end());

  // Each visit copies the join side into Scratch (reusing its storage),
  // transfers it, and swaps it into the flow side when it changed; the
  // swapped-out value becomes the next visit's storage.
  Value Scratch = Problem.bottom(P);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int B : Order) {
      const size_t BI = static_cast<size_t>(B);
      if (Forward) {
        // In(B) = join over preds' Out (entry keeps its boundary seed).
        for (int Pred : Preds[BI])
          Changed |=
              Problem.join(JoinSide[BI], FlowSide[static_cast<size_t>(Pred)]);
      } else {
        for (int S : P.successors(B))
          Changed |=
              Problem.join(JoinSide[BI], FlowSide[static_cast<size_t>(S)]);
      }
      Scratch = JoinSide[BI];
      Problem.transfer(P, B, Scratch);
      // Flow-side updates feed the next round's joins; track change so the
      // loop also terminates when only transfer outputs moved.
      if (!(Scratch == FlowSide[BI])) {
        std::swap(FlowSide[BI], Scratch);
        Changed = true;
      }
    }
  }
  return R;
}

} // namespace npral

#endif // NPRAL_LINT_DATAFLOW_DATAFLOW_H
