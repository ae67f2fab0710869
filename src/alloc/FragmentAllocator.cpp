//===- FragmentAllocator.cpp ----------------------------------------------===//

#include "alloc/FragmentAllocator.h"

#include "alloc/ParallelCopy.h"

#include "ir/CFGUtils.h"

#include <algorithm>
#include <cassert>

using namespace npral;

namespace {

/// Per-point register-to-color assignment.
class ColorMap {
public:
  explicit ColorMap(int NumRegs, int NumColors)
      : RegColor(static_cast<size_t>(NumRegs), -1),
        ColorReg(static_cast<size_t>(NumColors), NoReg) {}

  int colorOf(Reg R) const { return RegColor[static_cast<size_t>(R)]; }
  Reg regAt(int C) const { return ColorReg[static_cast<size_t>(C)]; }

  void bind(Reg R, int C) {
    assert(RegColor[static_cast<size_t>(R)] < 0 && "register already bound");
    assert(ColorReg[static_cast<size_t>(C)] == NoReg && "color occupied");
    RegColor[static_cast<size_t>(R)] = C;
    ColorReg[static_cast<size_t>(C)] = R;
  }

  void release(Reg R) {
    int C = RegColor[static_cast<size_t>(R)];
    if (C < 0)
      return;
    RegColor[static_cast<size_t>(R)] = -1;
    ColorReg[static_cast<size_t>(C)] = NoReg;
  }

  void rebind(Reg R, int NewColor) {
    release(R);
    bind(R, NewColor);
  }

  /// Exchange the colors of two bound registers.
  void swapBindings(Reg A, Reg B) {
    int CA = RegColor[static_cast<size_t>(A)];
    int CB = RegColor[static_cast<size_t>(B)];
    assert(CA >= 0 && CB >= 0 && "swap of unbound register");
    RegColor[static_cast<size_t>(A)] = CB;
    RegColor[static_cast<size_t>(B)] = CA;
    ColorReg[static_cast<size_t>(CA)] = B;
    ColorReg[static_cast<size_t>(CB)] = A;
  }

  /// Lowest free color in [Lo, Hi), or -1.
  int findFree(int Lo, int Hi) const {
    for (int C = Lo; C < Hi; ++C)
      if (ColorReg[static_cast<size_t>(C)] == NoReg)
        return C;
    return -1;
  }

private:
  std::vector<int> RegColor;
  std::vector<Reg> ColorReg;
};

class FragmentAllocatorImpl {
public:
  FragmentAllocatorImpl(const Program &P, const ThreadAnalysis &TA, int PR,
                        int SR, const CostModel &Cost)
      : P(P), TA(TA), PR(PR), R(PR + SR), Cost(Cost) {}

  ColorAllocation run();

private:
  const Program &P;
  const ThreadAnalysis &TA;
  const int PR;
  const int R;
  const CostModel &Cost;

  ColorAllocation Result;
  int InsertedOps = 0;
  int64_t WeightedOps = 0;
  /// Weights per output block (original blocks + edge splits).
  std::vector<int64_t> OutWeights;
  /// Fixed entry color maps: EntryColors[b][reg] = color (-1 unset);
  /// empty vector = block not yet reached.
  std::vector<std::vector<int>> EntryColors;
  /// Pending edge reconciliations: copies needed between Pred's exit state
  /// and Succ's fixed entry state.
  struct EdgeFix {
    int Pred;
    int Succ;
    std::vector<Copy> Copies;
    int Scratch; ///< Free color at the junction, or -1.
  };
  std::vector<EdgeFix> EdgeFixes;

  /// Set when any stage fails; run() and processBlock() bail out promptly.
  bool Aborted = false;

  void fail(const std::string &Reason) {
    Result.Feasible = false;
    Result.FailReason = Reason;
    Aborted = true;
  }

  // Failure-site audit: this allocator trusts its (P, TA, PR, SR) contract,
  // but two classes of violation are reachable from *input* when a caller
  // skips the structural checkers (verifyProgram / checkNoUseOfUndef) —
  // reading a register that was never defined, and liveness that exceeds
  // the guarded bounds because TA was computed for a different program.
  // Those sites fail() gracefully below. The remaining asserts (ColorMap
  // bind/swap discipline, the xor-swap victim search) are pure internal
  // invariants of the coloring algorithm and stay asserts.

  /// Preferred band scan for a node class.
  int chooseColor(const ColorMap &CM, Reg V) const {
    bool Boundary = TA.BoundaryNodes.test(V);
    int C = Boundary ? CM.findFree(0, PR) : CM.findFree(PR, R);
    if (C < 0)
      C = CM.findFree(0, R);
    return C;
  }

  void processBlock(int B, Program &Out);
  void reconcileEdges(Program &Out);
};

ColorAllocation FragmentAllocatorImpl::run() {
  Result.PR = PR;
  Result.SR = R - PR;
  if (PR < TA.getRegPCSBmax()) {
    fail("PR below RegPCSBmax");
    return Result;
  }
  if (R < TA.getRegPmax()) {
    fail("R below RegPmax");
    return Result;
  }

  Program Out;
  Out.Name = P.Name;
  Out.NumRegs = R;
  Out.IsPhysical = false;
  Out.EntryBlock = P.EntryBlock;
  for (int B = 0; B < P.getNumBlocks(); ++B) {
    Out.addBlock(P.blockName(B));
    Out.block(B).FallThrough = P.block(B).FallThrough;
  }

  EntryColors.assign(static_cast<size_t>(P.getNumBlocks()), {});
  OutWeights.resize(static_cast<size_t>(P.getNumBlocks()));
  for (int B = 0; B < P.getNumBlocks(); ++B)
    OutWeights[static_cast<size_t>(B)] = Cost.blockWeight(B);

  // Seed the entry block from the entry-live registers.
  {
    std::vector<int> &Entry =
        EntryColors[static_cast<size_t>(P.getEntryBlock())];
    Entry.assign(static_cast<size_t>(P.NumRegs), -1);
    ColorMap CM(P.NumRegs, R);
    const BitVector &LiveIn = TA.Liveness.blockLiveIn(P.getEntryBlock());
    // Entry-live registers first, in declaration order, so the harness can
    // line initial values up with Out.EntryLiveRegs.
    for (Reg V : P.EntryLiveRegs) {
      if (!LiveIn.test(V) || Entry[static_cast<size_t>(V)] >= 0)
        continue;
      int C = chooseColor(CM, V);
      if (C < 0) {
        fail("entry pressure exceeds R");
        return Result;
      }
      CM.bind(V, C);
      Entry[static_cast<size_t>(V)] = C;
    }
    LiveIn.forEach([&](int V) {
      if (Aborted || Entry[static_cast<size_t>(V)] >= 0)
        return;
      int C = chooseColor(CM, V);
      if (C < 0) {
        fail("entry pressure exceeds R");
        return;
      }
      CM.bind(V, C);
      Entry[static_cast<size_t>(V)] = C;
    });
    if (Aborted)
      return Result;
    for (Reg V : P.EntryLiveRegs) {
      int C = Entry[static_cast<size_t>(V)];
      // An entry-live register that is dead on arrival still needs a slot
      // for the harness to write its (unused) value into; any free color
      // works.
      if (C < 0)
        C = std::max(0, CM.findFree(0, R));
      Out.EntryLiveRegs.push_back(C);
    }
  }

  for (int B : P.computeRPO()) {
    processBlock(B, Out);
    if (Aborted)
      return Result;
  }
  reconcileEdges(Out);

  Result.ColorProgram = std::move(Out);
  Result.MoveCost = InsertedOps;
  Result.WeightedCost = WeightedOps;
  Result.OutputWeights = std::move(OutWeights);
  Result.Feasible = true;
  return Result;
}

void FragmentAllocatorImpl::processBlock(int B, Program &Out) {
  // Establish entry colors if no processed predecessor reached us (the
  // entry block is pre-seeded; loop headers reached before their back-edge
  // predecessors land here too).
  if (EntryColors[static_cast<size_t>(B)].empty()) {
    std::vector<int> &Entry = EntryColors[static_cast<size_t>(B)];
    Entry.assign(static_cast<size_t>(P.NumRegs), -1);
    ColorMap CM(P.NumRegs, R);
    TA.Liveness.blockLiveIn(B).forEach([&](int V) {
      if (Aborted)
        return;
      int C = chooseColor(CM, V);
      if (C < 0) {
        fail("live-in pressure exceeds R in block '" +
             std::string(P.blockName(B)) + "'");
        return;
      }
      CM.bind(V, C);
      Entry[static_cast<size_t>(V)] = C;
    });
    if (Aborted)
      return;
  }

  ColorMap CM(P.NumRegs, R);
  {
    const std::vector<int> &Entry = EntryColors[static_cast<size_t>(B)];
    TA.Liveness.blockLiveIn(B).forEach([&](int V) {
      assert(Entry[static_cast<size_t>(V)] >= 0 && "live-in without color");
      CM.bind(V, Entry[static_cast<size_t>(V)]);
    });
  }

  const BasicBlock &BB = P.block(B);
  std::vector<Instruction> &OutInstrs = Out.block(B).Instrs;

  for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
    const Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];

    // Before a context switch, every crossing value must sit in a private
    // color. Relocate with moves; when everything is tight, swap with a
    // non-crossing private holder via xor (three 1-cycle ops, no scratch).
    if (Inst.causesCtxSwitch()) {
      BitVector Crossing = TA.Liveness.instrLiveOut(B, I);
      if (Inst.Def != NoReg)
        Crossing.reset(Inst.Def);
      if (Crossing.count() > PR) {
        fail("crossing set exceeds PR at CSB in block '" +
             std::string(P.blockName(BB.Id)) + "'");
        return;
      }
      Crossing.forEach([&](int V) {
        if (Aborted || CM.colorOf(V) < PR)
          return;
        int Free = CM.findFree(0, PR);
        if (Free >= 0) {
          OutInstrs.push_back(Instruction::makeMov(Free, CM.colorOf(V)));
          ++InsertedOps;
          WeightedOps += Cost.blockWeight(B);
          CM.rebind(V, Free);
          return;
        }
        // All private colors are held. Since |crossing| <= PR and V itself
        // holds a shared color, some private color is held by a
        // non-crossing value; exchange with it.
        Reg Victim = NoReg;
        for (int C = 0; C < PR; ++C) {
          Reg Holder = CM.regAt(C);
          assert(Holder != NoReg && "free private color missed");
          if (!Crossing.test(Holder)) {
            Victim = Holder;
            break;
          }
        }
        assert(Victim != NoReg && "crossing set exceeds private colors");
        appendXorSwap(OutInstrs, CM.colorOf(Victim), CM.colorOf(V));
        InsertedOps += 3;
        WeightedOps += 3 * Cost.blockWeight(B);
        CM.swapBindings(Victim, V);
      });
    }

    // Emit the instruction over colors. An unbound use means the register
    // was never defined on this path — a checkNoUseOfUndef violation the
    // caller skipped; fail instead of colouring garbage.
    Instruction NewInst = Inst;
    if (Inst.Use1 != NoReg) {
      if (CM.colorOf(Inst.Use1) < 0) {
        fail("use of undefined register '" + P.getRegName(Inst.Use1) +
             "' in block '" + std::string(P.blockName(B)) + "'");
        return;
      }
      NewInst.Use1 = CM.colorOf(Inst.Use1);
    }
    if (Inst.Use2 != NoReg) {
      if (CM.colorOf(Inst.Use2) < 0) {
        fail("use of undefined register '" + P.getRegName(Inst.Use2) +
             "' in block '" + std::string(P.blockName(B)) + "'");
        return;
      }
      NewInst.Use2 = CM.colorOf(Inst.Use2);
    }

    // Kill values that die here (last use), freeing their colors before the
    // definition picks one.
    const BitVector &LiveOut = TA.Liveness.instrLiveOut(B, I);
    std::array<Reg, 2> Uses;
    int NumUses = Inst.getUses(Uses);
    for (int U = 0; U < NumUses; ++U) {
      Reg V = Uses[static_cast<size_t>(U)];
      if (!LiveOut.test(V))
        CM.release(V);
    }

    if (Inst.Def != NoReg) {
      // Redefinition: drop the old binding first.
      CM.release(Inst.Def);
      int C = chooseColor(CM, Inst.Def);
      if (C < 0) {
        fail("pressure exceeds R at definition of '" + P.getRegName(Inst.Def) +
             "' in block '" + std::string(P.blockName(B)) + "'");
        return;
      }
      NewInst.Def = C;
      if (LiveOut.test(Inst.Def))
        CM.bind(Inst.Def, C);
    }
    OutInstrs.push_back(NewInst);
  }

  // Junction handling for each successor.
  for (int S : P.successors(B)) {
    std::vector<int> &SuccEntry = EntryColors[static_cast<size_t>(S)];
    if (SuccEntry.empty()) {
      SuccEntry.assign(static_cast<size_t>(P.NumRegs), -1);
      TA.Liveness.blockLiveIn(S).forEach([&](int V) {
        if (Aborted)
          return;
        if (CM.colorOf(V) < 0) {
          fail("register '" + P.getRegName(V) + "' live into block '" +
               std::string(P.blockName(S)) +
               "' but undefined on the edge from '" +
               std::string(P.blockName(B)) + "'");
          return;
        }
        SuccEntry[static_cast<size_t>(V)] = CM.colorOf(V);
      });
      if (Aborted)
        return;
      continue;
    }
    // Build the reconciling parallel copy.
    EdgeFix Fix;
    Fix.Pred = B;
    Fix.Succ = S;
    BitVector UsedHere(R);
    TA.Liveness.blockLiveIn(S).forEach([&](int V) {
      if (Aborted)
        return;
      int From = CM.colorOf(V);
      int To = SuccEntry[static_cast<size_t>(V)];
      if (From < 0 || To < 0) {
        fail("register '" + P.getRegName(V) + "' live into block '" +
             std::string(P.blockName(S)) +
             "' but undefined on the edge from '" +
             std::string(P.blockName(B)) + "'");
        return;
      }
      UsedHere.set(From);
      UsedHere.set(To);
      if (From != To)
        Fix.Copies.push_back({From, To});
    });
    if (Aborted)
      return;
    if (Fix.Copies.empty())
      continue;
    Fix.Scratch = -1;
    for (int C = 0; C < R; ++C)
      if (!UsedHere.test(C)) {
        Fix.Scratch = C;
        break;
      }
    EdgeFixes.push_back(std::move(Fix));
  }
}

void FragmentAllocatorImpl::reconcileEdges(Program &Out) {
  for (const EdgeFix &Fix : EdgeFixes) {
    std::vector<Instruction> Copies;
    int NumOps = appendParallelCopy(Copies, Fix.Copies, Fix.Scratch);
    InsertedOps += NumOps;
    // The edge executes at most as often as its predecessor, so the
    // predecessor's weight prices the copies wherever they land.
    WeightedOps += static_cast<int64_t>(NumOps) * Cost.blockWeight(Fix.Pred);

    // Placement: end of Pred when it has a single successor, otherwise a
    // fresh block on the edge.
    int Target = Fix.Pred;
    if (P.successors(Fix.Pred).size() > 1) {
      Target = splitEdge(Out, Fix.Pred, Fix.Succ);
      OutWeights.resize(static_cast<size_t>(Out.getNumBlocks()), 1);
      OutWeights[static_cast<size_t>(Target)] = Cost.blockWeight(Fix.Pred);
    }
    BasicBlock &TB = Out.block(Target);
    int At = getTerminatorGroupBegin(TB);
    TB.Instrs.insert(TB.Instrs.begin() + At, Copies.begin(), Copies.end());
  }
}

} // namespace

ColorAllocation npral::allocateByFragments(const Program &P,
                                           const ThreadAnalysis &TA, int PR,
                                           int SR, const CostModel &CM) {
  return FragmentAllocatorImpl(P, TA, PR, SR, CM).run();
}
