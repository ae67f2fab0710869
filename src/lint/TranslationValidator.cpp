//===- TranslationValidator.cpp -------------------------------------------===//

#include "lint/TranslationValidator.h"

#include "ir/IRPrinter.h"
#include "support/BitVector.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace npral;

namespace {

/// Every location holds one value number, or kUnknown when nothing is
/// known about it. Equal numbers mean equal values; a fresh number is a
/// value no other location holds yet. A physical register can also be
/// kClobbered: a CSB of this thread handed it to another thread that
/// references it, and no def has written it since. Reading it breaks CSB
/// privacy. A join keeps kClobbered when any incoming path carries it.
constexpr int32_t kUnknown = -1;
constexpr int32_t kClobbered = -2;

/// True when \p Instrs[I..I+2] is the register swap `xor A, A, B;
/// xor B, A, B; xor A, A, B` with A != B (what appendXorSwap writes). The
/// three instructions exchange the values of A and B, whatever they are.
bool isXorSwap(const std::vector<Instruction> &Instrs, size_t I) {
  if (I + 2 >= Instrs.size())
    return false;
  const Instruction &X = Instrs[I];
  const Instruction &Y = Instrs[I + 1];
  const Instruction &Z = Instrs[I + 2];
  const Reg A = X.Def;
  const Reg B = X.Use2;
  return A != B && X.Op == Opcode::Xor && X.Use1 == A &&
         Y.Op == Opcode::Xor && Y.Def == B && Y.Use1 == A && Y.Use2 == B &&
         Z.Op == Opcode::Xor && Z.Def == A && Z.Use1 == A && Z.Use2 == B;
}

/// Symbolic state at one program point of one thread: what every virtual
/// register, physical register, and spill scratch slot is known to hold.
/// VV and PV are dense arrays indexed by register ID (kUnknown when
/// nothing is known); Slots is sorted by address and only holds known
/// values, so copying a state is three flat vector copies.
struct SymState {
  std::vector<int32_t> VV;                       ///< virtual reg -> value
  std::vector<int32_t> PV;                       ///< physical reg -> value
  std::vector<std::pair<int64_t, int32_t>> Slots; ///< scratch word -> value

  bool operator==(const SymState &O) const = default;

  static std::vector<std::pair<int64_t, int32_t>>::const_iterator
  slotFind(const std::vector<std::pair<int64_t, int32_t>> &Slots,
           int64_t A) {
    return std::lower_bound(
        Slots.begin(), Slots.end(), A,
        [](const std::pair<int64_t, int32_t> &P, int64_t Addr) {
          return P.first < Addr;
        });
  }

  int32_t slotGet(int64_t A) const {
    auto It = slotFind(Slots, A);
    return It != Slots.end() && It->first == A ? It->second : kUnknown;
  }
  void slotSet(int64_t A, int32_t V) {
    auto It = slotFind(Slots, A);
    if (It != Slots.end() && It->first == A)
      Slots[static_cast<size_t>(It - Slots.begin())].second = V;
    else
      Slots.insert(It, {A, V});
  }
  void slotErase(int64_t A) {
    auto It = slotFind(Slots, A);
    if (It != Slots.end() && It->first == A)
      Slots.erase(It);
  }
};

/// Minimal open-addressing hash map from a packed 64-bit key to an int32
/// id, with O(1) epoch-based clear. It groups the two-predecessor join
/// signatures, whose two value numbers pack into one uint64; a std::map
/// with vector keys dominated the profile before this.
class FlatMap64 {
public:
  void clear() {
    ++Epoch;
    Count = 0;
  }

  /// Returns the id for \p Key; on a miss, assigns NextId and bumps it.
  int32_t findOrInsert(uint64_t Key, int32_t &NextId) {
    if (Keys.empty())
      rehash(64);
    size_t I = hashKey(Key) & Mask;
    while (Epochs[I] == Epoch) {
      if (Keys[I] == Key)
        return Vals[I];
      I = (I + 1) & Mask;
    }
    int32_t Id = NextId++;
    Epochs[I] = Epoch;
    Keys[I] = Key;
    Vals[I] = Id;
    if (++Count * 2 > Keys.size())
      rehash(Keys.size() * 2);
    return Id;
  }

private:
  static size_t hashKey(uint64_t K) {
    K ^= K >> 33;
    K *= 0xff51afd7ed558ccdULL;
    K ^= K >> 33;
    return static_cast<size_t>(K);
  }

  void rehash(size_t NewCap) {
    std::vector<uint64_t> OldKeys = std::move(Keys);
    std::vector<int32_t> OldVals = std::move(Vals);
    std::vector<int64_t> OldEpochs = std::move(Epochs);
    Keys.assign(NewCap, 0);
    Vals.assign(NewCap, 0);
    Epochs.assign(NewCap, 0);
    Mask = NewCap - 1;
    for (size_t I = 0; I < OldKeys.size(); ++I) {
      if (OldEpochs[I] != Epoch)
        continue;
      size_t J = hashKey(OldKeys[I]) & Mask;
      while (Epochs[J] == Epoch)
        J = (J + 1) & Mask;
      Epochs[J] = Epoch;
      Keys[J] = OldKeys[I];
      Vals[J] = OldVals[I];
    }
  }

  std::vector<uint64_t> Keys;
  std::vector<int32_t> Vals;
  std::vector<int64_t> Epochs; ///< slot live iff == Epoch; 0 = never used
  int64_t Epoch = 1;
  size_t Count = 0;
  size_t Mask = 0;
};

/// One thread's proof: fixpoint over the physical CFG, then — only when a
/// block's final transfer failed — a reporting pass in reverse post order.
class ThreadValidator {
public:
  /// Validates thread \p T of \p PhysAll against \p Virt. \p Refs holds
  /// the physical registers each thread references, entry-live ones
  /// included.
  ThreadValidator(const Program &Virt, const MultiThreadProgram &PhysAll,
                  int T, const std::vector<BitVector> &Refs,
                  const std::set<int64_t> &OtherSlotWrites,
                  const std::vector<int64_t> &VirtualAbsAddrs,
                  DiagnosticEngine &Engine)
      : Virt(Virt), PhysAll(PhysAll),
        Phys(PhysAll.Threads[static_cast<size_t>(T)]),
        VirtualAbsAddrs(VirtualAbsAddrs), Engine(Engine),
        NV(Virt.getNumBlocks()), VVSize(maxRegPlusOne(Virt)),
        PVSize(maxRegPlusOne(Phys)),
        ClobberOwner(static_cast<size_t>(PVSize), -1) {
    for (int P = 0; P < PVSize; ++P)
      for (int U = 0; U < static_cast<int>(Refs.size()); ++U) {
        const BitVector &R = Refs[static_cast<size_t>(U)];
        if (U != T && P < R.size() && R.test(P)) {
          ClobberRegs.push_back(P);
          ClobberOwner[static_cast<size_t>(P)] = U;
          break;
        }
      }
    ClobberSlots.assign(OtherSlotWrites.begin(), OtherSlotWrites.end());
  }

  bool run();

  int64_t InstructionsMatched = 0;
  int64_t CopiesInterpreted = 0;

private:
  const Program &Virt;
  const MultiThreadProgram &PhysAll;
  const Program &Phys;
  const std::vector<int64_t> &VirtualAbsAddrs; ///< sorted, deduplicated
  DiagnosticEngine &Engine;
  const int NV; ///< virtual block count; physical blocks >= NV are inserted
  const int VVSize;
  const int PVSize;
  std::vector<Reg> ClobberRegs;       ///< physical regs other threads touch
  std::vector<int> ClobberOwner;      ///< phys reg -> first such thread, or -1
  std::vector<int64_t> ClobberSlots;  ///< scratch words other threads write

  std::vector<SuccessorList> Succs;     ///< physical successor lists
  std::vector<SuccessorList> VirtSuccs; ///< virtual successor lists

  /// Per-block outcome of the block's most recent transfer. The worklist
  /// requeues a block whenever its entry state changes, so after the
  /// fixpoint these reflect each block's *final* state — the reporting
  /// pass only runs when one of them failed.
  std::vector<char> BlockFailed;
  std::vector<int64_t> BlockMatched;
  std::vector<int64_t> BlockCopies;

  FlatMap64 JoinGroups;
  SymState SwapUndo; ///< state before a swap whose xors are being matched

  int32_t NextVN = 0;
  int32_t MaxVNEver = 0; ///< upper bound on any value number ever minted
  bool Reporting = false;
  bool Failed = false;

  /// Number of distinct value numbers in the state the last canonicalize /
  /// joinStates call produced (canonical states use VNs 0..k-1, so this is
  /// exactly where the next transfer may start minting).
  int32_t LastVNCount = 0;

  /// Epoch-stamped renumber scratch: O(1) reset per canonicalize call.
  std::vector<int32_t> RenumVal;
  std::vector<int32_t> RenumEpoch;
  int32_t RenumCur = 0;

  /// Epoch-stamped scratch for the diagonal join signature (v, v) — the
  /// common case at a merge, since only values that actually diverge on
  /// the incoming paths have differing signatures.
  std::vector<int32_t> DiagVal;
  std::vector<int32_t> DiagEpoch;
  int32_t DiagCur = 0;

  /// State arrays cover only registers the program actually mentions —
  /// NumRegs may be the full machine budget (e.g. 128) while an allocated
  /// thread touches a couple dozen, and join/canonicalize walk every slot.
  static int maxRegPlusOne(const Program &P) {
    int M = 1;
    for (Reg R : P.EntryLiveRegs)
      M = std::max(M, R + 1);
    for (const BasicBlock &BB : P.Blocks)
      for (const Instruction &I : BB.Instrs) {
        M = std::max(M, I.Def + 1);
        std::array<Reg, 2> Uses;
        int N = I.getUses(Uses);
        for (int U = 0; U < N; ++U)
          M = std::max(M, Uses[static_cast<size_t>(U)] + 1);
      }
    return M;
  }

  int32_t freshVN() {
    MaxVNEver = std::max(MaxVNEver, NextVN + 1);
    return NextVN++;
  }

  /// Renumber the value numbers of \p S to 0..k-1 in first-occurrence
  /// order over the deterministic location iteration (VV index ascending,
  /// then PV, then Slots). Two states are equivalent up to value-number
  /// renaming iff their canonical forms are equal. Writes into \p C
  /// (capacity is reused across calls; \p C must not alias \p S).
  void canonicalizeInto(const SymState &S, SymState &C) {
    // Flat epoch-stamped renumber table instead of a map: old value
    // numbers are bounded by MaxVNEver.
    if (static_cast<int32_t>(RenumVal.size()) < MaxVNEver) {
      RenumVal.resize(static_cast<size_t>(MaxVNEver));
      RenumEpoch.resize(static_cast<size_t>(MaxVNEver), 0);
    }
    ++RenumCur;
    int32_t Count = 0;
    auto renum = [&](int32_t N) {
      if (N < 0) // kUnknown, kClobbered
        return N;
      const auto I = static_cast<size_t>(N);
      if (RenumEpoch[I] != RenumCur) {
        RenumEpoch[I] = RenumCur;
        RenumVal[I] = Count++;
      }
      return RenumVal[I];
    };
    C = S; // copy-assign: reuses C's buffers once they are warm
    for (int32_t &E : C.VV)
      E = renum(E);
    for (int32_t &E : C.PV)
      E = renum(E);
    for (auto &KV : C.Slots)
      KV.second = renum(KV.second);
    LastVNCount = Count;
    MaxVNEver = std::max(MaxVNEver, Count);
  }

  SymState makeEntryState();
  void joinStates(const std::vector<const SymState *> &Preds, SymState &R);
  void transfer(SymState &S, int B);
  /// Refute each operand of \p PI (instruction \p PIdx of block \p B) that
  /// reads a register \p S holds clobbered. Out of line: a proved thread
  /// never calls it, and inlined it slows the transfer loop.
  [[gnu::cold, gnu::noinline]] void
  reportPrivacyBreach(const SymState &S, int B, const Instruction &PI,
                      int PIdx);

  /// Follow a chain of allocator-inserted blocks (ID >= NV: spill
  /// pre-entry, edge splits holding parallel copies) to the paired block
  /// it eventually reaches. Inserted blocks are pass-through — one
  /// outgoing edge — so a physical branch targeting one realises the
  /// virtual branch to the chain's destination. Returns the first block
  /// that is paired or not pass-through (the caller then reports any
  /// residual mismatch).
  int resolveInserted(int B) const {
    for (int Steps = 0; B >= NV && Steps <= Phys.getNumBlocks(); ++Steps) {
      const SuccessorList &S = Succs[static_cast<size_t>(B)];
      if (S.size() != 1)
        break;
      B = S[0];
    }
    return B;
  }

  /// Record a failure; diagnostics (and their witness strings) are only
  /// built during the reporting pass.
  template <typename MsgFn, typename WitFn>
  void reportLazy(int Block, int Instr, MsgFn &&Msg, WitFn &&Wit) {
    Failed = true;
    if (Block >= 0 && Block < static_cast<int>(BlockFailed.size()))
      BlockFailed[static_cast<size_t>(Block)] = 1;
    if (!Reporting)
      return;
    Diagnostic &D = Engine.report(Severity::Error, "translation-validation",
                                  Msg());
    D.Thread = Virt.Name;
    D.Block = Block;
    D.Instr = Instr;
    D.Witness = Wit();
  }

  void report(int Block, int Instr, std::string Message,
              std::string Witness) {
    reportLazy(
        Block, Instr, [&] { return std::move(Message); },
        [&] { return std::move(Witness); });
  }

  /// "physical `<I>` | virtual `<J>` | path: b0 -> b2" style witness.
  std::string makeWitness(int Block, const Instruction *PI,
                          const Instruction *VI) const;
  std::string blockPathFromEntry(int Block) const;
};

std::string ThreadValidator::blockPathFromEntry(int Block) const {
  // BFS over the physical CFG for a shortest witness path.
  std::vector<int> Parent(static_cast<size_t>(Phys.getNumBlocks()), -2);
  std::deque<int> Queue;
  Parent[static_cast<size_t>(Phys.getEntryBlock())] = -1;
  Queue.push_back(Phys.getEntryBlock());
  while (!Queue.empty()) {
    int B = Queue.front();
    Queue.pop_front();
    if (B == Block)
      break;
    for (int S : Phys.successors(B))
      if (Parent[static_cast<size_t>(S)] == -2) {
        Parent[static_cast<size_t>(S)] = B;
        Queue.push_back(S);
      }
  }
  if (Parent[static_cast<size_t>(Block)] == -2)
    return "unreachable";
  std::vector<int> Path;
  for (int B = Block; B != -1; B = Parent[static_cast<size_t>(B)])
    Path.push_back(B);
  std::reverse(Path.begin(), Path.end());
  std::string Out;
  for (int B : Path) {
    if (!Out.empty())
      Out += " -> ";
    std::string_view Name = Phys.blockName(B);
    Out += Name.empty() ? "b" + std::to_string(B) : std::string(Name);
  }
  return Out;
}

std::string ThreadValidator::makeWitness(int Block, const Instruction *PI,
                                         const Instruction *VI) const {
  std::string W;
  if (PI)
    W += "physical `" + formatInstruction(Phys, *PI) + "`";
  if (VI) {
    if (!W.empty())
      W += " | ";
    W += "virtual `" + formatInstruction(Virt, *VI) + "`";
  }
  if (!W.empty())
    W += " | ";
  W += "path: " + blockPathFromEntry(Block);
  return W;
}

SymState ThreadValidator::makeEntryState() {
  SymState S;
  S.VV.assign(static_cast<size_t>(VVSize), kUnknown);
  S.PV.assign(static_cast<size_t>(PVSize), kUnknown);
  // Positional pairing of the entry-live lists; pair i shares one value
  // number between the virtual and the physical register. Intra-thread
  // coloring parks *unreferenced* entry-live registers on color 0, so a
  // physical register can appear in several pairs — seed unreferenced
  // pairs first so the referenced pair's value survives the collision.
  BitVector Referenced(Virt.NumRegs);
  for (int B = 0; B < Virt.getNumBlocks(); ++B)
    for (const Instruction &I : Virt.block(B).Instrs) {
      if (I.Def != NoReg)
        Referenced.set(I.Def);
      std::array<Reg, 2> Uses;
      int N = I.getUses(Uses);
      for (int U = 0; U < N; ++U)
        Referenced.set(Uses[static_cast<size_t>(U)]);
    }
  size_t NPairs =
      std::min(Virt.EntryLiveRegs.size(), Phys.EntryLiveRegs.size());
  std::vector<int32_t> PairVN(NPairs);
  for (size_t I = 0; I < NPairs; ++I)
    PairVN[I] = freshVN();
  for (int Pass = 0; Pass < 2; ++Pass)
    for (size_t I = 0; I < NPairs; ++I) {
      Reg V = Virt.EntryLiveRegs[I];
      bool IsRef = V >= 0 && V < Virt.NumRegs && Referenced.test(V);
      if (static_cast<int>(IsRef) != Pass)
        continue;
      if (V >= 0 && V < VVSize)
        S.VV[static_cast<size_t>(V)] = PairVN[I];
      Reg P = Phys.EntryLiveRegs[I];
      if (P >= 0 && P < PVSize)
        S.PV[static_cast<size_t>(P)] = PairVN[I];
    }
  return S;
}

void ThreadValidator::joinStates(const std::vector<const SymState *> &Preds,
                                 SymState &R) {
  // Intersection-style unification: a location survives the join when it is
  // known in every predecessor; locations with identical per-predecessor
  // value signatures share one fresh value. A register clobbered on any
  // incoming path stays clobbered. The output is already in canonical form
  // (group numbers in first-occurrence order).
  if (Preds.size() == 1) {
    canonicalizeInto(*Preds[0], R);
    return;
  }
  R.VV.assign(static_cast<size_t>(VVSize), kUnknown);
  R.PV.assign(static_cast<size_t>(PVSize), kUnknown);
  R.Slots.clear();
  if (Preds.size() == 2) {
    // Two predecessors is the overwhelmingly common join shape; the
    // signature is two value numbers, which pack into one uint64 keyed into
    // the flat JoinGroups table instead of a map of vectors.
    JoinGroups.clear();
    if (static_cast<int32_t>(DiagVal.size()) < MaxVNEver) {
      DiagVal.resize(static_cast<size_t>(MaxVNEver));
      DiagEpoch.resize(static_cast<size_t>(MaxVNEver), 0);
    }
    ++DiagCur;
    int32_t NumGroups = 0;
    const SymState &A = *Preds[0];
    const SymState &B = *Preds[1];
    auto joinLoc2 = [&](int32_t Av, int32_t Bv) -> int32_t {
      if (Av < 0 || Bv < 0)
        return std::min(Av, Bv); // kClobbered wins over kUnknown
      if (Av == Bv) {
        // Diagonal signature: direct table instead of the hash probe.
        const auto I = static_cast<size_t>(Av);
        if (DiagEpoch[I] != DiagCur) {
          DiagEpoch[I] = DiagCur;
          DiagVal[I] = NumGroups++;
        }
        return DiagVal[I];
      }
      const uint64_t Key =
          static_cast<uint64_t>(static_cast<uint32_t>(Av)) << 32 |
          static_cast<uint32_t>(Bv);
      return JoinGroups.findOrInsert(Key, NumGroups);
    };
    for (int I = 0; I < VVSize; ++I)
      R.VV[static_cast<size_t>(I)] = joinLoc2(A.VV[static_cast<size_t>(I)],
                                              B.VV[static_cast<size_t>(I)]);
    for (int I = 0; I < PVSize; ++I)
      R.PV[static_cast<size_t>(I)] = joinLoc2(A.PV[static_cast<size_t>(I)],
                                              B.PV[static_cast<size_t>(I)]);
    for (const auto &[Addr, V] : A.Slots) {
      int32_t J = joinLoc2(V, B.slotGet(Addr));
      if (J != kUnknown)
        R.Slots.push_back({Addr, J}); // sorted: A.Slots is sorted
    }
    LastVNCount = NumGroups;
    MaxVNEver = std::max(MaxVNEver, NumGroups);
    return;
  }
  std::map<std::vector<int32_t>, int32_t> Groups;
  std::vector<int32_t> Sig(Preds.size());
  // Returns the joined value number for one location; kClobbered when
  // clobbered in any predecessor, else kUnknown when unknown in any.
  // \p Floor is the least state the location can hold (kClobbered for a
  // physical register, kUnknown otherwise): once reached, it is the join.
  auto joinLoc = [&](int32_t First, auto lookup, int32_t Floor) -> int32_t {
    int32_t Least = First;
    Sig[0] = First;
    for (size_t P = 1; P < Preds.size() && Least > Floor; ++P) {
      Sig[P] = lookup(*Preds[P]);
      Least = std::min(Least, Sig[P]);
    }
    if (Least < 0)
      return Least;
    auto [It, Inserted] =
        Groups.emplace(Sig, static_cast<int32_t>(Groups.size()));
    (void)Inserted;
    return It->second;
  };
  for (int I = 0; I < VVSize; ++I)
    R.VV[static_cast<size_t>(I)] =
        joinLoc(Preds[0]->VV[static_cast<size_t>(I)],
                [I](const SymState &S) { return S.VV[static_cast<size_t>(I)]; },
                kUnknown);
  for (int I = 0; I < PVSize; ++I)
    R.PV[static_cast<size_t>(I)] =
        joinLoc(Preds[0]->PV[static_cast<size_t>(I)],
                [I](const SymState &S) { return S.PV[static_cast<size_t>(I)]; },
                kClobbered);
  for (const auto &[A, V] : Preds[0]->Slots) {
    const int64_t Addr = A;
    int32_t J = joinLoc(
        V, [Addr](const SymState &S) { return S.slotGet(Addr); }, kUnknown);
    if (J != kUnknown)
      R.Slots.push_back({Addr, J}); // sorted: Preds[0]->Slots is sorted
  }
  LastVNCount = static_cast<int32_t>(Groups.size());
  MaxVNEver = std::max(MaxVNEver, LastVNCount);
}

void ThreadValidator::reportPrivacyBreach(const SymState &S, int B,
                                          const Instruction &PI, int PIdx) {
  std::array<Reg, 2> Uses;
  const int N = PI.getUses(Uses);
  for (int U = 0; U < N; ++U) {
    const Reg R = Uses[static_cast<size_t>(U)];
    if (R >= PVSize || S.PV[static_cast<size_t>(R)] != kClobbered ||
        (U == 1 && R == Uses[0]))
      continue;
    reportLazy(
        B, PIdx,
        [&] {
          const int Owner = ClobberOwner[static_cast<size_t>(R)];
          return "register " + Phys.getRegName(R) +
                 " is live across a CSB of thread '" + Phys.Name +
                 "' but referenced by thread '" +
                 PhysAll.Threads[static_cast<size_t>(Owner)].Name + "'";
        },
        [&] { return makeWitness(B, &PI, nullptr); });
  }
}

void ThreadValidator::transfer(SymState &S, int B) {
  const BasicBlock &PB = Phys.block(B);
  const bool Paired = B < NV;
  const BasicBlock *VB = Paired ? &Virt.block(B) : nullptr;
  size_t VI = 0;
  BlockFailed[static_cast<size_t>(B)] = 0;
  BlockMatched[static_cast<size_t>(B)] = 0;
  BlockCopies[static_cast<size_t>(B)] = 0;

  auto vvGet = [&](Reg R) {
    return R >= 0 && R < VVSize ? S.VV[static_cast<size_t>(R)] : kUnknown;
  };
  auto pvGet = [&](Reg R) {
    return R >= 0 && R < PVSize ? S.PV[static_cast<size_t>(R)] : kUnknown;
  };
  // What a copy reads: a clobbered register holds nothing known (the read
  // itself is refuted by checkPrivacy).
  auto pvRead = [&](Reg R) {
    const int32_t V = pvGet(R);
    return V == kClobbered ? kUnknown : V;
  };

  // A known virtual value constrains the physical register read in its
  // place; an unknown one (a possibly-uninitialised read) is refined by
  // any physical value.
  auto carries = [&](Reg VR, Reg PR) {
    const int32_t A = vvGet(VR);
    return A == kUnknown || A == pvGet(PR);
  };

  // Consume the virtual instructions the allocator is allowed to erase:
  // moves (MoveElimination deletes them) and nops.
  auto drainVirtual = [&] {
    while (VB && VI < VB->Instrs.size()) {
      const Instruction &I = VB->Instrs[VI];
      if (I.Op == Opcode::Mov)
        S.VV[static_cast<size_t>(I.Def)] = vvGet(I.Use1);
      else if (I.Op != Opcode::Nop)
        break;
      ++VI;
    }
  };

  // Match physical xor \p P to the pending virtual instruction without
  // reporting: it must be a xor whose operands carry the same values, in
  // order, and both defs then share one fresh value.
  auto matchXor = [&](const Instruction &P) {
    drainVirtual();
    if (!VB || VI >= VB->Instrs.size())
      return false;
    const Instruction &V = VB->Instrs[VI];
    if (V.Op != Opcode::Xor || !carries(V.Use1, P.Use1) ||
        !carries(V.Use2, P.Use2))
      return false;
    const int32_t VN = freshVN();
    S.VV[static_cast<size_t>(V.Def)] = VN;
    S.PV[static_cast<size_t>(P.Def)] = VN;
    ++VI;
    return true;
  };

  // A context-switch boundary hands the register file's shared portion to
  // the other threads: clobber every physical register another thread
  // references and forget every scratch word another thread writes.
  auto clobber = [&] {
    for (Reg P : ClobberRegs)
      S.PV[static_cast<size_t>(P)] = kClobbered;
    for (int64_t A : ClobberSlots)
      S.slotErase(A);
  };

  for (size_t PIdx = 0; PIdx < PB.Instrs.size(); ++PIdx) {
    const Instruction &PI = PB.Instrs[PIdx];
    const int PIdxI = static_cast<int>(PIdx);

    if (PI.Op == Opcode::Nop)
      continue;
    // CSB privacy: a register live across a CSB must be private. Any read
    // of a clobbered register refutes the thread, copies and spill stores
    // included, whether or not the value reaches a checked operand.
    if (pvGet(PI.Use1) == kClobbered || pvGet(PI.Use2) == kClobbered)
      reportPrivacyBreach(S, B, PI, PIdxI);
    if (PI.Op == Opcode::Mov) {
      S.PV[static_cast<size_t>(PI.Def)] = pvRead(PI.Use1);
      ++BlockCopies[static_cast<size_t>(B)];
      continue;
    }
    // A swap is read as a whole before any of its xors is matched alone.
    // Its three xors are matched like any other instructions when the
    // pending virtual instructions compute the same swap (live-range
    // renaming may give each xor its own registers); otherwise the swap is
    // copy code and exchanges the two registers. Matching its first xor
    // alone would be wrong where a copy swap precedes a virtual xor whose
    // operands sit in the two swapped registers.
    if (isXorSwap(PB.Instrs, PIdx)) {
      SwapUndo = S;
      const size_t VI0 = VI;
      const int32_t NextVN0 = NextVN;
      if (matchXor(PI) && matchXor(PB.Instrs[PIdx + 1]) &&
          matchXor(PB.Instrs[PIdx + 2])) {
        BlockMatched[static_cast<size_t>(B)] += 3;
      } else {
        std::swap(S, SwapUndo);
        VI = VI0;
        NextVN = NextVN0;
        const int32_t A = pvRead(PI.Def);
        S.PV[static_cast<size_t>(PI.Def)] = pvRead(PI.Use2);
        S.PV[static_cast<size_t>(PI.Use2)] = A;
        BlockCopies[static_cast<size_t>(B)] += 3;
      }
      PIdx += 2;
      continue;
    }
    // Absolute accesses outside every virtual thread's address set are
    // spill code: they move values between registers and scratch slots.
    if (PI.Op == Opcode::LoadA &&
        !std::binary_search(VirtualAbsAddrs.begin(), VirtualAbsAddrs.end(),
                            PI.Imm)) {
      int32_t V = S.slotGet(PI.Imm);
      clobber(); // transfer-register semantics: def lands after the switch
      S.PV[static_cast<size_t>(PI.Def)] = V;
      ++BlockCopies[static_cast<size_t>(B)];
      continue;
    }
    if (PI.Op == Opcode::StoreA &&
        !std::binary_search(VirtualAbsAddrs.begin(), VirtualAbsAddrs.end(),
                            PI.Imm)) {
      int32_t V = pvRead(PI.Use1);
      clobber();
      if (V != kUnknown)
        S.slotSet(PI.Imm, V);
      else
        S.slotErase(PI.Imm);
      ++BlockCopies[static_cast<size_t>(B)];
      continue;
    }

    if (!Paired) {
      // Inserted blocks (spill pre-entry) may only hold interpreted copies
      // and the closing unconditional branch.
      if (PI.Op == Opcode::Br)
        continue;
      reportLazy(
          B, PIdxI,
          [] {
            return std::string("inserted block contains an instruction "
                               "that is not allocator copy code");
          },
          [&] { return makeWitness(B, &PI, nullptr); });
      if (PI.causesCtxSwitch())
        clobber();
      if (PI.Def != NoReg)
        S.PV[static_cast<size_t>(PI.Def)] = freshVN();
      continue;
    }

    drainVirtual();
    if (VI >= VB->Instrs.size()) {
      reportLazy(
          B, PIdxI,
          [] {
            return std::string(
                "physical instruction has no virtual counterpart");
          },
          [&] { return makeWitness(B, &PI, nullptr); });
      if (PI.causesCtxSwitch())
        clobber();
      if (PI.Def != NoReg)
        S.PV[static_cast<size_t>(PI.Def)] = freshVN();
      continue;
    }
    const Instruction &VIn = VB->Instrs[VI];
    // A physical branch may detour through an inserted edge-split block
    // holding parallel copies; it still realises the virtual branch to the
    // chain's destination.
    const bool TargetMatches =
        VIn.Target == PI.Target ||
        (PI.Target >= NV && VIn.Target == resolveInserted(PI.Target));
    if (VIn.Op != PI.Op || VIn.Imm != PI.Imm || !TargetMatches) {
      reportLazy(
          B, PIdxI,
          [] {
            return std::string("physical instruction does not match the "
                               "pending virtual instruction");
          },
          [&] { return makeWitness(B, &PI, &VIn); });
      if (PI.causesCtxSwitch())
        clobber();
      if (VIn.Def != NoReg)
        S.VV[static_cast<size_t>(VIn.Def)] = freshVN();
      if (PI.Def != NoReg)
        S.PV[static_cast<size_t>(PI.Def)] = freshVN();
      ++VI;
      continue;
    }
    auto checkOperand = [&](Reg VR, Reg PR) {
      if (VR == NoReg ? PR == NoReg
                      : carries(VR, PR) || pvGet(PR) == kClobbered)
        return; // a clobbered read is already refuted by checkPrivacy
      reportLazy(
          B, PIdxI,
          [&] {
            return "operand '" +
                   (PR == NoReg ? std::string("<none>")
                                : Phys.getRegName(PR)) +
                   "' does not carry the value of virtual '" +
                   (VR == NoReg ? std::string("<none>")
                                : Virt.getRegName(VR)) +
                   "'";
          },
          [&] { return makeWitness(B, &PI, &VIn); });
    };
    checkOperand(VIn.Use1, PI.Use1);
    if (!(VIn.Use2 == VIn.Use1 && PI.Use2 == PI.Use1))
      checkOperand(VIn.Use2, PI.Use2); // same pair twice: report once
    ++BlockMatched[static_cast<size_t>(B)];
    if (PI.causesCtxSwitch())
      clobber();
    if (VIn.Def != NoReg || PI.Def != NoReg) {
      int32_t VN = freshVN();
      if (VIn.Def != NoReg)
        S.VV[static_cast<size_t>(VIn.Def)] = VN;
      if (PI.Def != NoReg)
        S.PV[static_cast<size_t>(PI.Def)] = VN;
    }
    ++VI;
  }

  if (Paired) {
    drainVirtual();
    if (VI < VB->Instrs.size()) {
      reportLazy(
          B, static_cast<int>(VI),
          [] {
            return std::string(
                "virtual instruction has no physical counterpart");
          },
          [&] { return makeWitness(B, nullptr, &VB->Instrs[VI]); });
      for (; VI < VB->Instrs.size(); ++VI)
        if (VB->Instrs[VI].Def != NoReg)
          S.VV[static_cast<size_t>(VB->Instrs[VI].Def)] = freshVN();
    }
    const SuccessorList &PS = Succs[static_cast<size_t>(B)];
    const SuccessorList &VS = VirtSuccs[static_cast<size_t>(B)];
    bool SuccsMatch = PS.size() == VS.size();
    for (size_t I = 0; SuccsMatch && I < PS.size(); ++I)
      SuccsMatch = resolveInserted(PS[I]) == VS[I];
    if (!SuccsMatch)
      reportLazy(
          B, -1,
          [] {
            return std::string("block successors differ between the "
                               "virtual and the physical program");
          },
          [&] { return makeWitness(B, nullptr, nullptr); });
  }
}

bool ThreadValidator::run() {
  const int NP = Phys.getNumBlocks();
  if (NP < NV) {
    Reporting = true;
    report(-1, -1,
           "physical program has " + std::to_string(NP) +
               " block(s) but the virtual program has " + std::to_string(NV),
           "");
    return false;
  }
  if (Virt.EntryLiveRegs.size() != Phys.EntryLiveRegs.size()) {
    Reporting = true;
    report(-1, -1,
           "entry-live register lists differ in length (" +
               std::to_string(Virt.EntryLiveRegs.size()) + " virtual vs " +
               std::to_string(Phys.EntryLiveRegs.size()) + " physical)",
           "");
    return false;
  }

  Succs.resize(static_cast<size_t>(NP));
  for (int B = 0; B < NP; ++B)
    Succs[static_cast<size_t>(B)] = Phys.successors(B);
  VirtSuccs.resize(static_cast<size_t>(NV));
  for (int B = 0; B < NV; ++B)
    VirtSuccs[static_cast<size_t>(B)] = Virt.successors(B);
  BlockFailed.assign(static_cast<size_t>(NP), 0);
  BlockMatched.assign(static_cast<size_t>(NP), 0);
  BlockCopies.assign(static_cast<size_t>(NP), 0);

  // Fixpoint: per-block symbolic states over the physical CFG. In[] (and
  // its HasIn validity flag) is only materialised at multi-predecessor
  // blocks, where the canonical join is compared against it to detect
  // convergence; chain blocks read their predecessor's Out directly.
  std::vector<SymState> In(static_cast<size_t>(NP));
  std::vector<SymState> Out(static_cast<size_t>(NP));
  std::vector<char> HasIn(static_cast<size_t>(NP), 0);
  std::vector<char> HasOut(static_cast<size_t>(NP), 0);
  std::vector<char> Reached(static_cast<size_t>(NP), 0);
  std::vector<std::vector<int>> Preds = Phys.computePredecessors();

  const std::vector<int> RPO = Phys.computeRPO();
  std::vector<int> RPOPos(static_cast<size_t>(NP), NP);
  for (size_t I = 0; I < RPO.size(); ++I)
    RPOPos[static_cast<size_t>(RPO[I])] = static_cast<int>(I);

  const int Entry = Phys.getEntryBlock();
  // The boundary state acts as a pseudo-predecessor of the entry block so
  // that loops back to entry join against the entry facts instead of
  // overwriting them.
  const SymState BoundaryOut = makeEntryState();
  const int32_t BoundaryVNBound = NextVN;
  // InVNCount[B] is an exclusive upper bound on the value numbers in
  // In[B] — the first number a transfer from In[B] may mint. Multi-pred
  // joins produce canonical states (VNs 0..k-1); chain blocks inherit
  // their predecessor's exit state and bound verbatim.
  std::vector<int32_t> InVNCount(static_cast<size_t>(NP), 0);
  std::vector<int32_t> OutVNBound(static_cast<size_t>(NP), 0);

  // RPO-priority worklist with lazy joins: a popped block recomputes its
  // entry state from its predecessors' *current* exit states, so a merge
  // point is joined once per visit instead of once per incoming edge, and
  // predecessors usually stabilise before their successors. The worklist
  // is a queued bitmap popped in RPO order (block counts are small enough
  // that a linear scan beats any heap), and the join/transfer results go
  // through two scratch states that are swapped into In/Out — after the
  // first lap around the CFG the fixpoint allocates nothing.
  std::vector<char> Queued(static_cast<size_t>(NP), 0);
  int NumQueued = 0;
  auto enqueue = [&](int B) {
    if (!Queued[static_cast<size_t>(B)]) {
      Queued[static_cast<size_t>(B)] = 1;
      ++NumQueued;
    }
  };
  enqueue(Entry);
  std::vector<const SymState *> Ins;
  SymState JoinScratch, OutScratch;
  int PopBudget = 64 * (NP + 1) + 64;
  while (NumQueued > 0) {
    if (--PopBudget < 0) {
      Reporting = true;
      report(-1, -1,
             "translation validator failed to converge (internal iteration "
             "limit reached)",
             "");
      return false;
    }
    int B = -1;
    for (int C : RPO) // RPO covers every block, unreachable ones last
      if (Queued[static_cast<size_t>(C)]) {
        B = C;
        break;
      }
    Queued[static_cast<size_t>(B)] = 0;
    --NumQueued;

    Ins.clear();
    int LastPred = -1;
    if (B == Entry)
      Ins.push_back(&BoundaryOut);
    for (int P : Preds[static_cast<size_t>(B)])
      if (HasOut[static_cast<size_t>(P)]) {
        Ins.push_back(&Out[static_cast<size_t>(P)]);
        LastPred = P;
      }
    if (Ins.empty())
      continue; // no reachable predecessor yet; a later pop requeues us
    if (Ins.size() == 1) {
      // A single incoming state propagates verbatim: canonical renaming is
      // only needed where states merge. A chain block is only ever queued
      // because that one predecessor's exit state changed (or on first
      // visit), so there is nothing to compare — transfer directly from
      // the predecessor's Out. Chain blocks still converge: transfers are
      // deterministic, so a bit-identical entry state yields a
      // bit-identical exit state, and every reachable cycle contains a
      // multi-predecessor join (its header merges the entry edge with the
      // back edge) whose canonical output bounds the cycle's value numbers.
      OutScratch = *Ins[0];
      InVNCount[static_cast<size_t>(B)] =
          LastPred >= 0 ? OutVNBound[static_cast<size_t>(LastPred)]
                        : BoundaryVNBound;
    } else {
      joinStates(Ins, JoinScratch);
      const bool InChanged = !HasIn[static_cast<size_t>(B)] ||
                             !(JoinScratch == In[static_cast<size_t>(B)]);
      if (InChanged) {
        std::swap(In[static_cast<size_t>(B)], JoinScratch);
        InVNCount[static_cast<size_t>(B)] = LastVNCount;
        HasIn[static_cast<size_t>(B)] = 1;
      } else if (HasOut[static_cast<size_t>(B)]) {
        continue; // same entry state as the last transfer: nothing new
      }
      OutScratch = In[static_cast<size_t>(B)];
    }
    Reached[static_cast<size_t>(B)] = 1;

    NextVN = InVNCount[static_cast<size_t>(B)];
    transfer(OutScratch, B);
    OutVNBound[static_cast<size_t>(B)] = NextVN;
    // Transfers are deterministic in the entry state, so an unchanged exit
    // state cannot change any successor's join — skip the requeues.
    if (HasOut[static_cast<size_t>(B)] &&
        OutScratch == Out[static_cast<size_t>(B)])
      continue;
    std::swap(Out[static_cast<size_t>(B)], OutScratch);
    HasOut[static_cast<size_t>(B)] = 1;
    for (int Succ : Succs[static_cast<size_t>(B)])
      enqueue(Succ);
  }

  // Each block's last transfer used its final entry state (the worklist
  // requeues on every change), so the per-block outcomes are already the
  // verdict. The deterministic reporting pass over the stabilised states
  // is only needed to build diagnostics when something failed.
  auto sumCounters = [&] {
    for (int B = 0; B < NP; ++B)
      if (Reached[static_cast<size_t>(B)]) {
        InstructionsMatched += BlockMatched[static_cast<size_t>(B)];
        CopiesInterpreted += BlockCopies[static_cast<size_t>(B)];
      }
  };
  bool AnyFailed = false;
  for (int B = 0; B < NP; ++B)
    AnyFailed = AnyFailed ||
                (Reached[static_cast<size_t>(B)] &&
                 BlockFailed[static_cast<size_t>(B)]);
  if (!AnyFailed) {
    sumCounters();
    return true;
  }

  Reporting = true;
  Failed = false;
  for (int B : RPO) {
    if (!Reached[static_cast<size_t>(B)])
      continue; // unreachable: never executes, nothing to prove
    // Rebuild the block's final entry state the same way the fixpoint
    // did: the stored canonical join at merge blocks, the predecessor's
    // final exit state along chains.
    if (HasIn[static_cast<size_t>(B)]) {
      OutScratch = In[static_cast<size_t>(B)];
    } else {
      const SymState *Single = B == Entry ? &BoundaryOut : nullptr;
      for (int P : Preds[static_cast<size_t>(B)])
        if (HasOut[static_cast<size_t>(P)])
          Single = &Out[static_cast<size_t>(P)];
      if (!Single)
        continue;
      OutScratch = *Single;
    }
    NextVN = InVNCount[static_cast<size_t>(B)];
    transfer(OutScratch, B);
  }
  sumCounters();
  return !Failed;
}

} // namespace

ValidationResult npral::validateTranslation(const MultiThreadProgram &Virt,
                                            const MultiThreadProgram &Phys,
                                            DiagnosticEngine &Engine,
                                            MetricsRegistry *Metrics) {
  ValidationResult R;
  if (Virt.getNumThreads() != Phys.getNumThreads()) {
    Diagnostic &D =
        Engine.report(Severity::Error, "translation-validation",
                      "physical program has " +
                          std::to_string(Phys.getNumThreads()) +
                          " thread(s) but the virtual program has " +
                          std::to_string(Virt.getNumThreads()));
    D.Thread = Phys.Name;
    if (Metrics)
      Metrics->counter("validator.rejected").increment();
    return R;
  }
  const int Nthd = Virt.getNumThreads();

  // Every absolute address any virtual thread touches; physical loada /
  // storea outside this set are spill code. Sorted for the binary search
  // the transfer function does per memory instruction.
  std::vector<int64_t> VirtualAbsAddrs;
  for (const Program &T : Virt.Threads)
    for (const BasicBlock &BB : T.Blocks)
      for (const Instruction &I : BB.Instrs)
        if (I.Op == Opcode::LoadA || I.Op == Opcode::StoreA)
          VirtualAbsAddrs.push_back(I.Imm);
  std::sort(VirtualAbsAddrs.begin(), VirtualAbsAddrs.end());
  VirtualAbsAddrs.erase(
      std::unique(VirtualAbsAddrs.begin(), VirtualAbsAddrs.end()),
      VirtualAbsAddrs.end());

  // Per-thread clobber sets: physical registers the *other* threads
  // reference (entry-live ones included, as the safety verifier counts
  // them) and scratch words they write.
  int MaxPhysRegs = 1;
  for (const Program &T : Phys.Threads)
    MaxPhysRegs = std::max(MaxPhysRegs, T.NumRegs);
  std::vector<BitVector> Refs(static_cast<size_t>(Nthd),
                              BitVector(MaxPhysRegs));
  std::vector<std::set<int64_t>> SlotWrites(static_cast<size_t>(Nthd));
  for (int T = 0; T < Nthd; ++T) {
    const Program &P = Phys.Threads[static_cast<size_t>(T)];
    for (Reg E : P.EntryLiveRegs)
      Refs[static_cast<size_t>(T)].set(E);
    for (const BasicBlock &BB : P.Blocks)
      for (const Instruction &I : BB.Instrs) {
        if (I.Def != NoReg)
          Refs[static_cast<size_t>(T)].set(I.Def);
        std::array<Reg, 2> Uses;
        int N = I.getUses(Uses);
        for (int U = 0; U < N; ++U)
          Refs[static_cast<size_t>(T)].set(Uses[static_cast<size_t>(U)]);
        if (I.Op == Opcode::StoreA)
          SlotWrites[static_cast<size_t>(T)].insert(I.Imm);
      }
  }

  R.Proved = true;
  for (int T = 0; T < Nthd; ++T) {
    std::set<int64_t> OtherSlotWrites;
    for (int U = 0; U < Nthd; ++U)
      if (U != T)
        OtherSlotWrites.insert(SlotWrites[static_cast<size_t>(U)].begin(),
                               SlotWrites[static_cast<size_t>(U)].end());
    ThreadValidator TV(Virt.Threads[static_cast<size_t>(T)], Phys, T, Refs,
                       OtherSlotWrites, VirtualAbsAddrs, Engine);
    if (TV.run())
      ++R.ThreadsProved;
    else
      R.Proved = false;
    R.InstructionsMatched += TV.InstructionsMatched;
    R.CopiesInterpreted += TV.CopiesInterpreted;
  }

  if (Metrics) {
    Metrics->counter(R.Proved ? "validator.proved" : "validator.rejected")
        .increment();
    Metrics->counter("validator.instructions_matched")
        .add(R.InstructionsMatched);
    Metrics->counter("validator.copies_interpreted")
        .add(R.CopiesInterpreted);
  }
  return R;
}

int npral::crossCheckDecisionLog(const AllocationDecisionLog &Log,
                                 const InterThreadResult &Result,
                                 DiagnosticEngine &Engine,
                                 MetricsRegistry *Metrics) {
  int Mismatches = 0;
  auto bad = [&](std::string Message) {
    ++Mismatches;
    Engine.report(Severity::Error, "validator-log", std::move(Message));
  };

  if (Log.Success != Result.Success)
    bad(std::string("decision log says the allocation ") +
        (Log.Success ? "succeeded" : "failed") +
        " but the result says otherwise");
  if (Result.Success) {
    const int Nthd = static_cast<int>(Result.Threads.size());
    if (static_cast<int>(Log.FinalPR.size()) != Nthd ||
        static_cast<int>(Log.FinalSR.size()) != Nthd) {
      bad("decision log's final budgets cover " +
          std::to_string(Log.FinalPR.size()) + " thread(s) but the result "
          "has " + std::to_string(Nthd));
    } else {
      for (int T = 0; T < Nthd; ++T) {
        const ThreadAllocation &TA = Result.Threads[static_cast<size_t>(T)];
        if (Log.FinalPR[static_cast<size_t>(T)] != TA.PR ||
            Log.FinalSR[static_cast<size_t>(T)] != TA.SR)
          bad("decision log's final (PR, SR) for thread " +
              std::to_string(T) + " is (" +
              std::to_string(Log.FinalPR[static_cast<size_t>(T)]) + ", " +
              std::to_string(Log.FinalSR[static_cast<size_t>(T)]) +
              ") but the result has (" + std::to_string(TA.PR) + ", " +
              std::to_string(TA.SR) + ")");
      }
    }
    if (Log.SGR != Result.SGR)
      bad("decision log records SGR " + std::to_string(Log.SGR) +
          " but the result has " + std::to_string(Result.SGR));
    if (Log.RegistersUsed != Result.RegistersUsed)
      bad("decision log records " + std::to_string(Log.RegistersUsed) +
          " registers used but the result has " +
          std::to_string(Result.RegistersUsed));
    if (Log.TotalWeightedCost != Result.TotalWeightedCost)
      bad("decision log records weighted cost " +
          std::to_string(Log.TotalWeightedCost) + " but the result has " +
          std::to_string(Result.TotalWeightedCost));
  }

  // The greedy-argmin invariant: every reduction step's chosen delta must
  // equal the minimum over the bids it actually priced.
  for (const ReductionStep &Step : Log.Reductions) {
    if (Step.Chosen == ReductionStep::ChoseSweepFallback)
      continue;
    if (Step.Bids.empty()) {
      bad("reduction step " + std::to_string(Step.StepIndex) +
          " chose a candidate without recording any bids");
      continue;
    }
    int64_t MinDelta = Step.Bids.front().Delta;
    for (const ReductionBid &Bid : Step.Bids)
      MinDelta = std::min(MinDelta, Bid.Delta);
    if (Step.ChosenDelta != MinDelta)
      bad("reduction step " + std::to_string(Step.StepIndex) +
          " chose delta " + std::to_string(Step.ChosenDelta) +
          " but the minimum bid was " + std::to_string(MinDelta));
    if (Step.Chosen == ReductionStep::ChosePR && Step.VictimThread < 0)
      bad("reduction step " + std::to_string(Step.StepIndex) +
          " reduced a thread's PR without naming the victim thread");
    if (Step.RequirementAfter != Step.RequirementBefore - 1)
      bad("reduction step " + std::to_string(Step.StepIndex) +
          " moved the requirement from " +
          std::to_string(Step.RequirementBefore) + " to " +
          std::to_string(Step.RequirementAfter) +
          " instead of reducing it by one");
  }

  if (Metrics) {
    Metrics->counter("validator.log_crosschecks").increment();
    Metrics->counter("validator.log_mismatches").add(Mismatches);
  }
  return Mismatches;
}
