//===- LiveRangeRenaming.cpp ----------------------------------------------===//
//
// Web discovery runs word-parallel: one flat union-find over the live
// (register, program point) pairs, with unions driven by walking the live
// sets of adjacent points together and uniting only the co-live bits.
// Register assignment then replays per-register reference events in the
// exact order the original per-register implementation visited them
// (entry component first, uses before defs within an instruction, dead
// defs last), so fresh register numbering and the ".w<k>"/".dead" names
// are bit-identical to the pre-rewrite pass.
//
//===----------------------------------------------------------------------===//

#include "analysis/LiveRangeRenaming.h"

#include "analysis/Liveness.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

using namespace npral;

namespace {

struct RefEvent {
  int32_t Block;
  int32_t Instr;
  uint8_t IsDef; ///< 0 = use slot(s), 1 = definition.
};

/// A register the replay created: web \p Web of \p Orig (".w<Web>"), or,
/// with Web < 0, one of its dead definitions (".dead").
struct FreshReg {
  Reg Orig;
  int32_t Web;
};

/// Walk the registers live in set \p A or set \p B (\p W words each) in
/// ascending order, calling \p Fn(RankA, RankB) with each one's rank among
/// the registers of A and of B (-1 where it is not in that set).
template <typename FnT>
void forEachLiveUnion(const uint64_t *A, const uint64_t *B, int W, FnT Fn) {
  int32_t RankA = 0, RankB = 0;
  for (int WI = 0; WI < W; ++WI) {
    uint64_t Word = A[WI] | B[WI];
    while (Word) {
      const uint64_t Bit = Word & -Word;
      Word &= Word - 1;
      const bool InA = A[WI] & Bit, InB = B[WI] & Bit;
      Fn(InA ? RankA : -1, InB ? RankB : -1);
      RankA += InA;
      RankB += InB;
    }
  }
}

} // namespace

Program npral::renameLiveRanges(Program Out) {
  LivenessInfo LI = computeLiveness(Out);

  const int NumBlocks = Out.getNumBlocks();
  const int OrigRegs = Out.NumRegs;
  const int W = (OrigRegs + 63) / 64;

  // Program points: block b contributes size(b)+1 points; point (b, i) is
  // "just before instruction i", the final point carries block live-out.
  std::vector<int32_t> PointBase(static_cast<size_t>(NumBlocks));
  int TotalPoints = 0;
  for (int B = 0; B < NumBlocks; ++B) {
    PointBase[static_cast<size_t>(B)] = TotalPoints;
    TotalPoints += static_cast<int>(Out.block(B).Instrs.size()) + 1;
  }
  auto pointId = [&](int B, int I) {
    return PointBase[static_cast<size_t>(B)] + I;
  };
  // Words of the live set at point (b, i); live-after-instruction slots in
  // the flat liveness pool double as the interior points.
  auto pointWords = [&](int B, int I) -> const uint64_t * {
    if (I == 0)
      return LI.blockLiveIn(B).words();
    return LI.instrLiveOut(B, I - 1).words();
  };
  auto liveAtPoint = [&](Reg R, int B, int I) {
    return (pointWords(B, I)[static_cast<size_t>(R) / 64] >> (R % 64)) & 1;
  };

  // Only live (register, point) pairs are ever united or looked up: a use
  // reads the value live before it, a def names a web only when live after
  // it, and the entry component is live at entry. So the union-find holds
  // just those pairs: point Pt's live registers take the ids
  // [LiveBase[Pt], LiveBase[Pt + 1]) in ascending register order.
  std::vector<int32_t> LiveBase(static_cast<size_t>(TotalPoints) + 1, 0);
  for (int B = 0; B < NumBlocks; ++B)
    for (int I = 0, N = static_cast<int>(Out.block(B).Instrs.size()); I <= N;
         ++I) {
      const uint64_t *L = pointWords(B, I);
      int32_t Count = 0;
      for (int WI = 0; WI < W; ++WI)
        Count += __builtin_popcountll(L[WI]);
      const size_t Pt = static_cast<size_t>(pointId(B, I));
      LiveBase[Pt + 1] = LiveBase[Pt] + Count;
    }
  auto pairId = [&](Reg R, int B, int I) {
    const uint64_t *L = pointWords(B, I);
    int32_t Rank = 0;
    for (int WI = 0; WI < R / 64; ++WI)
      Rank += __builtin_popcountll(L[WI]);
    Rank += __builtin_popcountll(L[R / 64] & ((uint64_t(1) << (R % 64)) - 1));
    return LiveBase[static_cast<size_t>(pointId(B, I))] + Rank;
  };

  std::vector<int32_t> Parent(
      static_cast<size_t>(LiveBase[static_cast<size_t>(TotalPoints)]));
  auto find = [&](int32_t X) {
    while (Parent[static_cast<size_t>(X)] != X) {
      Parent[static_cast<size_t>(X)] =
          Parent[static_cast<size_t>(Parent[static_cast<size_t>(X)])];
      X = Parent[static_cast<size_t>(X)];
    }
    return X;
  };

  // Within a block, a register live at consecutive points forms a run.
  // Walking each block forward, every pair joins the run of its
  // predecessor point by pointing straight at the run's first pair, which
  // stays a root until the CFG edges below are united.
  for (int B = 0; B < NumBlocks; ++B) {
    const int N = static_cast<int>(Out.block(B).Instrs.size());
    const size_t Entry = static_cast<size_t>(pointId(B, 0));
    for (int32_t Id = LiveBase[Entry]; Id < LiveBase[Entry + 1]; ++Id)
      Parent[static_cast<size_t>(Id)] = Id;
    for (int I = 0; I < N; ++I) {
      const int32_t BaseA = LiveBase[static_cast<size_t>(pointId(B, I))];
      const int32_t BaseB = LiveBase[static_cast<size_t>(pointId(B, I + 1))];
      forEachLiveUnion(pointWords(B, I), pointWords(B, I + 1), W,
                       [&](int32_t RankA, int32_t RankB) {
                         if (RankB < 0)
                           return;
                         const int32_t Id = BaseB + RankB;
                         Parent[static_cast<size_t>(Id)] =
                             RankA < 0
                                 ? Id
                                 : Parent[static_cast<size_t>(BaseA + RankA)];
                       });
    }
  }
  // Then unite across every CFG edge the registers live on both ends.
  for (int B = 0; B < NumBlocks; ++B) {
    const int N = static_cast<int>(Out.block(B).Instrs.size());
    const int32_t BaseA = LiveBase[static_cast<size_t>(pointId(B, N))];
    for (int S : Out.successors(B)) {
      const int32_t BaseB = LiveBase[static_cast<size_t>(pointId(S, 0))];
      forEachLiveUnion(pointWords(B, N), pointWords(S, 0), W,
                       [&](int32_t RankA, int32_t RankB) {
                         if (RankA < 0 || RankB < 0)
                           return;
                         const int32_t A = find(BaseA + RankA);
                         const int32_t C = find(BaseB + RankB);
                         if (A != C)
                           Parent[static_cast<size_t>(A)] = C;
                       });
    }
  }

  // Reference events per original register, in program order (uses before
  // the def of the same instruction) — counting-sorted into one flat buffer.
  std::vector<int32_t> EventStart(static_cast<size_t>(OrigRegs) + 1, 0);
  for (int B = 0; B < NumBlocks; ++B)
    for (const Instruction &Inst : Out.block(B).Instrs) {
      if (Inst.Use1 != NoReg || Inst.Use2 != NoReg) {
        if (Inst.Use1 != NoReg)
          ++EventStart[static_cast<size_t>(Inst.Use1) + 1];
        if (Inst.Use2 != NoReg && Inst.Use2 != Inst.Use1)
          ++EventStart[static_cast<size_t>(Inst.Use2) + 1];
      }
      if (Inst.Def != NoReg)
        ++EventStart[static_cast<size_t>(Inst.Def) + 1];
    }
  for (int R = 0; R < OrigRegs; ++R)
    EventStart[static_cast<size_t>(R) + 1] += EventStart[static_cast<size_t>(R)];
  std::vector<RefEvent> Events(
      static_cast<size_t>(EventStart[static_cast<size_t>(OrigRegs)]));
  std::vector<int32_t> Cursor(EventStart.begin(), EventStart.end() - 1);
  for (int B = 0; B < NumBlocks; ++B) {
    const BasicBlock &BB = Out.block(B);
    for (int I = 0; I < static_cast<int>(BB.Instrs.size()); ++I) {
      const Instruction &Inst = BB.Instrs[static_cast<size_t>(I)];
      auto push = [&](Reg R, uint8_t IsDef) {
        Events[static_cast<size_t>(Cursor[static_cast<size_t>(R)]++)] = {
            B, I, IsDef};
      };
      if (Inst.Use1 != NoReg)
        push(Inst.Use1, 0);
      if (Inst.Use2 != NoReg && Inst.Use2 != Inst.Use1)
        push(Inst.Use2, 0);
      if (Inst.Def != NoReg)
        push(Inst.Def, 1);
    }
  }

  // Replay: assign each web a register in first-seen order per original
  // register. The first component keeps the original register so most
  // programs are unchanged; later webs get fresh ".w<k>" registers and dead
  // defs ".dead" ones, numbered in the exact order the events occur.
  // Fresh registers are only counted here and named afterwards.
  std::vector<FreshReg> Fresh;
  Fresh.reserve(Events.size()); // each event creates at most one register
  std::vector<std::pair<int32_t, Reg>> Webs; // scratch: root -> register
  for (Reg R = 0; R < OrigRegs; ++R) {
    Webs.clear();
    bool KeepOriginalUsed = false;
    auto freshReg = [&](int32_t Web) {
      Fresh.push_back({R, Web});
      return static_cast<Reg>(OrigRegs + static_cast<int>(Fresh.size()) - 1);
    };
    auto regForRoot = [&](int32_t Root) -> Reg {
      for (const auto &[WebRoot, WebReg] : Webs)
        if (WebRoot == Root)
          return WebReg;
      Reg NewReg = R;
      if (KeepOriginalUsed)
        NewReg = freshReg(static_cast<int32_t>(Webs.size()));
      KeepOriginalUsed = true;
      Webs.push_back({Root, NewReg});
      return NewReg;
    };

    // Entry component first so entry-live registers keep their identity.
    if (LI.blockLiveIn(Out.getEntryBlock()).test(R))
      (void)regForRoot(find(pairId(R, Out.getEntryBlock(), 0)));

    const int32_t Begin = EventStart[static_cast<size_t>(R)];
    const int32_t End = EventStart[static_cast<size_t>(R) + 1];
    for (int32_t E = Begin; E < End; ++E) {
      const RefEvent &Ev = Events[static_cast<size_t>(E)];
      const int B = Ev.Block, I = Ev.Instr;
      Instruction &Inst = Out.block(B).Instrs[static_cast<size_t>(I)];
      if (!Ev.IsDef) {
        // Uses read the value live at the pre-point.
        assert(liveAtPoint(R, B, I) && "use of dead register");
        Reg NewReg = regForRoot(find(pairId(R, B, I)));
        if (Inst.Use1 == R)
          Inst.Use1 = NewReg;
        if (Inst.Use2 == R)
          Inst.Use2 = NewReg;
      } else {
        // Definitions write the value live at the post-point; a dead
        // definition gets its own register.
        Reg NewReg;
        if (liveAtPoint(R, B, I + 1)) {
          NewReg = regForRoot(find(pairId(R, B, I + 1)));
        } else if (!KeepOriginalUsed) {
          NewReg = R;
          KeepOriginalUsed = true;
        } else {
          NewReg = freshReg(-1);
        }
        Inst.Def = NewReg;
      }
    }
  }

  // Name the fresh registers in id order, the order the replay created
  // them in, so the arena interns the names in the same order and hands
  // out the same string ids. The arena and the name table are sized once.
  if (!Fresh.empty()) {
    auto suffix = [](const FreshReg &F) {
      return F.Web < 0 ? std::string(".dead") : ".w" + std::to_string(F.Web);
    };
    size_t Bytes = 0;
    for (const FreshReg &F : Fresh)
      Bytes += Out.getRegName(F.Orig).size() + suffix(F).size();
    Out.Strings.reserve(static_cast<int32_t>(Fresh.size()), Bytes);
    Out.RegNameIds.reserve(static_cast<size_t>(OrigRegs) + Fresh.size());
    for (const FreshReg &F : Fresh) {
      [[maybe_unused]] const Reg Got =
          Out.addReg(Out.getRegName(F.Orig) + suffix(F));
      assert(Got == static_cast<Reg>(&F - Fresh.data()) + OrigRegs &&
             "fresh registers are named in id order");
    }
  }

  // Entry-live list: regForRoot gave the entry component the original
  // register, so the list stays valid; nothing to rewrite.
  return Out;
}
