//===- Program.cpp --------------------------------------------------------===//

#include "ir/Program.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace npral;

int Program::addBlock(std::string_view Name) {
  int Id = getNumBlocks();
  BasicBlock BB;
  BB.Id = Id;
  BB.NameId = Name.empty() ? Strings.intern("bb" + std::to_string(Id))
                           : Strings.intern(Name);
  Blocks.push_back(std::move(BB));
  return Id;
}

/// True when \p Name is exactly what getRegName() synthesizes for an
/// unnamed register \p R ("r<R>"/"p<R>", no leading zeros). Such names need
/// no arena slot — most programs (generated corpora, renamed outputs whose
/// webs kept their ids) name every register this way, so skipping them
/// keeps parse and renaming off the interner entirely.
static bool isDefaultRegName(std::string_view Name, bool IsPhysical, Reg R) {
  if (Name.size() < 2 || Name.size() > 11 ||
      Name[0] != (IsPhysical ? 'p' : 'r'))
    return false;
  if (Name[1] == '0' && Name.size() > 2)
    return false;
  uint32_t V = 0;
  for (size_t I = 1; I < Name.size(); ++I) {
    char C = Name[I];
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint32_t>(C - '0');
  }
  return V == static_cast<uint32_t>(R);
}

Reg Program::addReg(std::string_view Name) {
  Reg R = NumRegs++;
  if (!Name.empty() && !isDefaultRegName(Name, IsPhysical, R)) {
    RegNameIds.resize(static_cast<size_t>(NumRegs), NoStr);
    RegNameIds[static_cast<size_t>(R)] = Strings.intern(Name);
  }
  return R;
}

std::string Program::getRegName(Reg R) const {
  std::string Name;
  appendRegName(Name, R);
  return Name;
}

void Program::appendRegName(std::string &Out, Reg R) const {
  if (R == NoReg) {
    Out += "<none>";
  } else if (static_cast<size_t>(R) < RegNameIds.size() &&
             RegNameIds[static_cast<size_t>(R)] != NoStr) {
    Out += Strings.view(RegNameIds[static_cast<size_t>(R)]);
  } else {
    Out += IsPhysical ? 'p' : 'r';
    appendInteger(Out, R);
  }
}

SuccessorList Program::successors(int BlockId) const {
  const BasicBlock &BB = block(BlockId);
  SuccessorList Succs;
  if (!BB.Instrs.empty()) {
    const Instruction &Last = BB.Instrs.back();
    if (Last.Op == Opcode::Br) {
      // A conditional branch may sit just before an unconditional one (the
      // "cond-br + br" pattern the printer emits for non-layout
      // fallthrough); the conditional target comes first.
      if (BB.Instrs.size() >= 2) {
        const Instruction &Prev = BB.Instrs[BB.Instrs.size() - 2];
        if (Prev.isBranch() && Prev.Op != Opcode::Br)
          Succs.addUnique(Prev.Target);
      }
      Succs.addUnique(Last.Target);
      return Succs;
    }
    if (Last.Op == Opcode::Halt)
      return Succs;
    if (Last.isBranch()) {
      Succs.addUnique(Last.Target);
      if (BB.FallThrough != NoBlock)
        Succs.addUnique(BB.FallThrough);
      return Succs;
    }
  }
  if (BB.FallThrough != NoBlock)
    Succs.addUnique(BB.FallThrough);
  return Succs;
}

std::vector<std::vector<int>> Program::computePredecessors() const {
  std::vector<std::vector<int>> Preds(Blocks.size());
  for (int B = 0; B < getNumBlocks(); ++B)
    for (int S : successors(B))
      Preds[static_cast<size_t>(S)].push_back(B);
  return Preds;
}

std::vector<int> Program::computeRPO() const {
  std::vector<int> PostOrder;
  PostOrder.reserve(Blocks.size());
  std::vector<char> Visited(Blocks.size(), 0);

  // Iterative DFS producing post order.
  struct Frame {
    int Block;
    SuccessorList Succs;
    size_t Next;
  };
  std::vector<Frame> Stack;
  Stack.reserve(Blocks.size());
  auto push = [&](int B) {
    Visited[static_cast<size_t>(B)] = 1;
    Stack.push_back({B, successors(B), 0});
  };
  if (!Blocks.empty())
    push(getEntryBlock());
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.Next < F.Succs.size()) {
      int S = F.Succs[F.Next++];
      if (!Visited[static_cast<size_t>(S)])
        push(S);
      continue;
    }
    PostOrder.push_back(F.Block);
    Stack.pop_back();
  }

  // Reverse in place into RPO, then append the unreachable blocks.
  std::reverse(PostOrder.begin(), PostOrder.end());
  for (int B = 0; B < getNumBlocks(); ++B)
    if (!Visited[static_cast<size_t>(B)])
      PostOrder.push_back(B);
  return PostOrder;
}

int Program::countInstructions() const {
  int N = 0;
  for (const BasicBlock &BB : Blocks)
    N += static_cast<int>(BB.Instrs.size());
  return N;
}

int Program::countCtxInstructions() const {
  int N = 0;
  for (const BasicBlock &BB : Blocks)
    for (const Instruction &I : BB.Instrs)
      if (I.causesCtxSwitch())
        ++N;
  return N;
}

int Program::countMoves() const {
  int N = 0;
  for (const BasicBlock &BB : Blocks)
    for (const Instruction &I : BB.Instrs)
      if (I.Op == Opcode::Mov)
        ++N;
  return N;
}
