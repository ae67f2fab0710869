//===- Program.h - Thread program and basic blocks --------------*- C++ -*-===//
///
/// \file
/// A Program is the code that one hardware thread executes: a CFG of basic
/// blocks over a dense virtual (or, after allocation, physical) register
/// space. A MultiThreadProgram is the assignment of Nthd Programs to one
/// micro-engine, the unit the inter-thread allocator works on.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_IR_PROGRAM_H
#define NPRAL_IR_PROGRAM_H

#include "ir/Instruction.h"
#include "support/Arena.h"

#include <cassert>
#include <string>
#include <string_view>
#include <vector>

namespace npral {

/// A basic block: straight-line instructions plus explicit control flow.
///
/// Successor rules:
///  * last instruction `br L`    -> successors {L};
///  * last instruction `halt`    -> no successors;
///  * last instruction cond-br   -> successors {Target, FallThrough};
///  * otherwise                  -> successors {FallThrough}.
/// A cond-br just before a final `br` adds its target first. So a block has
/// at most two successors, and SuccessorList stores them inline.
struct BasicBlock {
  int Id = NoBlock;
  /// Label id in the owning Program's string arena (NoStr when unnamed);
  /// resolve with Program::blockName().
  int32_t NameId = NoStr;
  std::vector<Instruction> Instrs;
  /// Block executed when control falls off the end (NoBlock for br/halt
  /// terminated blocks).
  int FallThrough = NoBlock;

  bool empty() const { return Instrs.empty(); }
  size_t size() const { return Instrs.size(); }
};

/// The successors of one block, in rule order and without duplicates:
/// at most two ids held inline, so asking for them never allocates.
class SuccessorList {
public:
  const int *begin() const { return Ids; }
  const int *end() const { return Ids + N; }
  size_t size() const { return N; }
  bool empty() const { return N == 0; }
  int operator[](size_t I) const {
    assert(I < N && "successor index out of range");
    return Ids[I];
  }

  /// Append \p S unless it is already listed.
  void addUnique(int S) {
    for (int Existing : *this)
      if (Existing == S)
        return;
    assert(N < 2 && "a block has at most two successors");
    Ids[N++] = S;
  }

private:
  int Ids[2] = {NoBlock, NoBlock};
  unsigned N = 0;
};

/// One thread's code.
///
/// All debug labels (block names, register names) live in one per-program
/// string arena and are referenced by int32 ids, so copying a Program —
/// the batch pipeline does this once per input thread — moves a
/// handful of flat vectors instead of a string per label, and the analysis
/// passes never touch a string at all.
class Program {
public:
  std::string Name;
  std::vector<BasicBlock> Blocks;
  /// Number of registers referenced (virtual before allocation, physical
  /// after). Register IDs are dense in [0, NumRegs).
  int NumRegs = 0;
  /// Arena for block and register labels.
  StringInterner Strings;
  /// Optional debug-name ids per register ID (may be shorter than NumRegs;
  /// NoStr = unnamed).
  std::vector<int32_t> RegNameIds;
  /// True once registers denote physical registers.
  bool IsPhysical = false;
  /// Registers live at program entry (e.g. packet buffer pointer handed to
  /// the thread). These behave as if defined at a virtual entry point.
  std::vector<Reg> EntryLiveRegs;

  /// Entry block ID. Usually 0 (the first parsed/built block); transforms
  /// that need setup code executed exactly once (e.g. baseline spill stores
  /// for entry-live registers) may prepend a dedicated entry block and
  /// repoint this.
  int EntryBlock = 0;

  int getEntryBlock() const { return EntryBlock; }
  int getNumBlocks() const { return static_cast<int>(Blocks.size()); }

  BasicBlock &block(int Id) { return Blocks[static_cast<size_t>(Id)]; }
  const BasicBlock &block(int Id) const {
    return Blocks[static_cast<size_t>(Id)];
  }

  /// Append a new block; returns its ID. An empty \p Name becomes
  /// "bb<id>".
  int addBlock(std::string_view Name = {});

  /// Allocate a fresh register ID; \p Name is a debug label.
  Reg addReg(std::string_view Name = {});

  /// Debug name of \p R ("r<N>" when unnamed).
  std::string getRegName(Reg R) const;

  /// Append getRegName(\p R) to \p Out.
  void appendRegName(std::string &Out, Reg R) const;

  /// Label of block \p B (view into the program's arena).
  std::string_view blockName(int B) const {
    const BasicBlock &BB = block(B);
    return BB.NameId == NoStr ? std::string_view() : Strings.view(BB.NameId);
  }

  /// Drop all register debug names (labels of a physical program are
  /// meaningless once registers are renumbered).
  void clearRegNames() { RegNameIds.clear(); }

  /// Successor block IDs of \p BlockId under the rules above.
  SuccessorList successors(int BlockId) const;

  /// Predecessor lists for all blocks (index = block ID).
  std::vector<std::vector<int>> computePredecessors() const;

  /// Blocks in reverse post order from the entry block. Unreachable blocks
  /// are appended after the reachable ones in ID order.
  std::vector<int> computeRPO() const;

  /// Total instruction count over all blocks.
  int countInstructions() const;

  /// Number of instructions that cause a context switch.
  int countCtxInstructions() const;

  /// Number of `mov` instructions (used to report move-insertion overhead).
  int countMoves() const;
};

/// The set of threads sharing one micro-engine (processing unit).
struct MultiThreadProgram {
  std::string Name;
  std::vector<Program> Threads;

  int getNumThreads() const { return static_cast<int>(Threads.size()); }
};

} // namespace npral

#endif // NPRAL_IR_PROGRAM_H
