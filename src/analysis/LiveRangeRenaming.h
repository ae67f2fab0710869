//===- LiveRangeRenaming.h - One register per live range --------*- C++ -*-===//
///
/// \file
/// The paper assumes every live range is its own variable ("we restore the
/// virtual registers so that our register allocator can work on the live
/// ranges from scratch", §9). Source programs routinely reuse a temporary
/// for several disjoint live ranges, so this pass renames each *web* — a
/// connected component of the program points where a register is live,
/// under CFG adjacency — to a fresh register. After renaming, claim 2 of
/// the paper (an internal live range lives inside exactly one NSR) holds
/// structurally and analyzeThread() can rely on it.
///
/// Dead definitions (values never read) each get their own fresh register.
/// An entry-live register keeps its id: its entry component is the first
/// web named, and the first web keeps the original register, so
/// Program::EntryLiveRegs stays valid unchanged (harness entry values stay
/// aligned).
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_ANALYSIS_LIVERANGERENAMING_H
#define NPRAL_ANALYSIS_LIVERANGERENAMING_H

#include "ir/Program.h"

namespace npral {

/// Rename every live-range web of \p P to its own register. Idempotent.
/// Takes \p P by value and returns it renamed: a caller that no longer
/// needs its program moves it in, and pays for no copy.
Program renameLiveRanges(Program P);

} // namespace npral

#endif // NPRAL_ANALYSIS_LIVERANGERENAMING_H
