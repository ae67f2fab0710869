//===- FunctionExpansion.h - Inline expansion of .func calls ----*- C++ -*-===//
///
/// \file
/// Assembler-level functions. The IXP-style machine has no call stack (a
/// context switch saves only the PC), so microcode "functions" are expanded
/// inline at each call site — which is also what makes the paper's remark
/// that "NSRs and interference graphs can be constructed
/// inter-procedurally" concrete here: after expansion the caller and callee
/// share one CFG and one register namespace.
///
/// Semantics: a `.func` body shares the calling thread's register names
/// (macro-style — arguments and results are passed in agreed registers);
/// every `call f` splices a fresh copy of f's blocks into the CFG, and each
/// `ret` becomes a branch to the instruction after the call.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_ASMPARSE_FUNCTIONEXPANSION_H
#define NPRAL_ASMPARSE_FUNCTIONEXPANSION_H

#include "ir/Program.h"
#include "support/Status.h"

#include <map>
#include <string>
#include <vector>

namespace npral {

/// Expand every `call` in \p P. `call` instructions carry an index into
/// \p CallNames (shared across the file); \p Functions maps function names
/// to their parsed bodies (which may themselves contain calls). Fails on
/// unknown functions and on unbounded (recursive) expansion.
Status expandCalls(Program &P, const std::vector<std::string> &CallNames,
                   const std::map<std::string, Program> &Functions);

} // namespace npral

#endif // NPRAL_ASMPARSE_FUNCTIONEXPANSION_H
