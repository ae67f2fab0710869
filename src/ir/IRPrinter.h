//===- IRPrinter.h - Textual form of programs -------------------*- C++ -*-===//
///
/// \file
/// Prints Programs in the assembly dialect accepted by the parser so that
/// print -> parse round trips are identity (modulo register renumbering).
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_IR_IRPRINTER_H
#define NPRAL_IR_IRPRINTER_H

#include "ir/Program.h"

#include <string>

namespace npral {

/// Append one instruction (no trailing newline) to \p Out. Branch targets
/// are printed as block names. The one place an instruction's text is made.
void appendInstruction(std::string &Out, const Program &P,
                       const Instruction &I);

/// appendInstruction into a fresh string.
std::string formatInstruction(const Program &P, const Instruction &I);

/// A whole program in parseable assembly.
std::string programToString(const Program &P);

} // namespace npral

#endif // NPRAL_IR_IRPRINTER_H
