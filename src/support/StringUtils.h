//===- StringUtils.h - Small string helpers ---------------------*- C++ -*-===//
///
/// \file
/// String helpers used by the assembler front end and the printers, and
/// the one checked file reader and writer.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_SUPPORT_STRINGUTILS_H
#define NPRAL_SUPPORT_STRINGUTILS_H

#include "support/Status.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace npral {

/// Strip leading and trailing ASCII whitespace.
std::string_view trim(std::string_view S);

/// Split on a separator character, keeping empty fields.
std::vector<std::string_view> split(std::string_view S, char Sep);

/// Parse a decimal or 0x-prefixed integer; std::nullopt on malformed input
/// or a value outside the int64_t range.
std::optional<int64_t> parseInteger(std::string_view S);

/// Append \p V in decimal to \p Out, exactly as `std::ostream << V` writes
/// it.
void appendInteger(std::string &Out, int64_t V);

/// True if \p S is a valid identifier: [A-Za-z_.][A-Za-z0-9_.]*.
bool isIdentifier(std::string_view S);

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Write \p S to \p OS as a double-quoted JSON string, escaping quotes,
/// backslashes, and control characters (\n, \t, \r, \u00xx). The one JSON
/// string encoding used across the codebase (diagnostics, metrics, traces),
/// so every exporter and round-trip parser agrees byte for byte.
void writeJSONString(std::ostream &OS, std::string_view S);

/// Read the whole file \p Path. Fails with IOError naming the path when the
/// file cannot be opened or a read fails (a directory opens but cannot be
/// read), so no caller mistakes an unreadable path for empty text.
ErrorOr<std::string> readTextFile(const std::string &Path);

/// Write the file \p Path through \p Write. Fails unless every byte
/// reached the file: the stream is checked after flushing.
Status writeFile(const std::string &Path,
                 const std::function<void(std::ostream &)> &Write);

/// 64-bit FNV-1a over \p Data. The one content hash used across the
/// codebase (analysis cache keys, profile code hashes, memory digests).
uint64_t fnv1aHash(std::string_view Data);

/// Fold \p Value into \p Seed FNV-style, byte by byte. Used to combine
/// independent hashes (e.g. program content + execution profile) into one
/// cache key.
uint64_t fnv1aCombine(uint64_t Seed, uint64_t Value);

} // namespace npral

#endif // NPRAL_SUPPORT_STRINGUTILS_H
