//===- JSONReader.h - The one strict JSON reader ----------------*- C++ -*-===//
///
/// \file
/// A strict pull reader over one JSON document (RFC 8259): no trailing
/// commas, no leading zeros, no raw control characters in strings, nothing
/// after the document, and no key repeated within one object. A \u escape
/// stands for one byte, as writeJSONString writes them, so one beyond
/// U+00FF is an error; other bytes pass through as they are. Callers walk
/// their own schema over it: readObject and readArray call back once per
/// member or element, and the scalar reads check the kind and range of the
/// value. Every error names the line, the byte offset and the innermost key
/// being read, so a bad value in a megabyte of JSON is findable. A reader
/// that has failed once is spent.
///
/// parseChromeTrace (trace/TraceFormat.h) and parseDiagnosticsJSON
/// (support/DiagnosticEngine.h) are its two schema walks.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_SUPPORT_JSONREADER_H
#define NPRAL_SUPPORT_JSONREADER_H

#include "support/Status.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace npral {

class JSONReader {
public:
  /// \p What prefixes every error message, e.g. "trace JSON".
  JSONReader(std::string_view Text, std::string What)
      : Text(Text), What(std::move(What)) {}

  /// Skip whitespace and return the next character ('\0' at the end).
  char peek();

  /// Read an object, calling \p OnMember once per member with the reader
  /// at the member's value, which OnMember must consume.
  Status readObject(const std::function<Status(const std::string &)> &OnMember);
  /// Read an array, calling \p OnElement once per element; OnElement must
  /// consume the element.
  Status readArray(const std::function<Status()> &OnElement);

  Status readString(std::string &Out);
  /// An integer token (no fraction or exponent) within [Min, Max].
  Status readInteger(int64_t &Out,
                     int64_t Min = std::numeric_limits<int64_t>::min(),
                     int64_t Max = std::numeric_limits<int64_t>::max());
  /// Any number; one that overflows a double is an error.
  Status readNumber(double &Out);
  /// Any value: a string comes back decoded with \p IsString set, any other
  /// value as its JSON text.
  Status readValue(std::string &Out, bool &IsString);
  Status skipValue();

  /// Succeed only when nothing but whitespace is left.
  Status finish();

  /// A failure at the current position.
  Status fail(const std::string &Msg) const;

private:
  /// An object or an array: \p OnItem reads each item between the commas.
  Status readContainer(char Open, char Close,
                       const std::function<Status()> &OnItem);
  Status readNumberToken(std::string_view &Token);

  std::string_view Text;
  std::string What;
  size_t Pos = 0;
  /// The key being read in each open object, innermost last.
  std::vector<std::string> Keys;
  /// Open objects and arrays; bounded so hostile input cannot exhaust the
  /// stack.
  int Depth = 0;
};

} // namespace npral

#endif // NPRAL_SUPPORT_JSONREADER_H
