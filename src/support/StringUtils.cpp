//===- StringUtils.cpp ----------------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>

using namespace npral;

std::string_view npral::trim(std::string_view S) {
  size_t Begin = 0;
  while (Begin < S.size() && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  size_t End = S.size();
  while (End > Begin && std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

std::vector<std::string_view> npral::split(std::string_view S, char Sep) {
  std::vector<std::string_view> Parts;
  size_t Start = 0;
  for (size_t I = 0; I <= S.size(); ++I) {
    if (I == S.size() || S[I] == Sep) {
      Parts.push_back(S.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Parts;
}

std::optional<int64_t> npral::parseInteger(std::string_view S) {
  S = trim(S);
  if (S.empty())
    return std::nullopt;

  bool Negative = false;
  if (S.front() == '-' || S.front() == '+') {
    Negative = S.front() == '-';
    S.remove_prefix(1);
    if (S.empty())
      return std::nullopt;
  }

  int Base = 10;
  if (S.size() > 2 && S[0] == '0' && (S[1] == 'x' || S[1] == 'X')) {
    Base = 16;
    S.remove_prefix(2);
  }

  // Accumulate the magnitude unsigned and refuse anything past the int64_t
  // range; |INT64_MIN| is one more than INT64_MAX.
  const uint64_t Limit =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) +
      (Negative ? 1 : 0);
  uint64_t Value = 0;
  for (char C : S) {
    unsigned Digit;
    if (C >= '0' && C <= '9')
      Digit = C - '0';
    else if (Base == 16 && C >= 'a' && C <= 'f')
      Digit = C - 'a' + 10;
    else if (Base == 16 && C >= 'A' && C <= 'F')
      Digit = C - 'A' + 10;
    else
      return std::nullopt;
    if (Value > (Limit - Digit) / Base)
      return std::nullopt;
    Value = Value * Base + Digit;
  }
  return static_cast<int64_t>(Negative ? 0 - Value : Value);
}

void npral::appendInteger(std::string &Out, int64_t V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

bool npral::isIdentifier(std::string_view S) {
  if (S.empty())
    return false;
  auto isIdentStart = [](char C) {
    return std::isalpha(static_cast<unsigned char>(C)) || C == '_' || C == '.';
  };
  auto isIdentCont = [&](char C) {
    return isIdentStart(C) || std::isdigit(static_cast<unsigned char>(C));
  };
  if (!isIdentStart(S.front()))
    return false;
  for (char C : S.substr(1))
    if (!isIdentCont(C))
      return false;
  return true;
}

std::string npral::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Result;
  if (Needed > 0) {
    Result.resize(static_cast<size_t>(Needed));
    std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  }
  va_end(ArgsCopy);
  return Result;
}

uint64_t npral::fnv1aHash(std::string_view Data) {
  uint64_t Hash = 1469598103934665603ULL;
  for (char C : Data) {
    Hash ^= static_cast<unsigned char>(C);
    Hash *= 1099511628211ULL;
  }
  return Hash;
}

uint64_t npral::fnv1aCombine(uint64_t Seed, uint64_t Value) {
  for (int Byte = 0; Byte < 8; ++Byte) {
    Seed ^= (Value >> (8 * Byte)) & 0xFF;
    Seed *= 1099511628211ULL;
  }
  return Seed;
}

void npral::writeJSONString(std::ostream &OS, std::string_view S) {
  OS << '"';
  for (char C : S) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    case '\r':
      OS << "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        static const char Hex[] = "0123456789abcdef";
        OS << "\\u00" << Hex[(C >> 4) & 0xF] << Hex[C & 0xF];
      } else {
        OS << C;
      }
    }
  }
  OS << '"';
}

ErrorOr<std::string> npral::readTextFile(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return Status::error(StatusCode::IOError, "cannot open '" + Path + "'");
  std::string Text;
  char Chunk[4096];
  while (IS.read(Chunk, sizeof(Chunk)) || IS.gcount() > 0)
    Text.append(Chunk, static_cast<size_t>(IS.gcount()));
  if (IS.bad())
    return Status::error(StatusCode::IOError, "failed reading '" + Path + "'");
  return Text;
}

Status npral::writeFile(const std::string &Path,
                        const std::function<void(std::ostream &)> &Write) {
  std::ofstream OS(Path, std::ios::binary);
  if (!OS)
    return Status::error(StatusCode::IOError, "cannot open '" + Path + "'");
  Write(OS);
  OS.flush();
  if (!OS)
    return Status::error(StatusCode::IOError, "failed writing '" + Path + "'");
  return Status::success();
}
