//===- JSONReader.cpp -----------------------------------------------------===//

#include "support/JSONReader.h"

#include <algorithm>
#include <charconv>
#include <cmath>

using namespace npral;

namespace {

constexpr int MaxDepth = 256;

bool isDigit(char C) { return C >= '0' && C <= '9'; }

} // namespace

char JSONReader::peek() {
  while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                               Text[Pos] == '\n' || Text[Pos] == '\r'))
    ++Pos;
  return Pos < Text.size() ? Text[Pos] : '\0';
}

Status JSONReader::fail(const std::string &Msg) const {
  const auto Line = 1 + std::count(Text.begin(), Text.begin() + Pos, '\n');
  std::string Out = What + ": " + Msg + " at line " + std::to_string(Line) +
                    ", offset " + std::to_string(Pos);
  if (!Keys.empty() && !Keys.back().empty())
    Out += " (near key \"" + Keys.back() + "\")";
  return Status::error(StatusCode::ParseError, Out);
}

Status JSONReader::readContainer(char Open, char Close,
                                 const std::function<Status()> &OnItem) {
  if (peek() != Open)
    return fail(std::string("expected '") + Open + "'");
  if (++Depth > MaxDepth)
    return fail("nesting deeper than " + std::to_string(MaxDepth));
  ++Pos;
  if (peek() != Close) {
    for (;;) {
      if (Status S = OnItem(); !S.ok())
        return S;
      const char C = peek();
      if (C == Close)
        break;
      if (C != ',')
        return fail(std::string("expected ',' or '") + Close + "'");
      ++Pos;
    }
  }
  ++Pos;
  --Depth;
  return Status::success();
}

Status JSONReader::readObject(
    const std::function<Status(const std::string &)> &OnMember) {
  std::vector<std::string> Seen;
  // Until its first key is read, an object is near its parent's key.
  Keys.push_back(Keys.empty() ? std::string() : Keys.back());
  Status S = readContainer('{', '}', [&]() -> Status {
    std::string Key;
    if (Status S = readString(Key); !S.ok())
      return S;
    Keys.back() = Key;
    if (std::find(Seen.begin(), Seen.end(), Key) != Seen.end())
      return fail("duplicate key \"" + Key + "\"");
    Seen.push_back(Key);
    if (peek() != ':')
      return fail("expected ':'");
    ++Pos;
    return OnMember(Seen.back());
  });
  if (S.ok())
    Keys.pop_back();
  return S;
}

Status JSONReader::readArray(const std::function<Status()> &OnElement) {
  return readContainer('[', ']', OnElement);
}

Status JSONReader::readString(std::string &Out) {
  static constexpr std::string_view Escapes = "\"\\/bfnrt";
  static constexpr std::string_view Decoded = "\"\\/\b\f\n\r\t";
  // The four hex digits of a \u escape.
  auto Hex4 = [this](uint32_t &V) {
    const char *Begin = Text.data() + Pos;
    if (Text.size() - Pos < 4 ||
        std::from_chars(Begin, Begin + 4, V, 16).ptr != Begin + 4)
      return false;
    Pos += 4;
    return true;
  };
  if (peek() != '"')
    return fail("expected a string");
  ++Pos;
  Out.clear();
  for (;;) {
    if (Pos >= Text.size())
      return fail("unterminated string");
    const char C = Text[Pos];
    if (static_cast<unsigned char>(C) < 0x20)
      return fail("raw control character in string");
    ++Pos;
    if (C == '"')
      return Status::success();
    if (C != '\\') {
      Out += C;
      continue;
    }
    const size_t E = Pos < Text.size() ? Escapes.find(Text[Pos]) : Escapes.npos;
    if (E != Escapes.npos) {
      Out += Decoded[E];
      ++Pos;
      continue;
    }
    if (Pos >= Text.size() || Text[Pos++] != 'u')
      return fail("bad escape character");
    uint32_t Byte = 0;
    if (!Hex4(Byte))
      return fail("bad \\u escape");
    // The writers escape only control bytes; a \u escape stands for one
    // byte.
    if (Byte > 0xFF)
      return fail("unsupported \\u escape beyond U+00FF");
    Out += static_cast<char>(Byte);
  }
}

Status JSONReader::readNumberToken(std::string_view &Token) {
  const char First = peek();
  if (First != '-' && !isDigit(First))
    return fail("expected a number");
  const size_t Start = Pos;
  auto Digits = [this] {
    const size_t From = Pos;
    while (Pos < Text.size() && isDigit(Text[Pos]))
      ++Pos;
    return Pos - From;
  };
  auto At = [this](std::string_view Chars) {
    return Pos < Text.size() && Chars.find(Text[Pos]) != Chars.npos;
  };
  Pos += First == '-';
  const size_t IntStart = Pos;
  const size_t IntDigits = Digits();
  if (IntDigits == 0)
    return fail("expected a digit");
  if (IntDigits > 1 && Text[IntStart] == '0')
    return fail("leading zero in number");
  if (At(".")) {
    ++Pos;
    if (Digits() == 0)
      return fail("digit required after '.'");
  }
  if (At("eE")) {
    ++Pos;
    Pos += At("+-");
    if (Digits() == 0)
      return fail("digit required in exponent");
  }
  Token = Text.substr(Start, Pos - Start);
  return Status::success();
}

Status JSONReader::readInteger(int64_t &Out, int64_t Min, int64_t Max) {
  std::string_view Token;
  if (Status S = readNumberToken(Token); !S.ok())
    return S;
  if (Token.find_first_of(".eE") != std::string_view::npos)
    return fail("expected an integer");
  int64_t V = 0;
  const auto [End, Err] =
      std::from_chars(Token.data(), Token.data() + Token.size(), V);
  if (Err != std::errc() || V < Min || V > Max)
    return fail("integer out of range [" + std::to_string(Min) + ", " +
                std::to_string(Max) + "]");
  Out = V;
  return Status::success();
}

Status JSONReader::readNumber(double &Out) {
  std::string_view Token;
  if (Status S = readNumberToken(Token); !S.ok())
    return S;
  double V = 0;
  const auto [End, Err] =
      std::from_chars(Token.data(), Token.data() + Token.size(), V);
  if (Err != std::errc() || !std::isfinite(V))
    return fail("number out of range");
  Out = V;
  return Status::success();
}

Status JSONReader::readValue(std::string &Out, bool &IsString) {
  IsString = peek() == '"';
  if (IsString)
    return readString(Out);
  const size_t Start = Pos;
  if (Status S = skipValue(); !S.ok())
    return S;
  Out.assign(Text.substr(Start, Pos - Start));
  return Status::success();
}

Status JSONReader::skipValue() {
  const char C = peek();
  if (C == '{')
    return readObject([this](const std::string &) { return skipValue(); });
  if (C == '[')
    return readArray([this] { return skipValue(); });
  if (C == '"') {
    std::string Ignored;
    return readString(Ignored);
  }
  for (std::string_view Literal : {"true", "false", "null"}) {
    if (Text.substr(Pos, Literal.size()) == Literal) {
      Pos += Literal.size();
      return Status::success();
    }
  }
  std::string_view Token;
  return readNumberToken(Token);
}

Status JSONReader::finish() {
  peek();
  if (Pos != Text.size())
    return fail("trailing characters after document");
  return Status::success();
}
