//===- Protocol.cpp -------------------------------------------------------===//

#include "serve/Protocol.h"

#include <cstring>
#include <limits>
#include <utility>
#include <vector>

using namespace npral;
using namespace npral::protocol;

namespace {

void put16(char *P, uint16_t V) {
  P[0] = static_cast<char>(V & 0xFF);
  P[1] = static_cast<char>((V >> 8) & 0xFF);
}
void put32(char *P, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    P[I] = static_cast<char>((V >> (8 * I)) & 0xFF);
}
void put64(char *P, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    P[I] = static_cast<char>((V >> (8 * I)) & 0xFF);
}
uint16_t get16(const char *P) {
  return static_cast<uint16_t>(static_cast<uint8_t>(P[0]) |
                               (static_cast<uint8_t>(P[1]) << 8));
}
uint32_t get32(const char *P) {
  uint32_t V = 0;
  for (int I = 3; I >= 0; --I)
    V = (V << 8) | static_cast<uint8_t>(P[I]);
  return V;
}
uint64_t get64(const char *P) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | static_cast<uint8_t>(P[I]);
  return V;
}

Status parseError(const std::string &Msg) {
  return Status::error(StatusCode::ParseError, Msg);
}

/// Strict unsigned decimal parse: the whole string, no sign, no blanks.
bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.size() > 20)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    const uint64_t D = static_cast<uint64_t>(C - '0');
    if (V > (std::numeric_limits<uint64_t>::max() - D) / 10)
      return false;
    V = V * 10 + D;
  }
  Out = V;
  return true;
}

bool parseInt(const std::string &S, int &Out) {
  uint64_t V;
  if (!parseU64(S, V) ||
      V > static_cast<uint64_t>(std::numeric_limits<int>::max()))
    return false;
  Out = static_cast<int>(V);
  return true;
}

bool parseBool(const std::string &S, bool &Out) {
  if (S == "0")
    Out = false;
  else if (S == "1")
    Out = true;
  else
    return false;
  return true;
}

/// Split \p Payload into `key=value` header lines and the body after the
/// first blank line. Strict: every header line must contain '='; a missing
/// blank-line terminator is an error when \p RequireBlank.
Status splitPayload(const std::string &Payload,
                    std::vector<std::pair<std::string, std::string>> &KVs,
                    std::string &Body, bool RequireBlank) {
  size_t Pos = 0;
  while (Pos < Payload.size()) {
    size_t End = Payload.find('\n', Pos);
    if (End == std::string::npos)
      return parseError("unterminated header line");
    const std::string Line = Payload.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Line.empty()) {
      Body = Payload.substr(Pos);
      return Status::success();
    }
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos || Eq == 0)
      return parseError("malformed header line '" + Line + "'");
    KVs.emplace_back(Line.substr(0, Eq), Line.substr(Eq + 1));
  }
  if (RequireBlank)
    return parseError("missing blank-line terminator");
  Body.clear();
  return Status::success();
}

} // namespace

bool npral::protocol::isRequestType(uint16_t T) {
  return T == static_cast<uint16_t>(FrameType::Alloc) ||
         T == static_cast<uint16_t>(FrameType::Health) ||
         T == static_cast<uint16_t>(FrameType::Metrics);
}

Status npral::writeFrame(const UnixSocket &Sock, const Frame &F) {
  if (F.Payload.size() >
      static_cast<size_t>(std::numeric_limits<uint32_t>::max()))
    return Status::error(StatusCode::Internal, "payload too large to frame");
  char Header[HeaderSize];
  std::memcpy(Header, Magic, 4);
  put16(Header + 4, Version);
  put16(Header + 6, F.Type);
  put64(Header + 8, F.RequestId);
  put32(Header + 16, static_cast<uint32_t>(F.Payload.size()));
  // One buffer, one write: interleaving-safe as long as callers serialize
  // per connection (the server holds a per-connection write mutex).
  std::string Wire;
  Wire.reserve(HeaderSize + F.Payload.size());
  Wire.append(Header, HeaderSize);
  Wire += F.Payload;
  return Sock.writeAll(Wire.data(), Wire.size());
}

Status npral::readFrame(const UnixSocket &Sock, Frame &F,
                        uint32_t MaxPayloadBytes) {
  char Header[HeaderSize];
  bool SawEOF = false;
  if (Status S = Sock.readExact(Header, HeaderSize, &SawEOF); !S.ok())
    return S;
  if (std::memcmp(Header, Magic, 4) != 0)
    return parseError("bad frame magic");
  const uint16_t Ver = get16(Header + 4);
  if (Ver != Version)
    return parseError("unsupported protocol version " + std::to_string(Ver));
  F.Type = get16(Header + 6);
  F.RequestId = get64(Header + 8);
  const uint32_t Len = get32(Header + 16);
  if (Len > MaxPayloadBytes)
    return parseError("frame payload of " + std::to_string(Len) +
                      " bytes exceeds the " +
                      std::to_string(MaxPayloadBytes) + "-byte limit");
  F.Payload.resize(Len);
  if (Len > 0)
    if (Status S = Sock.readExact(F.Payload.data(), Len); !S.ok())
      return S;
  return Status::success();
}

std::string npral::encodeAllocRequest(const AllocRequest &R) {
  std::string Out;
  Out += "nreg=" + std::to_string(R.Nreg) + "\n";
  Out += "allow-spill=" + std::string(R.AllowSpill ? "1" : "0") + "\n";
  Out += "max-spills=" + std::to_string(R.MaxSpills) + "\n";
  Out += "deadline-ms=" + std::to_string(R.DeadlineMs) + "\n";
  Out += "profile-hash=" + std::to_string(R.ProfileHash) + "\n";
  Out += "\n";
  Out += R.Assembly;
  return Out;
}

ErrorOr<AllocRequest> npral::parseAllocRequest(const std::string &Payload) {
  std::vector<std::pair<std::string, std::string>> KVs;
  AllocRequest R;
  if (Status S = splitPayload(Payload, KVs, R.Assembly,
                              /*RequireBlank=*/true);
      !S.ok())
    return S;
  bool Seen[5] = {};
  for (const auto &[Key, Value] : KVs) {
    int Idx;
    bool OkV;
    if (Key == "nreg") {
      Idx = 0;
      OkV = parseInt(Value, R.Nreg) && R.Nreg > 0;
    } else if (Key == "allow-spill") {
      Idx = 1;
      OkV = parseBool(Value, R.AllowSpill);
    } else if (Key == "max-spills") {
      Idx = 2;
      OkV = parseInt(Value, R.MaxSpills);
    } else if (Key == "deadline-ms") {
      Idx = 3;
      OkV = parseInt(Value, R.DeadlineMs);
    } else if (Key == "profile-hash") {
      Idx = 4;
      OkV = parseU64(Value, R.ProfileHash);
    } else {
      return parseError("unknown request option '" + Key + "'");
    }
    if (!OkV)
      return parseError("bad value for request option '" + Key + "'");
    if (Seen[Idx])
      return parseError("duplicate request option '" + Key + "'");
    Seen[Idx] = true;
  }
  if (R.Assembly.empty())
    return parseError("empty assembly body");
  return R;
}

std::string npral::encodeResponse(const ServeResponse &R) {
  std::string Out;
  if (R.Ok) {
    Out += "status=ok\n";
    Out += "registers-used=" + std::to_string(R.RegistersUsed) + "\n";
    Out += "sgr=" + std::to_string(R.SGR) + "\n";
    Out += "moves=" + std::to_string(R.TotalMoveCost) + "\n";
    Out += "spilled-ranges=" + std::to_string(R.SpilledRanges) + "\n";
    Out += "degraded=" + std::string(R.Degraded ? "1" : "0") + "\n";
    Out += "validated=" + std::string(R.Validated ? "1" : "0") + "\n";
  } else {
    Out += "status=error\n";
    Out += "code=" + R.Code + "\n";
    Out += "stage=" + R.Stage + "\n";
    Out += "retry-after-ms=" + std::to_string(R.RetryAfterMs) + "\n";
    // The message is a header field, so newlines must not split it; the
    // pipeline's messages are single-line by construction, but a defensive
    // flatten keeps a hostile message from desyncing the frame.
    std::string Msg = R.Message;
    for (char &C : Msg)
      if (C == '\n')
        C = ' ';
    Out += "message=" + Msg + "\n";
  }
  Out += "\n";
  Out += R.Body;
  return Out;
}

ErrorOr<ServeResponse> npral::parseResponse(uint16_t Type,
                                            const std::string &Payload) {
  ServeResponse R;
  std::vector<std::pair<std::string, std::string>> KVs;
  if (Status S = splitPayload(Payload, KVs, R.Body, /*RequireBlank=*/true);
      !S.ok())
    return S;
  R.Ok = Type == static_cast<uint16_t>(FrameType::Ok);
  if (Type != static_cast<uint16_t>(FrameType::Ok) &&
      Type != static_cast<uint16_t>(FrameType::Error))
    return parseError("unexpected response frame type " +
                      std::to_string(Type));
  for (const auto &[Key, Value] : KVs) {
    bool OkV = true;
    if (Key == "status")
      OkV = Value == (R.Ok ? "ok" : "error");
    else if (Key == "registers-used")
      OkV = parseInt(Value, R.RegistersUsed);
    else if (Key == "sgr")
      OkV = parseInt(Value, R.SGR);
    else if (Key == "moves")
      OkV = parseInt(Value, R.TotalMoveCost);
    else if (Key == "spilled-ranges")
      OkV = parseInt(Value, R.SpilledRanges);
    else if (Key == "degraded")
      OkV = parseBool(Value, R.Degraded);
    else if (Key == "validated")
      OkV = parseBool(Value, R.Validated);
    else if (Key == "code")
      R.Code = Value;
    else if (Key == "stage")
      R.Stage = Value;
    else if (Key == "retry-after-ms")
      OkV = parseInt(Value, R.RetryAfterMs);
    else if (Key == "message")
      R.Message = Value;
    else
      return parseError("unknown response field '" + Key + "'");
    if (!OkV)
      return parseError("bad value for response field '" + Key + "'");
  }
  return R;
}
