//===- Client.cpp ---------------------------------------------------------===//

#include "serve/Client.h"

#include <utility>

using namespace npral;
using namespace npral::protocol;

ErrorOr<ServeClient> ServeClient::connectTo(const std::string &Path) {
  ErrorOr<UnixSocket> S = UnixSocket::connectTo(Path);
  if (!S.ok())
    return S.status();
  return ServeClient(S.take());
}

ErrorOr<ServeResponse> ServeClient::roundTrip(FrameType Type,
                                              std::string Payload) {
  const uint64_t Id = NextId++;
  Frame Out{static_cast<uint16_t>(Type), Id, std::move(Payload)};
  // A server that refuses the connection answers before reading and then
  // closes, so its refusal may be waiting even when the write failed.
  const Status Wrote = writeFrame(Sock, Out);
  Frame In;
  if (Status S = readFrame(Sock, In, DefaultMaxRequestBytes); !S.ok())
    return Wrote.ok() ? S : Wrote;
  // Id 0 is the connection-level verdict; it answers any request.
  if (In.RequestId == 0 && In.Type == static_cast<uint16_t>(FrameType::Error))
    return parseResponse(In.Type, In.Payload);
  if (!Wrote.ok())
    return Wrote;
  if (In.RequestId != Id)
    return Status::error(StatusCode::ParseError,
                         "response id " + std::to_string(In.RequestId) +
                             " does not match request id " +
                             std::to_string(Id));
  return parseResponse(In.Type, In.Payload);
}

ErrorOr<ServeResponse> ServeClient::alloc(const AllocRequest &Req) {
  return roundTrip(FrameType::Alloc, encodeAllocRequest(Req));
}

ErrorOr<ServeResponse> ServeClient::health() {
  return roundTrip(FrameType::Health, "");
}

ErrorOr<ServeResponse> ServeClient::metrics() {
  return roundTrip(FrameType::Metrics, "");
}

Status ServeClient::sendRaw(const void *Buf, size_t Len) {
  return Sock.writeAll(Buf, Len);
}

Status ServeClient::readRawFrame(Frame &F, uint32_t MaxPayloadBytes) {
  return readFrame(Sock, F, MaxPayloadBytes);
}
