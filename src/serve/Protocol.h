//===- Protocol.h - Allocation-service wire protocol ------------*- C++ -*-===//
///
/// \file
/// The length-prefixed frame protocol spoken over the npral-serve Unix
/// socket (docs/serve.md is the normative spec). Every message is one
/// frame:
///
///   offset  size  field
///        0     4  magic "NPRS"
///        4     2  version (currently 1), little-endian
///        6     2  type, little-endian
///        8     8  request id (echoed verbatim in the response)
///       16     4  payload length in bytes, little-endian
///       20     N  payload
///
/// Request types: Alloc (an options block + assembly text), Health,
/// Metrics. Response types: Ok and Error. Payloads are line-oriented
/// `key=value` text — debuggable with `socat`, strict to parse: unknown
/// keys, malformed numbers, duplicate keys and missing terminators are
/// all protocol errors, answered with a structured Error frame rather
/// than guessed around.
///
/// Robustness contract (the reason this file exists): readFrame() never
/// allocates more than the configured payload cap, never trusts a length
/// field beyond it, and classifies every way a frame can be wrong —
/// oversized, truncated, bad magic, unsupported version, unknown type —
/// so the server can answer garbage with an error instead of dying or
/// reading unbounded memory.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_SERVE_PROTOCOL_H
#define NPRAL_SERVE_PROTOCOL_H

#include "support/Socket.h"
#include "support/Status.h"

#include <cstdint>
#include <string>

namespace npral {

namespace protocol {

inline constexpr char Magic[4] = {'N', 'P', 'R', 'S'};
inline constexpr uint16_t Version = 1;
/// Frame header bytes on the wire.
inline constexpr size_t HeaderSize = 20;
/// Default cap on request payloads; servers may lower or raise it.
inline constexpr uint32_t DefaultMaxRequestBytes = 4u << 20;

enum class FrameType : uint16_t {
  // Requests.
  Alloc = 1,
  Health = 2,
  Metrics = 3,
  // Responses.
  Ok = 128,
  Error = 129,
};

/// True for the request-role frame types a server accepts.
bool isRequestType(uint16_t T);

} // namespace protocol

/// One decoded frame.
struct Frame {
  uint16_t Type = 0;
  uint64_t RequestId = 0;
  std::string Payload;
};

/// Serialize \p F and send it over \p Sock.
Status writeFrame(const UnixSocket &Sock, const Frame &F);

/// Read one frame, enforcing \p MaxPayloadBytes. Failure codes:
///  * IOError with "connection closed" — clean EOF before a frame started
///    (an orderly client disconnect; \p F is untouched).
///  * ParseError — bad magic, unsupported version, or payload length over
///    the cap. F.RequestId carries the id when the header was readable, so
///    the error response can still be correlated.
///  * IOError otherwise — truncated frame or socket error.
Status readFrame(const UnixSocket &Sock, Frame &F, uint32_t MaxPayloadBytes);

/// Options carried by an Alloc request; defaults match `npralc alloc`.
struct AllocRequest {
  int Nreg = 128;
  bool AllowSpill = false;
  int MaxSpills = 64;
  /// Inert, kept for npral-bench/: every request is validated.
  bool Validate = false;
  /// Per-request deadline in ms (BatchOptions::DeadlineMs); 0 = the
  /// server's default.
  int DeadlineMs = 0;
  /// Opaque cache-partition tag, passed to runSingleJob; 0 = none. No
  /// request carries weights, so nothing else reads it.
  uint64_t ProfileHash = 0;
  /// The assembly to allocate.
  std::string Assembly;
};

/// Render \p R as an Alloc payload: `key=value` option lines, one blank
/// line, then the assembly verbatim.
std::string encodeAllocRequest(const AllocRequest &R);

/// Strictly parse an Alloc payload. Every violation is a ParseError with a
/// message naming the offending line.
ErrorOr<AllocRequest> parseAllocRequest(const std::string &Payload);

/// A decoded Ok/Error response payload. Ok allocation responses carry the
/// result fields plus the physical assembly (byte-identical to the
/// assembly section `npralc alloc` prints for the same input); Error
/// responses carry the classification the failed stage produced.
struct ServeResponse {
  bool Ok = false;
  // --- Error fields ---
  /// statusCodeName() of the failure.
  std::string Code;
  /// Pipeline stage ("parse", "alloc", ...) or serve stage ("admission",
  /// "protocol").
  std::string Stage;
  std::string Message;
  /// Backoff hint for Unavailable rejections, milliseconds; 0 otherwise.
  int RetryAfterMs = 0;
  // --- Ok fields (alloc) ---
  int RegistersUsed = 0;
  int SGR = 0;
  int TotalMoveCost = 0;
  int SpilledRanges = 0;
  bool Degraded = false;
  bool Validated = false;
  /// The allocated physical assembly, or the health/metrics body.
  std::string Body;
};

/// Encode \p R as an Ok or Error payload (field lines, blank line, body).
std::string encodeResponse(const ServeResponse &R);

/// Parse a response payload of frame type \p Type (Ok or Error).
ErrorOr<ServeResponse> parseResponse(uint16_t Type,
                                     const std::string &Payload);

} // namespace npral

#endif // NPRAL_SERVE_PROTOCOL_H
