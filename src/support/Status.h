//===- Status.h - Structured recoverable errors -----------------*- C++ -*-===//
//
// Part of NPRAL, a reproduction of Zhuang & Pande, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured recoverable-error machinery. Library code never throws and
/// never calls exit(); fallible operations return ErrorOr<T> or Status and
/// callers decide how to surface failures.
///
/// Every failed Status carries a StatusCode so callers can branch on *what
/// kind* of failure occurred — the spill fallback degrades Infeasible
/// allocations when spilling is permitted, and the batch pipeline treats
/// CacheCorrupt as a cache miss and reports DeadlineExceeded /
/// FaultInjected per item instead of aborting the fleet. The code is
/// classification, not prose: the human-readable message still follows the
/// LLVM error style (lowercase first letter, no trailing period).
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_SUPPORT_STATUS_H
#define NPRAL_SUPPORT_STATUS_H

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace npral {

/// Classification of a failure. Codes describe the *stage contract* that
/// was violated, not the callee that noticed: a malformed `.s` file is a
/// ParseError wherever it surfaces.
enum class StatusCode {
  Ok = 0,
  /// Unclassified failure (the pre-structured-error default).
  Generic,
  /// Textual assembly that does not parse.
  ParseError,
  /// A Program violating the IR structural rules.
  InvalidIR,
  /// A register read before any definition on some path.
  UseOfUndef,
  /// A register budget no allocation can meet (even after degradation).
  Infeasible,
  /// A cached artifact whose integrity check failed.
  CacheCorrupt,
  /// The job's deadline passed before it returned.
  DeadlineExceeded,
  /// A deterministic test fault from the FaultInjector.
  FaultInjected,
  /// File or stream I/O failure.
  IOError,
  /// An internal invariant violation surfaced as a recoverable error.
  Internal,
  /// The server is overloaded or draining; the request was rejected before
  /// any work started and is safe to retry (serve admission control).
  Unavailable,
  /// The request was accepted but abandoned before it ran (server drain).
  Cancelled,
};

/// Stable lower-case name of \p Code ("parse-error", "infeasible", ...),
/// used in failed[] reports and metrics keys.
const char *statusCodeName(StatusCode Code);

/// A source location inside a textual assembly file: 1-based line and column.
struct SourceLoc {
  int Line = 0;
  int Column = 0;

  bool isValid() const { return Line > 0; }
  std::string str() const;
};

/// Outcome of a fallible operation that produces no value.
///
/// A Status is either success (default) or failure with a StatusCode, a
/// human-readable message and an optional source location.
class Status {
public:
  Status() = default;

  static Status success() { return Status(); }
  static Status error(std::string Message, SourceLoc Loc = SourceLoc());
  static Status error(StatusCode Code, std::string Message,
                      SourceLoc Loc = SourceLoc());

  bool ok() const { return !Failed; }
  explicit operator bool() const { return ok(); }

  /// Classification of a failed status; Ok on success.
  StatusCode code() const { return Code; }

  /// Message of a failed status; empty on success.
  const std::string &message() const { return Message; }
  SourceLoc loc() const { return Loc; }

  /// Render "line L, column C: message" (or just the message when the
  /// location is unknown).
  std::string str() const;

private:
  bool Failed = false;
  StatusCode Code = StatusCode::Ok;
  std::string Message;
  SourceLoc Loc;
};

/// Value-or-error wrapper for fallible producers, in the spirit of
/// llvm::ErrorOr but without error_code interop.
template <typename T> class ErrorOr {
public:
  ErrorOr(T Value) : Value(std::move(Value)) {}
  ErrorOr(Status Err) : Err(std::move(Err)) {
    assert(!this->Err.ok() && "ErrorOr constructed from a success status");
  }

  bool ok() const { return Value.has_value(); }
  explicit operator bool() const { return ok(); }

  T &operator*() {
    assert(ok() && "dereferencing failed ErrorOr");
    return *Value;
  }
  const T &operator*() const {
    assert(ok() && "dereferencing failed ErrorOr");
    return *Value;
  }
  T *operator->() { return &**this; }
  const T *operator->() const { return &**this; }

  const Status &status() const { return Err; }
  /// Move the contained value out; only valid when ok().
  T take() {
    assert(ok() && "taking value of failed ErrorOr");
    return std::move(*Value);
  }

private:
  std::optional<T> Value;
  Status Err;
};

/// Abort with a message; used for internal invariant violations that must
/// fire even in release builds (analogue of llvm::report_fatal_error).
[[noreturn]] void reportFatalError(const std::string &Message);

} // namespace npral

#endif // NPRAL_SUPPORT_STATUS_H
