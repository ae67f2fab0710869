//===- Socket.h - Unix-domain socket helpers --------------------*- C++ -*-===//
///
/// \file
/// Thin RAII wrappers over AF_UNIX stream sockets for the allocation
/// service (src/serve/). Three pieces:
///
///  * UnixSocket   — an owned fd with exact-length read/write loops that
///                   retry on EINTR and report failures as Status (never
///                   SIGPIPE: writes use MSG_NOSIGNAL).
///  * UnixListener — bind + listen on a filesystem path, with a poll-based
///                   accept that can be interrupted through a wake pipe
///                   (the server's shutdown signal path writes one byte to
///                   the pipe and accept() returns "interrupted").
///  * WakePipe     — a self-pipe whose write end is async-signal-safe to
///                   poke from a signal handler.
///
/// Everything here is Linux/POSIX; the repo's toolchain guarantees it. No
/// other subsystem may talk to the network — the service listens on a
/// local Unix socket only.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_SUPPORT_SOCKET_H
#define NPRAL_SUPPORT_SOCKET_H

#include "support/Status.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace npral {

/// An owned socket (or pipe) fd. Move-only; closes on destruction.
class UnixSocket {
public:
  UnixSocket() = default;
  explicit UnixSocket(int Fd) : Fd(Fd) {}
  ~UnixSocket() { close(); }

  UnixSocket(UnixSocket &&Other) noexcept : Fd(Other.Fd) { Other.Fd = -1; }
  UnixSocket &operator=(UnixSocket &&Other) noexcept {
    if (this != &Other) {
      close();
      Fd = Other.Fd;
      Other.Fd = -1;
    }
    return *this;
  }
  UnixSocket(const UnixSocket &) = delete;
  UnixSocket &operator=(const UnixSocket &) = delete;

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }

  /// Connect to the Unix socket at \p Path.
  static ErrorOr<UnixSocket> connectTo(const std::string &Path);

  /// Read exactly \p Len bytes. Fails with IOError on EOF mid-buffer or a
  /// socket error; a clean EOF before the first byte reports
  /// "connection closed" with \p SawEOF (when non-null) set so framed
  /// readers can tell an orderly close from a truncated frame.
  Status readExact(void *Buf, size_t Len, bool *SawEOF = nullptr) const;

  /// Write exactly \p Len bytes (MSG_NOSIGNAL; EPIPE surfaces as IOError).
  Status writeAll(const void *Buf, size_t Len) const;

  /// shutdown(2) the read side: a blocked reader returns EOF, the write
  /// side stays open for in-flight responses.
  void shutdownRead() const;
  /// shutdown(2) both directions.
  void shutdownBoth() const;

  /// True when reading this socket reaches EOF without waiting on the
  /// peer: the peer closed or shut down both sides (nothing more arrives
  /// and every write fails at once), or it shut down its write side and
  /// all it sent has been read. Never blocks.
  bool drainsToEOF() const;

  /// Bound every send by \p Ms milliseconds (SO_SNDTIMEO) so one client
  /// that stops reading cannot wedge a server worker forever.
  void setSendTimeoutMs(int Ms) const;

  void close();

private:
  int Fd = -1;
};

/// A self-pipe: poke() is async-signal-safe, readFd() is pollable.
class WakePipe {
public:
  WakePipe();
  ~WakePipe();
  WakePipe(const WakePipe &) = delete;
  WakePipe &operator=(const WakePipe &) = delete;

  bool valid() const { return Fds[0] >= 0; }
  int readFd() const { return Fds[0]; }
  /// The raw write end, for signal handlers that must write(2) directly.
  int writeFd() const { return Fds[1]; }
  /// Write one byte to the pipe. Safe from a signal handler.
  void poke() const;
  /// Consume any pending bytes (non-blocking).
  void drain() const;

private:
  int Fds[2] = {-1, -1};
};

/// Listening Unix socket bound to a filesystem path. Unlinks the path on
/// destruction (only the path it bound itself).
class UnixListener {
public:
  UnixListener() = default;
  ~UnixListener();
  UnixListener(const UnixListener &) = delete;
  UnixListener &operator=(const UnixListener &) = delete;

  /// Bind and listen on \p Path. An existing socket file that still
  /// accepts connections is "address in use"; a stale one is unlinked.
  Status listenOn(const std::string &Path, int Backlog = 64);

  bool valid() const { return Sock.valid(); }
  const std::string &path() const { return Path; }

  /// Wait for a connection or a byte on \p WakeFd. Returns the accepted
  /// socket; a wake (or closed listener) fails with Unavailable, a real
  /// socket error with IOError.
  ErrorOr<UnixSocket> accept(int WakeFd) const;

  /// Close the listening socket (accept() starts failing) and remove the
  /// socket file so new connect() attempts fail immediately.
  void close();

private:
  UnixSocket Sock;
  std::string Path;
};

/// Resident-set size of the current process in bytes (Linux
/// /proc/self/status VmRSS); 0 when unavailable. The soak test uses this
/// to assert bounded memory growth across 10^5 requests.
int64_t currentRSSBytes();

} // namespace npral

#endif // NPRAL_SUPPORT_SOCKET_H
