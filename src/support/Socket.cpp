//===- Socket.cpp ---------------------------------------------------------===//

#include "support/Socket.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace npral;

namespace {

Status ioError(const char *What) {
  return Status::error(StatusCode::IOError,
                       std::string(What) + ": " + std::strerror(errno));
}

/// Fill a sockaddr_un for \p Path; fails when the path does not fit the
/// fixed sun_path field (107 usable bytes on Linux).
Status fillAddr(const std::string &Path, sockaddr_un &Addr) {
  if (Path.empty())
    return Status::error(StatusCode::IOError, "empty socket path");
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return Status::error(StatusCode::IOError,
                         "socket path too long: '" + Path + "'");
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  return Status::success();
}

} // namespace

ErrorOr<UnixSocket> UnixSocket::connectTo(const std::string &Path) {
  sockaddr_un Addr;
  if (Status S = fillAddr(Path, Addr); !S.ok())
    return S;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return ioError("socket");
  UnixSocket Sock(Fd);
  int Rc;
  do {
    Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  } while (Rc < 0 && errno == EINTR);
  if (Rc < 0)
    return ioError(("connect '" + Path + "'").c_str());
  return Sock;
}

Status UnixSocket::readExact(void *Buf, size_t Len, bool *SawEOF) const {
  if (SawEOF)
    *SawEOF = false;
  char *P = static_cast<char *>(Buf);
  size_t Got = 0;
  while (Got < Len) {
    ssize_t N = ::read(Fd, P + Got, Len - Got);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return ioError("read");
    }
    if (N == 0) {
      if (SawEOF && Got == 0)
        *SawEOF = true;
      return Status::error(StatusCode::IOError,
                           Got == 0 ? "connection closed"
                                    : "connection closed mid-frame");
    }
    Got += static_cast<size_t>(N);
  }
  return Status::success();
}

Status UnixSocket::writeAll(const void *Buf, size_t Len) const {
  const char *P = static_cast<const char *>(Buf);
  size_t Sent = 0;
  while (Sent < Len) {
    ssize_t N = ::send(Fd, P + Sent, Len - Sent, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return ioError("write");
    }
    Sent += static_cast<size_t>(N);
  }
  return Status::success();
}

void UnixSocket::shutdownRead() const { ::shutdown(Fd, SHUT_RD); }
void UnixSocket::shutdownBoth() const { ::shutdown(Fd, SHUT_RDWR); }

bool UnixSocket::drainsToEOF() const {
  pollfd P{Fd, POLLRDHUP, 0};
  if (::poll(&P, 1, 0) != 1)
    return false;
  if (P.revents & (POLLHUP | POLLERR))
    return true;
  int Unread = 0;
  return (P.revents & POLLRDHUP) && ::ioctl(Fd, FIONREAD, &Unread) == 0 &&
         Unread == 0;
}

void UnixSocket::setSendTimeoutMs(int Ms) const {
  timeval TV;
  TV.tv_sec = Ms / 1000;
  TV.tv_usec = (Ms % 1000) * 1000;
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &TV, sizeof(TV));
}

void UnixSocket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

WakePipe::WakePipe() {
  if (::pipe2(Fds, O_CLOEXEC) != 0) {
    Fds[0] = Fds[1] = -1;
    return;
  }
  // The write side must never block a signal handler; the read side is
  // drained non-blockingly too.
  ::fcntl(Fds[0], F_SETFL, O_NONBLOCK);
  ::fcntl(Fds[1], F_SETFL, O_NONBLOCK);
}

WakePipe::~WakePipe() {
  for (int &Fd : Fds)
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
}

void WakePipe::poke() const {
  if (Fds[1] >= 0) {
    char B = 1;
    // Best-effort: a full pipe already guarantees a pending wake.
    [[maybe_unused]] ssize_t N = ::write(Fds[1], &B, 1);
  }
}

void WakePipe::drain() const {
  char Buf[64];
  while (Fds[0] >= 0 && ::read(Fds[0], Buf, sizeof(Buf)) > 0)
    ;
}

UnixListener::~UnixListener() { close(); }

Status UnixListener::listenOn(const std::string &P, int Backlog) {
  sockaddr_un Addr;
  if (Status S = fillAddr(P, Addr); !S.ok())
    return S;
  // A live server owns its path: probe before stealing it. Only a stale
  // socket file (connect refused) is unlinked.
  struct stat St;
  if (::lstat(P.c_str(), &St) == 0) {
    if (!S_ISSOCK(St.st_mode))
      return Status::error(StatusCode::IOError,
                           "'" + P + "' exists and is not a socket");
    if (ErrorOr<UnixSocket> Probe = UnixSocket::connectTo(P); Probe.ok())
      return Status::error(StatusCode::IOError,
                           "address in use: a server is already listening "
                           "on '" +
                               P + "'");
    ::unlink(P.c_str());
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return ioError("socket");
  UnixSocket S(Fd);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    return ioError(("bind '" + P + "'").c_str());
  if (::listen(Fd, Backlog) != 0) {
    ::unlink(P.c_str());
    return ioError("listen");
  }
  Sock = std::move(S);
  Path = P;
  return Status::success();
}

ErrorOr<UnixSocket> UnixListener::accept(int WakeFd) const {
  for (;;) {
    if (!Sock.valid())
      return Status::error(StatusCode::Unavailable, "listener closed");
    pollfd Fds[2];
    Fds[0].fd = Sock.fd();
    Fds[0].events = POLLIN;
    Fds[1].fd = WakeFd;
    Fds[1].events = POLLIN;
    int Rc = ::poll(Fds, WakeFd >= 0 ? 2 : 1, -1);
    if (Rc < 0) {
      if (errno == EINTR)
        continue;
      return ioError("poll");
    }
    if (WakeFd >= 0 && (Fds[1].revents & (POLLIN | POLLHUP | POLLERR)))
      return Status::error(StatusCode::Unavailable, "accept interrupted");
    if (Fds[0].revents & (POLLHUP | POLLERR | POLLNVAL))
      return Status::error(StatusCode::IOError, "listener error");
    if (!(Fds[0].revents & POLLIN))
      continue;
    int Fd = ::accept4(Sock.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN)
        continue;
      return ioError("accept");
    }
    return UnixSocket(Fd);
  }
}

void UnixListener::close() {
  if (Sock.valid()) {
    Sock.close();
    if (!Path.empty())
      ::unlink(Path.c_str());
    Path.clear();
  }
}

int64_t npral::currentRSSBytes() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  int64_t KiB = 0;
  while (std::fgets(Line, sizeof(Line), F)) {
    if (std::strncmp(Line, "VmRSS:", 6) == 0) {
      KiB = std::strtoll(Line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(F);
  return KiB * 1024;
}
