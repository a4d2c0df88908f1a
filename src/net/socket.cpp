#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/failpoint.hpp"

namespace bprom::net {

namespace {

api::Status errno_status(const std::string& what) {
  return api::Status::Internal(what + ": " + std::strerror(errno));
}

using Clock = std::chrono::steady_clock;

/// Milliseconds left before `deadline` (clamped at 0), for poll().
int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(left.count());
}

/// poll() one fd for `events` until the deadline.  Returns OK when ready,
/// kDeadlineExceeded when time ran out, kInternal on a poll error.
/// `timeout_ms <= 0` means no deadline.
api::Status poll_until(int fd, short events, int timeout_ms,
                       Clock::time_point deadline, const char* what) {
  for (;;) {
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int wait = timeout_ms <= 0 ? -1 : remaining_ms(deadline);
    const int rc = ::poll(&p, 1, wait);
    if (rc > 0) return api::Status::Ok();
    if (rc == 0) {
      return api::Status::DeadlineExceeded(std::string(what) +
                                           " timed out after " +
                                           std::to_string(timeout_ms) + "ms");
    }
    if (errno == EINTR) continue;
    return errno_status(std::string("poll(") + what + ")");
  }
}

api::Result<sockaddr_in> parse_addr(const std::string& host,
                                    std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return api::Status::InvalidRequest("'" + host +
                                       "' is not a numeric IPv4 address");
  }
  return addr;
}

}  // namespace

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

api::Result<Socket> listen_on(const std::string& host, std::uint16_t port,
                              int backlog) {
  auto addr = parse_addr(host, port);
  if (!addr.ok()) return addr.status();
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) return errno_status("socket()");
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr.value()),
             sizeof(sockaddr_in)) != 0) {
    return errno_status("bind(" + host + ":" + std::to_string(port) + ")");
  }
  if (::listen(sock.fd(), backlog) != 0) return errno_status("listen()");
  if (api::Status s = set_nonblocking(sock.fd()); !s.ok()) return s;
  return sock;
}

api::Result<std::uint16_t> local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return errno_status("getsockname()");
  }
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

api::Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return errno_status("fcntl(O_NONBLOCK)");
  }
  return api::Status::Ok();
}

api::Result<Socket> connect_to(const std::string& host, std::uint16_t port,
                               int timeout_ms) {
  if (auto hit = BPROM_FAILPOINT("net.connect")) {
    (void)hit;
    return api::Status::Internal("injected connect failure");
  }
  auto addr = parse_addr(host, port);
  if (!addr.ok()) return addr.status();
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) return errno_status("socket()");
  if (api::Status s = set_nonblocking(sock.fd()); !s.ok()) return s;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const int rc =
      ::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr.value()),
                sizeof(sockaddr_in));
  if (rc != 0) {
    // EINTR on a non-blocking connect means it proceeds asynchronously,
    // exactly like EINPROGRESS.
    if (errno != EINPROGRESS && errno != EINTR) {
      return errno_status("connect(" + host + ":" + std::to_string(port) +
                          ")");
    }
    if (api::Status s = poll_until(sock.fd(), POLLOUT, timeout_ms, deadline,
                                   "connect");
        !s.ok()) {
      return s;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return errno_status("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      errno = err;
      return errno_status("connect(" + host + ":" + std::to_string(port) +
                          ")");
    }
  }
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;  // stays non-blocking for send_all/recv_some
}

api::Status send_all(int fd, const std::uint8_t* data, std::size_t n,
                     int timeout_ms) {
  if (auto hit = BPROM_FAILPOINT("net.send")) {
    (void)hit;
    return api::Status::Internal("injected send failure");
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           timeout_ms <= 0 ? 0 : timeout_ms);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (api::Status s =
              poll_until(fd, POLLOUT, timeout_ms, deadline, "send");
          !s.ok()) {
        return s;
      }
      continue;
    }
    return errno_status("send()");
  }
  return api::Status::Ok();
}

api::Status recv_some(int fd, std::uint8_t* buf, std::size_t cap,
                      std::size_t* got, int timeout_ms) {
  *got = 0;
  // A stalled peer: the delay action here lets tests hold a reader just
  // long enough to trip the timeout below.
  (void)BPROM_FAILPOINT("net.recv.stall");
  if (auto hit = BPROM_FAILPOINT("net.recv")) {
    (void)hit;
    return api::Status::Internal("injected recv failure");
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           timeout_ms <= 0 ? 0 : timeout_ms);
  for (;;) {
    const ssize_t rc = ::recv(fd, buf, cap, 0);
    if (rc >= 0) {
      *got = static_cast<std::size_t>(rc);
      return api::Status::Ok();
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (api::Status s = poll_until(fd, POLLIN, timeout_ms, deadline, "recv");
          !s.ok()) {
        return s;
      }
      continue;
    }
    return errno_status("recv()");
  }
}

}  // namespace bprom::net
