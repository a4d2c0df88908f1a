// Thin RAII + Status-typed wrappers over the POSIX socket calls the net
// subsystem uses.  Nothing here knows about frames or messages — just fds,
// addresses, and partial-IO-correct send/recv helpers.  The client-side
// helpers (connect_to, send_all, recv_some) carry the net.* failpoints.
// Addresses are numeric IPv4 only ("127.0.0.1"): the serving deployments
// this front end targets sit behind their own load balancer / service
// discovery, so name resolution stays out of the dependency set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "api/status.hpp"

namespace bprom::net {

/// Move-only owner of a socket fd (closed on destruction).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  /// Release and close the fd now (idempotent).
  void close();

 private:
  int fd_ = -1;
};

/// Bound + listening TCP socket on `host:port` (port 0 = kernel-assigned;
/// read it back with local_port).  SO_REUSEADDR set, non-blocking.
api::Result<Socket> listen_on(const std::string& host, std::uint16_t port,
                              int backlog);

/// TCP connect to `host:port` with TCP_NODELAY: non-blocking connect +
/// poll(POLLOUT), failing with kDeadlineExceeded after `timeout_ms` (a
/// SYN-dropping peer does not hang the caller for the kernel's multi-minute
/// default).  timeout_ms <= 0 waits without a deadline.  The returned
/// socket is non-blocking — pair it with send_all/recv_some below.
api::Result<Socket> connect_to(const std::string& host, std::uint16_t port,
                               int timeout_ms);

/// Port a bound socket actually landed on (after listen_on with port 0).
api::Result<std::uint16_t> local_port(int fd);

api::Status set_nonblocking(int fd);

/// Whole-buffer write on a non-blocking fd: poll(POLLOUT) between partial
/// writes, kDeadlineExceeded when `timeout_ms` elapses with bytes still
/// unsent.  timeout_ms <= 0 waits without a deadline.
api::Status send_all(int fd, const std::uint8_t* data, std::size_t n,
                     int timeout_ms);

/// Read of up to `cap` bytes on a non-blocking fd: poll(POLLIN) until data,
/// peer close (*got == 0), or `timeout_ms` elapses (kDeadlineExceeded).
/// timeout_ms <= 0 waits without a deadline.
api::Status recv_some(int fd, std::uint8_t* buf, std::size_t cap,
                      std::size_t* got, int timeout_ms);

}  // namespace bprom::net
