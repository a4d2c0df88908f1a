// net::Server — the epoll front end that puts api::AuditEngine on a socket.
//
// Architecture (a small acceptor+IO thread set, no thread-per-connection):
//
//   - `io_threads` long-lived IO threads, each owning one epoll instance
//     and an exclusive set of connections (a connection's socket is only
//     ever read/registered by its owning thread, so per-connection parser
//     state needs no lock).  Thread 0 additionally owns the listener and
//     deals accepted connections round-robin to the set.
//   - Sockets are non-blocking; reads and writes run readiness-driven with
//     explicit partial-read (FrameAssembler) and partial-write (per-
//     connection queue + offset) state machines.  EPOLLOUT is armed only
//     while a connection has queued bytes.
//   - A decoded audit request is handed to AuditEngine::audit_async with a
//     completion callback: the engine's serve workers run the inspection
//     and the callback queues the response frame and wakes the owning IO
//     thread through its eventfd.  When the engine's bounded queue is full,
//     audit_async blocks the IO thread — the socket stops being read, TCP
//     flow control pushes back on clients, and memory stays bounded
//     instead of buffering an unbounded backlog.
//   - Before any of that, AdmissionControl (net/admission.hpp) gates each
//     request on per-connection in-flight/request/byte budgets and the
//     server-wide in-flight cap, rejecting with typed kBudgetExhausted
//     frames while the body is still undecoded — overload degrades into
//     cheap typed rejections, not collapse.  Idle connections are swept on
//     a timeout.
//
// The engine is borrowed and must outlive the server; stop() (and the
// destructor) quiesces the IO threads and then drains every in-flight
// completion callback before tearing down the wakeup fds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "api/status.hpp"
#include "net/admission.hpp"
#include "net/frame.hpp"
#include "net/messages.hpp"
#include "net/socket.hpp"
#include "util/thread_annotations.hpp"

namespace bprom::net {

struct ServerConfig {
  /// Numeric IPv4 listen address.
  std::string host = "127.0.0.1";
  /// Listen port; 0 asks the kernel for one (read it back with port()).
  std::uint16_t port = 0;
  /// IO threads (epoll loops).  Thread 0 also accepts.
  std::size_t io_threads = 1;
  /// Accepted-connection cap; connections past it are closed immediately.
  std::size_t max_connections = 256;
  /// Ceiling on one frame's body; oversized length prefixes are rejected
  /// before any body buffering happens.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Close connections with no traffic and no in-flight audits for this
  /// long (0 = never).
  std::uint64_t idle_timeout_ms = 0;
  /// stop() drains gracefully: stop accepting, let in-flight audits finish
  /// and their responses flush, close connections as they empty, and only
  /// hard-stop once every connection is gone or this many milliseconds
  /// have passed.  0 begins the drain but waits for nothing (in-flight
  /// responses may be dropped on the floor).
  std::uint64_t drain_timeout_ms = 5000;
  /// Connection-level budgets and in-flight caps (see net/admission.hpp).
  AdmissionConfig admission;
};

class Server {
 public:
  /// Borrow `engine`; it must outlive this server.
  Server(api::AuditEngine& engine, ServerConfig config);

  /// stop()s if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and start the IO threads.  Safe to call once.
  api::Status start();

  /// Quiesce gracefully: begin_drain(), wait for every connection to
  /// finish and flush (bounded by drain_timeout_ms), then join the IO
  /// threads and drain in-flight audit completions.  Idempotent.
  void stop();

  /// Enter drain mode without blocking: the listener stops accepting, new
  /// audit requests are refused with a typed kFailedPrecondition, in-flight
  /// audits finish and their responses flush, and each connection closes
  /// once it has nothing left in flight or queued.  Also triggered remotely
  /// by the kShutdownRequest wire message.  Irreversible.
  void begin_drain();

  /// True once begin_drain()/stop()/a shutdown message started a drain.
  [[nodiscard]] bool draining() const {
    // acquire: pairs with begin_drain's release store (observers read the
    // flag after the IO threads were woken).
    return draining_.load(std::memory_order_acquire);
  }

  /// Port the listener bound to (after a successful start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Transport + admission counters (the server half of the stats frame).
  [[nodiscard]] ServerCounters counters() const;

 private:
  struct Connection;
  struct IoThread;

  void io_loop(IoThread& io, bool is_acceptor);
  void accept_ready(IoThread& io);
  void adopt_incoming(IoThread& io);
  void handle_readable(IoThread& io, const std::shared_ptr<Connection>& conn);
  void dispatch_frame(IoThread& io, const std::shared_ptr<Connection>& conn,
                      const FrameHeader& header,
                      std::vector<std::uint8_t>& body);
  void handle_audit(IoThread& io, const std::shared_ptr<Connection>& conn,
                    const FrameHeader& header, std::vector<std::uint8_t>& body);
  /// Append an encoded frame to the connection's write queue and flush
  /// inline.  IO-thread only.
  void enqueue_write(IoThread& io, const std::shared_ptr<Connection>& conn,
                     std::vector<std::uint8_t> frame);
  void send_error(IoThread& io, const std::shared_ptr<Connection>& conn,
                  std::uint64_t request_id, const api::Status& status);
  /// Drain the write queue as far as the socket allows; arms/disarms
  /// EPOLLOUT to match.  IO-thread only.
  void flush_writes(IoThread& io, const std::shared_ptr<Connection>& conn);
  void close_connection(IoThread& io, const std::shared_ptr<Connection>& conn);
  void sweep_idle(IoThread& io);
  /// Drain-mode sweep: close every connection with no in-flight audit and
  /// an empty write queue.  IO-thread only.
  void sweep_draining(IoThread& io);
  void update_epoll(IoThread& io, Connection& conn);
  void wake(IoThread& io);

  api::AuditEngine* engine_;
  ServerConfig config_;
  AdmissionControl admission_;

  Socket listener_;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::vector<std::unique_ptr<IoThread>> io_threads_;
  std::atomic<std::size_t> next_io_thread_{0};

  // Transport tallies (admission tallies live in admission_).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> connections_idle_closed_{0};
  std::atomic<std::uint64_t> rejected_protocol_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};

  /// Completion-callback drain barrier for stop(): callbacks touch the
  /// owning IoThread's eventfd, so the fds may only close after the last
  /// callback has run.
  util::Mutex drain_mu_;
  util::CondVar drain_cv_;
  std::size_t callbacks_in_flight_ BPROM_GUARDED_BY(drain_mu_) = 0;
};

}  // namespace bprom::net
