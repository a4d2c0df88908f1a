#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <utility>

#include "net/frame.hpp"
#include "nn/blackbox.hpp"

namespace bprom::net {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

/// Per-connection state.  Fields fall into two ownership classes: state
/// shared with engine completion callbacks, guarded by `mu`, and plain
/// fields owned exclusively by the connection's IO thread (parser, budgets,
/// epoll bookkeeping) — those need no lock because a connection never
/// changes threads.  `closed` is a flag both parties read.
struct Server::Connection {
  Connection(Socket socket, std::size_t max_frame_bytes)
      : sock(std::move(socket)),
        assembler(max_frame_bytes),
        last_activity(Clock::now()) {}

  Socket sock;
  std::atomic<bool> closed{false};

  // --- owning IO thread only ---
  FrameAssembler assembler;
  std::uint64_t requests_seen = 0;
  std::uint64_t bytes_seen = 0;
  Clock::time_point last_activity;
  bool want_write = false;
  bool close_after_flush = false;
  std::size_t io_index = 0;

  // --- shared with completion callbacks ---
  util::Mutex mu;
  /// Admitted audits whose completion has not run yet.
  std::size_t in_flight BPROM_GUARDED_BY(mu) = 0;
  std::deque<std::vector<std::uint8_t>> write_queue BPROM_GUARDED_BY(mu);
  std::size_t write_offset BPROM_GUARDED_BY(mu) = 0;  // into front()
};

/// One epoll loop.  `conns` is owned by the loop's thread alone; the
/// mutex-guarded hand-off vectors are how other threads (the acceptor,
/// engine completion callbacks) reach it, always paired with an eventfd
/// wakeup.
struct Server::IoThread {
  std::size_t index = 0;
  int epoll_fd = -1;
  int event_fd = -1;

  util::Mutex mu;
  std::vector<std::shared_ptr<Connection>> incoming BPROM_GUARDED_BY(mu);
  std::vector<std::shared_ptr<Connection>> writable BPROM_GUARDED_BY(mu);

  // --- this IoThread's loop only ---
  std::map<int, std::shared_ptr<Connection>> conns;

  // Long-lived epoll pump, owned and joined by Server::stop(): routing it
  // through the work-assisting ThreadPool would wedge the pool (the loop
  // blocks in epoll_wait forever), and it never touches order-dependent
  // reductions.
  // bprom-lint: allow(raw-thread)
  std::thread thread;

  ~IoThread() {
    if (event_fd >= 0) ::close(event_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }
};

Server::Server(api::AuditEngine& engine, ServerConfig config)
    : engine_(&engine),
      config_(std::move(config)),
      admission_(config_.admission) {}

Server::~Server() { stop(); }

api::Status Server::start() {
  if (started_) {
    return api::Status::FailedPrecondition("server is already running");
  }
  auto listener = listen_on(config_.host, config_.port, 128);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  auto bound = local_port(listener_.fd());
  if (!bound.ok()) return bound.status();
  port_ = bound.value();

  const std::size_t n = std::max<std::size_t>(1, config_.io_threads);
  io_threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto io = std::make_unique<IoThread>();
    io->index = i;
    io->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    io->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (io->epoll_fd < 0 || io->event_fd < 0) {
      io_threads_.clear();
      listener_.close();
      return api::Status::Internal(std::string("epoll/eventfd setup: ") +
                                   std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = io->event_fd;
    ::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, io->event_fd, &ev);
    if (i == 0) {
      ev.data.fd = listener_.fd();
      ::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, listener_.fd(), &ev);
    }
    io_threads_.push_back(std::move(io));
  }
  stopping_.store(false, std::memory_order_release);
  for (std::size_t i = 0; i < n; ++i) {
    // See IoThread::thread for why these are raw threads.
    io_threads_[i]->thread =
        // bprom-lint: allow(raw-thread)
        std::thread([this, i] { io_loop(*io_threads_[i], i == 0); });
  }
  started_ = true;
  return api::Status::Ok();
}

void Server::begin_drain() {
  if (!started_) return;
  // release: the IO threads' acquire loads (and the eventfd wakeups below)
  // publish the mode switch; each loop then deregisters the listener and
  // starts sweeping finished connections closed.
  draining_.store(true, std::memory_order_release);
  for (auto& io : io_threads_) wake(*io);
}

void Server::stop() {
  if (!started_) return;
  // Graceful half: let in-flight audits finish and their responses reach
  // the wire.  The IO threads close each connection as it empties, so
  // "every connection gone" means "everything owed was flushed".  A zero
  // timeout begins the drain and waits for nothing.
  begin_drain();
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.drain_timeout_ms);
  // relaxed: statistics tally read; the sleep loop only needs the value
  // to eventually reach zero, not ordering against connection state.
  while (connections_active_.load(std::memory_order_relaxed) > 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stopping_.store(true, std::memory_order_release);
  for (auto& io : io_threads_) wake(*io);
  for (auto& io : io_threads_) {
    if (io->thread.joinable()) io->thread.join();
  }
  {
    // Completion callbacks signal IoThread eventfds; the fds (closed by
    // ~IoThread below) must outlive the last callback.
    util::MutexLock lock(drain_mu_);
    while (callbacks_in_flight_ > 0) drain_cv_.wait(drain_mu_);
  }
  io_threads_.clear();
  listener_.close();
  started_ = false;
}

void Server::wake(IoThread& io) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t rc =
      ::write(io.event_fd, &one, sizeof(one));
}

void Server::io_loop(IoThread& io, bool is_acceptor) {
  std::array<epoll_event, 64> events;
  int timeout_ms = 500;  // upper bound on stop() latency
  if (config_.idle_timeout_ms > 0) {
    timeout_ms = std::clamp<int>(
        static_cast<int>(config_.idle_timeout_ms / 2), 10, 500);
  }
  bool listener_live = is_acceptor;
  // acquire: pairs with stop()'s release store so the loop observes the
  // flag promptly after its eventfd wakeup.
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(io.epoll_fd, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd died under us: tear this loop down
    }
    // Drain step 1: stop accepting.  Only this loop touches the listener's
    // epoll registration, so deregistering here (not in begin_drain, which
    // may run on any thread) cannot race the accept path below.
    if (listener_live && draining()) {
      ::epoll_ctl(io.epoll_fd, EPOLL_CTL_DEL, listener_.fd(), nullptr);
      listener_live = false;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == io.event_fd) {
        std::uint64_t drained = 0;
        while (::read(io.event_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (is_acceptor && fd == listener_.fd()) {
        if (listener_live) accept_ready(io);
        continue;
      }
      auto it = io.conns.find(fd);
      if (it == io.conns.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(io, conn);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) flush_writes(io, conn);
      if (conn->closed.load(std::memory_order_acquire)) continue;
      if ((ev & EPOLLIN) != 0) handle_readable(io, conn);
    }
    adopt_incoming(io);
    if (config_.idle_timeout_ms > 0) sweep_idle(io);
    // Drain steps 2+3: in-flight audits finish through the normal
    // completion path; connections close the moment they owe nothing.
    if (draining()) sweep_draining(io);
  }
  // Teardown: this thread owns these sockets, so it closes them.
  for (auto& [fd, conn] : io.conns) {
    if (!conn->closed.exchange(true)) {
      conn->sock.close();
      // relaxed: statistics tally (stats endpoint snapshot, not a
      // transaction).
      connections_active_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  io.conns.clear();
}

void Server::accept_ready(IoThread& io) {
  for (;;) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained) or a transient accept error: try later
    }
    // relaxed: statistics tally; the cap check below tolerates snapshot
    // slack (it is a protection valve, not an exact quota).
    if (connections_active_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn =
        std::make_shared<Connection>(Socket(fd), config_.max_frame_bytes);
    // relaxed: statistics tallies (see above).
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);
    // relaxed: round-robin dealing needs uniqueness, not ordering.
    const std::size_t target =
        next_io_thread_.fetch_add(1, std::memory_order_relaxed) %
        io_threads_.size();
    conn->io_index = target;
    IoThread& owner = *io_threads_[target];
    if (&owner == &io) {
      io.conns[conn->sock.fd()] = conn;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = conn->sock.fd();
      ::epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, conn->sock.fd(), &ev);
    } else {
      {
        util::MutexLock lock(owner.mu);
        owner.incoming.push_back(conn);
      }
      wake(owner);
    }
  }
}

void Server::adopt_incoming(IoThread& io) {
  std::vector<std::shared_ptr<Connection>> incoming;
  std::vector<std::shared_ptr<Connection>> writable;
  {
    util::MutexLock lock(io.mu);
    incoming.swap(io.incoming);
    writable.swap(io.writable);
  }
  for (auto& conn : incoming) {
    if (conn->closed.load(std::memory_order_acquire)) continue;
    io.conns[conn->sock.fd()] = conn;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->sock.fd();
    ::epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, conn->sock.fd(), &ev);
  }
  for (auto& conn : writable) {
    if (conn->closed.load(std::memory_order_acquire)) continue;
    flush_writes(io, conn);
  }
}

void Server::handle_readable(IoThread& io,
                             const std::shared_ptr<Connection>& conn) {
  if (conn->close_after_flush) return;  // draining; input is dead
  std::array<std::uint8_t, 64 * 1024> buf;
  for (;;) {
    const ssize_t n = ::recv(conn->sock.fd(), buf.data(), buf.size(), 0);
    if (n > 0) {
      // relaxed: statistics tally.
      bytes_received_.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      conn->bytes_seen += static_cast<std::uint64_t>(n);
      conn->last_activity = Clock::now();
      conn->assembler.append(buf.data(), static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {  // orderly peer close
      close_connection(io, conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(io, conn);
    return;
  }
  FrameHeader header;
  std::vector<std::uint8_t> body;
  for (;;) {
    const FrameAssembler::Next next = conn->assembler.next(&header, &body);
    if (next == FrameAssembler::Next::kNeedMore) break;
    if (next == FrameAssembler::Next::kError) {
      // The stream cannot be resynchronized (bad magic / oversized length
      // prefix): answer with the typed reason, then drain and close.
      // relaxed: statistics tally.
      rejected_protocol_.fetch_add(1, std::memory_order_relaxed);
      send_error(io, conn, 0, conn->assembler.error());
      conn->close_after_flush = true;
      flush_writes(io, conn);
      return;
    }
    dispatch_frame(io, conn, header, body);
    if (conn->closed.load(std::memory_order_acquire) ||
        conn->close_after_flush) {
      return;
    }
  }
}

void Server::dispatch_frame(IoThread& io,
                            const std::shared_ptr<Connection>& conn,
                            const FrameHeader& header,
                            std::vector<std::uint8_t>& body) {
  if (header.protocol_version > kProtocolVersion) {
    // A newer protocol may have changed the header layout itself, so after
    // answering we stop trusting the stream.
    // relaxed: statistics tally.
    rejected_protocol_.fetch_add(1, std::memory_order_relaxed);
    send_error(io, conn, header.request_id,
               api::Status::VersionMismatch(
                   "protocol version " +
                   std::to_string(header.protocol_version) +
                   " is newer than this server's " +
                   std::to_string(kProtocolVersion)));
    conn->close_after_flush = true;
    flush_writes(io, conn);
    return;
  }
  switch (header.type) {
    case MsgType::kAuditRequest:
      handle_audit(io, conn, header, body);
      return;
    case MsgType::kStatsRequest: {
      try {
        io::Reader reader(std::move(body));
        decode_stats_request(reader);
      } catch (const io::IoError& e) {
        // relaxed: statistics tally.
        rejected_protocol_.fetch_add(1, std::memory_order_relaxed);
        send_error(io, conn, header.request_id, api::status_from(e));
        return;
      }
      StatsResponseMsg msg;
      msg.engine = engine_->stats();
      msg.server = counters();
      io::Writer writer;
      encode_stats_response(writer, msg);
      enqueue_write(io, conn,
                    encode_frame(MsgType::kStatsResponse, header.request_id,
                                 writer));
      return;
    }
    case MsgType::kShutdownRequest: {
      try {
        io::Reader reader(std::move(body));
        decode_shutdown_request(reader);
      } catch (const io::IoError& e) {
        // relaxed: statistics tally.
        rejected_protocol_.fetch_add(1, std::memory_order_relaxed);
        send_error(io, conn, header.request_id, api::status_from(e));
        return;
      }
      // Flip the mode FIRST: a client that has read the acknowledgement
      // must observe draining() == true.  The ack still reaches the wire —
      // it rides the normal write queue, and the drain sweep only closes a
      // connection whose queue has fully flushed.
      begin_drain();
      ShutdownResponseMsg msg;
      io::Writer writer;
      encode_shutdown_response(writer, msg);
      enqueue_write(io, conn,
                    encode_frame(MsgType::kShutdownResponse,
                                 header.request_id, writer));
      return;
    }
    case MsgType::kInfoRequest: {
      InfoRequestMsg request;
      try {
        io::Reader reader(std::move(body));
        request = decode_info_request(reader);
      } catch (const io::IoError& e) {
        // relaxed: statistics tally.
        rejected_protocol_.fetch_add(1, std::memory_order_relaxed);
        send_error(io, conn, header.request_id, api::status_from(e));
        return;
      }
      InfoResponseMsg msg;
      auto info = engine_->info(request.detector);
      if (info.ok()) {
        msg.info = std::move(info).value();
      } else {
        msg.status = info.status();
      }
      io::Writer writer;
      encode_info_response(writer, msg);
      enqueue_write(io, conn,
                    encode_frame(MsgType::kInfoResponse, header.request_id,
                                 writer));
      return;
    }
    default:
      send_error(io, conn, header.request_id,
                 api::Status::InvalidRequest(
                     "unexpected message type " +
                     std::to_string(static_cast<unsigned>(header.type)) +
                     " (clients send audit/stats/info/shutdown requests)"));
      return;
  }
}

void Server::handle_audit(IoThread& io,
                          const std::shared_ptr<Connection>& conn,
                          const FrameHeader& header,
                          std::vector<std::uint8_t>& body) {
  ++conn->requests_seen;
  // A draining server starts no new audits — only the ones already in
  // flight finish.  Typed refusal, so a retrying client fails fast instead
  // of replaying into a closing server.
  if (draining()) {
    send_error(io, conn, header.request_id,
               api::Status::FailedPrecondition("server is draining"));
    return;
  }
  // Admission runs BEFORE the body is decoded: rejecting an over-budget
  // request must stay cheap exactly when the server is overloaded.
  std::size_t in_flight = 0;
  {
    util::MutexLock lock(conn->mu);
    in_flight = conn->in_flight;
  }
  if (api::Status admit = admission_.admit(in_flight, conn->requests_seen,
                                           conn->bytes_seen);
      !admit.ok()) {
    send_error(io, conn, header.request_id, admit);
    return;
  }
  AuditRequestMsg msg;
  try {
    io::Reader reader(std::move(body));
    msg = decode_audit_request(reader);
  } catch (const io::IoError& e) {
    admission_.release();
    // relaxed: statistics tally.
    rejected_protocol_.fetch_add(1, std::memory_order_relaxed);
    send_error(io, conn, header.request_id, api::status_from(e));
    return;
  } catch (const std::exception& e) {
    admission_.release();
    send_error(io, conn, header.request_id, api::Status::Internal(e.what()));
    return;
  }
  // The uploaded model lives in an owning adapter held by the completion
  // callback, so it outlives the whole async audit.
  auto box = std::make_shared<nn::BlackBoxAdapter>(std::move(msg.model));
  api::AuditRequest request;
  request.struct_version = msg.struct_version;
  request.model_id = std::move(msg.model_id);
  request.detector = std::move(msg.detector);
  request.model = box.get();
  request.query_budget = msg.query_budget;
  request.deadline_ms = msg.deadline_ms;
  std::vector<api::AuditRequest> batch;
  batch.push_back(std::move(request));

  {
    util::MutexLock lock(conn->mu);
    ++conn->in_flight;
  }
  {
    util::MutexLock lock(drain_mu_);
    ++callbacks_in_flight_;
  }
  IoThread* owner = io_threads_[conn->io_index].get();
  const std::uint64_t request_id = header.request_id;
  // Backpressure by construction: a full engine queue blocks this submit,
  // which stops this IO thread reading sockets, which lets TCP flow
  // control push back on clients — bounded memory, not a hidden backlog.
  engine_->audit_async(
      std::move(batch),
      [this, conn, box, owner, request_id](
          std::vector<api::AuditResponse> responses) {
        if (responses.empty()) {
          responses.emplace_back().status = api::Status::Internal(
              "engine returned no response for the audit");
        }
        io::Writer writer;
        encode_audit_response(writer, responses[0]);
        std::vector<std::uint8_t> frame =
            encode_frame(MsgType::kAuditResponse, request_id, writer);
        // One critical section frees the slots and queues the response.
        // The IO thread sends under the same lock, so the slots are free
        // before the client can read the frame (a ping-pong client
        // pipelines its next request the instant the frame lands), and a
        // sweep sees either the audit in flight or its response queued.
        {
          util::MutexLock lock(conn->mu);
          --conn->in_flight;
          admission_.release();
          if (!conn->closed.load(std::memory_order_acquire)) {
            conn->write_queue.push_back(std::move(frame));
          }
        }
        {
          util::MutexLock lock(owner->mu);
          owner->writable.push_back(conn);
        }
        wake(*owner);
        {
          util::MutexLock lock(drain_mu_);
          if (--callbacks_in_flight_ == 0) drain_cv_.notify_all();
        }
      });
}

void Server::send_error(IoThread& io, const std::shared_ptr<Connection>& conn,
                        std::uint64_t request_id, const api::Status& status) {
  ErrorMsg msg;
  msg.status = status;
  io::Writer writer;
  encode_error(writer, msg);
  enqueue_write(io, conn, encode_frame(MsgType::kError, request_id, writer));
}

void Server::enqueue_write(IoThread& io,
                           const std::shared_ptr<Connection>& conn,
                           std::vector<std::uint8_t> frame) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  {
    util::MutexLock lock(conn->mu);
    conn->write_queue.push_back(std::move(frame));
  }
  flush_writes(io, conn);
}

void Server::flush_writes(IoThread& io,
                          const std::shared_ptr<Connection>& conn) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  bool fatal = false;
  bool pending = false;
  {
    util::MutexLock lock(conn->mu);
    while (!conn->write_queue.empty()) {
      const std::vector<std::uint8_t>& front = conn->write_queue.front();
      const std::size_t left = front.size() - conn->write_offset;
      const ssize_t n = ::send(conn->sock.fd(),
                               front.data() + conn->write_offset, left,
                               MSG_NOSIGNAL);
      if (n > 0) {
        // relaxed: statistics tally.
        bytes_sent_.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
        conn->write_offset += static_cast<std::size_t>(n);
        conn->last_activity = Clock::now();
        if (conn->write_offset == front.size()) {
          conn->write_queue.pop_front();
          conn->write_offset = 0;
        }
        continue;  // partial write: retry the remainder immediately
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      fatal = true;
      break;
    }
    pending = !conn->write_queue.empty();
  }
  if (fatal) {
    close_connection(io, conn);
    return;
  }
  if (!pending && conn->close_after_flush) {
    close_connection(io, conn);
    return;
  }
  if (pending != conn->want_write) {
    conn->want_write = pending;
    update_epoll(io, *conn);
  }
}

void Server::update_epoll(IoThread& io, Connection& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn.want_write ? EPOLLOUT : 0U);
  ev.data.fd = conn.sock.fd();
  ::epoll_ctl(io.epoll_fd, EPOLL_CTL_MOD, conn.sock.fd(), &ev);
}

void Server::close_connection(IoThread& io,
                              const std::shared_ptr<Connection>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  const int fd = conn->sock.fd();
  ::epoll_ctl(io.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  io.conns.erase(fd);
  // Tally BEFORE the fd closes: the close sends FIN, and a peer unblocked
  // by it may read counters() immediately — it must not see the old count.
  // relaxed: statistics tally.
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
  conn->sock.close();
}

void Server::sweep_idle(IoThread& io) {
  const auto now = Clock::now();
  const auto limit = std::chrono::milliseconds(config_.idle_timeout_ms);
  std::vector<std::shared_ptr<Connection>> stale;
  for (auto& [fd, conn] : io.conns) {
    bool owes_nothing = false;
    {
      util::MutexLock lock(conn->mu);
      owes_nothing = conn->in_flight == 0 && conn->write_queue.empty();
    }
    if (owes_nothing && now - conn->last_activity >= limit) {
      stale.push_back(conn);
    }
  }
  for (auto& conn : stale) {
    // relaxed: statistics tally.
    connections_idle_closed_.fetch_add(1, std::memory_order_relaxed);
    close_connection(io, conn);
  }
}

void Server::sweep_draining(IoThread& io) {
  std::vector<std::shared_ptr<Connection>> done;
  for (auto& [fd, conn] : io.conns) {
    util::MutexLock lock(conn->mu);
    // An audit still running or response bytes still owed: not done yet.
    if (conn->in_flight == 0 && conn->write_queue.empty()) {
      done.push_back(conn);
    }
  }
  for (auto& conn : done) close_connection(io, conn);
}

ServerCounters Server::counters() const {
  ServerCounters out;
  // relaxed: snapshot reads of statistics tallies, not a transaction.
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.connections_active =
      connections_active_.load(std::memory_order_relaxed);  // relaxed: ^
  out.connections_idle_closed =
      connections_idle_closed_.load(std::memory_order_relaxed);  // relaxed: ^
  out.rejected_protocol =
      rejected_protocol_.load(std::memory_order_relaxed);  // relaxed: ^
  out.bytes_received =
      bytes_received_.load(std::memory_order_relaxed);  // relaxed: ^
  out.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);  // relaxed: ^
  admission_.fill(&out);
  return out;
}

}  // namespace bprom::net
