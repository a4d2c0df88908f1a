// net::Client — the blocking client half of the BPROM network protocol.
//
// A deliberately small, synchronous library: one TCP connection, typed
// calls (`audit`, `audit_batch`, `stats`, `info`) that mirror the
// api::AuditEngine façade, and the same typed api::Status vocabulary on
// every failure.  Transport-level problems (connect/send/recv failures,
// corrupt or unparseable frames) fail the *call*; per-request problems
// (unknown detector, exhausted budget, admission rejections) come back as
// non-OK statuses inside the matching response, exactly like the
// in-process engine.
//
// `audit_batch` is pipelined: every request frame is written before the
// first response is read, so a batch costs one round trip plus server
// time instead of N round trips.  The server may complete requests out of
// order (its serving workers race); responses are matched back to their
// slots by the echoed request id, so callers always see batch order.
//
// Not thread-safe: one Client is one connection with one in-flight call.
// Open one Client per thread (connections are cheap; the server's
// admission budgets are per connection anyway).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "api/types.hpp"
#include "net/frame.hpp"
#include "net/messages.hpp"
#include "net/socket.hpp"
#include "util/rng.hpp"

namespace bprom::nn {
class Model;
}  // namespace bprom::nn

namespace bprom::net {

/// Opt-in reconnect-and-retry for idempotent calls (audits: the verdict is
/// a pure function of detector content, engine seed, and batch salt, so a
/// replay under the same request id returns bit-identical bytes).  Only
/// TRANSPORT failures retry — kInternal from a dead socket / injected
/// fault, kDeadlineExceeded from a transport timeout.  Typed application
/// rejections (kBudgetExhausted, kVersionMismatch, kNotFound, ...) arrive
/// in-band in a response slot and are final: retrying them would re-spend
/// server budgets on a request the server already refused.
struct RetryPolicy {
  /// Total attempts, first try included.  1 = no retry (the default).
  int max_attempts = 1;
  /// Exponential backoff between attempts:
  /// min(initial * multiplier^(attempt-1), max) + jitter.
  int backoff_initial_ms = 10;
  double backoff_multiplier = 2.0;
  int backoff_max_ms = 1000;
  /// Deterministic jitter stream (0..backoff/2 ms per wait) — seeded, so a
  /// replayed test schedule backs off identically.
  std::uint64_t jitter_seed = 0;
};

struct ClientConfig {
  /// Numeric IPv4 server address.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Ceiling on one received frame's body (mirror of the server knob).
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Transport deadlines, milliseconds; 0 = no deadline (a hung peer hangs
  /// the call).  On expiry the call fails with kDeadlineExceeded.
  int connect_timeout_ms = 0;
  int send_timeout_ms = 0;
  int recv_timeout_ms = 0;
  /// Reconnect-and-retry policy for audit calls (see RetryPolicy).
  RetryPolicy retry{};
};

/// One audit to submit over the wire.  The model is borrowed and gets
/// serialized into the request frame (non-const: nn::Model::save walks
/// mutable layer state); it only needs to outlive the call.
struct ClientAuditRequest {
  std::string model_id;
  std::string detector;
  nn::Model* model = nullptr;
  std::uint64_t query_budget = api::kUnlimitedQueries;
  std::uint64_t deadline_ms = 0;
};

class Client {
 public:
  /// Connect (blocking) to a running net::Server.
  static api::Result<Client> connect(const ClientConfig& config);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Audit one model; the engine's response, typed failures in-band.
  api::Result<api::AuditResponse> audit(const ClientAuditRequest& request);

  /// Pipelined batch: all requests are sent before responses are read.
  /// The returned vector keeps request order; admission rejections and
  /// per-request failures are non-OK statuses in the matching slot.
  api::Result<std::vector<api::AuditResponse>> audit_batch(
      const std::vector<ClientAuditRequest>& requests);

  /// EngineStats + the server's transport/admission counters.
  api::Result<StatsResponseMsg> stats();

  /// Metadata of a published detector ("name" or pinned "name@vN").
  api::Result<api::DetectorInfo> info(const std::string& detector);

  /// Ask the server to drain gracefully (stop accepting, finish in-flight
  /// audits, flush, close).  OK means the drain began; the connection is
  /// closed by the server once its write queue empties.  Never retried.
  api::Status shutdown();

  /// Drop the connection; subsequent calls fail kFailedPrecondition
  /// (unless the retry policy reconnects them).
  void close() { sock_.close(); }

  [[nodiscard]] bool connected() const { return sock_.valid(); }

 private:
  explicit Client(Socket sock, const ClientConfig& config)
      : sock_(std::move(sock)),
        config_(config),
        assembler_(config.max_frame_bytes),
        jitter_(config.retry.jitter_seed) {}

  /// Re-establish the connection with a fresh frame assembler.
  api::Status reconnect();

  /// Block until one complete frame arrives (or the stream dies/times out).
  api::Status read_frame(FrameHeader* header, std::vector<std::uint8_t>* body);
  api::Status send_frame(MsgType type, std::uint64_t request_id,
                         const io::Writer& body);

  /// One request/reply round trip for the single-reply calls (stats, info,
  /// shutdown): send `body` as a `request` frame under a fresh id, read one
  /// frame back, and hand its body to `decode` when it echoes the id and
  /// has type `reply`.  Not connected returns kFailedPrecondition; a send or
  /// recv failure closes the connection and returns its status; a wrong id
  /// or any other type closes it and returns kInternal; a kError frame
  /// returns the status it carries; a body that fails to decode closes the
  /// connection and returns the typed io status.
  api::Status call(MsgType request, MsgType reply, const io::Writer& body,
                   const std::function<void(io::Reader&)>& decode);

  /// One pipelined send+collect pass over the batch's unanswered slots.
  api::Status audit_round(const std::vector<ClientAuditRequest>& requests,
                          const std::vector<std::uint64_t>& ids,
                          std::vector<bool>* answered,
                          std::vector<api::AuditResponse>* out);

  Socket sock_;
  ClientConfig config_;
  FrameAssembler assembler_;
  std::uint64_t next_id_ = 1;
  util::Rng jitter_;
};

}  // namespace bprom::net
