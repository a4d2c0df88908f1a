#include "net/client.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "io/binary.hpp"
#include "nn/model.hpp"

namespace bprom::net {

namespace {

/// Transport failures only: a dead/hung socket looks like kInternal (errno
/// status, injected fault, server hangup) or kDeadlineExceeded (poll
/// timeout).  Typed application rejections arrive in-band in a response
/// slot and never reach this predicate.
bool transport_retryable(const api::Status& status) {
  return status.code() == api::StatusCode::kInternal ||
         status.code() == api::StatusCode::kDeadlineExceeded;
}

}  // namespace

api::Result<Client> Client::connect(const ClientConfig& config) {
  auto sock = connect_to(config.host, config.port, config.connect_timeout_ms);
  if (!sock.ok()) return sock.status();
  return Client(std::move(sock).value(), config);
}

api::Status Client::reconnect() {
  close();
  auto sock =
      connect_to(config_.host, config_.port, config_.connect_timeout_ms);
  if (!sock.ok()) return sock.status();
  sock_ = std::move(sock).value();
  // Any half-received frame died with the old connection.
  assembler_ = FrameAssembler(config_.max_frame_bytes);
  return api::Status::Ok();
}

api::Status Client::send_frame(MsgType type, std::uint64_t request_id,
                               const io::Writer& body) {
  const std::vector<std::uint8_t> frame = encode_frame(type, request_id, body);
  api::Status sent = send_all(sock_.fd(), frame.data(), frame.size(),
                              config_.send_timeout_ms);
  if (!sent.ok()) close();  // a half-written frame is unrecoverable
  return sent;
}

api::Status Client::read_frame(FrameHeader* header,
                               std::vector<std::uint8_t>* body) {
  std::array<std::uint8_t, 16 * 1024> buf;
  for (;;) {
    const FrameAssembler::Next next = assembler_.next(header, body);
    if (next == FrameAssembler::Next::kFrame) return api::Status::Ok();
    if (next == FrameAssembler::Next::kError) {
      api::Status error = assembler_.error();
      close();
      return error;
    }
    std::size_t got = 0;
    api::Status s = recv_some(sock_.fd(), buf.data(), buf.size(), &got,
                              config_.recv_timeout_ms);
    if (!s.ok()) {
      close();
      return s;
    }
    if (got == 0) {
      close();
      return api::Status::Internal(
          "server closed the connection before answering");
    }
    assembler_.append(buf.data(), got);
  }
}

api::Result<api::AuditResponse> Client::audit(
    const ClientAuditRequest& request) {
  auto responses = audit_batch({request});
  if (!responses.ok()) return responses.status();
  return std::move(responses).value()[0];
}

api::Status Client::audit_round(
    const std::vector<ClientAuditRequest>& requests,
    const std::vector<std::uint64_t>& ids, std::vector<bool>* answered,
    std::vector<api::AuditResponse>* out) {
  // Pipelining: write every unanswered request frame up front, then collect
  // responses matched by echoed request id (the server may complete out of
  // order).  On a retry pass only the unanswered slots are resent — under
  // their ORIGINAL ids, so a replayed audit is the same request, not a new
  // one — while slots the server already answered (verdicts and typed
  // rejections alike) are left untouched.
  std::map<std::uint64_t, std::size_t> pending;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if ((*answered)[i]) continue;
    const ClientAuditRequest& request = requests[i];
    AuditRequestMsg msg;
    msg.model_id = request.model_id;
    msg.detector = request.detector;
    msg.query_budget = request.query_budget;
    msg.deadline_ms = request.deadline_ms;
    io::Writer writer;
    encode_audit_request(writer, msg, *request.model);
    if (api::Status s = send_frame(MsgType::kAuditRequest, ids[i], writer);
        !s.ok()) {
      return s;
    }
    pending.emplace(ids[i], i);
  }
  while (!pending.empty()) {
    FrameHeader header;
    std::vector<std::uint8_t> body;
    if (api::Status s = read_frame(&header, &body); !s.ok()) return s;
    const auto it = pending.find(header.request_id);
    if (it == pending.end()) {
      close();
      return api::Status::Internal(
          "server answered request id " + std::to_string(header.request_id) +
          " which is not pending");
    }
    const std::size_t slot = it->second;
    pending.erase(it);
    try {
      io::Reader reader(std::move(body));
      if (header.type == MsgType::kAuditResponse) {
        (*out)[slot] = decode_audit_response(reader);
      } else if (header.type == MsgType::kError) {
        // Typed rejection (admission, undecodable request): surface it as
        // the slot's status, like the engine reports per-request failures.
        // The slot counts as ANSWERED — the server made an application
        // decision, and retrying it would re-spend budgets it already
        // refused to spend.
        (*out)[slot].model_id = requests[slot].model_id;
        (*out)[slot].status = decode_error(reader).status;
      } else {
        close();
        return api::Status::Internal(
            "server answered an audit with message type " +
            std::to_string(static_cast<unsigned>(header.type)));
      }
      (*answered)[slot] = true;
    } catch (const io::IoError& e) {
      close();
      return api::status_from(e);
    }
  }
  return api::Status::Ok();
}

api::Result<std::vector<api::AuditResponse>> Client::audit_batch(
    const std::vector<ClientAuditRequest>& requests) {
  // Validate before anything hits the wire: a malformed batch is a caller
  // bug, not a transport fault, and must not trigger reconnects.
  for (const ClientAuditRequest& request : requests) {
    if (request.model == nullptr) {
      return api::Status::InvalidRequest(
          "audit request '" + request.model_id + "' has no model");
    }
  }
  // Ids are minted once and survive retries: a resent slot is the SAME
  // request (unchanged id), which is what makes the retry idempotent.
  std::vector<std::uint64_t> ids(requests.size());
  for (auto& id : ids) id = next_id_++;
  std::vector<api::AuditResponse> out(requests.size());
  std::vector<bool> answered(requests.size(), false);

  const int attempts = std::max(1, config_.retry.max_attempts);
  api::Status last = api::Status::Ok();
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      // Exponential backoff with deterministic seeded jitter.
      double backoff = config_.retry.backoff_initial_ms;
      for (int i = 1; i < attempt - 1; ++i) {
        backoff *= config_.retry.backoff_multiplier;
      }
      backoff = std::min(backoff,
                         static_cast<double>(config_.retry.backoff_max_ms));
      const auto jitter =
          backoff > 1.0 ? jitter_.uniform_index(
                              static_cast<std::size_t>(backoff / 2) + 1)
                        : 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<std::int64_t>(backoff) +
          static_cast<std::int64_t>(jitter)));
    }
    if (!sock_.valid()) {
      if (attempt == 1 && attempts == 1) {
        return api::Status::FailedPrecondition("client is not connected");
      }
      if (api::Status s = reconnect(); !s.ok()) {
        last = s;
        continue;  // server may still be coming back; keep backing off
      }
    }
    last = audit_round(requests, ids, &answered, &out);
    if (last.ok()) return out;
    if (!transport_retryable(last)) return last;
  }
  return last;
}

api::Status Client::call(MsgType request, MsgType reply,
                         const io::Writer& body,
                         const std::function<void(io::Reader&)>& decode) {
  if (!sock_.valid()) {
    return api::Status::FailedPrecondition("client is not connected");
  }
  const std::uint64_t id = next_id_++;
  if (api::Status s = send_frame(request, id, body); !s.ok()) return s;
  FrameHeader header;
  std::vector<std::uint8_t> reply_body;
  if (api::Status s = read_frame(&header, &reply_body); !s.ok()) return s;
  if (header.request_id != id) {
    close();
    return api::Status::Internal("server answered the wrong request id");
  }
  try {
    io::Reader reader(std::move(reply_body));
    if (header.type == MsgType::kError) return decode_error(reader).status;
    if (header.type != reply) {
      close();
      return api::Status::Internal(
          "server answered message type " +
          std::to_string(static_cast<unsigned>(request)) +
          " with message type " +
          std::to_string(static_cast<unsigned>(header.type)));
    }
    decode(reader);
    return api::Status::Ok();
  } catch (const io::IoError& e) {
    close();
    return api::status_from(e);
  }
}

api::Status Client::shutdown() {
  io::Writer writer;
  encode_shutdown_request(writer);
  api::Status drain;
  const api::Status s =
      call(MsgType::kShutdownRequest, MsgType::kShutdownResponse, writer,
           [&](io::Reader& r) { drain = decode_shutdown_response(r).status; });
  return s.ok() ? drain : s;
}

api::Result<StatsResponseMsg> Client::stats() {
  io::Writer writer;
  encode_stats_request(writer);
  StatsResponseMsg stats;
  const api::Status s =
      call(MsgType::kStatsRequest, MsgType::kStatsResponse, writer,
           [&](io::Reader& r) { stats = decode_stats_response(r); });
  if (!s.ok()) return s;
  return stats;
}

api::Result<api::DetectorInfo> Client::info(const std::string& detector) {
  InfoRequestMsg msg;
  msg.detector = detector;
  io::Writer writer;
  encode_info_request(writer, msg);
  InfoResponseMsg response;
  const api::Status s =
      call(MsgType::kInfoRequest, MsgType::kInfoResponse, writer,
           [&](io::Reader& r) { response = decode_info_response(r); });
  if (!s.ok()) return s;
  if (!response.status.ok()) return response.status;
  return response.info;
}

}  // namespace bprom::net
