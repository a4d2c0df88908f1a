// Typed wire messages of the BPROM network protocol.
//
// Each message body is an `src/io` chunk stream (4-char tag + fields),
// described once as a field list (see io/binary.hpp) that encode_* runs on
// an io::Writer and decode_* runs on an io::Reader.  Decoding therefore
// inherits the container machinery's discipline: tag mismatches,
// truncation, counts beyond the bytes left and out-of-range enums all
// raise io::IoError, which the transport maps onto the same typed
// api::Status codes `.bprom` artifacts produce.  Every message opens with
// the `struct_version` of the api value type it carries — a decoder that
// meets a newer version than it knows refuses with
// ErrorKind::kVersionMismatch (-> Status::kVersionMismatch) instead of
// misreading appended fields.  The audit response is api::AuditResponse
// itself: the server encodes the engine's response as it is, and the
// client decodes straight into it.
//
// The audit request is the one message with real payload: the suspicious
// model itself rides along as a serialized nn::Model chunk (the black box
// the client wants audited has to reach the detector somehow, and shipping
// the weights is the marketplace deployment — the server wraps them in an
// owning BlackBoxAdapter and queries them locally).  A save->load round
// trip is byte-exact, so a verdict on the uploaded copy is bit-identical
// to a verdict on the original.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "api/engine.hpp"
#include "api/status.hpp"
#include "api/types.hpp"
#include "io/binary.hpp"
#include "nn/model.hpp"

namespace bprom::net {

inline constexpr std::uint32_t kStatsRequestVersion = 1;
/// Version 2 dropped the store's publish counter that followed
/// `deadline_misses` in version 1; version-1 bodies still decode.
inline constexpr std::uint32_t kStatsResponseVersion = 2;
inline constexpr std::uint32_t kErrorMsgVersion = 1;
inline constexpr std::uint32_t kShutdownMsgVersion = 1;

// Chunk tags (one per message type; decode verifies).
inline constexpr char kTagAuditRequest[5] = "NREQ";
inline constexpr char kTagAuditResponse[5] = "NRSP";
inline constexpr char kTagStatsRequest[5] = "NSTQ";
inline constexpr char kTagStatsResponse[5] = "NSTS";
inline constexpr char kTagInfoRequest[5] = "NINQ";
inline constexpr char kTagInfoResponse[5] = "NINS";
inline constexpr char kTagError[5] = "NERR";
inline constexpr char kTagShutdownRequest[5] = "NSHQ";
inline constexpr char kTagShutdownResponse[5] = "NSHS";

/// One audit request as decoded on the server: the api::AuditRequest scalar
/// fields plus the uploaded model, owned.
struct AuditRequestMsg {
  std::uint32_t struct_version = api::kAuditRequestVersion;
  std::string model_id;
  std::string detector;
  std::uint64_t query_budget = api::kUnlimitedQueries;
  std::uint64_t deadline_ms = 0;
  /// The uploaded suspicious model (decode side; encode borrows instead).
  std::unique_ptr<nn::Model> model;
};

/// Encode an audit request; `model` is serialized inline (non-const because
/// nn::Model::save walks mutable layer state).
void encode_audit_request(io::Writer& writer, const AuditRequestMsg& msg,
                          nn::Model& model);
/// Throws io::IoError on malformed/truncated/newer-versioned input.
AuditRequestMsg decode_audit_request(io::Reader& reader);

void encode_audit_response(io::Writer& writer,
                           const api::AuditResponse& response);
api::AuditResponse decode_audit_response(io::Reader& reader);

/// Server-side transport/admission counters folded into the stats message:
/// what the engine cannot see — connections, wire bytes, and the typed
/// rejections the admission layer issued before requests reached it.
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t connections_idle_closed = 0;
  std::uint64_t requests_admitted = 0;
  std::uint64_t rejected_in_flight = 0;       ///< per-connection cap
  std::uint64_t rejected_total_in_flight = 0; ///< server-wide cap
  std::uint64_t rejected_request_budget = 0;  ///< per-connection requests
  std::uint64_t rejected_byte_budget = 0;     ///< per-connection bytes
  std::uint64_t rejected_protocol = 0;        ///< malformed/corrupt frames
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
};

/// The `/stats` payload: EngineStats (counters + profiler percentiles)
/// plus the transport's own counters.
struct StatsResponseMsg {
  std::uint32_t struct_version = kStatsResponseVersion;
  api::EngineStats engine;
  ServerCounters server;
};

void encode_stats_request(io::Writer& writer);
void decode_stats_request(io::Reader& reader);

void encode_stats_response(io::Writer& writer, const StatsResponseMsg& msg);
StatsResponseMsg decode_stats_response(io::Reader& reader);

/// Detector metadata lookup by name ("market" or pinned "market@vN").
struct InfoRequestMsg {
  std::uint32_t struct_version = api::kDetectorInfoVersion;
  std::string detector;
};

void encode_info_request(io::Writer& writer, const InfoRequestMsg& msg);
InfoRequestMsg decode_info_request(io::Reader& reader);

struct InfoResponseMsg {
  std::uint32_t struct_version = api::kDetectorInfoVersion;
  api::Status status;
  api::DetectorInfo info;
};

void encode_info_response(io::Writer& writer, const InfoResponseMsg& msg);
InfoResponseMsg decode_info_response(io::Reader& reader);

/// Typed failure for a frame whose request could not be decoded far enough
/// to produce the matching response type (admission rejections included).
/// The frame header's echoed request id attributes it to the caller's
/// pending call.
struct ErrorMsg {
  std::uint32_t struct_version = kErrorMsgVersion;
  api::Status status;
};

void encode_error(io::Writer& writer, const ErrorMsg& msg);
ErrorMsg decode_error(io::Reader& reader);

/// Ask the server to drain gracefully: stop accepting connections, let
/// in-flight audits finish and their responses flush, then close.  The
/// response acknowledges that the drain began (the connection closes once
/// its own queue empties).
void encode_shutdown_request(io::Writer& writer);
void decode_shutdown_request(io::Reader& reader);

struct ShutdownResponseMsg {
  std::uint32_t struct_version = kShutdownMsgVersion;
  api::Status status;
};

void encode_shutdown_response(io::Writer& writer,
                              const ShutdownResponseMsg& msg);
ShutdownResponseMsg decode_shutdown_response(io::Reader& reader);

}  // namespace bprom::net
