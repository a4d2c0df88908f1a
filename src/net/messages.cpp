#include "net/messages.hpp"

#include <string>
#include <utility>

#include "util/profiler.hpp"

namespace bprom::net {

namespace {

template <class Ar, class S>
void status_fields(Ar& ar, S& status) {
  api::StatusCode code = status.code();
  std::string message = status.message();
  ar.enumeration(code, api::StatusCode::kInternal, "status code");
  ar(message);
  if constexpr (Ar::kReads) status = api::Status(code, std::move(message));
}

template <class Ar>
void stats_request_fields(Ar& ar) {
  std::uint32_t version = kStatsRequestVersion;
  ar.tag(kTagStatsRequest);
  ar.version(version, kStatsRequestVersion, "stats request");
}

template <class Ar>
void shutdown_request_fields(Ar& ar) {
  std::uint32_t version = kShutdownMsgVersion;
  ar.tag(kTagShutdownRequest);
  ar.version(version, kShutdownMsgVersion, "shutdown request");
}

template <class Ar, class M>
void audit_request_fields(Ar& ar, M& msg) {
  ar.tag(kTagAuditRequest);
  ar.version(msg.struct_version, api::kAuditRequestVersion, "audit request");
  ar(msg.model_id, msg.detector, msg.query_budget, msg.deadline_ms);
}

template <class Ar, class R>
void audit_response_fields(Ar& ar, R& response) {
  auto& verdict = response.verdict;
  ar.tag(kTagAuditResponse);
  ar.version(response.struct_version, api::kAuditResponseVersion,
             "audit response");
  ar(response.model_id, response.detector_version);
  status_fields(ar, response.status);
  ar(verdict.score, verdict.backdoored, verdict.prompted_accuracy,
     verdict.queries, verdict.budget_exhausted, verdict.deadline_exceeded,
     response.seconds);
}

template <class Ar, class M>
void stats_response_fields(Ar& ar, M& msg) {
  auto& engine = msg.engine;
  auto& server = msg.server;
  ar.tag(kTagStatsResponse);
  ar.version(msg.struct_version, kStatsResponseVersion, "stats response");
  ar(engine.requests, engine.verdicts, engine.queries, engine.rollovers,
     engine.deadline_misses);
  if (msg.struct_version == 1) {
    // Version 1 carried the store's publish counter here; it is read and
    // dropped (written as 0), so this build still reads an older server.
    std::uint64_t store_publishes = 0;
    ar(store_publishes);
  }
  ar(server.connections_accepted, server.connections_active,
     server.connections_idle_closed, server.requests_admitted,
     server.rejected_in_flight, server.rejected_total_in_flight,
     server.rejected_request_budget, server.rejected_byte_budget,
     server.rejected_protocol, server.bytes_received, server.bytes_sent);
  // Per-stage profiler fold: entries are fixed-width and the count rides
  // first, so stages match by position and a newer sender's extra trailing
  // stages (a newer build's enum) parse cleanly and drop here.
  std::uint64_t stages = util::kProfileStages;
  ar(stages);
  for (std::uint64_t s = 0; s < stages; ++s) {
    const bool known = s < util::kProfileStages;
    util::ProfileStageStats dropped;
    auto& st = known ? engine.profile.stages[s] : dropped;
    std::string name =
        known ? util::profile_stage_name(static_cast<util::ProfileStage>(s))
              : "";
    ar(name, st.count, st.min, st.max, st.sum, st.p50, st.p95, st.p99);
  }
}

template <class Ar, class M>
void info_request_fields(Ar& ar, M& msg) {
  ar.tag(kTagInfoRequest);
  ar.version(msg.struct_version, api::kDetectorInfoVersion, "info request");
  ar(msg.detector);
}

template <class Ar, class M>
void info_response_fields(Ar& ar, M& msg) {
  ar.tag(kTagInfoResponse);
  ar.version(msg.struct_version, api::kDetectorInfoVersion, "info response");
  status_fields(ar, msg.status);
  ar(msg.info.name, msg.info.version, msg.info.source_classes,
     msg.info.query_samples);
}

template <class Ar, class M>
void error_fields(Ar& ar, M& msg) {
  ar.tag(kTagError);
  ar.version(msg.struct_version, kErrorMsgVersion, "error message");
  status_fields(ar, msg.status);
}

template <class Ar, class M>
void shutdown_response_fields(Ar& ar, M& msg) {
  ar.tag(kTagShutdownResponse);
  ar.version(msg.struct_version, kShutdownMsgVersion, "shutdown response");
  status_fields(ar, msg.status);
}

}  // namespace

void encode_audit_request(io::Writer& writer, const AuditRequestMsg& msg,
                          nn::Model& model) {
  audit_request_fields(writer, msg);
  model.save(writer);
}

AuditRequestMsg decode_audit_request(io::Reader& reader) {
  AuditRequestMsg msg;
  audit_request_fields(reader, msg);
  msg.model = nn::Model::load(reader);
  return msg;
}

void encode_audit_response(io::Writer& writer,
                           const api::AuditResponse& response) {
  audit_response_fields(writer, response);
}

api::AuditResponse decode_audit_response(io::Reader& reader) {
  api::AuditResponse response;
  audit_response_fields(reader, response);
  return response;
}

void encode_stats_request(io::Writer& writer) { stats_request_fields(writer); }

void decode_stats_request(io::Reader& reader) { stats_request_fields(reader); }

void encode_stats_response(io::Writer& writer, const StatsResponseMsg& msg) {
  stats_response_fields(writer, msg);
}

StatsResponseMsg decode_stats_response(io::Reader& reader) {
  StatsResponseMsg msg;
  stats_response_fields(reader, msg);
  return msg;
}

void encode_info_request(io::Writer& writer, const InfoRequestMsg& msg) {
  info_request_fields(writer, msg);
}

InfoRequestMsg decode_info_request(io::Reader& reader) {
  InfoRequestMsg msg;
  info_request_fields(reader, msg);
  return msg;
}

void encode_info_response(io::Writer& writer, const InfoResponseMsg& msg) {
  info_response_fields(writer, msg);
}

InfoResponseMsg decode_info_response(io::Reader& reader) {
  InfoResponseMsg msg;
  info_response_fields(reader, msg);
  return msg;
}

void encode_shutdown_request(io::Writer& writer) {
  shutdown_request_fields(writer);
}

void decode_shutdown_request(io::Reader& reader) {
  shutdown_request_fields(reader);
}

void encode_shutdown_response(io::Writer& writer,
                              const ShutdownResponseMsg& msg) {
  shutdown_response_fields(writer, msg);
}

ShutdownResponseMsg decode_shutdown_response(io::Reader& reader) {
  ShutdownResponseMsg msg;
  shutdown_response_fields(reader, msg);
  return msg;
}

void encode_error(io::Writer& writer, const ErrorMsg& msg) {
  error_fields(writer, msg);
}

ErrorMsg decode_error(io::Reader& reader) {
  ErrorMsg msg;
  error_fields(reader, msg);
  return msg;
}

}  // namespace bprom::net
