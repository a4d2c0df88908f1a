#include "net/messages.hpp"

#include <string>
#include <utility>

#include "util/profiler.hpp"

namespace bprom::net {

namespace {

/// Newer struct versions carry fields this build cannot parse — refuse
/// loudly with the typed kind the façade maps to kVersionMismatch.
void check_version(std::uint32_t got, std::uint32_t supported,
                   const char* what) {
  if (got == 0 || got > supported) {
    throw io::IoError(std::string(what) + " struct_version " +
                          std::to_string(got) +
                          " is not supported by this build (max " +
                          std::to_string(supported) + ")",
                      io::ErrorKind::kVersionMismatch);
  }
}

void write_status(io::Writer& writer, const api::Status& status) {
  writer.write_u32(static_cast<std::uint32_t>(status.code()));
  writer.write_string(status.message());
}

api::Status read_status(io::Reader& reader) {
  const std::uint32_t code = reader.read_u32();
  std::string message = reader.read_string();
  if (code > static_cast<std::uint32_t>(api::StatusCode::kInternal)) {
    throw io::IoError("unknown status code " + std::to_string(code) +
                      " on the wire");
  }
  return {static_cast<api::StatusCode>(code), std::move(message)};
}

void write_verdict(io::Writer& writer, const core::Verdict& verdict) {
  writer.write_f64(verdict.score);
  writer.write_u8(verdict.backdoored ? 1 : 0);
  writer.write_f64(verdict.prompted_accuracy);
  writer.write_u64(verdict.queries);
  writer.write_u8(verdict.budget_exhausted ? 1 : 0);
  writer.write_u8(verdict.deadline_exceeded ? 1 : 0);
}

core::Verdict read_verdict(io::Reader& reader) {
  core::Verdict verdict;
  verdict.score = reader.read_f64();
  verdict.backdoored = reader.read_u8() != 0;
  verdict.prompted_accuracy = reader.read_f64();
  verdict.queries = static_cast<std::size_t>(reader.read_u64());
  verdict.budget_exhausted = reader.read_u8() != 0;
  verdict.deadline_exceeded = reader.read_u8() != 0;
  return verdict;
}

}  // namespace

void encode_audit_request(io::Writer& writer, const AuditRequestMsg& msg,
                          nn::Model& model) {
  writer.write_tag(kTagAuditRequest);
  writer.write_u32(msg.struct_version);
  writer.write_string(msg.model_id);
  writer.write_string(msg.detector);
  writer.write_u64(msg.query_budget);
  writer.write_u64(msg.deadline_ms);
  model.save(writer);
}

AuditRequestMsg decode_audit_request(io::Reader& reader) {
  reader.expect_tag(kTagAuditRequest);
  AuditRequestMsg msg;
  msg.struct_version = reader.read_u32();
  check_version(msg.struct_version, api::kAuditRequestVersion,
                "audit request");
  msg.model_id = reader.read_string();
  msg.detector = reader.read_string();
  msg.query_budget = reader.read_u64();
  msg.deadline_ms = reader.read_u64();
  msg.model = nn::Model::load(reader);
  return msg;
}

void encode_audit_response(io::Writer& writer, const AuditResponseMsg& msg) {
  writer.write_tag(kTagAuditResponse);
  writer.write_u32(msg.struct_version);
  writer.write_string(msg.model_id);
  writer.write_string(msg.detector_version);
  write_status(writer, msg.status);
  write_verdict(writer, msg.verdict);
  writer.write_f64(msg.seconds);
}

AuditResponseMsg decode_audit_response(io::Reader& reader) {
  reader.expect_tag(kTagAuditResponse);
  AuditResponseMsg msg;
  msg.struct_version = reader.read_u32();
  check_version(msg.struct_version, api::kAuditResponseVersion,
                "audit response");
  msg.model_id = reader.read_string();
  msg.detector_version = reader.read_string();
  msg.status = read_status(reader);
  msg.verdict = read_verdict(reader);
  msg.seconds = reader.read_f64();
  return msg;
}

AuditResponseMsg to_wire(const api::AuditResponse& response) {
  AuditResponseMsg msg;
  msg.struct_version = response.struct_version;
  msg.model_id = response.model_id;
  msg.detector_version = response.detector_version;
  msg.status = response.status;
  msg.verdict = response.verdict;
  msg.seconds = response.seconds;
  return msg;
}

void encode_stats_request(io::Writer& writer) {
  writer.write_tag(kTagStatsRequest);
  writer.write_u32(kStatsResponseVersion);
}

void decode_stats_request(io::Reader& reader) {
  reader.expect_tag(kTagStatsRequest);
  check_version(reader.read_u32(), kStatsResponseVersion, "stats request");
}

void encode_stats_response(io::Writer& writer, const StatsResponseMsg& msg) {
  writer.write_tag(kTagStatsResponse);
  writer.write_u32(msg.struct_version);
  writer.write_u64(msg.engine.requests);
  writer.write_u64(msg.engine.verdicts);
  writer.write_u64(msg.engine.queries);
  writer.write_u64(msg.engine.rollovers);
  writer.write_u64(msg.engine.deadline_misses);
  writer.write_u64(msg.engine.store_generation);
  writer.write_u64(msg.server.connections_accepted);
  writer.write_u64(msg.server.connections_active);
  writer.write_u64(msg.server.connections_idle_closed);
  writer.write_u64(msg.server.requests_admitted);
  writer.write_u64(msg.server.rejected_in_flight);
  writer.write_u64(msg.server.rejected_total_in_flight);
  writer.write_u64(msg.server.rejected_request_budget);
  writer.write_u64(msg.server.rejected_byte_budget);
  writer.write_u64(msg.server.rejected_protocol);
  writer.write_u64(msg.server.bytes_received);
  writer.write_u64(msg.server.bytes_sent);
  // Per-stage profiler fold: entries are fixed-width, and the count rides
  // first, so an older reader can skip stages it does not know about.
  writer.write_u64(util::kProfileStages);
  for (std::size_t s = 0; s < util::kProfileStages; ++s) {
    const auto stage = static_cast<util::ProfileStage>(s);
    const util::ProfileStageStats& st = msg.engine.profile[stage];
    writer.write_string(util::profile_stage_name(stage));
    writer.write_u64(st.count);
    writer.write_u64(st.min);
    writer.write_u64(st.max);
    writer.write_f64(st.sum);
    writer.write_f64(st.p50);
    writer.write_f64(st.p95);
    writer.write_f64(st.p99);
  }
}

StatsResponseMsg decode_stats_response(io::Reader& reader) {
  reader.expect_tag(kTagStatsResponse);
  StatsResponseMsg msg;
  msg.struct_version = reader.read_u32();
  check_version(msg.struct_version, kStatsResponseVersion, "stats response");
  msg.engine.requests = reader.read_u64();
  msg.engine.verdicts = reader.read_u64();
  msg.engine.queries = reader.read_u64();
  msg.engine.rollovers = reader.read_u64();
  msg.engine.deadline_misses = reader.read_u64();
  msg.engine.store_generation = reader.read_u64();
  msg.server.connections_accepted = reader.read_u64();
  msg.server.connections_active = reader.read_u64();
  msg.server.connections_idle_closed = reader.read_u64();
  msg.server.requests_admitted = reader.read_u64();
  msg.server.rejected_in_flight = reader.read_u64();
  msg.server.rejected_total_in_flight = reader.read_u64();
  msg.server.rejected_request_budget = reader.read_u64();
  msg.server.rejected_byte_budget = reader.read_u64();
  msg.server.rejected_protocol = reader.read_u64();
  msg.server.bytes_received = reader.read_u64();
  msg.server.bytes_sent = reader.read_u64();
  const std::uint64_t stages = reader.read_u64();
  for (std::uint64_t s = 0; s < stages; ++s) {
    const std::string name = reader.read_string();
    util::ProfileStageStats st;
    st.count = reader.read_u64();
    st.min = reader.read_u64();
    st.max = reader.read_u64();
    st.sum = reader.read_f64();
    st.p50 = reader.read_f64();
    st.p95 = reader.read_f64();
    st.p99 = reader.read_f64();
    // Stages are matched positionally; a sender with extra trailing stages
    // (a newer build's enum) parses cleanly and the extras drop here.
    if (s < util::kProfileStages) {
      msg.engine.profile.stages[static_cast<std::size_t>(s)] = st;
    }
    (void)name;
  }
  return msg;
}

void encode_info_request(io::Writer& writer, const InfoRequestMsg& msg) {
  writer.write_tag(kTagInfoRequest);
  writer.write_u32(msg.struct_version);
  writer.write_string(msg.detector);
}

InfoRequestMsg decode_info_request(io::Reader& reader) {
  reader.expect_tag(kTagInfoRequest);
  InfoRequestMsg msg;
  msg.struct_version = reader.read_u32();
  check_version(msg.struct_version, api::kDetectorInfoVersion, "info request");
  msg.detector = reader.read_string();
  return msg;
}

void encode_info_response(io::Writer& writer, const InfoResponseMsg& msg) {
  writer.write_tag(kTagInfoResponse);
  writer.write_u32(msg.struct_version);
  write_status(writer, msg.status);
  writer.write_string(msg.info.name);
  writer.write_u32(msg.info.version);
  writer.write_u64(msg.info.source_classes);
  writer.write_u64(msg.info.query_samples);
}

InfoResponseMsg decode_info_response(io::Reader& reader) {
  reader.expect_tag(kTagInfoResponse);
  InfoResponseMsg msg;
  msg.struct_version = reader.read_u32();
  check_version(msg.struct_version, api::kDetectorInfoVersion,
                "info response");
  msg.status = read_status(reader);
  msg.info.name = reader.read_string();
  msg.info.version = reader.read_u32();
  msg.info.source_classes = static_cast<std::size_t>(reader.read_u64());
  msg.info.query_samples = static_cast<std::size_t>(reader.read_u64());
  return msg;
}

void encode_shutdown_request(io::Writer& writer) {
  writer.write_tag(kTagShutdownRequest);
  writer.write_u32(kShutdownMsgVersion);
}

void decode_shutdown_request(io::Reader& reader) {
  reader.expect_tag(kTagShutdownRequest);
  check_version(reader.read_u32(), kShutdownMsgVersion, "shutdown request");
}

void encode_shutdown_response(io::Writer& writer,
                              const ShutdownResponseMsg& msg) {
  writer.write_tag(kTagShutdownResponse);
  writer.write_u32(msg.struct_version);
  write_status(writer, msg.status);
}

ShutdownResponseMsg decode_shutdown_response(io::Reader& reader) {
  reader.expect_tag(kTagShutdownResponse);
  ShutdownResponseMsg msg;
  msg.struct_version = reader.read_u32();
  check_version(msg.struct_version, kShutdownMsgVersion, "shutdown response");
  msg.status = read_status(reader);
  return msg;
}

void encode_error(io::Writer& writer, const ErrorMsg& msg) {
  writer.write_tag(kTagError);
  writer.write_u32(msg.struct_version);
  write_status(writer, msg.status);
}

ErrorMsg decode_error(io::Reader& reader) {
  reader.expect_tag(kTagError);
  ErrorMsg msg;
  msg.struct_version = reader.read_u32();
  check_version(msg.struct_version, kErrorMsgVersion, "error message");
  msg.status = read_status(reader);
  return msg;
}

}  // namespace bprom::net
