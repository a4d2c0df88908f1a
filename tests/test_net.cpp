// Framing + wire-message robustness: the parsing layer of src/net must
// turn every malformed input — truncated frames, corrupt CRCs, oversized
// length prefixes, bytes from the future — into a typed Status, never a
// crash, a hang, or an attacker-sized allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "api/status.hpp"
#include "io/binary.hpp"
#include "net/frame.hpp"
#include "net/messages.hpp"
#include "nn/arch.hpp"
#include "nn/model.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

namespace bprom {
namespace {

/// FNV-1a 64 of a byte string: a digest that is the same on every host.
std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

io::Writer tiny_body() {
  io::Writer writer;
  net::encode_stats_request(writer);
  return writer;
}

std::vector<std::uint8_t> tiny_frame(std::uint64_t request_id = 7) {
  return net::encode_frame(net::MsgType::kStatsRequest, request_id,
                           tiny_body());
}

/// Stats with every counter numbered: engine 101.., server 201.., and each
/// profiler stage s counting from 10s + 1.
net::StatsResponseMsg numbered_stats() {
  net::StatsResponseMsg msg;
  msg.engine.requests = 101;
  msg.engine.verdicts = 102;
  msg.engine.queries = 103;
  msg.engine.rollovers = 104;
  msg.engine.deadline_misses = 105;
  for (std::size_t s = 0; s < util::kProfileStages; ++s) {
    util::ProfileStageStats& st = msg.engine.profile.stages[s];
    const auto base = static_cast<double>(16 * (s + 1));
    st.count = 10 * s + 1;
    st.min = 10 * s + 2;
    st.max = 10 * s + 3;
    st.sum = base + 0.5;
    st.p50 = base + 0.25;
    st.p95 = base + 0.75;
    st.p99 = base + 0.875;
  }
  msg.server.connections_accepted = 201;
  msg.server.connections_active = 202;
  msg.server.connections_idle_closed = 203;
  msg.server.requests_admitted = 204;
  msg.server.rejected_in_flight = 205;
  msg.server.rejected_total_in_flight = 206;
  msg.server.rejected_request_budget = 207;
  msg.server.rejected_byte_budget = 208;
  msg.server.rejected_protocol = 209;
  msg.server.bytes_received = 210;
  msg.server.bytes_sent = 211;
  return msg;
}

TEST(NetFrame, HeaderRoundTripsThroughAssembler) {
  const std::vector<std::uint8_t> frame = tiny_frame(0x1122334455667788ULL);
  net::FrameAssembler assembler;
  assembler.append(frame.data(), frame.size());

  net::FrameHeader header;
  std::vector<std::uint8_t> body;
  ASSERT_EQ(assembler.next(&header, &body), net::FrameAssembler::Next::kFrame);
  EXPECT_EQ(header.protocol_version, net::kProtocolVersion);
  EXPECT_EQ(header.type, net::MsgType::kStatsRequest);
  EXPECT_EQ(header.flags, 0);
  EXPECT_EQ(header.request_id, 0x1122334455667788ULL);
  EXPECT_EQ(header.body_len, body.size());
  EXPECT_EQ(body, tiny_body().finish());
  EXPECT_EQ(assembler.buffered(), 0U);
  EXPECT_EQ(assembler.next(&header, &body),
            net::FrameAssembler::Next::kNeedMore);
}

TEST(NetFrame, ByteAtATimeFeedYieldsExactlyOneFrame) {
  const std::vector<std::uint8_t> frame = tiny_frame();
  net::FrameAssembler assembler;
  net::FrameHeader header;
  std::vector<std::uint8_t> body;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    assembler.append(&frame[i], 1);
    ASSERT_EQ(assembler.next(&header, &body),
              net::FrameAssembler::Next::kNeedMore)
        << "after byte " << i;
  }
  assembler.append(&frame[frame.size() - 1], 1);
  ASSERT_EQ(assembler.next(&header, &body), net::FrameAssembler::Next::kFrame);
  EXPECT_EQ(body, tiny_body().finish());
}

TEST(NetFrame, InterleavedFramesInOneBufferAllComeOut) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const auto frame = tiny_frame(id);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  // Append in awkward slices that straddle frame boundaries.
  net::FrameAssembler assembler;
  std::size_t fed = 0;
  std::uint64_t expected_id = 1;
  while (fed < stream.size()) {
    const std::size_t n = std::min<std::size_t>(13, stream.size() - fed);
    assembler.append(stream.data() + fed, n);
    fed += n;
    net::FrameHeader header;
    std::vector<std::uint8_t> body;
    while (assembler.next(&header, &body) ==
           net::FrameAssembler::Next::kFrame) {
      EXPECT_EQ(header.request_id, expected_id++);
    }
  }
  EXPECT_EQ(expected_id, 4U);
  EXPECT_EQ(assembler.buffered(), 0U);
}

TEST(NetFrame, BadMagicIsTypedAndSticky) {
  std::vector<std::uint8_t> junk(64, 0x5A);
  net::FrameAssembler assembler;
  assembler.append(junk.data(), junk.size());
  net::FrameHeader header;
  std::vector<std::uint8_t> body;
  ASSERT_EQ(assembler.next(&header, &body), net::FrameAssembler::Next::kError);
  EXPECT_EQ(assembler.error().code(), api::StatusCode::kInvalidRequest);
  EXPECT_NE(assembler.error().message().find("magic"), std::string::npos);
  // Dead streams stay dead: more bytes cannot resurrect the parser.
  const auto frame = tiny_frame();
  assembler.append(frame.data(), frame.size());
  EXPECT_EQ(assembler.next(&header, &body), net::FrameAssembler::Next::kError);
}

TEST(NetFrame, OversizedLengthPrefixRejectedBeforeBuffering) {
  // A header claiming a huge body must be refused from the header alone —
  // no body bytes exist, and none should ever be allocated for.
  net::FrameHeader header;
  header.type = net::MsgType::kAuditRequest;
  header.request_id = 1;
  header.body_len = ~std::uint64_t{0} / 2;  // absurd attacker-chosen length
  std::uint8_t raw[net::kFrameHeaderBytes];
  net::encode_frame_header(header, raw);

  net::FrameAssembler assembler(/*max_body_bytes=*/1024);
  assembler.append(raw, sizeof(raw));
  net::FrameHeader parsed;
  std::vector<std::uint8_t> body;
  ASSERT_EQ(assembler.next(&parsed, &body), net::FrameAssembler::Next::kError);
  EXPECT_EQ(assembler.error().code(), api::StatusCode::kInvalidRequest);
  EXPECT_NE(assembler.error().message().find("exceeds"), std::string::npos);
}

TEST(NetFrame, TruncatedBodyStaysPending) {
  const std::vector<std::uint8_t> frame = tiny_frame();
  net::FrameAssembler assembler;
  assembler.append(frame.data(), frame.size() - 3);  // lose the tail
  net::FrameHeader header;
  std::vector<std::uint8_t> body;
  EXPECT_EQ(assembler.next(&header, &body),
            net::FrameAssembler::Next::kNeedMore);
  EXPECT_EQ(assembler.buffered(), frame.size() - 3);
}

TEST(NetFrame, CorruptBodyCrcFailsLikeCorruptArtifact) {
  std::vector<std::uint8_t> frame = tiny_frame();
  frame[frame.size() - 6] ^= 0x40;  // flip one payload bit
  net::FrameAssembler assembler;
  assembler.append(frame.data(), frame.size());
  net::FrameHeader header;
  std::vector<std::uint8_t> body;
  // Framing passes — integrity lives in the io container's CRC.
  ASSERT_EQ(assembler.next(&header, &body), net::FrameAssembler::Next::kFrame);
  try {
    io::Reader reader(std::move(body));
    net::decode_stats_request(reader);
    FAIL() << "corrupt body decoded";
  } catch (const io::IoError& e) {
    EXPECT_EQ(api::status_from(e).code(), api::StatusCode::kCorruptArtifact);
  }
}

TEST(NetMessages, NewerStructVersionIsVersionMismatch) {
  // Hand-craft an audit request from a "future" build: same tag, a
  // struct_version this build has never heard of.
  io::Writer writer;
  writer.write_tag(net::kTagAuditRequest);
  writer.write_u32(999);  // struct_version from the future
  writer.write_string("model-from-2031");
  try {
    io::Reader reader(writer.finish());
    net::decode_audit_request(reader);
    FAIL() << "future struct_version decoded";
  } catch (const io::IoError& e) {
    const api::Status status = api::status_from(e);
    EXPECT_EQ(status.code(), api::StatusCode::kVersionMismatch);
    EXPECT_NE(status.message().find("999"), std::string::npos);
  }
  // A stats response one version past the newest this build reads.
  io::Writer stats;
  stats.write_tag(net::kTagStatsResponse);
  stats.write_u32(net::kStatsResponseVersion + 1);
  stats.write_u64(101);
  try {
    io::Reader reader(stats.finish());
    net::decode_stats_response(reader);
    FAIL() << "future stats response decoded";
  } catch (const io::IoError& e) {
    EXPECT_EQ(api::status_from(e).code(), api::StatusCode::kVersionMismatch);
  }
}

TEST(NetMessages, ZeroStructVersionIsAlsoRefused) {
  io::Writer writer;
  writer.write_tag(net::kTagInfoRequest);
  writer.write_u32(0);
  writer.write_string("market");
  try {
    io::Reader reader(writer.finish());
    net::decode_info_request(reader);
    FAIL() << "zero struct_version decoded";
  } catch (const io::IoError& e) {
    EXPECT_EQ(api::status_from(e).code(), api::StatusCode::kVersionMismatch);
  }
}

TEST(NetMessages, AuditResponseRoundTrip) {
  api::AuditResponse msg;
  msg.model_id = "suspect-17";
  msg.detector_version = "market@v3";
  msg.status = api::Status::Ok();
  msg.verdict.score = 0.8125;
  msg.verdict.backdoored = true;
  msg.verdict.prompted_accuracy = 0.40625;
  msg.verdict.queries = 123456;
  msg.seconds = 1.5;

  io::Writer writer;
  net::encode_audit_response(writer, msg);
  io::Reader reader(writer.finish());
  const api::AuditResponse back = net::decode_audit_response(reader);
  EXPECT_EQ(back.model_id, msg.model_id);
  EXPECT_EQ(back.detector_version, msg.detector_version);
  EXPECT_TRUE(back.status.ok());
  EXPECT_EQ(back.verdict.score, msg.verdict.score);
  EXPECT_EQ(back.verdict.backdoored, msg.verdict.backdoored);
  EXPECT_EQ(back.verdict.prompted_accuracy, msg.verdict.prompted_accuracy);
  EXPECT_EQ(back.verdict.queries, msg.verdict.queries);
  EXPECT_EQ(back.seconds, msg.seconds);
}

TEST(NetMessages, ErrorAndStatusRoundTripEveryCode) {
  for (std::uint32_t code = 0;
       code <= static_cast<std::uint32_t>(api::StatusCode::kInternal);
       ++code) {
    net::ErrorMsg msg;
    msg.status = {static_cast<api::StatusCode>(code), "reason " +
                                                          std::to_string(code)};
    io::Writer writer;
    net::encode_error(writer, msg);
    io::Reader reader(writer.finish());
    const net::ErrorMsg back = net::decode_error(reader);
    EXPECT_EQ(back.status.code(), msg.status.code());
    EXPECT_EQ(back.status.message(), msg.status.message());
  }
}

TEST(NetMessages, StatsResponseRoundTripIncludingProfile) {
  net::StatsResponseMsg msg;
  msg.engine.requests = 10;
  msg.engine.verdicts = 8;
  msg.engine.queries = 4242;
  msg.engine.rollovers = 1;
  msg.engine.deadline_misses = 2;
  auto& inspect = msg.engine.profile.stages[static_cast<std::size_t>(
      util::ProfileStage::kInspect)];
  inspect.count = 8;
  inspect.min = 100;
  inspect.max = 900;
  inspect.sum = 4000.0;
  inspect.p50 = 450.0;
  inspect.p95 = 880.0;
  inspect.p99 = 899.0;
  msg.server.connections_accepted = 3;
  msg.server.connections_active = 1;
  msg.server.requests_admitted = 10;
  msg.server.rejected_in_flight = 4;
  msg.server.rejected_total_in_flight = 2;
  msg.server.rejected_request_budget = 1;
  msg.server.rejected_byte_budget = 6;
  msg.server.rejected_protocol = 7;
  msg.server.bytes_received = 1234567;
  msg.server.bytes_sent = 7654321;

  io::Writer writer;
  net::encode_stats_response(writer, msg);
  io::Reader reader(writer.finish());
  const net::StatsResponseMsg back = net::decode_stats_response(reader);
  EXPECT_EQ(back.engine.requests, msg.engine.requests);
  EXPECT_EQ(back.engine.verdicts, msg.engine.verdicts);
  EXPECT_EQ(back.engine.queries, msg.engine.queries);
  EXPECT_EQ(back.engine.rollovers, msg.engine.rollovers);
  EXPECT_EQ(back.engine.deadline_misses, msg.engine.deadline_misses);
  const auto& inspect_back =
      back.engine.profile[util::ProfileStage::kInspect];
  EXPECT_EQ(inspect_back.count, inspect.count);
  EXPECT_EQ(inspect_back.min, inspect.min);
  EXPECT_EQ(inspect_back.max, inspect.max);
  EXPECT_EQ(inspect_back.sum, inspect.sum);
  EXPECT_EQ(inspect_back.p50, inspect.p50);
  EXPECT_EQ(inspect_back.p95, inspect.p95);
  EXPECT_EQ(inspect_back.p99, inspect.p99);
  EXPECT_EQ(back.server.connections_accepted,
            msg.server.connections_accepted);
  EXPECT_EQ(back.server.connections_active, msg.server.connections_active);
  EXPECT_EQ(back.server.requests_admitted, msg.server.requests_admitted);
  EXPECT_EQ(back.server.rejected_in_flight, msg.server.rejected_in_flight);
  EXPECT_EQ(back.server.rejected_total_in_flight,
            msg.server.rejected_total_in_flight);
  EXPECT_EQ(back.server.rejected_request_budget,
            msg.server.rejected_request_budget);
  EXPECT_EQ(back.server.rejected_byte_budget,
            msg.server.rejected_byte_budget);
  EXPECT_EQ(back.server.rejected_protocol, msg.server.rejected_protocol);
  EXPECT_EQ(back.server.bytes_received, msg.server.bytes_received);
  EXPECT_EQ(back.server.bytes_sent, msg.server.bytes_sent);
}

TEST(NetMessages, StatsResponseVersion1StillDecodes) {
  // A version-1 body, written field by field in that layout: the engine
  // counters end with the store's publish counter, which version 2 dropped.
  io::Writer v1;
  v1.write_tag(net::kTagStatsResponse);
  v1.write_u32(1);
  for (std::uint64_t engine = 101; engine <= 105; ++engine) {
    v1.write_u64(engine);
  }
  v1.write_u64(106);  // the store's publish counter
  for (std::uint64_t server = 201; server <= 211; ++server) {
    v1.write_u64(server);
  }
  v1.write_u64(util::kProfileStages);
  for (std::size_t s = 0; s < util::kProfileStages; ++s) {
    const auto base = static_cast<double>(16 * (s + 1));
    v1.write_string(
        util::profile_stage_name(static_cast<util::ProfileStage>(s)));
    v1.write_u64(10 * s + 1);
    v1.write_u64(10 * s + 2);
    v1.write_u64(10 * s + 3);
    v1.write_f64(base + 0.5);
    v1.write_f64(base + 0.25);
    v1.write_f64(base + 0.75);
    v1.write_f64(base + 0.875);
  }
  // Byte for byte what a version-1 server sent for these counters: the
  // length and digest EveryMessageKeepsItsBytes pinned for version 1.
  EXPECT_EQ(v1.payload().size(), 583U);
  EXPECT_EQ(fnv1a64(v1.payload()), 0xa9e92a9d482e6b2dULL);

  io::Reader reader(v1.finish());
  net::StatsResponseMsg back = net::decode_stats_response(reader);
  EXPECT_EQ(back.struct_version, 1U);
  EXPECT_EQ(reader.remaining(), 0U);  // the dropped counter was consumed
  // Every other field came through: re-encoded at the current version it
  // is byte for byte the message the fields were numbered from.
  back.struct_version = net::kStatsResponseVersion;
  io::Writer got;
  net::encode_stats_response(got, back);
  io::Writer want;
  net::encode_stats_response(want, numbered_stats());
  EXPECT_EQ(got.payload(), want.payload());
}

TEST(NetMessages, InfoRoundTripOmitsNothingItPromises) {
  net::InfoRequestMsg request;
  request.detector = "market@v2";
  io::Writer req_writer;
  net::encode_info_request(req_writer, request);
  io::Reader req_reader(req_writer.finish());
  EXPECT_EQ(net::decode_info_request(req_reader).detector, "market@v2");

  net::InfoResponseMsg response;
  response.status = api::Status::Ok();
  response.info.name = "market";
  response.info.version = 2;
  response.info.source_classes = 10;
  response.info.query_samples = 4;
  response.info.path = "/private/server/side/path.bprom";
  io::Writer rsp_writer;
  net::encode_info_response(rsp_writer, response);
  io::Reader rsp_reader(rsp_writer.finish());
  const net::InfoResponseMsg back = net::decode_info_response(rsp_reader);
  EXPECT_EQ(back.info.name, "market");
  EXPECT_EQ(back.info.version, 2U);
  EXPECT_EQ(back.info.source_classes, 10U);
  EXPECT_EQ(back.info.query_samples, 4U);
  // The server's filesystem path deliberately does not cross the wire.
  EXPECT_TRUE(back.info.path.empty());
}

TEST(NetMessages, AuditRequestModelRidesByteExact) {
  util::Rng rng(11);
  auto model = nn::make_model(nn::ArchKind::kMlp, nn::ImageShape{3, 8, 8}, 4,
                              rng);
  net::AuditRequestMsg msg;
  msg.model_id = "m-upload";
  msg.detector = "market";
  msg.query_budget = 5000;
  msg.deadline_ms = 250;

  io::Writer writer;
  net::encode_audit_request(writer, msg, *model);
  io::Reader reader(writer.finish());
  net::AuditRequestMsg back = net::decode_audit_request(reader);
  EXPECT_EQ(back.model_id, "m-upload");
  EXPECT_EQ(back.detector, "market");
  EXPECT_EQ(back.query_budget, 5000U);
  EXPECT_EQ(back.deadline_ms, 250U);
  ASSERT_NE(back.model, nullptr);

  // The byte-identity the whole uploaded-model design rests on: the decoded
  // model re-serializes to exactly the original's bytes.
  io::Writer original;
  model->save(original);
  io::Writer decoded;
  back.model->save(decoded);
  EXPECT_EQ(original.payload(), decoded.payload());
}

TEST(NetMessages, EveryMessageKeepsItsBytes) {
  // One of every message, each field set to a distinct literal, pinned by
  // payload length and FNV-1a-64; each must decode and re-encode to the
  // same bytes.  A deliberate format change bumps the struct_version (or
  // kFormatVersion) and re-pins.
  struct Pinned {
    std::string name;
    std::size_t length;
    std::uint64_t fnv;
  };
  const std::vector<Pinned> pinned = {
      {"NREQ", 21367, 0x4b05069bf49d5f16ULL},
      {"NRSP", 115, 0x4c0cb7de8ddeafc2ULL},
      {"NSTQ", 8, 0xe467247e8e569884ULL},
      {"NSTS", 575, 0x255d7151072979b6ULL},
      {"NINQ", 25, 0xd8cc1cf26979e29aULL},
      {"NINS", 85, 0xe8ee7c8e56fd20e9ULL},
      {"NERR", 45, 0x06f06e21cf6d7b88ULL},
      {"NSHQ", 8, 0x5f5b8e412831fd80ULL},
      {"NSHS", 38, 0x7bc187a1ee0e85bfULL},
  };
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> actual;
  const auto reencodes = [](const io::Writer& w, auto decode, auto encode) {
    io::Reader reader(w.finish());
    io::Writer again;
    encode(again, decode(reader));
    EXPECT_EQ(again.payload(), w.payload());
  };

  {
    util::Rng rng(0);
    auto model =
        nn::make_model(nn::ArchKind::kMlp, nn::ImageShape{3, 4, 4}, 3, rng);
    std::vector<float> blob(model->save_parameters().size());
    for (std::size_t i = 0; i < blob.size(); ++i) {
      blob[i] = 0.0078125F * static_cast<float>(static_cast<int>(i % 255) - 127);
    }
    model->load_parameters(blob);
    net::AuditRequestMsg msg;
    msg.model_id = "suspect-17";
    msg.detector = "market@v3";
    msg.query_budget = 4584;
    msg.deadline_ms = 250;
    io::Writer w;
    net::encode_audit_request(w, msg, *model);
    reencodes(w, net::decode_audit_request,
              [](io::Writer& again, net::AuditRequestMsg back) {
                net::encode_audit_request(again, back, *back.model);
              });
    actual.emplace_back("NREQ", w.payload());
  }
  {
    api::AuditResponse msg;
    msg.model_id = "suspect-18";
    msg.detector_version = "market@v4";
    msg.status = api::Status::BudgetExhausted("spent 4584 of 100 queries");
    msg.verdict.score = 0.8125;
    msg.verdict.backdoored = true;
    msg.verdict.prompted_accuracy = 0.40625;
    msg.verdict.queries = 39144;
    msg.verdict.budget_exhausted = false;
    msg.verdict.deadline_exceeded = true;
    msg.seconds = 1.5;
    io::Writer w;
    net::encode_audit_response(w, msg);
    reencodes(w, net::decode_audit_response, net::encode_audit_response);
    actual.emplace_back("NRSP", w.payload());
  }
  {
    io::Writer w;
    net::encode_stats_request(w);
    io::Reader reader(w.finish());
    EXPECT_NO_THROW(net::decode_stats_request(reader));
    actual.emplace_back("NSTQ", w.payload());
  }
  {
    io::Writer w;
    net::encode_stats_response(w, numbered_stats());
    reencodes(w, net::decode_stats_response, net::encode_stats_response);
    actual.emplace_back("NSTS", w.payload());
  }
  {
    net::InfoRequestMsg msg;
    msg.detector = "market@v5";
    io::Writer w;
    net::encode_info_request(w, msg);
    reencodes(w, net::decode_info_request, net::encode_info_request);
    actual.emplace_back("NINQ", w.payload());
  }
  {
    net::InfoResponseMsg msg;
    msg.status = api::Status::NotFound("no detector published under 'x'");
    msg.info.name = "market";
    msg.info.version = 6;
    msg.info.source_classes = 10;
    msg.info.query_samples = 4;
    io::Writer w;
    net::encode_info_response(w, msg);
    reencodes(w, net::decode_info_response, net::encode_info_response);
    actual.emplace_back("NINS", w.payload());
  }
  {
    net::ErrorMsg msg;
    msg.status = api::Status::InvalidRequest("unexpected message type 9");
    io::Writer w;
    net::encode_error(w, msg);
    reencodes(w, net::decode_error, net::encode_error);
    actual.emplace_back("NERR", w.payload());
  }
  {
    io::Writer w;
    net::encode_shutdown_request(w);
    io::Reader reader(w.finish());
    EXPECT_NO_THROW(net::decode_shutdown_request(reader));
    actual.emplace_back("NSHQ", w.payload());
  }
  {
    net::ShutdownResponseMsg msg;
    msg.status = api::Status::FailedPrecondition("server is draining");
    io::Writer w;
    net::encode_shutdown_response(w, msg);
    reencodes(w, net::decode_shutdown_response,
              net::encode_shutdown_response);
    actual.emplace_back("NSHS", w.payload());
  }

  ASSERT_EQ(actual.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const auto& [name, payload] = actual[i];
    EXPECT_EQ(name, pinned[i].name);
    EXPECT_EQ(payload.size(), pinned[i].length) << name;
    EXPECT_EQ(fnv1a64(payload), pinned[i].fnv)
        << name << ": {\"" << name << "\", " << payload.size() << ", 0x"
        << std::hex << fnv1a64(payload) << "ULL}";
  }
}

}  // namespace
}  // namespace bprom
