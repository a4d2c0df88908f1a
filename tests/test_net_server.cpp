// End-to-end socket serving: a loopback net::Server in front of a real
// AuditEngine must produce verdicts bit-identical to the in-process
// façade, reject overload and protocol garbage with typed statuses, and
// survive every kind of misbehaving client without crashing or leaking.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "core/experiment.hpp"
#include "data/ops.hpp"
#include "io/binary.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/messages.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "nn/arch.hpp"
#include "nn/blackbox.hpp"
#include "util/rng.hpp"

namespace bprom {
namespace {

namespace fs = std::filesystem;

core::ExperimentScale micro_scale() {
  core::ExperimentScale s;
  s.suspicious_train = 120;
  s.suspicious_epochs = 2;
  s.population_per_side = 1;
  s.shadows_per_side = 2;
  s.shadow_epochs = 2;
  s.prompt_epochs = 1;
  s.blackbox_evals = 40;
  s.query_samples = 4;
  s.forest_trees = 20;
  return s;
}

struct Fixture {
  data::Dataset src = data::make_dataset(data::DatasetKind::kCifar10, 61, 400,
                                         160);
  data::Dataset tgt = data::make_dataset(data::DatasetKind::kStl10, 62, 300,
                                         160);
  core::BpromDetector detector = core::fit_detector(
      src, tgt, 0.10, nn::ArchKind::kResNet18Mini, 7, micro_scale());
  core::TrainedSuspicious suspicious = core::train_clean_model(
      src, nn::ArchKind::kResNet18Mini, 50, micro_scale());
};

/// One fitted detector + one suspicious model shared by every test; fitting
/// is the expensive step and these tests exercise the wire around it.
const Fixture& fixture() {
  static const Fixture f;
  return f;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

net::ClientAuditRequest wire_request(const std::string& id = "m0") {
  net::ClientAuditRequest request;
  request.model_id = id;
  request.detector = "market";
  request.model = fixture().suspicious.model.get();
  return request;
}

api::AuditResponse in_process_response(api::AuditEngine& engine) {
  nn::BlackBoxAdapter box(*fixture().suspicious.model);
  api::AuditRequest request;
  request.model_id = "m0";
  request.detector = "market";
  request.model = &box;
  auto responses = engine.audit({request});
  EXPECT_EQ(responses.size(), 1U);
  return responses[0];
}

/// Raw TCP connection for hand-crafted (malformed) frames.  Timeout 0:
/// every socket wait is unbounded.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    auto sock = net::connect_to("127.0.0.1", port, 0);
    EXPECT_TRUE(sock.ok()) << sock.status().to_string();
    if (sock.ok()) sock_ = std::move(sock).value();
  }

  void send(const std::vector<std::uint8_t>& bytes) {
    EXPECT_TRUE(
        net::send_all(sock_.fd(), bytes.data(), bytes.size(), 0).ok());
  }

  bool read_frame(net::FrameHeader* header, std::vector<std::uint8_t>* body) {
    std::uint8_t buf[4096];
    for (;;) {
      const auto next = assembler_.next(header, body);
      if (next == net::FrameAssembler::Next::kFrame) return true;
      if (next == net::FrameAssembler::Next::kError) return false;
      std::size_t got = 0;
      if (!net::recv_some(sock_.fd(), buf, sizeof(buf), &got, 0).ok()) {
        return false;
      }
      if (got == 0) return false;
      assembler_.append(buf, got);
    }
  }

  net::ErrorMsg read_error() {
    net::FrameHeader header;
    std::vector<std::uint8_t> body;
    EXPECT_TRUE(read_frame(&header, &body));
    EXPECT_EQ(header.type, net::MsgType::kError);
    io::Reader reader(std::move(body));
    return net::decode_error(reader);
  }

  /// True once the server closes its end (reset counts as closed).
  bool closed_by_server() {
    std::uint8_t buf[256];
    for (;;) {
      std::size_t got = 0;
      if (!net::recv_some(sock_.fd(), buf, sizeof(buf), &got, 0).ok()) {
        return true;
      }
      if (got == 0) return true;
      assembler_.append(buf, got);  // drain whatever is still flushing
    }
  }

  [[nodiscard]] int fd() const { return sock_.fd(); }

 private:
  net::Socket sock_;
  net::FrameAssembler assembler_;
};

io::Writer stats_body() {
  io::Writer writer;
  net::encode_stats_request(writer);
  return writer;
}

TEST(NetServer, WireVerdictsBitIdenticalToInProcess) {
  const std::string dir = fresh_dir("bprom_net_identity");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.publish("market", fixture().detector).ok());
  net::ServerConfig config;
  config.io_threads = 2;
  net::Server server(engine, config);
  ASSERT_TRUE(server.start().ok());

  auto client = net::Client::connect({.port = server.port()});
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  // The acceptance bar: a verdict through the socket — model serialized,
  // uploaded, decoded, audited remotely — is bit-identical to the same
  // model audited in-process on the same engine.  Single-request batches
  // on both sides, so both resolve the same (seed, index 0) salt.
  const api::AuditResponse local = in_process_response(engine);
  ASSERT_TRUE(local.status.ok()) << local.status.to_string();

  auto wire = client.value().audit(wire_request());
  ASSERT_TRUE(wire.ok()) << wire.status().to_string();
  const api::AuditResponse& remote = wire.value();
  ASSERT_TRUE(remote.status.ok()) << remote.status.to_string();
  EXPECT_EQ(remote.model_id, "m0");
  EXPECT_EQ(remote.detector_version, "market@v1");
  EXPECT_EQ(remote.verdict.score, local.verdict.score);
  EXPECT_EQ(remote.verdict.backdoored, local.verdict.backdoored);
  EXPECT_EQ(remote.verdict.prompted_accuracy,
            local.verdict.prompted_accuracy);
  EXPECT_EQ(remote.verdict.queries, local.verdict.queries);

  // Pipelined batch: each slot is its own server-side batch of one, so
  // every response must again be bit-identical to the single audit.
  auto batch = client.value().audit_batch({wire_request("a"),
                                           wire_request("b")});
  ASSERT_TRUE(batch.ok()) << batch.status().to_string();
  for (const api::AuditResponse& response : batch.value()) {
    ASSERT_TRUE(response.status.ok()) << response.status.to_string();
    EXPECT_EQ(response.verdict.score, local.verdict.score);
    EXPECT_EQ(response.verdict.queries, local.verdict.queries);
  }

  server.stop();
}

TEST(NetServer, StatsAndInfoFoldOverTheWire) {
  const std::string dir = fresh_dir("bprom_net_stats");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.publish("market", fixture().detector).ok());
  net::Server server(engine, {});
  ASSERT_TRUE(server.start().ok());

  auto client = net::Client::connect({.port = server.port()});
  ASSERT_TRUE(client.ok());
  auto audited = client.value().audit(wire_request());
  ASSERT_TRUE(audited.ok());
  ASSERT_TRUE(audited.value().status.ok());

  auto stats = client.value().stats();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  const net::StatsResponseMsg& msg = stats.value();
  EXPECT_GE(msg.engine.requests, 1U);
  EXPECT_GE(msg.engine.verdicts, 1U);
  EXPECT_GT(msg.engine.queries, 0U);
  // The engine profiler's percentiles crossed the wire folded into stats.
  const auto& request_stage = msg.engine.profile[util::ProfileStage::kRequest];
  EXPECT_GE(request_stage.count, 1U);
  EXPECT_GT(request_stage.p50, 0.0);
  // And the transport's own half.
  EXPECT_GE(msg.server.connections_accepted, 1U);
  EXPECT_GE(msg.server.connections_active, 1U);
  EXPECT_EQ(msg.server.requests_admitted, 1U);
  EXPECT_GT(msg.server.bytes_received, 0U);
  EXPECT_GT(msg.server.bytes_sent, 0U);
  EXPECT_EQ(msg.server.rejected_protocol, 0U);

  auto info = client.value().info("market");
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info.value().name, "market");
  EXPECT_EQ(info.value().version, 1U);
  const auto local = engine.info("market");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(info.value().source_classes, local.value().source_classes);
  EXPECT_EQ(info.value().query_samples, local.value().query_samples);

  EXPECT_EQ(client.value().info("ghost").status().code(),
            api::StatusCode::kNotFound);

  server.stop();
}

TEST(NetServer, RequestBudgetExhaustsTypedAndResetsPerConnection) {
  const std::string dir = fresh_dir("bprom_net_reqbudget");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.publish("market", fixture().detector).ok());
  net::ServerConfig config;
  config.admission.max_requests_per_connection = 2;
  net::Server server(engine, config);
  ASSERT_TRUE(server.start().ok());

  auto client = net::Client::connect({.port = server.port()});
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 2; ++i) {
    auto ok = client.value().audit(wire_request("ok" + std::to_string(i)));
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(ok.value().status.ok()) << ok.value().status.to_string();
  }
  auto rejected = client.value().audit(wire_request("over"));
  ASSERT_TRUE(rejected.ok());  // transport succeeded; the REQUEST failed
  EXPECT_EQ(rejected.value().status.code(), api::StatusCode::kBudgetExhausted);
  EXPECT_NE(rejected.value().status.message().find("request budget"),
            std::string::npos);
  EXPECT_EQ(server.counters().rejected_request_budget, 1U);

  // Budgets are per connection: a fresh connection starts a fresh budget.
  auto fresh = net::Client::connect({.port = server.port()});
  ASSERT_TRUE(fresh.ok());
  auto again = fresh.value().audit(wire_request());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().status.ok());

  server.stop();
}

TEST(NetServer, UploadedModelTheCanvasCannotHoldIsRefusedTyped) {
  const std::string dir = fresh_dir("bprom_net_shape");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.publish("market", fixture().detector).ok());
  net::Server server(engine, {});
  ASSERT_TRUE(server.start().ok());

  net::ClientConfig client_config;
  client_config.port = server.port();
  auto client = net::Client::connect(client_config);
  ASSERT_TRUE(client.ok());
  // D_T is 3x16x16: a 3x64x64 model's 32x32 inner half holds neither D_T
  // as stored nor its 2x downscale.
  util::Rng rng(5);
  const auto wide = nn::make_model(nn::ArchKind::kResNet18Mini,
                                   nn::ImageShape{3, 64, 64}, 10, rng);
  net::ClientAuditRequest request = wire_request("wide");
  request.model = wide.get();
  auto refused = client.value().audit(request);
  ASSERT_TRUE(refused.ok());  // transport succeeded; the REQUEST failed
  EXPECT_EQ(refused.value().status.code(), api::StatusCode::kInvalidRequest)
      << refused.value().status.to_string();

  // The connection keeps serving.
  auto ok = client.value().audit(wire_request());
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.value().status.ok()) << ok.value().status.to_string();

  server.stop();
}

TEST(NetServer, ByteBudgetExhaustsTyped) {
  const std::string dir = fresh_dir("bprom_net_bytebudget");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.publish("market", fixture().detector).ok());
  net::ServerConfig config;
  // One serialized-model audit request blows well past 4KiB.
  config.admission.max_bytes_per_connection = 4096;
  net::Server server(engine, config);
  ASSERT_TRUE(server.start().ok());

  auto client = net::Client::connect({.port = server.port()});
  ASSERT_TRUE(client.ok());
  auto rejected = client.value().audit(wire_request());
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().status.code(), api::StatusCode::kBudgetExhausted);
  EXPECT_NE(rejected.value().status.message().find("byte budget"),
            std::string::npos);
  EXPECT_EQ(server.counters().rejected_byte_budget, 1U);

  server.stop();
}

TEST(NetServer, OverloadRejectsTypedWhileAcceptedRequestsComplete) {
  const std::string dir = fresh_dir("bprom_net_overload");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.publish("market", fixture().detector).ok());
  net::ServerConfig config;
  config.admission.max_in_flight_per_connection = 1;
  net::Server server(engine, config);
  ASSERT_TRUE(server.start().ok());

  const api::AuditResponse local = in_process_response(engine);
  ASSERT_TRUE(local.status.ok());

  // Pipeline four requests at a connection capped at one in flight: the
  // client writes all four before reading anything, an inspection takes
  // ~a second, so the later frames reach admission while the first audit
  // is still running and MUST bounce typed — and the accepted request
  // must still complete with the exact in-process verdict.
  auto client = net::Client::connect({.port = server.port()});
  ASSERT_TRUE(client.ok());
  auto batch = client.value().audit_batch(
      {wire_request("q0"), wire_request("q1"), wire_request("q2"),
       wire_request("q3")});
  ASSERT_TRUE(batch.ok()) << batch.status().to_string();
  std::size_t completed = 0;
  std::size_t rejected = 0;
  for (const api::AuditResponse& response : batch.value()) {
    if (response.status.ok()) {
      ++completed;
      EXPECT_EQ(response.verdict.score, local.verdict.score);
      EXPECT_EQ(response.verdict.queries, local.verdict.queries);
    } else {
      EXPECT_EQ(response.status.code(), api::StatusCode::kBudgetExhausted)
          << response.status.to_string();
      ++rejected;
    }
  }
  EXPECT_GE(completed, 1U);
  EXPECT_GE(rejected, 1U);
  EXPECT_EQ(completed + rejected, 4U);
  EXPECT_EQ(server.counters().rejected_in_flight, rejected);
  EXPECT_EQ(server.counters().requests_admitted, completed);

  server.stop();
}

TEST(NetServer, SequentialAuditsReuseTheInFlightSlot) {
  const std::string dir = fresh_dir("bprom_net_slotreuse");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.publish("market", fixture().detector).ok());
  net::ServerConfig config;
  config.admission.max_in_flight_per_connection = 1;
  config.admission.max_in_flight_total = 1;
  net::Server server(engine, config);
  ASSERT_TRUE(server.start().ok());

  // Each completion must release both the per-connection and the global
  // slot: three sequential audits on one connection all get admitted.
  auto client = net::Client::connect({.port = server.port()});
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    auto response = client.value().audit(wire_request("s" + std::to_string(i)));
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response.value().status.ok())
        << "audit " << i << ": " << response.value().status.to_string();
  }
  EXPECT_EQ(server.counters().requests_admitted, 3U);

  server.stop();
}

TEST(NetServer, NewerProtocolVersionRejectedTypedThenClosed) {
  const std::string dir = fresh_dir("bprom_net_protover");
  api::AuditEngine engine({.store_dir = dir});
  net::Server server(engine, {});
  ASSERT_TRUE(server.start().ok());

  RawConn conn(server.port());
  std::vector<std::uint8_t> frame =
      net::encode_frame(net::MsgType::kStatsRequest, 42, stats_body());
  frame[4] = net::kProtocolVersion + 1;  // little-endian protocol version
  frame[5] = 0;
  conn.send(frame);

  const net::ErrorMsg error = conn.read_error();
  EXPECT_EQ(error.status.code(), api::StatusCode::kVersionMismatch);
  EXPECT_NE(error.status.message().find("newer"), std::string::npos);
  // A newer protocol may have changed the header layout; the server must
  // not keep guessing at the stream.
  EXPECT_TRUE(conn.closed_by_server());
  EXPECT_EQ(server.counters().rejected_protocol, 1U);

  server.stop();
}

TEST(NetServer, CorruptBodyAnsweredTypedAndConnectionSurvives) {
  const std::string dir = fresh_dir("bprom_net_corrupt");
  api::AuditEngine engine({.store_dir = dir});
  net::Server server(engine, {});
  ASSERT_TRUE(server.start().ok());

  RawConn conn(server.port());
  std::vector<std::uint8_t> frame =
      net::encode_frame(net::MsgType::kStatsRequest, 9, stats_body());
  frame.back() ^= 0xFF;  // corrupt the body CRC itself
  conn.send(frame);
  const net::ErrorMsg error = conn.read_error();
  EXPECT_EQ(error.status.code(), api::StatusCode::kCorruptArtifact);

  // Framing stayed in sync (the header was honest about the body length),
  // so the SAME connection keeps serving.
  conn.send(net::encode_frame(net::MsgType::kStatsRequest, 10, stats_body()));
  net::FrameHeader header;
  std::vector<std::uint8_t> body;
  ASSERT_TRUE(conn.read_frame(&header, &body));
  EXPECT_EQ(header.type, net::MsgType::kStatsResponse);
  EXPECT_EQ(header.request_id, 10U);
  io::Reader reader(std::move(body));
  EXPECT_EQ(net::decode_stats_response(reader).server.rejected_protocol, 1U);

  server.stop();
}

TEST(NetServer, BadMagicAndOversizedPrefixCloseTheConnection) {
  const std::string dir = fresh_dir("bprom_net_badmagic");
  api::AuditEngine engine({.store_dir = dir});
  net::ServerConfig config;
  config.max_frame_bytes = 1 << 16;
  net::Server server(engine, config);
  ASSERT_TRUE(server.start().ok());

  {
    RawConn conn(server.port());
    conn.send(std::vector<std::uint8_t>(64, 0x5A));
    const net::ErrorMsg error = conn.read_error();
    EXPECT_EQ(error.status.code(), api::StatusCode::kInvalidRequest);
    EXPECT_TRUE(conn.closed_by_server());
  }
  {
    RawConn conn(server.port());
    net::FrameHeader header;
    header.type = net::MsgType::kAuditRequest;
    header.request_id = 1;
    header.body_len = 1ULL << 40;  // attacker-chosen allocation size
    std::uint8_t raw[net::kFrameHeaderBytes];
    net::encode_frame_header(header, raw);
    conn.send({raw, raw + sizeof(raw)});
    const net::ErrorMsg error = conn.read_error();
    EXPECT_EQ(error.status.code(), api::StatusCode::kInvalidRequest);
    EXPECT_NE(error.status.message().find("exceeds"), std::string::npos);
    EXPECT_TRUE(conn.closed_by_server());
  }
  EXPECT_EQ(server.counters().rejected_protocol, 2U);

  server.stop();
}

TEST(NetServer, MalformedAuditBodyAnsweredInBand) {
  const std::string dir = fresh_dir("bprom_net_badbody");
  api::AuditEngine engine({.store_dir = dir});
  net::Server server(engine, {});
  ASSERT_TRUE(server.start().ok());

  // A well-framed audit request whose body is a valid container holding
  // the WRONG message (a stats request): decode fails typed, in band.
  RawConn conn(server.port());
  conn.send(net::encode_frame(net::MsgType::kAuditRequest, 5, stats_body()));
  const net::ErrorMsg error = conn.read_error();
  EXPECT_EQ(error.status.code(), api::StatusCode::kCorruptArtifact);

  // The admission slot taken before decoding was released on failure.
  EXPECT_EQ(server.counters().requests_admitted, 1U);
  conn.send(net::encode_frame(net::MsgType::kStatsRequest, 6, stats_body()));
  net::FrameHeader header;
  std::vector<std::uint8_t> body;
  ASSERT_TRUE(conn.read_frame(&header, &body));
  EXPECT_EQ(header.type, net::MsgType::kStatsResponse);

  server.stop();
}

TEST(NetServer, DribbledFramesAssembleWhileOtherConnectionsServe) {
  const std::string dir = fresh_dir("bprom_net_dribble");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.publish("market", fixture().detector).ok());
  net::Server server(engine, {});
  ASSERT_TRUE(server.start().ok());

  const api::AuditResponse local = in_process_response(engine);
  ASSERT_TRUE(local.status.ok());

  // Encode a full audit request, then dribble it 9 bytes at a time; the
  // per-connection read state machine must reassemble it exactly.
  net::AuditRequestMsg msg;
  msg.model_id = "slowpoke";
  msg.detector = "market";
  io::Writer writer;
  net::encode_audit_request(writer, msg, *fixture().suspicious.model);
  const std::vector<std::uint8_t> frame =
      net::encode_frame(net::MsgType::kAuditRequest, 77, writer);

  RawConn slow(server.port());
  std::size_t sent = 0;
  bool interleaved_served = false;
  while (sent < frame.size()) {
    const std::size_t n = std::min<std::size_t>(9, frame.size() - sent);
    slow.send({frame.begin() + static_cast<std::ptrdiff_t>(sent),
               frame.begin() + static_cast<std::ptrdiff_t>(sent + n)});
    sent += n;
    if (!interleaved_served && sent > frame.size() / 2) {
      // Mid-dribble, a second connection gets a full answer: one stalled
      // client does not wedge the IO loop.
      auto other = net::Client::connect({.port = server.port()});
      ASSERT_TRUE(other.ok());
      ASSERT_TRUE(other.value().stats().ok());
      interleaved_served = true;
    }
  }
  EXPECT_TRUE(interleaved_served);

  net::FrameHeader header;
  std::vector<std::uint8_t> body;
  ASSERT_TRUE(slow.read_frame(&header, &body));
  EXPECT_EQ(header.type, net::MsgType::kAuditResponse);
  EXPECT_EQ(header.request_id, 77U);
  io::Reader reader(std::move(body));
  const api::AuditResponse response = net::decode_audit_response(reader);
  EXPECT_TRUE(response.status.ok()) << response.status.to_string();
  EXPECT_EQ(response.model_id, "slowpoke");
  EXPECT_EQ(response.verdict.score, local.verdict.score);
  EXPECT_EQ(response.verdict.queries, local.verdict.queries);

  server.stop();
}

TEST(NetServer, IdleConnectionsAreReaped) {
  const std::string dir = fresh_dir("bprom_net_idle");
  api::AuditEngine engine({.store_dir = dir});
  net::ServerConfig config;
  config.idle_timeout_ms = 100;
  net::Server server(engine, config);
  ASSERT_TRUE(server.start().ok());

  RawConn conn(server.port());
  // No traffic, no in-flight work: the sweeper must close it.
  EXPECT_TRUE(conn.closed_by_server());
  EXPECT_EQ(server.counters().connections_idle_closed, 1U);
  EXPECT_EQ(server.counters().connections_active, 0U);

  server.stop();
}

TEST(NetServer, IdleSweepSparesAConnectionWithAnAuditInFlight) {
  const std::string dir = fresh_dir("bprom_net_idle_inflight");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.publish("market", fixture().detector).ok());
  net::ServerConfig config;
  config.idle_timeout_ms = 10;  // the IO loop sweeps every 10 ms
  net::Server server(engine, config);
  ASSERT_TRUE(server.start().ok());

  // The connection sends nothing while its one audit runs, so every sweep
  // during the audit sees it silent for longer than the timeout; only the
  // audit in flight keeps it open until the response is owed and sent.
  // The uploaded model is an untrained SwinMini: its forward costs over ten
  // times the fixture's ResNet18Mini, so the audit outlasts several sweeps
  // however fast the conv kernels get.  The verdict itself is not checked.
  util::Rng rng(11);
  const auto slow = nn::make_model(nn::ArchKind::kSwinMini,
                                   fixture().src.profile.shape,
                                   fixture().src.profile.classes, rng);
  net::AuditRequestMsg msg;
  msg.model_id = "busy";
  msg.detector = "market";
  io::Writer writer;
  net::encode_audit_request(writer, msg, *slow);
  RawConn conn(server.port());
  conn.send(net::encode_frame(net::MsgType::kAuditRequest, 1, writer));
  net::FrameHeader header;
  std::vector<std::uint8_t> body;
  ASSERT_TRUE(conn.read_frame(&header, &body));
  ASSERT_EQ(header.type, net::MsgType::kAuditResponse);
  io::Reader reader(std::move(body));
  const api::AuditResponse response = net::decode_audit_response(reader);
  EXPECT_TRUE(response.status.ok()) << response.status.to_string();
  EXPECT_GT(response.seconds, 0.020);  // sweeps ran while it was in flight

  server.stop();
}

TEST(NetServer, StopWhileAuditsInFlightDrainsCleanly) {
  const std::string dir = fresh_dir("bprom_net_stop");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.publish("market", fixture().detector).ok());
  auto server = std::make_unique<net::Server>(engine, net::ServerConfig{});
  ASSERT_TRUE(server->start().ok());

  // Fire-and-forget three pipelined audits, then stop the server while
  // they are (most likely) mid-inspection: stop() must drain the engine
  // completion callbacks without deadlock, crash, or leak — the sanitizer
  // jobs are the other half of this assertion.
  net::AuditRequestMsg msg;
  msg.model_id = "doomed";
  msg.detector = "market";
  io::Writer writer;
  net::encode_audit_request(writer, msg, *fixture().suspicious.model);
  RawConn conn(server->port());
  for (std::uint64_t id = 1; id <= 3; ++id) {
    conn.send(net::encode_frame(net::MsgType::kAuditRequest, id, writer));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server->stop();
  server.reset();
  // The engine outlives the server and keeps working.
  EXPECT_TRUE(in_process_response(engine).status.ok());
}

}  // namespace
}  // namespace bprom
