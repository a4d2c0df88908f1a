// Client-side failure recovery over a real loopback server: transport
// timeouts, injected connect/send/recv faults healed by the reconnect-and-
// retry policy (bit-identically — the whole point of deterministic
// serving), the never-retry rule for typed application rejections, the
// graceful drain protocol (kShutdownRequest and begin_drain()), and the
// typed failures of replies a real server never sends (wrong request id,
// wrong message type).
//
// The net.* failpoints live in the client's socket helpers
// (net::connect_to / send_all / recv_some), which every client uses with or
// without deadlines, and the server's epoll loops use raw ::send/::recv —
// so arming net.* here injects faults into the CLIENT side only, even
// though both ends share the process.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "core/experiment.hpp"
#include "io/binary.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/messages.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "nn/arch.hpp"
#include "nn/blackbox.hpp"
#include "util/failpoint.hpp"

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

/// Engine + published detector + running server, torn down in order.
struct Serving {
  explicit Serving(const std::string& tag, net::ServerConfig config = {})
      : dir(fresh_dir(tag)), engine({.store_dir = dir}) {
    EXPECT_TRUE(engine.publish("market", fixture().detector).ok());
    server.emplace(engine, config);
    EXPECT_TRUE(server->start().ok());
  }
  ~Serving() {
    if (server) server->stop();
    fs::remove_all(dir);
  }

  std::string dir;
  api::AuditEngine engine;
  std::optional<net::Server> server;
};

/// Client with every transport deadline set, so a fault that wedges the
/// connection fails the test on a deadline instead of hanging it.
net::ClientConfig bounded_config(std::uint16_t port,
                                 net::RetryPolicy retry = {}) {
  net::ClientConfig config;
  config.port = port;
  config.connect_timeout_ms = 2000;
  config.send_timeout_ms = 2000;
  config.recv_timeout_ms = 4000;
  config.retry = retry;
  return config;
}

/// Plays the server for exactly one request: accepts one connection, reads
/// one frame, and sends back the frame `answer` builds from its header.
/// Lets a test hand the client replies a real net::Server never sends.
class OneReplyServer {
 public:
  using Answer =
      std::function<std::vector<std::uint8_t>(const net::FrameHeader&)>;

  explicit OneReplyServer(Answer answer) {
    auto listener = net::listen_on("127.0.0.1", 0, 1);
    EXPECT_TRUE(listener.ok()) << listener.status().to_string();
    if (!listener.ok()) return;
    listener_ = std::move(listener).value();
    auto port = net::local_port(listener_.fd());
    EXPECT_TRUE(port.ok()) << port.status().to_string();
    if (port.ok()) port_ = port.value();
    thread_ =
        std::thread([this, answer = std::move(answer)] { serve(answer); });
  }
  ~OneReplyServer() {
    if (thread_.joinable()) thread_.join();
  }
  OneReplyServer(const OneReplyServer&) = delete;
  OneReplyServer& operator=(const OneReplyServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve(const Answer& answer) {
    pollfd pending{listener_.fd(), POLLIN, 0};
    if (::poll(&pending, 1, kWaitMs) != 1) return;
    net::Socket conn(::accept(listener_.fd(), nullptr, nullptr));
    if (!conn.valid()) return;
    net::FrameAssembler assembler;
    net::FrameHeader header;
    std::vector<std::uint8_t> body;
    std::uint8_t buf[4096];
    std::size_t got = 0;
    for (;;) {
      const auto next = assembler.next(&header, &body);
      if (next == net::FrameAssembler::Next::kFrame) break;
      if (next == net::FrameAssembler::Next::kError) return;
      if (!net::recv_some(conn.fd(), buf, sizeof(buf), &got, kWaitMs).ok() ||
          got == 0) {
        return;
      }
      assembler.append(buf, got);
    }
    const std::vector<std::uint8_t> reply = answer(header);
    EXPECT_TRUE(
        net::send_all(conn.fd(), reply.data(), reply.size(), kWaitMs).ok());
    // Hold the connection until the client hangs up, so closing this end
    // can never race the reply.
    while (net::recv_some(conn.fd(), buf, sizeof(buf), &got, kWaitMs).ok() &&
           got > 0) {
    }
  }

  static constexpr int kWaitMs = 5000;
  net::Socket listener_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// What stats() returns when the server answers with `answer`, and whether
/// the client is still connected afterwards.
std::pair<api::Status, bool> stats_answered_by(OneReplyServer::Answer answer) {
  OneReplyServer server(std::move(answer));
  auto client = net::Client::connect(bounded_config(server.port()));
  EXPECT_TRUE(client.ok()) << client.status().to_string();
  if (!client.ok()) return {client.status(), false};
  auto stats = client.value().stats();
  return {stats.status(), client.value().connected()};
}

/// Failpoints are process-global; every test starts and ends disarmed.
class NetRecovery : public ::testing::Test {
 protected:
  void SetUp() override { util::failpoints_clear(); }
  void TearDown() override { util::failpoints_clear(); }

  static void arm(const std::string& spec) {
    std::string error;
    ASSERT_TRUE(util::failpoints_arm(spec, &error)) << error;
  }
};

TEST_F(NetRecovery, RecvTimeoutSurfacesDeadlineExceeded) {
  // A listener that never accepts: the kernel completes the handshake into
  // the backlog, then nothing ever answers.  A client without a recv
  // deadline would hang here forever — the configured deadline must not.
  auto listener = net::listen_on("127.0.0.1", 0, 4);
  ASSERT_TRUE(listener.ok());
  auto port = net::local_port(listener.value().fd());
  ASSERT_TRUE(port.ok());

  net::ClientConfig config;
  config.port = port.value();
  config.connect_timeout_ms = 1000;
  config.send_timeout_ms = 1000;
  config.recv_timeout_ms = 250;
  auto client = net::Client::connect(config);
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  const auto t0 = std::chrono::steady_clock::now();
  auto stats = client.value().stats();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), api::StatusCode::kDeadlineExceeded)
      << stats.status().to_string();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
}

TEST_F(NetRecovery, SingleReplyChecksAreTyped) {
  // A reply echoing another request id: the client can no longer tell
  // which call the stream answers, so it hangs up.
  const auto [wrong_id, wrong_id_connected] =
      stats_answered_by([](const net::FrameHeader& request) {
        io::Writer body;
        net::encode_stats_response(body, net::StatsResponseMsg{});
        return net::encode_frame(net::MsgType::kStatsResponse,
                                 request.request_id + 1, body);
      });
  EXPECT_EQ(wrong_id.code(), api::StatusCode::kInternal)
      << wrong_id.to_string();
  EXPECT_FALSE(wrong_id_connected);

  // The right id on the wrong reply type: same verdict.
  const auto [wrong_type, wrong_type_connected] =
      stats_answered_by([](const net::FrameHeader& request) {
        io::Writer body;
        net::encode_info_response(body, net::InfoResponseMsg{});
        return net::encode_frame(net::MsgType::kInfoResponse,
                                 request.request_id, body);
      });
  EXPECT_EQ(wrong_type.code(), api::StatusCode::kInternal)
      << wrong_type.to_string();
  EXPECT_FALSE(wrong_type_connected);

  // A typed kError frame is the server's answer, passed through as is.
  const auto [rejected, rejected_connected] =
      stats_answered_by([](const net::FrameHeader& request) {
        net::ErrorMsg error;
        error.status = api::Status::BudgetExhausted("request budget spent");
        io::Writer body;
        net::encode_error(body, error);
        return net::encode_frame(net::MsgType::kError, request.request_id,
                                 body);
      });
  EXPECT_EQ(rejected.code(), api::StatusCode::kBudgetExhausted)
      << rejected.to_string();
  EXPECT_TRUE(rejected_connected);
}

TEST_F(NetRecovery, ClientFailpointsFireWithoutTimeouts) {
  // A default ClientConfig sets no transport deadline, as example_net_demo
  // and the benchmark's clients do; its IO must still pass every net.*
  // failpoint site.
  const std::string dir = fresh_dir("bprom_netrec_notimeout");
  api::AuditEngine engine({.store_dir = dir});
  net::Server server(engine, net::ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  net::ClientConfig config;
  config.port = server.port();

  arm("net.connect=1->err");
  auto refused = net::Client::connect(config);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), api::StatusCode::kInternal)
      << refused.status().to_string();
  EXPECT_EQ(util::failpoint_hits("net.connect"), 1U);

  arm("net.recv=1->err");
  auto client = net::Client::connect(config);
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  auto stats = client.value().stats();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), api::StatusCode::kInternal)
      << stats.status().to_string();
  EXPECT_EQ(util::failpoint_hits("net.recv"), 1U);

  server.stop();
  fs::remove_all(dir);
}

TEST_F(NetRecovery, ConnectFaultIsTypedAndTransient) {
  Serving serving("bprom_netrec_connect");
  arm("net.connect=1->err");
  auto failed = net::Client::connect(bounded_config(serving.server->port()));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), api::StatusCode::kInternal);
  EXPECT_GE(util::failpoint_hits("net.connect"), 1U);
  // The fault was one-shot; the world is healthy again.
  auto second = net::Client::connect(bounded_config(serving.server->port()));
  EXPECT_TRUE(second.ok()) << second.status().to_string();
}

TEST_F(NetRecovery, RetryRecoversFromRecvFaultBitIdentically) {
  Serving serving("bprom_netrec_recv");
  // Reference verdict through a fault-free connection.
  auto reference_client =
      net::Client::connect(bounded_config(serving.server->port()));
  ASSERT_TRUE(reference_client.ok());
  auto reference = reference_client.value().audit(wire_request());
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference.value().status.ok());

  // Now kill the first receive.  The retry policy must reconnect, replay
  // under the SAME request id, and land the identical verdict.
  net::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.jitter_seed = 7;
  auto client = net::Client::connect(
      bounded_config(serving.server->port(), retry));
  ASSERT_TRUE(client.ok());
  arm("net.recv=1->err");
  auto retried = client.value().audit(wire_request());
  ASSERT_TRUE(retried.ok()) << retried.status().to_string();
  ASSERT_TRUE(retried.value().status.ok())
      << retried.value().status.to_string();
  EXPECT_GE(util::failpoint_hits("net.recv"), 1U);  // the fault DID fire
  EXPECT_EQ(retried.value().verdict.score, reference.value().verdict.score);
  EXPECT_EQ(retried.value().verdict.backdoored,
            reference.value().verdict.backdoored);
  EXPECT_EQ(retried.value().verdict.prompted_accuracy,
            reference.value().verdict.prompted_accuracy);
  EXPECT_EQ(retried.value().verdict.queries,
            reference.value().verdict.queries);
}

TEST_F(NetRecovery, RetryRecoversFromSendFault) {
  Serving serving("bprom_netrec_send");
  net::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.jitter_seed = 11;
  auto client = net::Client::connect(
      bounded_config(serving.server->port(), retry));
  ASSERT_TRUE(client.ok());
  arm("net.send=1->err");
  auto response = client.value().audit(wire_request());
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_TRUE(response.value().status.ok());
  EXPECT_GE(util::failpoint_hits("net.send"), 1U);
}

TEST_F(NetRecovery, TypedRejectionIsNeverRetried) {
  Serving serving("bprom_netrec_typed");
  net::RetryPolicy retry;
  retry.max_attempts = 3;
  auto client = net::Client::connect(
      bounded_config(serving.server->port(), retry));
  ASSERT_TRUE(client.ok());

  net::ClientAuditRequest request = wire_request();
  request.detector = "ghost";  // never published
  auto response = client.value().audit(request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status.code(), api::StatusCode::kNotFound);
  // The rejection arrived in-band and is FINAL: exactly one server-side
  // request, exactly one connection — no replay re-spent any budget.
  EXPECT_EQ(serving.engine.stats().requests, 1U);
  EXPECT_EQ(serving.server->counters().connections_accepted, 1U);
}

TEST_F(NetRecovery, BudgetRejectionFrameIsFinal) {
  net::ServerConfig config;
  config.admission.max_bytes_per_connection = 4096;  // one model won't fit
  Serving serving("bprom_netrec_budget", config);
  net::RetryPolicy retry;
  retry.max_attempts = 3;
  auto client = net::Client::connect(
      bounded_config(serving.server->port(), retry));
  ASSERT_TRUE(client.ok());

  auto response = client.value().audit(wire_request());
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status.code(),
            api::StatusCode::kBudgetExhausted);
  // Rejected at admission — the engine never saw it, and the typed frame
  // was not mistaken for a transport fault worth retrying.
  EXPECT_EQ(serving.engine.stats().requests, 0U);
  EXPECT_EQ(serving.server->counters().connections_accepted, 1U);
}

TEST_F(NetRecovery, StallFailpointDelaysButCompletes) {
  Serving serving("bprom_netrec_stall");
  auto client = net::Client::connect(bounded_config(serving.server->port()));
  ASSERT_TRUE(client.ok());
  arm("net.recv.stall=delay:100");
  const auto t0 = std::chrono::steady_clock::now();
  auto stats = client.value().stats();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();  // slow, not dead
  EXPECT_GE(util::failpoint_hits("net.recv.stall"), 1U);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            100);
}

TEST_F(NetRecovery, ShutdownMessageDrainsTheServer) {
  Serving serving("bprom_netrec_shutdown");
  auto client = net::Client::connect(bounded_config(serving.server->port()));
  ASSERT_TRUE(client.ok());
  // Prove the connection works, then ask for the drain.
  auto stats = client.value().stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(client.value().shutdown().ok());
  EXPECT_TRUE(serving.server->draining());
  // The drained server closes this connection once its queue empties; the
  // next call must fail with a transport error, not hang.
  auto after = client.value().stats();
  EXPECT_FALSE(after.ok());
  // And stop() now has nothing left to wait for.
  const auto t0 = std::chrono::steady_clock::now();
  serving.server->stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            4000);
}

TEST_F(NetRecovery, DrainDuringPipelinedBatchAnswersEverySlot) {
  Serving serving("bprom_netrec_drainbatch");
  auto client = net::Client::connect(bounded_config(serving.server->port()));
  ASSERT_TRUE(client.ok());

  api::Result<std::vector<api::AuditResponse>> result =
      api::Status::Internal("not run");
  std::thread batcher([&] {
    result = client.value().audit_batch(
        {wire_request("a"), wire_request("b"), wire_request("c")});
  });
  // Let the requests reach the server, then drain mid-batch.  In-flight
  // audits finish and flush; anything arriving after the flip is refused
  // with a typed kFailedPrecondition — every slot gets an answer either
  // way, and nothing hangs.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  serving.server->begin_drain();
  batcher.join();

  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_EQ(result.value().size(), 3U);
  for (const api::AuditResponse& response : result.value()) {
    EXPECT_TRUE(response.status.ok() ||
                response.status.code() ==
                    api::StatusCode::kFailedPrecondition)
        << response.model_id << ": " << response.status.to_string();
  }
}

}  // namespace
}  // namespace bprom
