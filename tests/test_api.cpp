// Public-façade behavior: Status/Result plumbing, versioned publish +
// rollover, async batched audits, and every typed error path — none of
// which may throw or abort across the api boundary.
#include <grp.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "core/experiment.hpp"
#include "data/ops.hpp"
#include "io/binary.hpp"
#include "nn/arch.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

/// One fitted detector + one suspicious model shared by every test: fitting
/// is the expensive step and these tests only exercise the façade around it.
const Fixture& fixture() {
  static const Fixture f;
  return f;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

api::AuditRequest request_for(const std::string& detector,
                              const nn::BlackBoxModel* box,
                              const std::string& id = "m0") {
  api::AuditRequest request;
  request.model_id = id;
  request.detector = detector;
  request.model = box;
  return request;
}

/// Corrupt a container past its header: invert its middle byte.
void flip_middle_byte(const std::string& path) {
  const auto middle = static_cast<std::streamoff>(fs::file_size(path) / 2);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(middle);
  const int byte = file.get();
  file.seekp(middle);
  file.put(static_cast<char>(~byte));
}

/// Claims a class count that never matches a fitted detector.
class WrongClassBox final : public nn::BlackBoxModel {
 public:
  nn::Tensor predict_proba(const nn::Tensor& images) const override {
    return nn::Tensor({images.dim(0), std::size_t{3}});
  }
  [[nodiscard]] std::size_t num_classes() const override { return 3; }
  [[nodiscard]] nn::ImageShape input_shape() const override {
    return {3, 16, 16};
  }
  [[nodiscard]] std::size_t query_count() const override { return 0; }
};

/// Blocks its first queries until released, so a test can pin down exactly
/// when an in-flight audit resolved its detector version.
class GatedBox final : public nn::BlackBoxModel {
 public:
  GatedBox(nn::Model& model, std::atomic<bool>& started,
           std::atomic<bool>& release)
      : inner_(model), started_(&started), release_(&release) {}
  nn::Tensor predict_proba(const nn::Tensor& images) const override {
    started_->store(true);
    while (!release_->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return inner_.predict_proba(images);
  }
  [[nodiscard]] std::size_t num_classes() const override {
    return inner_.num_classes();
  }
  [[nodiscard]] nn::ImageShape input_shape() const override {
    return inner_.input_shape();
  }
  [[nodiscard]] std::size_t query_count() const override {
    return inner_.query_count();
  }

 private:
  nn::BlackBoxAdapter inner_;
  std::atomic<bool>* started_;
  std::atomic<bool>* release_;
};

TEST(ApiStatus, CodesNamesAndResult) {
  EXPECT_TRUE(api::Status::Ok().ok());
  EXPECT_EQ(api::Status::Ok().to_string(), "ok");
  const auto missing = api::Status::NotFound("no such thing");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), api::StatusCode::kNotFound);
  EXPECT_EQ(missing.to_string(), "not_found: no such thing");

  api::Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  api::Result<int> bad(api::Status::InvalidRequest("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), api::StatusCode::kInvalidRequest);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(ApiStatus, VersionedNameRoundTrip) {
  EXPECT_EQ(api::versioned_name("aud", 3), "aud@v3");
  std::string base;
  std::uint32_t version = 0;
  ASSERT_TRUE(api::parse_versioned_name("aud@v12", &base, &version));
  EXPECT_EQ(base, "aud");
  EXPECT_EQ(version, 12U);
  for (const char* bad : {"aud", "aud@", "aud@v", "aud@v0", "aud@vx", "@v1",
                          "aud@v1x", "aud@v99999999999"}) {
    EXPECT_FALSE(api::parse_versioned_name(bad, &base, &version)) << bad;
  }
}

TEST(ApiEngine, MissingDetectorIsNotFoundNeverThrows) {
  api::AuditEngine engine({.store_dir = fresh_dir("bprom_api_missing")});
  ASSERT_TRUE(engine.status().ok());
  EXPECT_EQ(engine.info("ghost").status().code(), api::StatusCode::kNotFound);
  EXPECT_EQ(engine.info("ghost@v2").status().code(),
            api::StatusCode::kNotFound);

  nn::BlackBoxAdapter box(*fixture().suspicious.model);
  const auto responses = engine.audit({request_for("ghost", &box)});
  ASSERT_EQ(responses.size(), 1U);
  EXPECT_EQ(responses[0].status.code(), api::StatusCode::kNotFound);
  EXPECT_EQ(responses[0].model_id, "m0");
  EXPECT_EQ(box.query_count(), 0U);
}

TEST(ApiEngine, CorruptAndTruncatedArtifactsAreTyped) {
  const std::string dir = fresh_dir("bprom_api_corrupt");
  fs::create_directories(dir);
  {
    std::ofstream out(dir + "/garbage@v1.bprom", std::ios::binary);
    out << "this is not a container";
  }
  // A valid detector container, truncated mid-payload.
  serve::DetectorStore store(dir);
  store.put("chopped@v1", fixture().detector);
  const std::string chopped = store.path_for("chopped@v1");
  const auto full_size = fs::file_size(chopped);
  fs::resize_file(chopped, full_size / 2);

  api::AuditEngine engine({.store_dir = dir});
  EXPECT_EQ(engine.info("garbage").status().code(),
            api::StatusCode::kCorruptArtifact);
  EXPECT_EQ(engine.info("chopped").status().code(),
            api::StatusCode::kCorruptArtifact);

  nn::BlackBoxAdapter box(*fixture().suspicious.model);
  const auto responses = engine.audit({request_for("chopped", &box)});
  EXPECT_EQ(responses[0].status.code(), api::StatusCode::kCorruptArtifact);
}

TEST(ApiEngine, NewerContainerVersionIsVersionMismatch) {
  const std::string dir = fresh_dir("bprom_api_future");
  fs::create_directories(dir);
  {
    // Hand-craft an empty-but-valid container stamped format version 2.
    std::vector<std::uint8_t> bytes = {'B', 'P', 'R', 'M'};
    const std::uint32_t version = io::kFormatVersion + 1;
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(version >> (8 * i)));
    }
    for (int i = 0; i < 8; ++i) bytes.push_back(0);  // payload length 0
    const std::uint32_t crc = io::crc32(nullptr, 0);
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    }
    std::ofstream out(dir + "/future@v1.bprom", std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  // The store layer rejects it as a typed IoError (no crash, no garbage)...
  serve::DetectorStore store(dir);
  try {
    store.get("future@v1");
    FAIL() << "newer container version must be rejected";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kVersionMismatch);
  }
  // ...and the façade surfaces it as Status::kVersionMismatch.
  api::AuditEngine engine({.store_dir = dir});
  EXPECT_EQ(engine.info("future").status().code(),
            api::StatusCode::kVersionMismatch);
  nn::BlackBoxAdapter box(*fixture().suspicious.model);
  const auto responses = engine.audit({request_for("future@v1", &box)});
  EXPECT_EQ(responses[0].status.code(), api::StatusCode::kVersionMismatch);
}

TEST(ApiEngine, InvalidRequestsAreTyped) {
  api::AuditEngine engine({.store_dir = fresh_dir("bprom_api_invalid")});
  auto published = engine.publish("aud", fixture().detector);
  ASSERT_TRUE(published.ok());

  // Null model.
  auto responses = engine.audit({request_for("aud", nullptr)});
  EXPECT_EQ(responses[0].status.code(), api::StatusCode::kInvalidRequest);
  // Class-count mismatch.
  WrongClassBox wrong;
  responses = engine.audit({request_for("aud", &wrong)});
  EXPECT_EQ(responses[0].status.code(), api::StatusCode::kInvalidRequest);
  // Models whose input the prompt canvas cannot fill from D_T (3x16x16):
  // a channel count other than D_T's, or an inner half (H/2 x W/2) that is
  // neither D_T's H x W nor its 2x downscale.  A 3x32x32 input embeds D_T
  // as stored and audits normally.
  const std::pair<nn::ImageShape, api::StatusCode> shapes[] = {
      {{1, 16, 16}, api::StatusCode::kInvalidRequest},
      {{4, 16, 16}, api::StatusCode::kInvalidRequest},
      {{3, 24, 24}, api::StatusCode::kInvalidRequest},
      {{3, 64, 64}, api::StatusCode::kInvalidRequest},
      {{3, 32, 32}, api::StatusCode::kOk},
  };
  for (const auto& [input, code] : shapes) {
    util::Rng rng(5);
    const auto model =
        nn::make_model(nn::ArchKind::kResNet18Mini, input, 10, rng);
    nn::BlackBoxAdapter box(*model);
    responses = engine.audit({request_for("aud", &box)});
    EXPECT_EQ(responses[0].status.code(), code)
        << input.channels << "x" << input.height << "x" << input.width << ": "
        << responses[0].status.message();
  }
  // Reserved characters in names.
  EXPECT_EQ(engine.publish("bad@name", fixture().detector).status().code(),
            api::StatusCode::kInvalidRequest);
  EXPECT_EQ(engine.publish("bad/name", fixture().detector).status().code(),
            api::StatusCode::kInvalidRequest);
  // Pinned references go through the same name rules: no escaping the
  // store directory via "../...@vN".
  EXPECT_EQ(engine.info("../escape@v1").status().code(),
            api::StatusCode::kInvalidRequest);
  EXPECT_EQ(engine.info("still@bad@v1").status().code(),
            api::StatusCode::kInvalidRequest);
  // Unfitted detectors cannot be published.
  EXPECT_EQ(engine.publish("empty", core::BpromDetector{}).status().code(),
            api::StatusCode::kFailedPrecondition);
}

TEST(ApiEngine, ZeroQueryBudgetFailsBeforeAnyQuery) {
  api::AuditEngine engine({.store_dir = fresh_dir("bprom_api_budget")});
  ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());

  nn::BlackBoxAdapter box(*fixture().suspicious.model);
  auto request = request_for("aud", &box);
  request.query_budget = 0;
  const auto responses = engine.audit({request});
  ASSERT_EQ(responses.size(), 1U);
  EXPECT_EQ(responses[0].status.code(), api::StatusCode::kBudgetExhausted);
  EXPECT_EQ(box.query_count(), 0U);
  EXPECT_EQ(responses[0].verdict.queries, 0U);
  EXPECT_EQ(engine.stats().verdicts, 0U);
}

TEST(ApiEngine, TinyQueryBudgetReportsExactSpend) {
  api::AuditEngine engine({.store_dir = fresh_dir("bprom_api_budget2")});
  ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());

  nn::BlackBoxAdapter box(*fixture().suspicious.model);
  auto request = request_for("aud", &box);
  request.query_budget = 1;  // a real inspection costs far more
  const auto responses = engine.audit({request});
  EXPECT_EQ(responses[0].status.code(), api::StatusCode::kBudgetExhausted);
  // The spend is reported exactly so callers can account for it.
  EXPECT_GT(responses[0].verdict.queries, 1U);
  EXPECT_EQ(engine.stats().queries, responses[0].verdict.queries);
}

TEST(ApiEngine, PromptBudgetExhaustionSurfacesThroughFit) {
  // A detector whose black-box prompt optimizer has no evaluation budget:
  // pre-façade this silently produced unoptimized-prompt verdicts; through
  // the façade every audit against it reports kBudgetExhausted.
  const auto& f = fixture();
  util::Rng rng(7 ^ 0xDE7EC7ULL);
  const auto reserved = data::sample_fraction(f.src.test, 0.10, rng);
  const auto dt_train = data::subset(
      f.tgt.train,
      rng.sample_without_replacement(f.tgt.train.size(), 128));

  api::AuditEngine engine({.store_dir = fresh_dir("bprom_api_noevals")});
  api::FitRequest fit;
  fit.name = "nobudget";
  fit.source_classes = f.src.profile.classes;
  fit.reserved_clean = &reserved;
  fit.target_train = &dt_train;
  fit.target_test = &f.tgt.test;
  fit.config = core::default_bprom_config(micro_scale(),
                                          nn::ArchKind::kResNet18Mini, 7);
  fit.config.prompt_blackbox.max_evaluations = 0;
  const auto info = engine.fit(fit);
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info.value().versioned_name(), "nobudget@v1");

  nn::BlackBoxAdapter box(*f.suspicious.model);
  const auto responses = engine.audit({request_for("nobudget", &box)});
  EXPECT_EQ(responses[0].status.code(), api::StatusCode::kBudgetExhausted);
}

TEST(ApiEngine, FitRequestValidation) {
  api::AuditEngine engine({.store_dir = fresh_dir("bprom_api_fitval")});
  api::FitRequest fit;  // everything missing
  fit.name = "x";
  EXPECT_EQ(engine.fit(fit).status().code(), api::StatusCode::kInvalidRequest);

  const auto& f = fixture();
  fit.reserved_clean = &f.src.test;
  fit.target_train = &f.tgt.train;
  fit.target_test = &f.tgt.test;
  fit.source_classes = 2;  // K_T (10) > K_S (2): mapping impossible
  EXPECT_EQ(engine.fit(fit).status().code(), api::StatusCode::kInvalidRequest);
}

TEST(ApiEngine, PublishRolloverAndPinnedVersions) {
  const std::string dir = fresh_dir("bprom_api_rollover");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());
  nn::BlackBoxAdapter box_v1(*fixture().suspicious.model);
  const auto before = engine.audit({request_for("aud", &box_v1)});
  ASSERT_TRUE(before[0].status.ok());
  EXPECT_EQ(before[0].detector_version, "aud@v1");

  // Roll over (identical content, so verdicts must not move).
  auto v2 = engine.publish("aud", fixture().detector);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value().versioned_name(), "aud@v2");
  EXPECT_EQ(engine.stats().rollovers, 1U);
  EXPECT_EQ(engine.info("aud").value().version, 2U);

  nn::BlackBoxAdapter box_v2(*fixture().suspicious.model);
  const auto after = engine.audit({request_for("aud", &box_v2)});
  EXPECT_EQ(after[0].detector_version, "aud@v2");
  EXPECT_EQ(after[0].verdict.score, before[0].verdict.score);
  EXPECT_EQ(after[0].verdict.queries, before[0].verdict.queries);

  // Pinned requests keep reaching the superseded version.
  nn::BlackBoxAdapter box_pin(*fixture().suspicious.model);
  const auto pinned = engine.audit({request_for("aud@v1", &box_pin)});
  EXPECT_EQ(pinned[0].detector_version, "aud@v1");
  EXPECT_EQ(pinned[0].verdict.score, before[0].verdict.score);

  // A fresh engine over the same directory resolves the same rollover
  // state from disk alone — and a pinned lookup of the old version first
  // must not drag the later bare lookup backwards.
  api::AuditEngine fresh({.store_dir = dir});
  EXPECT_EQ(fresh.info("aud@v1").value().version, 1U);
  EXPECT_EQ(fresh.info("aud").value().version, 2U);
  const auto listed = fresh.list();
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed.value().size(), 2U);
  EXPECT_EQ(listed.value()[0].versioned_name(), "aud@v1");
  EXPECT_EQ(listed.value()[1].versioned_name(), "aud@v2");
}

TEST(ApiEngine, RolloverWhileAuditingFinishesOnOldVersion) {
  api::AuditEngine engine(
      {.store_dir = fresh_dir("bprom_api_inflight")});
  ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());

  // Baseline verdict for batch index 0 (same salt as the gated run below).
  nn::BlackBoxAdapter plain(*fixture().suspicious.model);
  const auto baseline = engine.audit({request_for("aud", &plain)});
  ASSERT_TRUE(baseline[0].status.ok());

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  GatedBox gated(*fixture().suspicious.model, started, release);
  auto future = engine.audit_async({request_for("aud", &gated)});

  // Wait until the in-flight audit has resolved "aud" (its first query
  // proves resolution happened), then roll the name over underneath it.
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());
  EXPECT_EQ(engine.info("aud").value().version, 2U);
  release.store(true);

  const auto inflight = future.get();
  ASSERT_EQ(inflight.size(), 1U);
  ASSERT_TRUE(inflight[0].status.ok());
  // The audit that was in flight during the rollover finished on v1...
  EXPECT_EQ(inflight[0].detector_version, "aud@v1");
  EXPECT_EQ(inflight[0].verdict.score, baseline[0].verdict.score);
  EXPECT_EQ(inflight[0].verdict.queries, baseline[0].verdict.queries);
  // ...while the next batch resolves to v2.
  nn::BlackBoxAdapter next(*fixture().suspicious.model);
  EXPECT_EQ(engine.audit({request_for("aud", &next)})[0].detector_version,
            "aud@v2");
}

/// Queries at a crawl so a deadline reliably expires mid-inspection, inside
/// the first optimizer run of every ensemble member on any pool size.
class SlowBox final : public nn::BlackBoxModel {
 public:
  explicit SlowBox(nn::Model& model) : inner_(model) {}
  nn::Tensor predict_proba(const nn::Tensor& images) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    return inner_.predict_proba(images);
  }
  [[nodiscard]] std::size_t num_classes() const override {
    return inner_.num_classes();
  }
  [[nodiscard]] nn::ImageShape input_shape() const override {
    return inner_.input_shape();
  }
  [[nodiscard]] std::size_t query_count() const override {
    return inner_.query_count();
  }

 private:
  nn::BlackBoxAdapter inner_;
};

TEST(ApiEngine, DeadlineExceededMidAuditReportsExactSpend) {
  api::AuditEngine engine({.store_dir = fresh_dir("bprom_api_middl")});
  ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());

  // The deadline is generous enough that the audit starts (the pre-start
  // check passes) but far too tight for even the first ensemble member of
  // a 25ms-per-query model — so the overrun is caught at the member
  // boundary inside inspect(), the regression under test (pre-fix, the
  // inspection ran to completion and returned a stale verdict).
  SlowBox slow(*fixture().suspicious.model);
  auto request = request_for("aud", &slow);
  request.deadline_ms = 100;
  const auto responses = engine.audit({request});
  ASSERT_EQ(responses.size(), 1U);
  EXPECT_EQ(responses[0].status.code(), api::StatusCode::kDeadlineExceeded);
  // Mid-flight (not pre-start): queries were really spent, and the spend
  // is reported exactly so callers can meter paid models.
  EXPECT_GT(responses[0].verdict.queries, 0U);
  EXPECT_GT(slow.query_count(), 0U);
  EXPECT_EQ(responses[0].verdict.queries, slow.query_count());
  // The aborted inspection never reaches the meta-classifier: no verdict.
  EXPECT_EQ(engine.stats().verdicts, 0U);
  EXPECT_EQ(engine.stats().deadline_misses, 1U);
}

TEST(ApiEngine, DeadlineAlreadyExpiredFailsBeforeAnyQuery) {
  api::AuditEngine engine(
      {.store_dir = fresh_dir("bprom_api_predl"), .async_workers = 1});
  ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());
  // audit() anchors its clock at entry; force the pre-start path through
  // the async surface, whose clock anchors at submission.  A gated audit
  // holds the one serving worker, so the 1ms request waits in the queue for
  // at least the 10ms sleep and its deadline has expired when its turn
  // comes.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  GatedBox gated(*fixture().suspicious.model, started, release);
  auto blocker = engine.audit_async({request_for("aud", &gated)});
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  nn::BlackBoxAdapter box(*fixture().suspicious.model);
  auto request = request_for("aud", &box);
  request.deadline_ms = 1;
  auto future = engine.audit_async({request});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  release.store(true);
  ASSERT_TRUE(blocker.get()[0].status.ok());
  const auto responses = future.get();
  ASSERT_EQ(responses.size(), 1U);
  EXPECT_EQ(responses[0].status.code(), api::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(box.query_count(), 0U);  // never queried
  EXPECT_EQ(engine.stats().deadline_misses, 1U);
}

TEST(ApiEngine, TwoEnginesPublishingConcurrentlyNeverCollide) {
  const std::string dir = fresh_dir("bprom_api_twowriters");
  api::AuditEngine left({.store_dir = dir});
  api::AuditEngine right({.store_dir = dir});
  ASSERT_TRUE(left.status().ok());
  ASSERT_TRUE(right.status().ok());

  // Pre-fix, both engines could scan the directory concurrently, mint the
  // same "aud@vN", and one publish would silently vanish.  Under the
  // StoreLock every publish mints a distinct version, whether it races
  // another engine or another thread of its own engine (two threads share
  // `left`).
  constexpr int kPerThread = 3;
  constexpr int kThreads = 3;
  std::atomic<int> failures{0};
  auto publisher = [&failures](api::AuditEngine& engine) {
    for (int i = 0; i < kPerThread; ++i) {
      if (!engine.publish("aud", fixture().detector).ok()) {
        failures.fetch_add(1);
      }
    }
  };
  std::thread a(publisher, std::ref(left));
  std::thread b(publisher, std::ref(right));
  std::thread c(publisher, std::ref(left));
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(failures.load(), 0);

  // All versions exist — none was overwritten or skipped.
  constexpr int kVersions = kThreads * kPerThread;
  api::AuditEngine fresh({.store_dir = dir});
  const auto listed = fresh.list();
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed.value().size(), static_cast<std::size_t>(kVersions));
  for (int v = 1; v <= kVersions; ++v) {
    EXPECT_TRUE(fresh.info("aud@v" + std::to_string(v)).ok()) << v;
  }
  // The containers are the only record of what was published: no lock
  // file, no `.generation` counter, nothing else in the directory.
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> containers;
  for (int v = 1; v <= kVersions; ++v) {
    containers.push_back("aud@v" + std::to_string(v) + ".bprom");
  }
  EXPECT_EQ(files, containers);
}

TEST(ApiEngine, PublishFailuresAreStatusesNeverExceptions) {
  const std::string dir = fresh_dir("bprom_api_publishfaults");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.status().ok());
  const auto publish = [&engine] {
    return engine.publish("aud", fixture().detector);
  };
  api::StatusCode code = api::StatusCode::kOk;

  // A failure while taking the store lock, through publish() and fit().
  std::string error;
  ASSERT_TRUE(util::failpoints_arm("store.lock.crash=err", &error)) << error;
  EXPECT_NO_THROW(code = publish().status().code());
  EXPECT_EQ(code, api::StatusCode::kInternal);
  const auto& f = fixture();
  api::FitRequest fit;
  fit.name = "aud";
  fit.source_classes = f.src.profile.classes;
  fit.reserved_clean = &f.src.test;
  fit.target_train = &f.tgt.train;
  fit.target_test = &f.tgt.test;
  fit.config = core::default_bprom_config(micro_scale(),
                                          nn::ArchKind::kResNet18Mini, 7);
  code = api::StatusCode::kOk;
  EXPECT_NO_THROW(code = engine.fit(fit).status().code());
  EXPECT_EQ(code, api::StatusCode::kInternal);
  util::failpoints_clear();
  // The failed attempts released the lock and minted nothing.
  const auto first = publish();
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_EQ(first.value().version, 1U);

  // The store directory removed from under the engine.
  fs::remove_all(dir);
  code = api::StatusCode::kOk;
  EXPECT_NO_THROW(code = publish().status().code());
  EXPECT_EQ(code, api::StatusCode::kInternal);
  fs::create_directories(dir);
  const auto again = publish();
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_EQ(again.value().version, 1U);
}

/// Child entry, exec'd by ApiEngine.UnreadableStoreIsAnErrorNotAnEmptyStore.
/// Runs where permission bits bind (uid/gid 65534 when started as root),
/// publishes aud@v1 into a fresh store, makes the store writable but not
/// readable (mode 0300), then checks what the engine makes of it.  Exits 0
/// when every check holds, 77 when it cannot drop privileges, otherwise
/// with the number of the check that failed.
TEST(UnreadableStoreChild, Run) {
  const char* dir = std::getenv("BPROM_UNREADABLE_STORE");
  if (dir == nullptr) GTEST_SKIP() << "not an unreadable-store child";
  if (geteuid() == 0 &&
      (setgroups(0, nullptr) != 0 || setgid(65534) != 0 ||
       setuid(65534) != 0)) {
    _exit(77);
  }
  const auto read_all = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  api::AuditEngine engine({.store_dir = dir});
  if (!engine.publish("aud", fixture().detector).ok()) _exit(10);
  const fs::path v1 = fs::path(dir) / "aud@v1.bprom";
  const std::string bytes = read_all(v1);
  struct stat before {};
  if (::stat(v1.c_str(), &before) != 0 || ::chmod(dir, 0300) != 0) _exit(11);
  // Read as an empty store, the bare name would be not_found...
  if (engine.info("aud").status().code() != api::StatusCode::kInternal) {
    _exit(12);
  }
  // ...and a publish would mint aud@v1 again, over the published one.
  if (engine.publish("aud", fixture().detector).status().code() !=
      api::StatusCode::kInternal) {
    _exit(13);
  }
  struct stat after {};
  if (::stat(v1.c_str(), &after) != 0 || after.st_ino != before.st_ino ||
      read_all(v1) != bytes) {
    _exit(14);
  }
  _exit(0);
}

TEST(ApiEngine, UnreadableStoreIsAnErrorNotAnEmptyStore) {
  const std::string dir = fresh_dir("bprom_api_unreadable");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // A fresh process, so the child's engine threads start outside a
    // forked copy of this threaded one.
    setenv("BPROM_UNREADABLE_STORE", dir.c_str(), 1);
    execl("/proc/self/exe", "test_api_unreadable_child",
          "--gtest_filter=UnreadableStoreChild.Run",
          static_cast<char*>(nullptr));
    _exit(97);  // exec failed
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  std::error_code ec;
  fs::permissions(dir, fs::perms::owner_all, ec);
  fs::remove_all(dir, ec);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child did not exit cleanly";
  if (WEXITSTATUS(wstatus) == 77) {
    GTEST_SKIP() << "cannot drop to uid/gid 65534";
  }
  EXPECT_EQ(WEXITSTATUS(wstatus), 0)
      << "10 = first publish failed, 11 = stat or chmod failed, 12 = info "
         "was not kInternal, 13 = second publish was not kInternal, 14 = "
         "aud@v1.bprom changed, 97 = exec failed";
}

TEST(ApiEngine, BareNamesFollowPublishesFromAnotherEngine) {
  const std::string dir = fresh_dir("bprom_api_crossengine");
  api::AuditEngine left({.store_dir = dir});
  api::AuditEngine right({.store_dir = dir});
  ASSERT_EQ(left.publish("aud", fixture().detector).value().version, 1U);
  ASSERT_EQ(right.publish("aud", fixture().detector).value().version, 2U);

  // `left` never minted v2, yet resolves and audits with it...
  EXPECT_EQ(left.info("aud").value().version, 2U);
  nn::BlackBoxAdapter box(*fixture().suspicious.model);
  const auto responses = left.audit({request_for("aud", &box)});
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.to_string();
  EXPECT_EQ(responses[0].detector_version, "aud@v2");
  // ...and mints past it, which `right` resolves in turn.
  EXPECT_EQ(left.publish("aud", fixture().detector).value().version, 3U);
  EXPECT_EQ(right.info("aud").value().version, 3U);
}

TEST(ApiEngine, RecoveredNewestVersionResolvesLikeAFreshEngine) {
  const std::string dir = fresh_dir("bprom_api_recovered");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());
  ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());
  flip_middle_byte((fs::path(dir) / "aud@v2.bprom").string());
  const auto report = engine.recover();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_EQ(report.value().issues.size(), 1U);
  EXPECT_EQ(report.value().issues[0].kind,
            serve::RecoveryIssue::Kind::kCorrupt);

  // The engine that published v2 answers the bare name exactly as an
  // engine that never saw v2 does: from what is left on disk.
  api::AuditEngine fresh({.store_dir = dir});
  const auto want = fresh.info("aud");
  ASSERT_TRUE(want.ok()) << want.status().to_string();
  EXPECT_EQ(want.value().version, 1U);
  const auto got = engine.info("aud");
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(got.value().versioned_name(), want.value().versioned_name());
  EXPECT_EQ(got.value().path, want.value().path);

  nn::BlackBoxAdapter box(*fixture().suspicious.model);
  const auto responses = engine.audit({request_for("aud", &box)});
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.to_string();
  EXPECT_EQ(responses[0].detector_version, "aud@v1");
}

TEST(ApiEngine, AGenerationFileFromAnOlderBuildIsIgnoredAndKept) {
  // Older builds kept a `.generation` publish counter beside the
  // containers.  A store holding one serves exactly as a store without it,
  // and nothing rewrites or deletes the file.
  const std::string plain_dir = fresh_dir("bprom_api_nocounter");
  const std::string dir = fresh_dir("bprom_api_oldcounter");
  fs::create_directories(dir);
  const fs::path counter = fs::path(dir) / ".generation";
  std::ofstream(counter) << "7\n";

  api::AuditEngine plain({.store_dir = plain_dir});
  api::AuditEngine engine({.store_dir = dir});
  for (api::AuditEngine* e : {&plain, &engine}) {
    ASSERT_EQ(e->publish("aud", fixture().detector).value().version, 1U);
    ASSERT_EQ(e->publish("aud", fixture().detector).value().version, 2U);
  }
  for (const char* file : {"aud@v1.bprom", "aud@v2.bprom"}) {
    std::ifstream want(fs::path(plain_dir) / file, std::ios::binary);
    std::ifstream got(fs::path(dir) / file, std::ios::binary);
    EXPECT_TRUE(std::equal(std::istreambuf_iterator<char>(got), {},
                           std::istreambuf_iterator<char>(want), {}))
        << file;
  }
  EXPECT_EQ(engine.info("aud").value().version, 2U);

  nn::BlackBoxAdapter box(*fixture().suspicious.model);
  for (const char* name : {"aud", "aud@v1"}) {
    const auto want = plain.audit({request_for(name, &box)});
    const auto got = engine.audit({request_for(name, &box)});
    ASSERT_TRUE(want[0].status.ok()) << want[0].status.to_string();
    ASSERT_TRUE(got[0].status.ok()) << got[0].status.to_string();
    EXPECT_EQ(got[0].detector_version, want[0].detector_version) << name;
    EXPECT_EQ(got[0].verdict.score, want[0].verdict.score) << name;
    EXPECT_EQ(got[0].verdict.backdoored, want[0].verdict.backdoored) << name;
    EXPECT_EQ(got[0].verdict.prompted_accuracy,
              want[0].verdict.prompted_accuracy)
        << name;
    EXPECT_EQ(got[0].verdict.queries, want[0].verdict.queries) << name;
  }

  const auto report = engine.recover();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().clean());
  EXPECT_EQ(report.value().artifacts_ok, 2U);
  EXPECT_EQ(serve::DetectorStore(dir).list(),
            (std::vector<std::string>{"aud@v1", "aud@v2"}));
  std::ifstream in(counter, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), "7\n");
}

TEST(ApiEngine, AsyncVerdictsMatchSyncThroughTheRing) {
  api::AuditEngine engine({.store_dir = fresh_dir("bprom_api_ringdet")});
  ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());

  // The queue hand-off must not perturb determinism: the same batch through
  // audit() and audit_async() yields bit-identical verdicts (salts depend
  // on batch index only, never on which worker popped the job).
  nn::BlackBoxAdapter sync0(*fixture().suspicious.model);
  nn::BlackBoxAdapter sync1(*fixture().suspicious.model);
  const auto sync = engine.audit(
      {request_for("aud", &sync0, "a"), request_for("aud", &sync1, "b")});
  nn::BlackBoxAdapter async0(*fixture().suspicious.model);
  nn::BlackBoxAdapter async1(*fixture().suspicious.model);
  const auto async = engine
                         .audit_async({request_for("aud", &async0, "a"),
                                       request_for("aud", &async1, "b")})
                         .get();
  ASSERT_EQ(async.size(), 2U);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(sync[i].status.ok());
    ASSERT_TRUE(async[i].status.ok());
    EXPECT_EQ(async[i].verdict.score, sync[i].verdict.score);
    EXPECT_EQ(async[i].verdict.queries, sync[i].verdict.queries);
  }

  // The always-on profiler saw the traffic: queue wait + batch timing for
  // the async batch, per-request and resolve samples for both.
  const auto stats = engine.stats();
  EXPECT_GE(stats.profile[util::ProfileStage::kQueueWait].count, 1U);
  EXPECT_GE(stats.profile[util::ProfileStage::kBatch].count, 1U);
  EXPECT_GE(stats.profile[util::ProfileStage::kRequest].count, 4U);
  EXPECT_GT(stats.profile[util::ProfileStage::kRequest].max, 0U);
}

TEST(ApiEngine, BatchSaltsFollowTheEngineSeed) {
  // The derivation EngineConfig::seed documents: request i of a batch
  // inspects with salt root.split(i + 1).next_u64(), split in batch order
  // off one Rng root(seed), so a verdict is a function of (engine seed,
  // batch index) only.  Pinned against direct inspect() calls for the
  // default seed and a non-default one.
  const std::uint64_t default_seed = api::EngineConfig{}.seed;
  for (const std::uint64_t seed : {default_seed, std::uint64_t{5}}) {
    api::AuditEngine engine(
        {.store_dir = fresh_dir("bprom_api_salts_" + std::to_string(seed)),
         .seed = seed});
    ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());
    nn::BlackBoxAdapter box0(*fixture().suspicious.model);
    nn::BlackBoxAdapter box1(*fixture().suspicious.model);
    const auto responses = engine.audit(
        {request_for("aud", &box0, "a"), request_for("aud", &box1, "b")});
    ASSERT_EQ(responses.size(), 2U);
    util::Rng root(seed);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", request " << i);
      const std::uint64_t salt = root.split(i + 1).next_u64();
      ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.to_string();
      nn::BlackBoxAdapter direct(*fixture().suspicious.model);
      const core::Verdict want = fixture().detector.inspect(direct, salt);
      const core::Verdict& got = responses[i].verdict;
      EXPECT_EQ(got.score, want.score);
      EXPECT_EQ(got.prompted_accuracy, want.prompted_accuracy);
      EXPECT_EQ(got.queries, want.queries);
      EXPECT_EQ(got.backdoored, want.backdoored);
    }
  }
}

TEST(ApiEngine, DestructorDrainsQueuedAsyncBatches) {
  std::vector<std::future<std::vector<api::AuditResponse>>> futures;
  std::vector<std::unique_ptr<nn::BlackBoxAdapter>> boxes;
  {
    api::AuditEngine engine({.store_dir = fresh_dir("bprom_api_drain"),
                             .async_queue_capacity = 4,
                             .async_workers = 1});
    ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());
    // More batches than workers: some are still queued when the engine
    // starts tearing down.  Every future must still resolve.
    for (int i = 0; i < 6; ++i) {
      boxes.push_back(std::make_unique<nn::BlackBoxAdapter>(
          *fixture().suspicious.model));
      std::string id = "m";
      id += std::to_string(i);  // `"m" + to_string` trips gcc 12 -Wrestrict
      futures.push_back(
          engine.audit_async({request_for("aud", boxes.back().get(), id)}));
    }
  }  // ~AuditEngine: close the queue, drain, join
  for (auto& future : futures) {
    const auto responses = future.get();  // must not hang or throw
    ASSERT_EQ(responses.size(), 1U);
    EXPECT_TRUE(responses[0].status.ok());
  }
}

TEST(ApiEngine, IdleEngineWorkersBlock) {
  // An engine with no async work must not poll: its serving workers sleep
  // until a batch or close() arrives.  Context switches, not CPU time,
  // because sanitizer builds inflate CPU time.
  api::AuditEngine engine({.store_dir = fresh_dir("bprom_api_idle")});
  ASSERT_TRUE(engine.status().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // settle
  rusage before{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  rusage after{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
  const long switches = (after.ru_nvcsw - before.ru_nvcsw) +
                        (after.ru_nivcsw - before.ru_nivcsw);
  EXPECT_LT(switches, 100) << "context switches in 500 ms of idling";
}

TEST(ApiEngine, BareContainersAreNotPublishedVersions) {
  const std::string dir = fresh_dir("bprom_api_bare");
  {
    serve::DetectorStore store(dir);  // a container outside name@vN
    store.put("old", fixture().detector);
  }
  api::AuditEngine engine({.store_dir = dir});
  EXPECT_EQ(engine.info("old").status().code(), api::StatusCode::kNotFound);
  EXPECT_EQ(engine.info("old@v1").status().code(),
            api::StatusCode::kNotFound);
  const auto listed = engine.list();
  ASSERT_TRUE(listed.ok());
  EXPECT_TRUE(listed.value().empty());
  // The first publish of the name mints v1.
  const auto published = engine.publish("old", fixture().detector);
  ASSERT_TRUE(published.ok()) << published.status().to_string();
  EXPECT_EQ(published.value().versioned_name(), "old@v1");
  EXPECT_EQ(engine.info("old").value().version, 1U);
}

TEST(ApiEngine, QuarantinedVersionsAreNeverMintedAgain) {
  const std::string dir = fresh_dir("bprom_api_quarantined");
  {
    api::AuditEngine engine({.store_dir = dir});
    ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());
    ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());
  }
  flip_middle_byte((fs::path(dir) / "aud@v2.bprom").string());
  {
    api::AuditEngine engine({.store_dir = dir});
    const auto report = engine.recover();
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    ASSERT_EQ(report.value().issues.size(), 1U);
    EXPECT_EQ(report.value().issues[0].quarantined_as,
              "quarantine/aud@v2.bprom");
  }
  // A fresh engine mints past the quarantined v2, so a pinned aud@v2 can
  // never reach content other than what was quarantined.
  api::AuditEngine engine({.store_dir = dir});
  const auto published = engine.publish("aud", fixture().detector);
  ASSERT_TRUE(published.ok()) << published.status().to_string();
  EXPECT_EQ(published.value().version, 3U);
  EXPECT_EQ(engine.info("aud@v2").status().code(),
            api::StatusCode::kNotFound);
  EXPECT_EQ(engine.info("aud").value().version, 3U);

  // A collision suffix still names a spent version.  Another name's
  // remains and a torn publish's temp file (never renamed into place, so
  // never readable under its name) spend nothing.
  const fs::path quarantine = fs::path(dir) / "quarantine";
  std::ofstream(quarantine / "aud@v5.bprom.1") << "collided";
  std::ofstream(quarantine / "aud@v8.bprom.tmp") << "torn";
  std::ofstream(quarantine / "audit@v9.bprom") << "other name";
  const auto next = engine.publish("aud", fixture().detector);
  ASSERT_TRUE(next.ok()) << next.status().to_string();
  EXPECT_EQ(next.value().version, 6U);
}

}  // namespace
}  // namespace bprom
