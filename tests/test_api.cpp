// Public-façade behavior: Status/Result plumbing, versioned publish +
// rollover, async batched audits, and every typed error path — none of
// which may throw or abort across the api boundary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "core/experiment.hpp"
#include "data/ops.hpp"
#include "io/binary.hpp"
#include "nn/arch.hpp"
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

/// Queries at a crawl so a deadline reliably expires mid-inspection.  No
/// replicate(): the ensemble runs serially, making "between members" a real
/// boundary on any pool size.
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
  api::AuditEngine engine({.store_dir = fresh_dir("bprom_api_predl")});
  ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());
  nn::BlackBoxAdapter box(*fixture().suspicious.model);
  auto request = request_for("aud", &box);
  request.deadline_ms = 1;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // audit() anchors its clock at entry; force the pre-start path by an
  // already-hopeless deadline through the async surface, whose clock
  // anchors at submission.
  auto future = engine.audit_async({request});
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
  // StoreLock every publish mints a distinct version.
  constexpr int kPerEngine = 3;
  std::atomic<int> failures{0};
  auto publisher = [&failures](api::AuditEngine& engine) {
    for (int i = 0; i < kPerEngine; ++i) {
      if (!engine.publish("aud", fixture().detector).ok()) {
        failures.fetch_add(1);
      }
    }
  };
  std::thread a(publisher, std::ref(left));
  std::thread b(publisher, std::ref(right));
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);

  // All 2k versions exist — none was overwritten or skipped.
  api::AuditEngine fresh({.store_dir = dir});
  const auto listed = fresh.list();
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed.value().size(), 2U * kPerEngine);
  for (int v = 1; v <= 2 * kPerEngine; ++v) {
    EXPECT_TRUE(fresh.info("aud@v" + std::to_string(v)).ok()) << v;
  }
  // The store generation counted every publish, across both engines.
  EXPECT_EQ(fresh.stats().store_generation,
            static_cast<std::uint64_t>(2 * kPerEngine));
  // No lock debris left behind.
  EXPECT_FALSE(fs::exists(fs::path(dir) / serve::StoreLock::kLockName));
}

TEST(ApiEngine, AsyncVerdictsMatchSyncThroughTheRing) {
  api::AuditEngine engine({.store_dir = fresh_dir("bprom_api_ringdet")});
  ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());

  // The ring hand-off must not perturb determinism: the same batch through
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
    // More batches than workers: some are still queued in the ring when
    // the engine starts tearing down.  Every future must still resolve.
    for (int i = 0; i < 6; ++i) {
      boxes.push_back(std::make_unique<nn::BlackBoxAdapter>(
          *fixture().suspicious.model));
      futures.push_back(engine.audit_async(
          {request_for("aud", boxes.back().get(), "m" + std::to_string(i))}));
    }
  }  // ~AuditEngine: close ring, drain, join
  for (auto& future : futures) {
    const auto responses = future.get();  // must not hang or throw
    ASSERT_EQ(responses.size(), 1U);
    EXPECT_TRUE(responses[0].status.ok());
  }
}

TEST(ApiEngine, LegacyUnversionedContainersResolveAsV1) {
  const std::string dir = fresh_dir("bprom_api_legacy");
  {
    serve::DetectorStore store(dir);  // pre-façade layout: bare name
    store.put("old", fixture().detector);
  }
  api::AuditEngine engine({.store_dir = dir});
  const auto info = engine.info("old");
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info.value().versioned_name(), "old@v1");
  EXPECT_TRUE(engine.info("old@v1").ok());
  // Publishing over a legacy container starts at v2.
  EXPECT_EQ(engine.publish("old", fixture().detector).value().version, 2U);
}

}  // namespace
}  // namespace bprom
