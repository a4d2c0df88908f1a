// Serving-layer behavior: model cloning, parallel-inspect determinism,
// the detector store cache, and batched audits.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "core/experiment.hpp"
#include "io/binary.hpp"
#include "nn/arch.hpp"
#include "serve/detector_store.hpp"
#include "util/thread_pool.hpp"

namespace bprom {
namespace {

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

/// Black box that deliberately does not support replicate(): forces the
/// serial ensemble fallback inside inspect().  It records the row count of
/// every query call, so a test can pin what one inspection asks the model.
class NonReplicableBox final : public nn::BlackBoxModel {
 public:
  explicit NonReplicableBox(nn::Model& model) : inner_(model) {}
  nn::Tensor predict_proba(const nn::Tensor& images) const override {
    rows_.push_back(images.dim(0));
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
  [[nodiscard]] const std::vector<std::size_t>& rows() const { return rows_; }

 private:
  nn::BlackBoxAdapter inner_;
  // Written only by the serial ensemble path: nothing queries a
  // non-replicable box from two threads.
  mutable std::vector<std::size_t> rows_;
};

TEST(ModelClone, CloneIsDeepAndLogitIdentical) {
  auto dataset = data::make_dataset(data::DatasetKind::kCifar10, 31, 96, 32);
  util::Rng rng(5);
  auto model = nn::make_model(nn::ArchKind::kResNet18Mini,
                              dataset.profile.shape, dataset.profile.classes,
                              rng);
  nn::TrainConfig tc;
  tc.epochs = 2;
  nn::train_classifier(*model, dataset.train, tc);

  auto copy = model->clone();
  EXPECT_EQ(copy->arch(), model->arch());
  const auto expected = model->logits(dataset.test.images, false);
  const auto actual = copy->logits(dataset.test.images, false);
  EXPECT_EQ(expected.vec(), actual.vec());

  // Deep copy: retraining the original must not disturb the clone.
  nn::TrainConfig more;
  more.epochs = 1;
  more.seed = 99;
  nn::train_classifier(*model, dataset.train, more);
  const auto after = copy->logits(dataset.test.images, false);
  EXPECT_EQ(expected.vec(), after.vec());
}

TEST(ParallelInspect, VerdictsMatchAcrossThreadCountsAndReplicationModes) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 33, 400, 160);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 34, 300, 160);
  const auto scale = micro_scale();

  util::ThreadPool one(1);
  util::ThreadPool four(4);
  auto det_one = core::fit_detector(src, tgt, 0.10,
                                    nn::ArchKind::kResNet18Mini, 7, scale,
                                    &one);
  auto det_four = core::fit_detector(src, tgt, 0.10,
                                     nn::ArchKind::kResNet18Mini, 7, scale,
                                     &four);

  auto suspicious = core::train_clean_model(src, nn::ArchKind::kResNet18Mini,
                                            50, scale);
  ASSERT_GE(det_one.config().prompt_ensemble, 2U)
      << "test needs an ensemble to exercise the parallel path";

  nn::BlackBoxAdapter box_one(*suspicious.model);
  nn::BlackBoxAdapter box_four(*suspicious.model);
  const auto serial = det_one.inspect(box_one);
  const auto parallel = det_four.inspect(box_four);
  EXPECT_EQ(serial.score, parallel.score);
  EXPECT_EQ(serial.prompted_accuracy, parallel.prompted_accuracy);
  EXPECT_EQ(serial.queries, parallel.queries);

  // A black box without replicate() support must fall back to the serial
  // ensemble and still produce the identical verdict.
  NonReplicableBox opaque(*suspicious.model);
  const auto fallback = det_four.inspect(opaque);
  EXPECT_EQ(serial.score, fallback.score);
  EXPECT_EQ(serial.prompted_accuracy, fallback.prompted_accuracy);
  EXPECT_EQ(serial.queries, fallback.queries);
}

TEST(ParallelInspect, OneInspectionQueriesEachTargetSetOncePerMember) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 33, 400, 160);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 34, 300, 160);
  const auto scale = micro_scale();
  auto detector = core::fit_detector(src, tgt, 0.10,
                                     nn::ArchKind::kResNet18Mini, 7, scale);
  ASSERT_EQ(detector.config().prompt_ensemble, 2U);
  ASSERT_EQ(detector.config().prompt_blackbox.eval_samples, 48U);
  auto suspicious = core::train_clean_model(src, nn::ArchKind::kResNet18Mini,
                                            50, scale);
  NonReplicableBox box(*suspicious.model);
  const auto verdict = detector.inspect(box);

  // Per member: one pass over D_T^train (256 rows) feeding both the output
  // mapping and the meta features, one over D_Q (q = 4), one over D_T^test
  // (160 rows in accuracy()'s 128 + 32 batches); every other call is a
  // prompt-learning evaluation of eval_samples rows.
  std::map<std::size_t, std::size_t> calls;
  std::size_t total = 0;
  for (std::size_t rows : box.rows()) {
    ++calls[rows];
    total += rows;
  }
  EXPECT_EQ(calls[256], 2U);
  EXPECT_EQ(calls[4], 2U);
  EXPECT_EQ(calls[128], 2U);
  EXPECT_EQ(calls[32], 2U);
  for (const auto& [rows, count] : calls) {
    if (rows == 256 || rows == 4 || rows == 128 || rows == 32) continue;
    EXPECT_EQ(rows, 48U) << count << " calls of " << rows << " rows";
  }
  EXPECT_EQ(verdict.queries, total);
  EXPECT_EQ(verdict.queries, box.query_count());
}

TEST(DetectorStore, PutGetListAndCacheBehavior) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 35, 400, 160);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 36, 300, 160);
  const auto scale = micro_scale();
  auto detector = core::fit_detector(src, tgt, 0.10,
                                     nn::ArchKind::kResNet18Mini, 7, scale);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "bprom_test_store").string();
  std::filesystem::remove_all(dir);
  serve::DetectorStore store(dir);
  EXPECT_FALSE(store.contains("aud"));
  EXPECT_THROW(store.get("aud"), io::IoError);

  auto put_handle = store.put("aud", std::move(detector));
  EXPECT_TRUE(store.contains("aud"));
  EXPECT_EQ(store.list(), std::vector<std::string>{"aud"});
  // Cached: get() returns the same object without re-reading the file.
  EXPECT_EQ(store.get("aud").get(), put_handle.get());

  // A second store over the same directory simulates a fresh process.
  serve::DetectorStore fresh(dir);
  auto loaded = fresh.get("aud");
  ASSERT_TRUE(loaded->fitted());
  EXPECT_EQ(loaded->diagnostics().meta_features,
            put_handle->diagnostics().meta_features);
  // Eviction drops the cache entry but not the file.
  fresh.evict("aud");
  EXPECT_TRUE(fresh.contains("aud"));
  EXPECT_NE(fresh.get("aud").get(), loaded.get());

  std::filesystem::remove_all(dir);
}

// Regression for get()'s check-then-load-then-publish sequence: threads
// racing the first load of one name must converge on a single cached
// handle (cache_.emplace never overwrites — losers adopt the winner's) and
// the map must survive the concurrent insert attempts intact.
TEST(DetectorStore, ConcurrentFirstGetConvergesOnOneHandle) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 45, 400, 160);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 46, 300, 160);
  auto detector = core::fit_detector(src, tgt, 0.10,
                                     nn::ArchKind::kResNet18Mini, 7,
                                     micro_scale());
  const std::string dir =
      (std::filesystem::temp_directory_path() / "bprom_test_store_race")
          .string();
  std::filesystem::remove_all(dir);
  {
    serve::DetectorStore writer(dir);
    writer.put("aud", std::move(detector));
  }

  serve::DetectorStore store(dir);  // cold cache: every get must load
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const core::BpromDetector>> handles(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> racers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    racers.emplace_back([&store, &go, &handles, t] {
      while (!go.load()) {
      }
      handles[t] = store.get("aud");
    });
  }
  go.store(true);
  for (auto& r : racers) r.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(handles[t], nullptr);
    EXPECT_EQ(handles[t].get(), handles[0].get())
        << "thread " << t << " got a divergent handle";
  }
  EXPECT_TRUE(handles[0]->fitted());
  std::filesystem::remove_all(dir);
}

// Through the bprom::api façade, the one batch-audit path: batched
// verdicts must be bit-identical under 1- and 4-thread engine pools, the
// async path must match the sync one, and a malformed request must fail
// typed without sinking the batch.
TEST(AuditEngine, BatchVerdictsAreThreadCountInvariant) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 37, 400, 160);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 38, 300, 160);
  const auto scale = micro_scale();
  auto detector = core::fit_detector(src, tgt, 0.10,
                                     nn::ArchKind::kResNet18Mini, 7, scale);

  auto population = core::build_population(
      src, attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets),
      nn::ArchKind::kResNet18Mini, 1, 40, scale);
  std::vector<nn::BlackBoxAdapter> boxes;
  boxes.reserve(2 * population.size());
  std::vector<api::AuditRequest> batch;
  for (auto& suspicious : population) {
    boxes.emplace_back(*suspicious.model);
    api::AuditRequest request;
    request.model_id = "model-" + std::to_string(batch.size());
    request.detector = "aud";
    request.model = &boxes.back();
    batch.push_back(request);
  }
  api::AuditRequest broken;
  broken.model_id = "broken";
  broken.detector = "aud";
  batch.push_back(broken);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "bprom_test_engine").string();
  std::filesystem::remove_all(dir);
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  api::AuditEngine serial_engine(
      {.store_dir = dir, .pool = &one});
  ASSERT_TRUE(serial_engine.publish("aud", std::move(detector)).ok());
  api::AuditEngine parallel_engine(
      {.store_dir = dir, .pool = &four});
  const auto serial = serial_engine.audit(batch);
  const auto parallel = parallel_engine.audit_async(batch).get();

  ASSERT_EQ(serial.size(), batch.size());
  ASSERT_EQ(parallel.size(), batch.size());
  for (std::size_t i = 0; i < population.size(); ++i) {
    EXPECT_TRUE(serial[i].status.ok());
    EXPECT_EQ(serial[i].model_id, parallel[i].model_id);
    EXPECT_EQ(serial[i].detector_version, "aud@v1");
    EXPECT_EQ(serial[i].verdict.score, parallel[i].verdict.score);
    EXPECT_EQ(serial[i].verdict.prompted_accuracy,
              parallel[i].verdict.prompted_accuracy);
    EXPECT_EQ(serial[i].verdict.backdoored, parallel[i].verdict.backdoored);
    EXPECT_EQ(serial[i].verdict.queries, parallel[i].verdict.queries);
  }
  // The malformed request fails typed without sinking the batch.
  EXPECT_EQ(serial.back().status.code(), api::StatusCode::kInvalidRequest);
  EXPECT_EQ(parallel.back().status.code(), api::StatusCode::kInvalidRequest);
  std::filesystem::remove_all(dir);
}

TEST(StoreLock, MutualExclusionAcrossHolders) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "bprom_storelock_mx").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Contending holders must never overlap their critical sections — the
  // exact property the publish scan-and-write relies on.
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::atomic<int> entries{0};
  std::vector<std::thread> holders;
  for (int t = 0; t < 4; ++t) {
    holders.emplace_back([&] {
      for (int i = 0; i < 5; ++i) {
        serve::StoreLock lock(dir);
        const int now = inside.fetch_add(1) + 1;
        int seen = max_inside.load();
        while (now > seen && !max_inside.compare_exchange_weak(seen, now)) {
        }
        entries.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        inside.fetch_sub(1);
      }
    });
  }
  for (auto& h : holders) h.join();
  EXPECT_EQ(entries.load(), 20);
  EXPECT_EQ(max_inside.load(), 1);
  // Released: the lock file is gone and a fresh acquire succeeds at once.
  EXPECT_FALSE(fs::exists(fs::path(dir) / serve::StoreLock::kLockName));
  serve::StoreLock fresh(dir);
  fs::remove_all(dir);
}

TEST(StoreLock, StaleLockFromCrashedWriterIsBroken) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "bprom_storelock_stale").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path lock_path = fs::path(dir) / serve::StoreLock::kLockName;
  {
    std::ofstream out(lock_path.string());
    out << "999999\n";  // debris of a "crashed" writer
  }
  // Age the file past the stale threshold; acquisition must break it
  // instead of spinning forever.
  fs::last_write_time(
      lock_path, fs::file_time_type::clock::now() -
                     std::chrono::seconds(
                         static_cast<long>(
                             serve::StoreLock::kStaleAfterSeconds) + 10));
  serve::StoreLock lock(dir);
  SUCCEED();  // acquired despite the debris
  fs::remove_all(dir);
}

TEST(StoreLock, ProcessStartTokenIsStableForALiveProcess) {
  const auto token = serve::process_start_token(static_cast<long>(getpid()));
  ASSERT_TRUE(token.has_value());
  // starttime is fixed at exec: re-reading must agree exactly.
  EXPECT_EQ(serve::process_start_token(static_cast<long>(getpid())), token);
}

TEST(StoreLock, ProcessStartTokenOfDeadPidIsEmpty) {
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  // Reaped: /proc/<pid> is gone, so the incarnation cannot be named.
  EXPECT_FALSE(
      serve::process_start_token(static_cast<long>(child)).has_value());
}

TEST(StoreLock, DeadHolderCrumbIsBrokenImmediately) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "bprom_storelock_dead").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  {
    // Full modern crumb of a writer that is provably dead — the pid is
    // reaped, so liveness is decidable without waiting out the mtime rule.
    std::ofstream out((fs::path(dir) / serve::StoreLock::kLockName).string());
    out << child << " 12345\n";
  }
  const auto t0 = std::chrono::steady_clock::now();
  serve::StoreLock lock(dir);  // must not spin for kStaleAfterSeconds
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            static_cast<long>(serve::StoreLock::kStaleAfterSeconds) / 2);
  fs::remove_all(dir);
}

TEST(StoreLock, LiveHolderWithFreshLockIsNotBroken) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "bprom_storelock_live").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path lock_path = fs::path(dir) / serve::StoreLock::kLockName;
  {
    // Crumb of THIS process: alive, so only the mtime rule could break it,
    // and the file is fresh.
    std::ofstream out(lock_path.string());
    out << getpid() << " "
        << serve::process_start_token(static_cast<long>(getpid())).value()
        << "\n";
  }
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    serve::StoreLock lock(dir);
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(acquired.load()) << "live fresh lock was broken";
  fs::remove(lock_path);  // simulate the holder releasing
  waiter.join();
  EXPECT_TRUE(acquired.load());
  fs::remove_all(dir);
}

TEST(DetectorStore, GenerationCounterPersistsAcrossInstances) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "bprom_store_gen").string();
  fs::remove_all(dir);
  {
    serve::DetectorStore store(dir);
    EXPECT_EQ(store.generation(), 0U);  // pre-generation stores read as 0
    EXPECT_EQ(store.bump_generation(), 1U);
    EXPECT_EQ(store.bump_generation(), 2U);
    EXPECT_EQ(store.generation(), 2U);
  }
  // A second store over the same directory — another process, in effect —
  // observes the persisted counter.
  serve::DetectorStore reopened(dir);
  EXPECT_EQ(reopened.generation(), 2U);
  EXPECT_EQ(reopened.bump_generation(), 3U);
  // The counter file is store metadata, not a detector: list() skips it.
  EXPECT_TRUE(reopened.list().empty());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bprom
