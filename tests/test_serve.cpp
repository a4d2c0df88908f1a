// Serving-layer behavior: model cloning, parallel-inspect determinism,
// the detector store cache, batched audits, and the store's publish lock.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "core/experiment.hpp"
#include "io/binary.hpp"
#include "nn/arch.hpp"
#include "serve/detector_store.hpp"
#include "util/thread_annotations.hpp"
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

/// Black box that records the row count and the calling thread of every
/// query call, so a test can pin what one inspection asks the model and
/// from where.  Ensemble members query it concurrently, so the log takes a
/// mutex.
class RowLoggingBox final : public nn::BlackBoxModel {
 public:
  explicit RowLoggingBox(const nn::Model& model) : inner_(model) {}
  nn::Tensor predict_proba(const nn::Tensor& images) const override {
    {
      util::MutexLock lock(mu_);
      rows_.push_back(images.dim(0));
      threads_.insert(std::this_thread::get_id());
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
  [[nodiscard]] std::vector<std::size_t> rows() const {
    util::MutexLock lock(mu_);
    return rows_;
  }
  /// Distinct threads that have queried this box.
  [[nodiscard]] std::size_t query_threads() const {
    util::MutexLock lock(mu_);
    return threads_.size();
  }

 private:
  nn::BlackBoxAdapter inner_;
  mutable util::Mutex mu_;
  mutable std::vector<std::size_t> rows_ BPROM_GUARDED_BY(mu_);
  mutable std::set<std::thread::id> threads_ BPROM_GUARDED_BY(mu_);
};

/// What `run()` returns with every parallel level pinned to a pool of
/// `threads` threads.
template <typename Run>
auto on_threads(std::size_t threads, const Run& run) {
  util::ThreadPool pool(threads);
  util::ScopedPoolOverride overridden(pool);
  return run();
}

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

TEST(ParallelInspect, VerdictsMatchAcrossThreadCounts) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 33, 400, 160);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 34, 300, 160);
  const auto scale = micro_scale();

  const auto fit = [&] {
    return core::fit_detector(src, tgt, 0.10, nn::ArchKind::kResNet18Mini, 7,
                              scale);
  };
  auto det_one = on_threads(1, fit);
  auto det_four = on_threads(4, fit);

  auto suspicious = core::train_clean_model(src, nn::ArchKind::kResNet18Mini,
                                            50, scale);
  ASSERT_GE(det_one.config().prompt_ensemble, 2U)
      << "test needs an ensemble to exercise the parallel path";

  nn::BlackBoxAdapter box_one(*suspicious.model);
  nn::BlackBoxAdapter box_four(*suspicious.model);
  const auto serial = on_threads(1, [&] { return det_one.inspect(box_one); });
  const auto parallel =
      on_threads(4, [&] { return det_four.inspect(box_four); });
  EXPECT_EQ(serial.score, parallel.score);
  EXPECT_EQ(serial.prompted_accuracy, parallel.prompted_accuracy);
  EXPECT_EQ(serial.queries, parallel.queries);
  // Every query reaches the caller's box, so a caller metering a paid
  // model through it sees exactly the verdict's spend.
  EXPECT_EQ(box_one.query_count(), serial.queries);
  EXPECT_EQ(box_four.query_count(), parallel.queries);
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
  RowLoggingBox box(*suspicious.model);
  const auto verdict = detector.inspect(box);

  // Per member: one call over D_T^train (256 rows) feeding both the output
  // mapping and the meta features, one over D_Q (q = 4) and one over
  // D_T^test (160 rows); every other call is a prompt-learning evaluation
  // of eval_samples rows.
  std::map<std::size_t, std::size_t> calls;
  std::size_t total = 0;
  for (std::size_t rows : box.rows()) {
    ++calls[rows];
    total += rows;
  }
  EXPECT_EQ(calls[256], 2U);
  EXPECT_EQ(calls[4], 2U);
  EXPECT_EQ(calls[160], 2U);
  for (const auto& [rows, count] : calls) {
    if (rows == 256 || rows == 4 || rows == 160) continue;
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
  EXPECT_TRUE(store.list().empty());
  EXPECT_THROW(store.get("aud"), io::IoError);

  auto put_handle = store.put("aud", std::move(detector));
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
  EXPECT_EQ(fresh.list(), std::vector<std::string>{"aud"});
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
// verdicts must be bit-identical under 1- and 4-thread pools, the async
// path must match the sync one, and a malformed request must fail typed
// without sinking the batch.  A 1-thread ScopedPoolOverride must pin every
// level of an audit (the batch loop, the prompt ensemble, the optimizer's
// candidate queries) to one thread: the caller for audit(), a serve worker
// for audit_async().
TEST(AuditEngine, BatchVerdictsAreThreadCountInvariant) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 37, 400, 160);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 38, 300, 160);
  const auto scale = micro_scale();
  auto detector = core::fit_detector(src, tgt, 0.10,
                                     nn::ArchKind::kResNet18Mini, 7, scale);

  auto population = core::build_population(
      src, attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets),
      nn::ArchKind::kResNet18Mini, 1, 40, scale);
  // Every run audits its own boxes, so a box's thread log covers one call.
  const auto batch_over = [&](std::deque<RowLoggingBox>& boxes) {
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
    return batch;
  };
  std::deque<RowLoggingBox> sync_boxes;
  std::deque<RowLoggingBox> async_boxes;
  std::deque<RowLoggingBox> parallel_boxes;
  const auto sync_batch = batch_over(sync_boxes);
  const auto async_batch = batch_over(async_boxes);
  const auto parallel_batch = batch_over(parallel_boxes);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "bprom_test_engine").string();
  std::filesystem::remove_all(dir);
  api::AuditEngine serial_engine({.store_dir = dir});
  ASSERT_TRUE(serial_engine.publish("aud", std::move(detector)).ok());
  // The second engine cold-loads the published detector from the store.
  api::AuditEngine parallel_engine({.store_dir = dir});
  const auto serial =
      on_threads(1, [&] { return serial_engine.audit(sync_batch); });
  const auto serial_async = on_threads(
      1, [&] { return serial_engine.audit_async(async_batch).get(); });
  const auto parallel = on_threads(
      4, [&] { return parallel_engine.audit_async(parallel_batch).get(); });

  const std::size_t n = population.size();
  ASSERT_EQ(serial.size(), n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(serial[i].status.ok());
    EXPECT_EQ(serial[i].detector_version, "aud@v1");
    EXPECT_EQ(sync_boxes[i].query_threads(), 1U) << "audit(), model " << i;
    EXPECT_EQ(async_boxes[i].query_threads(), 1U)
        << "audit_async(), model " << i;
  }
  // The malformed request fails typed without sinking the batch.
  EXPECT_EQ(serial.back().status.code(), api::StatusCode::kInvalidRequest);
  for (const auto* other : {&serial_async, &parallel}) {
    ASSERT_EQ(other->size(), n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      const api::AuditResponse& r = (*other)[i];
      EXPECT_EQ(r.model_id, serial[i].model_id);
      EXPECT_EQ(r.detector_version, "aud@v1");
      EXPECT_EQ(r.verdict.score, serial[i].verdict.score);
      EXPECT_EQ(r.verdict.prompted_accuracy,
                serial[i].verdict.prompted_accuracy);
      EXPECT_EQ(r.verdict.backdoored, serial[i].verdict.backdoored);
      EXPECT_EQ(r.verdict.queries, serial[i].verdict.queries);
    }
    EXPECT_EQ(other->back().status.code(), api::StatusCode::kInvalidRequest);
  }
  std::filesystem::remove_all(dir);
}

/// An empty directory under the temp root, for one lock test.
std::string lock_dir(const std::string& name) {
  namespace fs = std::filesystem;
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(StoreLock, MutualExclusionAcrossHolders) {
  namespace fs = std::filesystem;
  const std::string dir = lock_dir("bprom_storelock_mx");

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
  // The lock writes no file, and a fresh acquire after release succeeds at
  // once.
  EXPECT_TRUE(fs::is_empty(dir));
  serve::StoreLock fresh(dir);
  fs::remove_all(dir);
}

TEST(StoreLock, HeldLockCannotBeBrokenThroughTheLockFile) {
  namespace fs = std::filesystem;
  const std::string dir = lock_dir("bprom_storelock_crumbs");
  // Older builds locked a store by creating `.publish.lock` and broke that
  // lock when its "<pid> <starttime>" crumb named a dead pid (999999) or
  // another process (pid 1).  No file reaches the kernel's lock: the waiter
  // stays out whatever the file says, until the holder releases.
  std::atomic<bool> acquired{false};
  std::thread waiter;
  {
    serve::StoreLock held(dir);
    waiter = std::thread([&] {
      serve::StoreLock lock(dir);
      acquired.store(true);
    });
    for (const char* crumb : {"999999 1\n", "1 1\n"}) {
      std::ofstream((fs::path(dir) / ".publish.lock").string()) << crumb;
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      EXPECT_FALSE(acquired.load()) << "crumb '" << crumb
                                    << "' broke a held lock";
    }
  }
  waiter.join();
  EXPECT_TRUE(acquired.load());
  fs::remove_all(dir);
}

TEST(StoreLock, HolderInAnotherProcessBlocksUntilItDies) {
  const std::string dir = lock_dir("bprom_storelock_child");
  int locked[2];  // child -> parent: the child holds the lock
  int die[2];     // parent -> child: exit now, still holding it
  ASSERT_EQ(pipe(locked), 0);
  ASSERT_EQ(pipe(die), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // A forked child of a threaded process: only open(2), flock(2), read(2),
    // write(2) and _exit(2) from here on.
    serve::StoreLock lock(dir);
    char byte = 'L';
    if (write(locked[1], &byte, 1) != 1) _exit(2);
    if (read(die[0], &byte, 1) != 1) _exit(3);
    _exit(0);  // no destructor runs: only the kernel can release the lock
  }
  close(locked[1]);
  close(die[0]);
  char byte = 0;
  ASSERT_EQ(read(locked[0], &byte, 1), 1);

  using Clock = std::chrono::steady_clock;
  std::atomic<bool> acquired{false};
  Clock::time_point acquired_at;
  std::thread waiter([&] {
    serve::StoreLock lock(dir);
    acquired_at = Clock::now();
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(acquired.load()) << "got in while the child held the lock";

  const Clock::time_point told = Clock::now();
  EXPECT_EQ(write(die[1], &byte, 1), 1);
  int wstatus = 0;
  EXPECT_EQ(waitpid(child, &wstatus, 0), child);
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  waiter.join();
  ASSERT_TRUE(acquired.load());
  EXPECT_LT(acquired_at - told, std::chrono::seconds(1));
  close(locked[0]);
  close(die[1]);
  std::filesystem::remove_all(dir);
}

TEST(StoreLock, LockFileFromAnOlderBuildBlocksNothing) {
  namespace fs = std::filesystem;
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 39, 400, 160);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 40, 300, 160);
  const auto detector = core::fit_detector(
      src, tgt, 0.10, nn::ArchKind::kResNet18Mini, 7, micro_scale());
  const pid_t dead = fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(dead, &wstatus, 0), dead);

  // Older builds left `.publish.lock` behind with a "<pid> <starttime>"
  // crumb (a dead writer's), or "<pid>" when they could not read their
  // start time (this process, with a fresh mtime: a live holder to them).
  // Either is an ordinary file now: it blocks neither the lock nor a
  // publish, nothing moves or deletes it, and recover() reports nothing.
  for (const std::string& crumb :
       {std::to_string(dead) + " 12345\n", std::to_string(getpid()) + "\n"}) {
    SCOPED_TRACE(crumb);
    const std::string dir = lock_dir("bprom_storelock_debris");
    const fs::path debris = fs::path(dir) / ".publish.lock";
    std::ofstream(debris.string()) << crumb;
    { serve::StoreLock lock(dir); }

    api::AuditEngine engine({.store_dir = dir});
    const auto published = engine.publish("aud", detector);
    ASSERT_TRUE(published.ok()) << published.status().to_string();
    EXPECT_EQ(published.value().version, 1U);
    const auto report = engine.recover();
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_TRUE(report.value().clean());
    EXPECT_EQ(report.value().artifacts_ok, 1U);

    std::ifstream in(debris.string());
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), crumb);
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace bprom
