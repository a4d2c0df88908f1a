// End-to-end failure recovery: DetectorStore::recover() semantics (every
// container decoded as a detector, quarantine, an older build's lock file
// left alone), concurrent publishes from two processes, exhaustive
// truncate-at-every-byte / flip-one-byte sweeps over a genuinely published
// container, and the crash matrix — a child process is killed at every
// publish-path failpoint the registry names, in turn, and the parent must
// recover the store to a state whose audits are bit-identical to a
// never-crashed engine.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "core/experiment.hpp"
#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "nn/arch.hpp"
#include "nn/blackbox.hpp"
#include "serve/detector_store.hpp"
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

/// One fitted detector + one suspicious model shared by every test: the
/// recover() unit tests write its container, the rest publish and audit.
const Fixture& fixture() {
  static const Fixture f;
  return f;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

/// A real detector container: recover() decodes each one as a detector.
void write_container(const std::string& path) {
  io::save_detector_file(path, fixture().detector);
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// One audit of the fixture's suspicious model.  Single-request batches, so
/// every engine resolves the same (seed, index 0) salt and verdicts from
/// different stores compare bit for bit.
api::AuditResponse audit_one(api::AuditEngine& engine,
                             const std::string& detector) {
  nn::BlackBoxAdapter box(*fixture().suspicious.model);
  api::AuditRequest request;
  request.model_id = "m0";
  request.detector = detector;
  request.model = &box;
  auto responses = engine.audit({request});
  EXPECT_EQ(responses.size(), 1U);
  return responses[0];
}

void expect_same_verdict(const api::AuditResponse& got,
                         const api::AuditResponse& want,
                         const std::string& what) {
  ASSERT_TRUE(got.status.ok()) << what << ": " << got.status.to_string();
  EXPECT_EQ(got.verdict.score, want.verdict.score) << what;
  EXPECT_EQ(got.verdict.backdoored, want.verdict.backdoored) << what;
  EXPECT_EQ(got.verdict.prompted_accuracy, want.verdict.prompted_accuracy)
      << what;
  EXPECT_EQ(got.verdict.queries, want.verdict.queries) << what;
}

// ---- recover() unit semantics ----

TEST(Recover, CleanStorePassesThroughUntouched) {
  const std::string dir = fresh_dir("bprom_rec_clean");
  serve::DetectorStore store(dir);
  write_container((fs::path(dir) / "a@v1.bprom").string());
  write_container((fs::path(dir) / "b@v1.bprom").string());

  const serve::RecoveryReport report = store.recover();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.artifacts_ok, 2U);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "quarantine"));
  fs::remove_all(dir);
}

TEST(Recover, LeftoverTempFilesAreQuarantinedNotDeleted) {
  const std::string dir = fresh_dir("bprom_rec_temp");
  serve::DetectorStore store(dir);
  write_container((fs::path(dir) / "good@v1.bprom").string());
  {
    std::ofstream out((fs::path(dir) / "torn.bprom.tmp").string());
    out << "half a publish";
  }

  const serve::RecoveryReport report = store.recover();
  ASSERT_EQ(report.issues.size(), 1U);
  EXPECT_EQ(report.issues[0].kind, serve::RecoveryIssue::Kind::kTempFile);
  EXPECT_EQ(report.issues[0].file, "torn.bprom.tmp");
  EXPECT_FALSE(report.issues[0].quarantined_as.empty());
  // Moved, never destroyed: the bytes survive under quarantine/.
  EXPECT_FALSE(fs::exists(fs::path(dir) / "torn.bprom.tmp"));
  EXPECT_TRUE(
      fs::exists(fs::path(dir) / report.issues[0].quarantined_as));
  EXPECT_EQ(report.artifacts_ok, 1U);
  fs::remove_all(dir);
}

TEST(Recover, CorruptContainersAreQuarantinedWithBytesIntact) {
  const std::string dir = fresh_dir("bprom_rec_corrupt");
  serve::DetectorStore store(dir);
  const std::string victim = (fs::path(dir) / "bad@v1.bprom").string();
  write_container(victim);
  std::vector<std::uint8_t> bytes = read_bytes(victim);
  bytes[bytes.size() / 2] ^= 0xFF;  // CRC now fails
  write_bytes(victim, bytes);

  const serve::RecoveryReport report = store.recover();
  ASSERT_EQ(report.issues.size(), 1U);
  EXPECT_EQ(report.issues[0].kind, serve::RecoveryIssue::Kind::kCorrupt);
  ASSERT_FALSE(report.issues[0].quarantined_as.empty());
  EXPECT_FALSE(fs::exists(victim));
  // Evidence preserved bit-for-bit for post-mortem.
  const std::string moved =
      (fs::path(dir) / report.issues[0].quarantined_as).string();
  EXPECT_EQ(read_bytes(moved), bytes);
  EXPECT_EQ(report.artifacts_ok, 0U);
  fs::remove_all(dir);
}

TEST(Recover, QuarantineNeverOverwritesEarlierRemains) {
  const std::string dir = fresh_dir("bprom_rec_collide");
  serve::DetectorStore store(dir);
  const std::string victim = (fs::path(dir) / "bad@v1.bprom").string();
  for (int round = 0; round < 2; ++round) {
    write_container(victim);
    std::vector<std::uint8_t> bytes = read_bytes(victim);
    bytes[bytes.size() / 2 + static_cast<std::size_t>(round)] ^= 0xFF;
    write_bytes(victim, bytes);
    const serve::RecoveryReport report = store.recover();
    ASSERT_EQ(report.issues.size(), 1U) << "round " << round;
  }
  // Both corrupt incarnations coexist under quarantine/.
  std::size_t remains = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir) / "quarantine")) {
    (void)entry;
    ++remains;
  }
  EXPECT_EQ(remains, 2U);
  fs::remove_all(dir);
}

TEST(Recover, NewerFormatContainersAreReportedButLeftInPlace) {
  const std::string dir = fresh_dir("bprom_rec_newer");
  serve::DetectorStore store(dir);
  const std::string future = (fs::path(dir) / "future@v1.bprom").string();
  write_container(future);
  std::vector<std::uint8_t> bytes = read_bytes(future);
  bytes[4] = 99;  // version field (little-endian u32 at offset 4)
  write_bytes(future, bytes);

  const serve::RecoveryReport report = store.recover();
  ASSERT_EQ(report.issues.size(), 1U);
  EXPECT_EQ(report.issues[0].kind,
            serve::RecoveryIssue::Kind::kVersionMismatch);
  EXPECT_TRUE(report.issues[0].quarantined_as.empty());
  // Healthy data for a newer build: stays exactly where it was.
  EXPECT_TRUE(fs::exists(future));
  fs::remove_all(dir);
}

TEST(Recover, ContainersThatDoNotDecodeAsDetectorsAreQuarantined) {
  const std::string dir = fresh_dir("bprom_rec_decode");
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());
  const api::AuditResponse reference = audit_one(engine, "aud@v1");
  ASSERT_TRUE(reference.status.ok()) << reference.status.to_string();

  // A CRC-valid aud@v2 whose payload opens like a detector and then holds
  // a shadow architecture tag the detector's field list refuses: the
  // container frames cleanly, but no audit could ever be served from it.
  io::Writer forged;
  forged.write_tag("DTCT");
  forged.write_u32(0xFFFFFFFFU);
  forged.save_file((fs::path(dir) / "aud@v2.bprom").string());

  const auto recovered = engine.recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  const serve::RecoveryReport& report = recovered.value();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.artifacts_ok, 1U);
  EXPECT_EQ(report.issues.size(), 1U);
  for (const serve::RecoveryIssue& issue : report.issues) {
    EXPECT_EQ(issue.kind, serve::RecoveryIssue::Kind::kCorrupt);
    EXPECT_EQ(issue.file, "aud@v2.bprom");
    EXPECT_EQ(issue.quarantined_as, "quarantine/aud@v2.bprom");
  }
  EXPECT_FALSE(fs::exists(fs::path(dir) / "aud@v2.bprom"));

  // The bare name falls back to the intact v1 and audits bit for bit.
  const api::AuditResponse bare = audit_one(engine, "aud");
  EXPECT_EQ(bare.detector_version, "aud@v1");
  expect_same_verdict(bare, reference, "aud");
  fs::remove_all(dir);
}

TEST(Recover, LockFileDebrisIsLeftAlone) {
  const std::string dir = fresh_dir("bprom_rec_lock");
  serve::DetectorStore store(dir);
  write_container((fs::path(dir) / "a@v1.bprom").string());
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  // A dead writer's `.publish.lock`, as builds that locked with a file left
  // it.  The store lock writes no file, so recovery passes over this one
  // like any other file that is not a container.
  const fs::path debris = fs::path(dir) / ".publish.lock";
  std::ofstream(debris.string()) << child << " 777\n";

  const serve::RecoveryReport report = store.recover();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.artifacts_ok, 1U);
  EXPECT_TRUE(fs::exists(debris));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "quarantine"));
  fs::remove_all(dir);
}

TEST(Recover, EngineRecoverOnStartSweepsBeforeServing) {
  const std::string dir = fresh_dir("bprom_rec_onstart");
  {
    serve::DetectorStore store(dir);  // creates the directory
    std::ofstream out((fs::path(dir) / "torn.bprom.tmp").string());
    out << "debris";
  }
  api::AuditEngine engine({.store_dir = dir});
  ASSERT_TRUE(engine.status().ok());
  ASSERT_TRUE(engine.recover().ok());
  EXPECT_FALSE(fs::exists(fs::path(dir) / "torn.bprom.tmp"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "quarantine" / "torn.bprom.tmp"));
  fs::remove_all(dir);
}

// ---- exhaustive byte sweeps over a genuinely published container ----

class PublishedContainer : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir("bprom_rec_sweep");
    api::AuditEngine engine({.store_dir = dir_});
    ASSERT_TRUE(engine.publish("aud", fixture().detector).ok());
    path_ = (fs::path(dir_) / "aud@v1.bprom").string();
    ASSERT_TRUE(fs::exists(path_));
    pristine_ = read_bytes(path_);
    ASSERT_GT(pristine_.size(), 20U);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Parse `bytes` as a container file; the ONLY acceptable outcomes are a
  /// clean load or a typed kCorrupt / kVersionMismatch — never a crash, a
  /// hang, or an untyped escape.
  void expect_clean_or_typed(const std::vector<std::uint8_t>& bytes,
                             const std::string& what) {
    const std::string probe = (fs::path(dir_) / "probe.bprom").string();
    write_bytes(probe, bytes);
    try {
      (void)io::Reader::from_file(probe);
    } catch (const io::IoError& e) {
      EXPECT_TRUE(e.kind() == io::ErrorKind::kCorrupt ||
                  e.kind() == io::ErrorKind::kVersionMismatch)
          << what << ": untyped kind "
          << static_cast<int>(e.kind()) << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": non-IoError escaped: " << e.what();
    }
  }

  /// Sweep positions: every `stride`th byte plus the full header/trailer
  /// neighborhoods, so the sweep stays O(container) while still hitting
  /// every structurally-distinct region exactly.
  [[nodiscard]] std::vector<std::size_t> positions() const {
    const std::size_t n = pristine_.size();
    const std::size_t stride = std::max<std::size_t>(1, n / 128);
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < n; i += stride) at.push_back(i);
    for (std::size_t i = 0; i < std::min<std::size_t>(32, n); ++i) {
      at.push_back(i);            // header: magic, version, length
      at.push_back(n - 1 - i);    // trailer: CRC
    }
    std::sort(at.begin(), at.end());
    at.erase(std::unique(at.begin(), at.end()), at.end());
    return at;
  }

  std::string dir_;
  std::string path_;
  std::vector<std::uint8_t> pristine_;
};

TEST_F(PublishedContainer, PristineCopyLoadsClean) {
  io::Reader reader = io::Reader::from_file(path_);
  SUCCEED();
}

TEST_F(PublishedContainer, TruncationAtEveryByteIsTyped) {
  for (const std::size_t len : positions()) {
    expect_clean_or_typed(
        std::vector<std::uint8_t>(pristine_.begin(),
                                  pristine_.begin() +
                                      static_cast<std::ptrdiff_t>(len)),
        "truncated to " + std::to_string(len) + " bytes");
  }
}

TEST_F(PublishedContainer, FlippingAnyOneByteIsTyped) {
  for (const std::size_t at : positions()) {
    std::vector<std::uint8_t> bytes = pristine_;
    bytes[at] ^= 0xFF;
    expect_clean_or_typed(bytes, "flipped byte " + std::to_string(at));
    // A single flipped payload byte can never slip past the CRC and the
    // header fields are all validated, so this must also have THROWN —
    // but the contract the sweep enforces is only "clean or typed".
  }
}

// ---- two processes publishing into one store at once ----

constexpr int kChildPublishes = 3;

/// Child-process entry, exec'd by CrossProcess below.  Loads the
/// pre-fitted detector from the seed store, waits until the parent closes
/// the start pipe (so both children publish at once), then publishes it as
/// `aud` kChildPublishes times.  Exits with the number of failed publishes
/// (90 = seed load failed).
TEST(PublishChild, PublishRepeatedly) {
  const char* dir = std::getenv("BPROM_PUBLISH_DIR");
  const char* seed = std::getenv("BPROM_PUBLISH_SEED_DIR");
  const char* start = std::getenv("BPROM_PUBLISH_START_FD");
  if (dir == nullptr || seed == nullptr || start == nullptr) {
    GTEST_SKIP() << "not a publishing child";
  }
  api::AuditEngine seeder({.store_dir = seed});
  auto handle = seeder.detector("aud");
  if (!handle.ok()) _exit(90);
  api::AuditEngine engine({.store_dir = dir});
  char byte = 0;
  (void)!read(std::atoi(start), &byte, 1);  // returns at EOF
  int failed = 0;
  for (int i = 0; i < kChildPublishes; ++i) {
    if (!engine.publish("aud", *handle.value()).ok()) ++failed;
  }
  _exit(failed);
}

TEST(CrossProcess, TwoProcessesPublishingConcurrentlyNeverCollide) {
  const std::string seed_dir = fresh_dir("bprom_xproc_seed");
  const std::string dir = fresh_dir("bprom_xproc_store");
  {
    api::AuditEngine seeder({.store_dir = seed_dir});
    ASSERT_TRUE(seeder.publish("aud", fixture().detector).ok());
  }
  fs::create_directories(dir);

  int start[2];
  ASSERT_EQ(pipe(start), 0);
  const std::string start_fd = std::to_string(start[0]);
  std::vector<pid_t> children;
  for (int c = 0; c < 2; ++c) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Exec a fresh copy of this binary running only the child entry, as
      // the crash matrix does; the read end of the start pipe survives the
      // exec.
      close(start[1]);
      setenv("BPROM_PUBLISH_DIR", dir.c_str(), 1);
      setenv("BPROM_PUBLISH_SEED_DIR", seed_dir.c_str(), 1);
      setenv("BPROM_PUBLISH_START_FD", start_fd.c_str(), 1);
      execl("/proc/self/exe", "test_recovery_publish_child",
            "--gtest_filter=PublishChild.PublishRepeatedly",
            static_cast<char*>(nullptr));
      _exit(97);  // exec failed
    }
    children.push_back(pid);
  }
  close(start[0]);
  close(start[1]);  // both children start publishing now
  for (const pid_t pid : children) {
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus)) << "child did not exit cleanly";
    EXPECT_EQ(WEXITSTATUS(wstatus), 0)
        << "failed publishes (90 = seed load failed, 97 = exec failed)";
  }

  // Every publish minted its own version: none was overwritten or skipped,
  // and the containers are all the store holds.
  constexpr int kVersions = 2 * kChildPublishes;
  std::vector<std::string> want;
  for (int v = 1; v <= kVersions; ++v) {
    want.push_back("aud@v" + std::to_string(v) + ".bprom");
  }
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(files, want);

  api::AuditEngine engine({.store_dir = dir});
  for (int v = 1; v <= kVersions; ++v) {
    const auto info = engine.info("aud@v" + std::to_string(v));
    EXPECT_TRUE(info.ok()) << v << ": " << info.status().to_string();
  }
  EXPECT_EQ(engine.info("aud").value().version,
            static_cast<std::uint32_t>(kVersions));
  const auto report = engine.recover();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().clean());
  EXPECT_EQ(report.value().artifacts_ok, static_cast<std::size_t>(kVersions));
  fs::remove_all(dir);
  fs::remove_all(seed_dir);
}

// ---- crash matrix: kill the publisher at every failpoint, recover ----

/// Child-process entry, exec'd by CrashMatrix below with BPROM_FAILPOINTS
/// armed to `_exit(43)` at one publish step.  Loads the pre-fitted
/// detector from the seed store (cheap) and publishes it into the crash
/// directory; exit 44 means the armed failpoint never fired.
TEST(CrashChild, PublishOnce) {
  const char* dir = std::getenv("BPROM_CRASH_DIR");
  const char* seed = std::getenv("BPROM_CRASH_SEED_DIR");
  if (dir == nullptr || seed == nullptr) {
    GTEST_SKIP() << "not a crash-matrix child";
  }
  util::failpoints_arm_from_env();  // idempotent; init-order independent
  api::AuditEngine seeder({.store_dir = seed});
  auto handle = seeder.detector("aud");
  if (!handle.ok()) _exit(90);
  api::AuditEngine engine({.store_dir = dir});
  (void)engine.publish("aud", *handle.value());
  _exit(44);
}

TEST(CrashMatrix, EveryPublishStepCrashIsRecoverable) {
  const auto& f = fixture();
  const std::string seed_dir = fresh_dir("bprom_crash_seed");
  api::AuditEngine seeder({.store_dir = seed_dir});
  ASSERT_TRUE(seeder.publish("aud", f.detector).ok());

  // Reference verdicts from a never-crashed engine; the crash-recovered
  // stores must reproduce these bit for bit.
  const api::AuditResponse ref_bare = audit_one(seeder, "aud");
  const api::AuditResponse ref_pinned = audit_one(seeder, "aud@v1");
  ASSERT_TRUE(ref_bare.status.ok()) << ref_bare.status.to_string();
  ASSERT_TRUE(ref_pinned.status.ok());
  ASSERT_EQ(ref_bare.verdict.score, ref_pinned.verdict.score);

  // Every publish step is a registered failpoint: the container write's
  // (`io.save.*`) and the store's (`store.*`).  The steps come from the
  // registry, so none can be left out; the list pins what they are today.
  std::vector<std::string> steps;
  for (const std::string& name : util::failpoint_names()) {
    if (name.rfind("io.save.", 0) == 0 || name.rfind("store.", 0) == 0) {
      steps.push_back(name);
    }
  }
  ASSERT_EQ(steps, (std::vector<std::string>{
                       "io.save.fsync.dir", "io.save.fsync.file",
                       "io.save.open", "io.save.rename", "io.save.write",
                       "store.lock.crash"}));
  for (const std::string& step : steps) {
    SCOPED_TRACE(step);
    const std::string dir = fresh_dir("bprom_crash_" + step);
    fs::create_directories(dir);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Exec a fresh copy of this binary running only the child entry: no
      // inherited thread-pool state, env-armed failpoints from startup.
      setenv("BPROM_CRASH_DIR", dir.c_str(), 1);
      setenv("BPROM_CRASH_SEED_DIR", seed_dir.c_str(), 1);
      setenv("BPROM_FAILPOINTS", (step + "=1->exit:43").c_str(), 1);
      execl("/proc/self/exe", "test_recovery_crash_child",
            "--gtest_filter=CrashChild.PublishOnce",
            static_cast<char*>(nullptr));
      _exit(97);  // exec failed
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus)) << "child did not exit cleanly";
    ASSERT_EQ(WEXITSTATUS(wstatus), 43)
        << "armed crash never fired (44 = publish completed, 90 = seed "
           "load failed, 97 = exec failed)";

    // The parent recovers the torn store...
    api::AuditEngine engine({.store_dir = dir});
    auto recovered = engine.recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
    for (const auto& issue : recovered.value().issues) {
      // Quarantined means moved, never deleted.
      if (!issue.quarantined_as.empty()) {
        EXPECT_TRUE(fs::exists(fs::path(dir) / issue.quarantined_as));
      }
    }
    // ...republishes if the crash landed before the artifact was durable...
    if (!engine.info("aud").ok()) {
      ASSERT_TRUE(engine.publish("aud", f.detector).ok());
    }
    // ...and must then serve verdicts bit-identical to the reference, on
    // the bare name and the pinned version alike.
    for (const char* name : {"aud", "aud@v1"}) {
      expect_same_verdict(audit_one(engine, name), ref_bare, name);
    }
    // The store is left consistent: a second scan finds nothing to handle.
    const auto again = engine.recover();
    ASSERT_TRUE(again.ok()) << again.status().to_string();
    EXPECT_TRUE(again.value().clean())
        << again.value().issues.size() << " issue(s) left, first: "
        << again.value().issues.front().file;
    fs::remove_all(dir);
  }
  fs::remove_all(seed_dir);
}

}  // namespace
}  // namespace bprom
