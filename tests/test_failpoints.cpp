// Tests for the deterministic fault-injection registry (util/failpoint)
// and its wiring into the io layer: spec parsing, trigger arithmetic,
// determinism of the probabilistic trigger, the disarmed fast path, and
// the behavior each armed action forces out of Writer/Reader.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "io/binary.hpp"
#include "util/failpoint.hpp"

namespace bprom {
namespace {

namespace fs = std::filesystem;

using util::FailpointAction;
using util::FailpointHit;

/// Every test starts and ends disarmed — armed state is process-global.
class Failpoints : public ::testing::Test {
 protected:
  void SetUp() override { util::failpoints_clear(); }
  void TearDown() override { util::failpoints_clear(); }

  static bool arm(const std::string& spec) {
    std::string error;
    const bool ok = util::failpoints_arm(spec, &error);
    EXPECT_TRUE(ok) << error;
    return ok;
  }
};

TEST_F(Failpoints, RegistryIsSortedAndQueryable) {
  const std::vector<std::string> names = util::failpoint_names();
  ASSERT_FALSE(names.empty());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const auto& name : names) {
    EXPECT_TRUE(util::failpoint_registered(name)) << name;
  }
  EXPECT_TRUE(util::failpoint_registered("io.save.rename"));
  EXPECT_TRUE(util::failpoint_registered("store.lock.crash"));
  EXPECT_FALSE(util::failpoint_registered("no.such.point"));
}

TEST_F(Failpoints, MalformedSpecsAreRejectedWithAReason) {
  for (const char* bad :
       {"no.such.point=err",          // unregistered name
        "io.read.open",               // missing '='
        "io.read.open=frobnicate",    // unknown action
        "io.read.open=short:",        // missing byte count
        "io.read.open=every:0->err",  // zero period
        "io.read.open=p:1.5:7->err",  // probability out of range
        "=err"}) {                    // empty name
    std::string error;
    EXPECT_FALSE(util::failpoints_arm(bad, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
    EXPECT_FALSE(util::failpoints_enabled()) << bad;  // nothing half-armed
  }
}

TEST_F(Failpoints, DisarmedSitesReportNothing) {
  EXPECT_FALSE(util::failpoints_enabled());
  const FailpointHit hit = BPROM_FAILPOINT("io.read.open");
  EXPECT_FALSE(hit);
  EXPECT_EQ(hit.action, FailpointAction::kNone);
  // Disarmed evaluation is not even counted — the macro short-circuits.
  EXPECT_EQ(util::failpoint_hits("io.read.open"), 0U);
}

TEST_F(Failpoints, NthTriggerFiresExactlyOnce) {
  ASSERT_TRUE(arm("io.read.open=2->err"));
  EXPECT_FALSE(BPROM_FAILPOINT("io.read.open"));  // hit 1
  const FailpointHit second = BPROM_FAILPOINT("io.read.open");
  EXPECT_EQ(second.action, FailpointAction::kError);  // hit 2: fires
  EXPECT_FALSE(BPROM_FAILPOINT("io.read.open"));      // hit 3: spent
  EXPECT_FALSE(BPROM_FAILPOINT("io.read.open"));
  EXPECT_EQ(util::failpoint_hits("io.read.open"), 4U);
}

TEST_F(Failpoints, EveryKTriggerFiresPeriodically) {
  ASSERT_TRUE(arm("net.recv=every:3->err"));
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(static_cast<bool>(BPROM_FAILPOINT("net.recv")));
  }
  const std::vector<bool> expected = {false, false, true, false, false,
                                      true,  false, false, true};
  EXPECT_EQ(fired, expected);
}

TEST_F(Failpoints, ProbabilisticTriggerIsSeedDeterministic) {
  const auto sample = [&] {
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(static_cast<bool>(BPROM_FAILPOINT("net.send")));
    }
    return fired;
  };
  ASSERT_TRUE(arm("net.send=p:0.5:42->err"));
  const std::vector<bool> first = sample();
  util::failpoints_clear();
  ASSERT_TRUE(arm("net.send=p:0.5:42->err"));
  const std::vector<bool> replay = sample();
  EXPECT_EQ(first, replay);  // same seed, same schedule — bit for bit
  const auto fired_count =
      std::count(first.begin(), first.end(), true);
  EXPECT_GT(fired_count, 0);
  EXPECT_LT(fired_count, 200);

  util::failpoints_clear();
  ASSERT_TRUE(arm("net.send=p:1.0:7->err"));
  EXPECT_TRUE(BPROM_FAILPOINT("net.send"));
  util::failpoints_clear();
  ASSERT_TRUE(arm("net.send=p:0.0:7->err"));
  EXPECT_FALSE(BPROM_FAILPOINT("net.send"));
}

TEST_F(Failpoints, ShortActionCarriesTheByteCount) {
  ASSERT_TRUE(arm("io.read.short=short:5"));
  const FailpointHit hit = BPROM_FAILPOINT("io.read.short");
  EXPECT_EQ(hit.action, FailpointAction::kShort);
  EXPECT_EQ(hit.arg, 5U);
}

TEST_F(Failpoints, DelayActionSleepsInsideEvalAndReportsNothing) {
  ASSERT_TRUE(arm("net.recv.stall=delay:60"));
  const auto t0 = std::chrono::steady_clock::now();
  const FailpointHit hit = BPROM_FAILPOINT("net.recv.stall");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(hit);  // the site proceeds normally after the stall
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            50);
}

TEST_F(Failpoints, ExitActionDiesWithTheRequestedCode) {
  EXPECT_EXIT(
      {
        std::string error;
        if (!util::failpoints_arm("io.read.open=exit:43", &error)) _exit(99);
        (void)BPROM_FAILPOINT("io.read.open");
        _exit(98);  // unreachable: eval must have _exit(43)'d
      },
      ::testing::ExitedWithCode(43), "");
}

TEST_F(Failpoints, ArmingReplacesTheWholeSet) {
  ASSERT_TRUE(arm("io.read.open=err;net.send=err"));
  EXPECT_TRUE(BPROM_FAILPOINT("net.send"));
  ASSERT_TRUE(arm("io.read.short=short:1"));  // replaces, does not merge
  EXPECT_FALSE(BPROM_FAILPOINT("net.send"));
  EXPECT_TRUE(BPROM_FAILPOINT("io.read.short"));
  util::failpoints_clear();
  EXPECT_FALSE(util::failpoints_enabled());
}

// ---- io-layer wiring: each armed action forces the intended failure ----

class FailpointIo : public Failpoints {
 protected:
  void SetUp() override {
    Failpoints::SetUp();
    dir_ = (fs::temp_directory_path() / "bprom_failpoint_io").string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    Failpoints::TearDown();
  }

  [[nodiscard]] std::string path(const char* name) const {
    return (fs::path(dir_) / name).string();
  }

  static io::Writer sample_writer() {
    io::Writer writer;
    writer.write_tag("TEST");
    writer.write_u64(0xDEADBEEFULL);
    writer.write_string("fault injection payload");
    return writer;
  }

  std::string dir_;
};

TEST_F(FailpointIo, DisarmedSaveLoadRoundTrips) {
  sample_writer().save_file(path("clean.bprom"));
  io::Reader reader = io::Reader::from_file(path("clean.bprom"));
  reader.expect_tag("TEST");
  EXPECT_EQ(reader.read_u64(), 0xDEADBEEFULL);
  EXPECT_EQ(reader.read_string(), "fault injection payload");
}

TEST_F(FailpointIo, InjectedRenameFailureLeavesTheTempBehind) {
  ASSERT_TRUE(arm("io.save.rename=err"));
  EXPECT_THROW(sample_writer().save_file(path("a.bprom")), io::IoError);
  EXPECT_FALSE(fs::exists(path("a.bprom")));
  // The torn publish left its temp file — exactly what recover() must
  // later quarantine.
  bool temp_seen = false;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    temp_seen = temp_seen || entry.path().string().find(".tmp") !=
                                 std::string::npos;
  }
  EXPECT_TRUE(temp_seen);
}

TEST_F(FailpointIo, InjectedShortWriteTruncatesThenFails) {
  ASSERT_TRUE(arm("io.save.write=short:8"));
  try {
    sample_writer().save_file(path("b.bprom"));
    FAIL() << "short write must throw";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kIo);
  }
}

TEST_F(FailpointIo, InjectedOpenFailuresAreTypedIo) {
  sample_writer().save_file(path("c.bprom"));
  ASSERT_TRUE(arm("io.read.open=err"));
  try {
    (void)io::Reader::from_file(path("c.bprom"));
    FAIL() << "injected open failure must throw";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kIo);
  }
}

TEST_F(FailpointIo, InjectedShortReadParsesAsCorruption) {
  sample_writer().save_file(path("d.bprom"));
  ASSERT_TRUE(arm("io.read.short=short:10"));
  // The parser sees 10 honest-looking bytes and must classify the
  // truncation as corruption, not crash or misread.
  try {
    (void)io::Reader::from_file(path("d.bprom"));
    FAIL() << "truncated read must throw";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kCorrupt);
  }
}

TEST_F(FailpointIo, InjectedFsyncFailuresAbortThePublish) {
  for (const char* spec :
       {"io.save.fsync.file=err", "io.save.fsync.dir=err",
        "io.save.open=err"}) {
    util::failpoints_clear();
    ASSERT_TRUE(arm(spec));
    EXPECT_THROW(sample_writer().save_file(path("e.bprom")), io::IoError)
        << spec;
  }
  // fsync.dir fires AFTER the rename: the container is complete on disk
  // even though the durability barrier failed.
  EXPECT_TRUE(fs::exists(path("e.bprom")));
}

}  // namespace
}  // namespace bprom
