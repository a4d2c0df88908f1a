#include "serve/detector_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "util/failpoint.hpp"

namespace bprom::serve {

namespace fs = std::filesystem;

namespace {
/// Where recover() moves what it cannot serve, inside the store directory.
constexpr const char* kQuarantineDir = "quarantine";
}  // namespace

std::optional<std::uint64_t> process_start_token(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  if (!in.good()) return std::nullopt;
  std::string stat;
  std::getline(in, stat);
  // Field 2 (comm) is a parenthesized, possibly space-containing name, so
  // parse from the LAST ')': what follows is " <state> <ppid> ..." and
  // starttime is field 22 overall — token index 19 after the state.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream rest(stat.substr(close + 1));
  std::string token;
  for (int i = 0; i < 20; ++i) {
    if (!(rest >> token)) return std::nullopt;
  }
  std::uint64_t start = 0;
  std::istringstream value(token);
  if (!(value >> start)) return std::nullopt;
  return start;
}

namespace {

/// Parse a lock breadcrumb: "<pid>\n" (legacy) or "<pid> <starttime>\n".
struct LockCrumb {
  long pid = 0;
  std::optional<std::uint64_t> start_token;
};

std::optional<LockCrumb> read_lock_crumb(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return std::nullopt;
  LockCrumb crumb;
  if (!(in >> crumb.pid) || crumb.pid <= 0) return std::nullopt;
  std::uint64_t token = 0;
  if (in >> token) crumb.start_token = token;
  return crumb;
}

/// True when the breadcrumb proves its writer is dead: the pid is gone, or
/// the pid now belongs to a different process incarnation (pid reuse).  A
/// live holder, or a crumb we cannot decide on, returns false — the caller
/// then falls back to the mtime staleness rule.
bool holder_provably_dead(const LockCrumb& crumb) {
  const auto current = process_start_token(crumb.pid);
  if (!current.has_value()) return true;  // no such process
  // Legacy single-field crumb: the pid exists but we cannot tell whether
  // it is the original writer or a recycled pid — not provable either way.
  if (!crumb.start_token.has_value()) return false;
  return *current != *crumb.start_token;  // pid reused by someone else
}

}  // namespace

StoreLock::StoreLock(const std::string& directory)
    : path_((fs::path(directory) / kLockName).string()) {
  for (unsigned spins = 0;; ++spins) {
    // O_EXCL is the whole mechanism: exactly one creator wins, atomically,
    // across processes.
    const int fd = ::open(path_.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      // Breadcrumb: "<pid> <starttime>\n".  The start token makes the
      // liveness check below immune to pid reuse; it is best-effort (a
      // crumbless lock just degrades to the mtime rule).
      const long pid = static_cast<long>(::getpid());
      const auto token = process_start_token(pid);
      char crumb[64];
      const int len =
          token.has_value()
              ? std::snprintf(crumb, sizeof(crumb), "%ld %llu\n", pid,
                              static_cast<unsigned long long>(*token))
              : std::snprintf(crumb, sizeof(crumb), "%ld\n", pid);
      if (len > 0) {
        [[maybe_unused]] const auto ignored =
            ::write(fd, crumb, static_cast<std::size_t>(len));
      }
      ::close(fd);
      // Crash-matrix hook: die while holding the lock, leaving debris the
      // next acquirer must break.
      if (auto hit = BPROM_FAILPOINT("store.lock.crash")) {
        (void)hit;
        throw io::IoError("injected failure while holding publish lock",
                          io::ErrorKind::kIo);
      }
      return;
    }
    if (errno != EEXIST) {
      throw io::IoError("cannot create publish lock " + path_,
                        io::ErrorKind::kIo);
    }
    // Held by someone else.  Break immediately when the breadcrumb proves
    // the holder dead (pid gone, or pid recycled by another process).
    if (const auto crumb = read_lock_crumb(path_);
        crumb.has_value() && holder_provably_dead(*crumb)) {
      std::error_code ec;
      fs::remove(path_, ec);  // racing breakers are fine: O_EXCL re-decides
      continue;
    }
    // Liveness undecidable: fall back to age.  A publish spans one
    // directory scan plus one container write, so a lock older than
    // kStaleAfterSeconds belongs to a crashed writer.
    std::error_code ec;
    const auto mtime = fs::last_write_time(path_, ec);
    if (!ec) {
      const auto age = std::chrono::duration<double>(
          fs::file_time_type::clock::now() - mtime);
      if (age.count() > kStaleAfterSeconds) {
        fs::remove(path_, ec);  // racing breakers are fine: O_EXCL re-decides
        continue;
      }
    }
    if (spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

StoreLock::~StoreLock() {
  std::error_code ec;
  fs::remove(path_, ec);
}

DetectorStore::DetectorStore(std::string directory)
    : dir_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw io::IoError("cannot create store directory " + dir_ + ": " +
                          ec.message(),
                      io::ErrorKind::kIo);
  }
}

std::string DetectorStore::path_for(const std::string& name) const {
  return (fs::path(dir_) / (name + io::kFileExtension)).string();
}

std::shared_ptr<const core::BpromDetector> DetectorStore::put(
    const std::string& name, core::BpromDetector detector) {
  io::save_detector_file(path_for(name), detector);
  auto handle =
      std::make_shared<const core::BpromDetector>(std::move(detector));
  util::MutexLock lock(mu_);
  cache_[name] = handle;
  return handle;
}

std::shared_ptr<const core::BpromDetector> DetectorStore::get(
    const std::string& name) {
  {
    util::MutexLock lock(mu_);
    if (auto it = cache_.find(name); it != cache_.end()) return it->second;
  }
  // Load outside the lock so a slow disk read does not serialize unrelated
  // lookups; first insertion wins if two threads race on the same name
  // (emplace never overwrites, so the loser adopts the winner's handle and
  // its own load is discarded — both threads hand out one shared detector).
  auto loaded = std::make_shared<const core::BpromDetector>(
      io::load_detector_file(path_for(name)));
  util::MutexLock lock(mu_);
  return cache_.emplace(name, std::move(loaded)).first->second;
}

std::vector<std::string> DetectorStore::list() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() == io::kFileExtension) {
      names.push_back(p.stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> DetectorStore::quarantined() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir_) / kQuarantineDir, ec)) {
    const std::string file = entry.path().filename().string();
    const std::size_t end = file.rfind(io::kFileExtension);
    if (end == std::string::npos) continue;
    // What follows the extension: "" or ".K" for a container, ".tmp" or
    // ".tmp.K" for a torn publish.
    const std::string suffix =
        file.substr(end + std::string(io::kFileExtension).size());
    if (suffix.rfind(".tmp", 0) != 0) names.push_back(file.substr(0, end));
  }
  return names;
}

void DetectorStore::evict(const std::string& name) {
  util::MutexLock lock(mu_);
  cache_.erase(name);
}

namespace {

/// Move `from` into `dir/quarantine/`, never overwriting earlier remains:
/// on a name collision a numeric suffix is appended.  Returns the
/// quarantine-relative name, or empty on failure (the file then stays put —
/// recovery must never destroy evidence, so there is no unlink fallback).
std::string quarantine_file(const std::string& dir, const fs::path& from) {
  std::error_code ec;
  const fs::path qdir = fs::path(dir) / kQuarantineDir;
  fs::create_directories(qdir, ec);
  if (ec) return {};
  std::string base = from.filename().string();
  fs::path dest = qdir / base;
  for (int suffix = 1; fs::exists(dest, ec); ++suffix) {
    dest = qdir / (base + "." + std::to_string(suffix));
  }
  fs::rename(from, dest, ec);
  if (ec) return {};
  return (fs::path(kQuarantineDir) / dest.filename()).string();
}

}  // namespace

RecoveryReport DetectorStore::recover() {
  RecoveryReport report;

  // A leftover lock is either a live publisher or crash debris; taking the
  // StoreLock resolves that (breaking provably-dead locks immediately) and
  // keeps concurrent publishers out for the span of the scan.  Report the
  // debris when we can see it was there.
  {
    std::error_code ec;
    const fs::path lock = fs::path(dir_) / StoreLock::kLockName;
    if (fs::exists(lock, ec)) {
      report.issues.push_back({RecoveryIssue::Kind::kStaleLock,
                               StoreLock::kLockName,
                               "publish lock present at recovery start", ""});
    }
  }
  StoreLock lock(dir_);

  std::error_code ec;
  std::vector<fs::path> temps;
  std::vector<fs::path> containers;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    const std::string fname = p.filename().string();
    if (fname == StoreLock::kLockName) continue;
    if (fname.size() >= 4 && fname.compare(fname.size() - 4, 4, ".tmp") == 0) {
      temps.push_back(p);
    } else if (p.extension() == io::kFileExtension) {
      containers.push_back(p);
    }
  }
  if (ec) {
    throw io::IoError("cannot scan store directory " + dir_ + ": " +
                          ec.message(),
                      io::ErrorKind::kIo);
  }
  std::sort(temps.begin(), temps.end());
  std::sort(containers.begin(), containers.end());

  // Leftover temp files are torn publishes: the rename never happened, so
  // no reader ever saw them.  Quarantine, never serve.
  for (const fs::path& tmp : temps) {
    report.issues.push_back({RecoveryIssue::Kind::kTempFile,
                             tmp.filename().string(),
                             "leftover publish temp file",
                             quarantine_file(dir_, tmp)});
  }

  // Every container must decode as a detector, as get() would, or fail
  // with a *typed* error: a container that frames cleanly but holds fields
  // the detector refuses would otherwise stay resolvable and fail every
  // audit that reaches it.
  for (const fs::path& artifact : containers) {
    try {
      (void)io::load_detector_file(artifact.string());
      ++report.artifacts_ok;
    } catch (const io::IoError& e) {
      if (e.kind() == io::ErrorKind::kVersionMismatch) {
        // Written by a newer build — perfectly healthy data we cannot read.
        // Leave it for the upgraded binary; just surface it.
        report.issues.push_back({RecoveryIssue::Kind::kVersionMismatch,
                                 artifact.filename().string(), e.what(), ""});
        continue;
      }
      report.issues.push_back({RecoveryIssue::Kind::kCorrupt,
                               artifact.filename().string(), e.what(),
                               quarantine_file(dir_, artifact)});
      evict(artifact.stem().string());
    }
  }

  return report;
}

}  // namespace bprom::serve
