#include "serve/detector_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "util/failpoint.hpp"

namespace bprom::serve {

namespace fs = std::filesystem;

namespace {

/// Where recover() moves what it cannot serve, inside the store directory.
constexpr const char* kQuarantineDir = "quarantine";

/// Every entry of `dir`, read to the end.  Throws io::IoError (kIo) when
/// the directory cannot be opened or read.
std::vector<fs::directory_entry> scan(const fs::path& dir) {
  std::vector<fs::directory_entry> entries;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    entries.push_back(*it);
  }
  if (ec) {
    throw io::IoError("cannot scan " + dir.string() + ": " + ec.message(),
                      io::ErrorKind::kIo);
  }
  return entries;
}

}  // namespace

StoreLock::StoreLock(const std::string& directory)
    : fd_(::open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC)) {
  if (fd_ < 0) {
    throw io::IoError("cannot open store directory " + directory +
                          " to lock it: " + std::strerror(errno),
                      io::ErrorKind::kIo);
  }
  int rc = 0;
  do {
    rc = ::flock(fd_, LOCK_EX);
  } while (rc != 0 && errno == EINTR);
  // Crash-matrix hook: fail or die while holding the lock.
  const bool injected = rc == 0 && BPROM_FAILPOINT("store.lock.crash");
  if (rc != 0 || injected) {
    const std::string why =
        injected ? "injected failure" : std::strerror(errno);
    ::close(fd_);  // a constructor that throws runs no destructor
    throw io::IoError("cannot lock store directory " + directory + ": " + why,
                      io::ErrorKind::kIo);
  }
}

StoreLock::~StoreLock() { ::close(fd_); }

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
  for (const auto& entry : scan(dir_)) {
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
  const fs::path qdir = fs::path(dir_) / kQuarantineDir;
  std::error_code ec;
  if (!fs::exists(qdir, ec) && !ec) return {};  // nothing quarantined yet
  std::vector<std::string> names;
  for (const auto& entry : scan(qdir)) {
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
  // Keeps concurrent publishers out for the span of the scan.
  StoreLock lock(dir_);

  std::vector<fs::path> temps;
  std::vector<fs::path> containers;
  for (const auto& entry : scan(dir_)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    const std::string fname = p.filename().string();
    if (fname.size() >= 4 && fname.compare(fname.size() - 4, 4, ".tmp") == 0) {
      temps.push_back(p);
    } else if (p.extension() == io::kFileExtension) {
      containers.push_back(p);
    }
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
