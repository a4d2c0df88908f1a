// INTERNAL directory-backed store of fitted detectors.
//
// Since the `bprom::api` façade landed, this is an implementation-layer
// type — external consumers should go through api::AuditEngine, which
// layers versioned names ("name@vN"), atomic rollover, and typed Status
// errors (a store of a newer container version is rejected as
// kVersionMismatch instead of an escaping io::IoError) on top of it.
//
// Detectors are expensive to fit (a whole shadow population) but cheap to
// load, so the serving front end keeps them on disk as `name@vN.bprom`
// containers and caches loads in memory.  The directory is the one record
// of what is published: no index, counter or lock file sits beside the
// containers.  The store hands out shared_ptr to *const* detectors:
// inspection is const and thread-safe across requests, so one cached
// detector serves a whole audit fleet.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bprom.hpp"
#include "util/thread_annotations.hpp"

namespace bprom::serve {

/// Cross-process publish lock over a store directory, held for the span of
/// a scan-and-write rollover: an exclusive flock(2) on the directory
/// itself.  Every holder opens its own file description, so threads of one
/// process exclude each other exactly as processes do, and the kernel
/// releases the lock of a holder that dies, however it dies.  No file is
/// written for the lock.  The constructor blocks until the lock is granted;
/// the destructor closes the descriptor, which releases it.
class BPROM_SCOPED_CAPABILITY StoreLock {
 public:
  /// Blocks until acquired.  Throws io::IoError (kIo) when the directory
  /// cannot be opened or locked: a publish never goes ahead unlocked.
  explicit StoreLock(const std::string& directory) BPROM_ACQUIRE();
  ~StoreLock() BPROM_RELEASE();

  StoreLock(const StoreLock&) = delete;
  StoreLock& operator=(const StoreLock&) = delete;

 private:
  int fd_;
};

/// One problem found (and handled) by DetectorStore::recover().
struct RecoveryIssue {
  enum class Kind : std::uint8_t {
    kTempFile,         ///< leftover .tmp from a torn publish — quarantined
    kCorrupt,          ///< container that does not decode as a detector
                       ///< (torn, CRC-failed, refused field) — quarantined
    kVersionMismatch,  ///< newer-format container — left in place
  };
  Kind kind;
  std::string file;            ///< filename relative to the store directory
  std::string detail;          ///< human-readable cause (parser message, …)
  std::string quarantined_as;  ///< destination under quarantine/, if moved
};

/// Outcome of a recovery scan.
struct RecoveryReport {
  std::vector<RecoveryIssue> issues;
  std::size_t artifacts_ok = 0;  ///< containers that decoded as detectors
  [[nodiscard]] bool clean() const { return issues.empty(); }
};

class DetectorStore {
 public:
  /// Opens (and creates if needed) the backing directory.
  explicit DetectorStore(std::string directory);

  [[nodiscard]] const std::string& directory() const { return dir_; }

  /// Filesystem path a named detector lives at.
  [[nodiscard]] std::string path_for(const std::string& name) const;

  /// Save a fitted detector under `name` and cache it; returns the cached
  /// handle.  Throws io::IoError on unfitted detectors or write failure.
  std::shared_ptr<const core::BpromDetector> put(const std::string& name,
                                                 core::BpromDetector detector);

  /// Cached detector, loading from disk on first use.  Throws io::IoError
  /// when the name has never been stored.
  std::shared_ptr<const core::BpromDetector> get(const std::string& name);

  /// Names of every detector on disk, sorted.  Throws io::IoError (kIo)
  /// when the directory cannot be read to the end: a partial scan would
  /// hide published versions, and a publish would mint one of them again.
  [[nodiscard]] std::vector<std::string> list() const;

  /// The name each container under `quarantine/` was published as: its
  /// file name up to the `.bprom` extension, so a collision suffix (".1")
  /// still counts.  Quarantined temp files are skipped: a torn publish
  /// never renamed its bytes into place, so no reader saw that name.
  /// Unsorted.  A missing `quarantine/` means nothing is quarantined; any
  /// other failure to read it throws io::IoError (kIo), as list() does.
  [[nodiscard]] std::vector<std::string> quarantined() const;

  /// Drop a name from the in-memory cache (the file stays on disk).
  void evict(const std::string& name);

  /// Crash-recovery scan.  Takes the StoreLock itself, then walks the
  /// directory and decodes every container as a detector, the way get()
  /// would.  Leftover publish temp files and containers that do not decode
  /// (truncated, CRC mismatch, bad magic, a field the detector's field list
  /// refuses) are MOVED into `quarantine/` — never deleted — and reported,
  /// so a bare name never resolves to a version that cannot be served;
  /// containers written by a newer format version are reported but left in
  /// place (an upgraded build can still serve them).  Any other file is
  /// left as it is.  Healthy stores pass through untouched
  /// (`report.clean()`).  Quarantined names are also dropped from the
  /// in-memory cache.  Throws io::IoError only when the directory itself
  /// is unusable.
  RecoveryReport recover();

 private:
  std::string dir_;
  mutable util::Mutex mu_;
  std::map<std::string, std::shared_ptr<const core::BpromDetector>> cache_
      BPROM_GUARDED_BY(mu_);
};

}  // namespace bprom::serve
