// `bprom::api::AuditEngine` — the public entry point for fitting, loading,
// and auditing BPROM detectors.
//
// The engine owns a directory-backed detector store and dispatches batched
// audits over a thread pool.  Detectors are published under versioned names
// ("marketplace@v1", "@v2", ...): publishing a refreshed fit rolls the bare
// name over atomically while audits already in flight finish on the version
// they resolved — a store handle is a shared_ptr, so an old version lives
// exactly as long as someone is still inspecting with it.
//
// Everything fallible returns `Status`/`Result<T>` (api/status.hpp); no
// exception and no abort crosses this boundary.  The lower-level
// `serve::DetectorStore` / `io::*_file` entry points are internal — new
// consumers should not reach below this header.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/status.hpp"
#include "api/types.hpp"
#include "io/binary.hpp"
#include "serve/detector_store.hpp"
#include "util/bounded_queue.hpp"
#include "util/profiler.hpp"
#include "util/stopwatch.hpp"

namespace bprom::api {

/// Map an internal io failure onto the façade's typed codes.
Status status_from(const io::IoError& error);

struct EngineConfig {
  /// Backing directory of the versioned detector store (created if absent).
  std::string store_dir;
  /// Root seed the per-request inspection salts are split from: request i
  /// of a batch inspects with salt `root.split(i + 1).next_u64()`, split in
  /// batch order off one `util::Rng root(seed)`.  The salt is a function of
  /// (seed, batch index) only, so batches are bit-identical for any thread
  /// count and through audit() or audit_async().
  std::uint64_t seed = 97;
  /// Most async batches queued for the serving workers at once (0 is taken
  /// as 1).  A full queue is backpressure: audit_async blocks until a
  /// worker takes a batch, so a flood of submissions degrades into queueing
  /// delay (visible as queue_wait in the profiler) instead of unbounded
  /// memory.
  std::size_t async_queue_capacity = 64;
  /// Dedicated serving workers draining the queue.  Each worker runs one
  /// batch at a time (the batch itself fans out on util::default_pool()),
  /// so this is the cross-batch concurrency of the async path.
  std::size_t async_workers = 2;
};

/// Exact running totals since construction (relaxed atomics; a snapshot,
/// not a transaction), plus the always-on profiler's latency counters.
struct EngineStats {
  std::uint64_t requests = 0;   ///< audit requests processed, ok or not
  std::uint64_t verdicts = 0;   ///< requests that produced a verdict
  std::uint64_t queries = 0;    ///< black-box queries spent, exact
  std::uint64_t rollovers = 0;  ///< publishes that superseded a live version
  std::uint64_t deadline_misses = 0;  ///< requests failed kDeadlineExceeded
  /// Per-stage latency counters (resolve / inspect / request / queue_wait /
  /// queue_depth / batch): count, avg, min/max, and p50/p95/p99 — raw units
  /// nanoseconds for timers, items for queue_depth.
  util::ProfilerSnapshot profile;
};

class AuditEngine {
 public:
  /// Never throws: a store-directory failure is deferred into status() and
  /// every subsequent operation reports it.
  explicit AuditEngine(EngineConfig config);

  /// Drains the async queue and joins the serving workers: every batch
  /// accepted by audit_async() — running or still queued — completes and
  /// its completion fires before the engine's memory goes away.
  ~AuditEngine();

  AuditEngine(const AuditEngine&) = delete;
  AuditEngine& operator=(const AuditEngine&) = delete;

  /// OK when the engine is usable; the construction failure otherwise.
  [[nodiscard]] const Status& status() const { return init_status_; }

  /// Fit a detector from the request's datasets and publish it under
  /// `request.name` as the next version of that name.
  Result<DetectorInfo> fit(const FitRequest& request);

  /// Publish an already-fitted detector as the next version of `name`
  /// ("name@vN" on disk) and atomically roll the bare name over to it.
  Result<DetectorInfo> publish(const std::string& name,
                               core::BpromDetector detector);

  /// Crash-recovery scan of the backing store (see
  /// serve::DetectorStore::recover): decodes every container as a detector,
  /// moves those that do not decode and leftover temp files into
  /// `<store>/quarantine/` (never deleting), and reports everything it did.
  /// Afterwards every version a name resolves to can be served.  Safe
  /// against concurrent publishers, in this process or another: it holds
  /// the store's StoreLock (flock(2) on the directory) for the whole scan.
  /// A healthy store comes back `clean()`.
  Result<serve::RecoveryReport> recover();

  /// Metadata of a published detector; loads (and caches) the artifact.
  /// Accepts bare names (newest version) and pinned "name@vN" forms.
  Result<DetectorInfo> info(const std::string& name);

  /// Every published (name, version) pair on disk, sorted.  Metadata that
  /// needs the artifact loaded (class counts) is zero here — use info().
  Result<std::vector<DetectorInfo>> list() const;

  /// In-process escape hatch: the live handle a name currently resolves to.
  /// The handle stays valid across rollovers — that is the rollover
  /// guarantee itself.
  Result<std::shared_ptr<const core::BpromDetector>> detector(
      const std::string& name);

  /// Audit a batch.  Per-request failures (unknown detector, null model,
  /// exhausted budget, missed deadline) come back as non-OK statuses in the
  /// matching response — the call itself never throws and responses keep
  /// batch order.  Each distinct detector reference is resolved once, on
  /// entry, so one batch sees one consistent version even mid-rollover.
  [[nodiscard]] std::vector<AuditResponse> audit(
      const std::vector<AuditRequest>& batch);

  /// Same semantics, off the calling thread: the batch is handed to the
  /// serving workers through a bounded queue and audited on
  /// util::default_pool().  Safe to call concurrently with publish() and
  /// from many threads at once; the batch audits whatever versions it
  /// resolves when a worker picks it up.  A full queue blocks the caller
  /// (backpressure) until a worker takes a batch.  Deadlines anchor at
  /// submission, so queue wait counts against them.  A wrapper over the
  /// callback overload: get() never throws, and a batch that dies
  /// exceptionally resolves with per-request kInternal statuses.
  [[nodiscard]] std::future<std::vector<AuditResponse>> audit_async(
      std::vector<AuditRequest> batch);

  /// Completion delivered by callback instead of future, with the same
  /// queueing, backpressure, and deadline semantics.  `on_done` runs on a
  /// serving worker (or inline on the caller when the queue is already
  /// closed) exactly once, and MUST NOT throw — event-driven callers (the
  /// net front end) use it to release admission slots and drain barriers,
  /// so a lost invocation would wedge them.  If the batch itself dies
  /// exceptionally, the callback still fires with per-request kInternal
  /// statuses.
  using AuditCallback = std::function<void(std::vector<AuditResponse>)>;
  void audit_async(std::vector<AuditRequest> batch, AuditCallback on_done);

  [[nodiscard]] EngineStats stats() const;

 private:
  struct Resolved {
    std::shared_ptr<const core::BpromDetector> handle;
    DetectorInfo info;
  };

  /// Resolve "name" / "name@vN" to a live handle + metadata.
  Result<Resolved> resolve(const std::string& reference);
  /// Shared batch loop; `batch_clock` anchors deadline_ms (started at
  /// submission by audit_async, at entry by the synchronous audit).
  std::vector<AuditResponse> audit_from(const std::vector<AuditRequest>& batch,
                                        util::Stopwatch batch_clock);
  /// Newest "base@vN" container on disk (0 when unpublished).  The store
  /// directory is the one record of what is published: every engine over
  /// it, in this process or another, resolves and mints from this scan.
  [[nodiscard]] std::uint32_t latest_on_disk(const std::string& base) const;

  EngineConfig config_;
  Status init_status_;
  /// Engaged iff init_status_.ok().
  std::optional<serve::DetectorStore> store_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> verdicts_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> rollovers_{0};
  std::atomic<std::uint64_t> deadline_misses_{0};

  /// Always-on latency telemetry.
  util::Profiler profiler_;

  /// One queued async batch: the requests, the callback that completes it,
  /// and the submission clock deadlines anchor to.
  struct AsyncJob {
    std::vector<AuditRequest> batch;
    AuditCallback callback;
    util::Stopwatch submitted;
  };

  /// Worker loop: pop batches off the queue until it is closed and drained.
  void serve_loop();
  /// Audit one async batch and fire its callback exactly once — with
  /// per-request kInternal statuses if the batch throws.
  void run_job(AsyncJob& job);

  /// Bounded hand-off from audit_async() to the serving workers.
  util::BoundedQueue<AsyncJob> async_queue_;
  // Dedicated long-lived serving threads: routing them through the
  // work-assisting ThreadPool would deadlock the pool (workers block in
  // pop), and they never touch batch-order-dependent math.
  // bprom-lint: allow(raw-thread)
  std::vector<std::thread> serve_workers_;
};

}  // namespace bprom::api
