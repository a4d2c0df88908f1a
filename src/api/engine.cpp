#include "api/engine.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace bprom::api {

namespace {

/// Names become file stems; keep them flat and unambiguous.
Status validate_name(const std::string& name) {
  if (name.empty()) return Status::InvalidRequest("detector name is empty");
  if (name.find('@') != std::string::npos) {
    return Status::InvalidRequest("detector name '" + name +
                                  "' must not contain '@' (reserved for "
                                  "version suffixes)");
  }
  if (name.find('/') != std::string::npos ||
      name.find('\\') != std::string::npos) {
    return Status::InvalidRequest("detector name '" + name +
                                  "' must not contain path separators");
  }
  return Status::Ok();
}

/// Per-request inspection salts, split off sequentially from `seed`: the
/// salt a request sees is a function of (seed, batch index) only, never of
/// thread scheduling — which is what makes a verdict independent of the
/// thread count and of the path (sync or async) the batch took.
std::vector<std::uint64_t> split_request_salts(std::uint64_t seed,
                                               std::size_t n) {
  util::Rng root(seed);
  std::vector<std::uint64_t> salts(n);
  for (std::size_t i = 0; i < n; ++i) salts[i] = root.split(i + 1).next_u64();
  return salts;
}

}  // namespace

Status status_from(const io::IoError& error) {
  switch (error.kind()) {
    case io::ErrorKind::kNotFound:
      return Status::NotFound(error.what());
    case io::ErrorKind::kVersionMismatch:
      return Status::VersionMismatch(error.what());
    case io::ErrorKind::kPrecondition:
      return Status::FailedPrecondition(error.what());
    case io::ErrorKind::kIo:
      return Status::Internal(error.what());
    case io::ErrorKind::kCorrupt:
      break;
  }
  return Status::CorruptArtifact(error.what());
}

AuditEngine::AuditEngine(EngineConfig config)
    : config_(std::move(config)),
      async_ring_(std::max<std::size_t>(2, config_.async_queue_capacity)) {
  try {
    store_.emplace(config_.store_dir);
    if (config_.recover_on_start) (void)store_->recover();
  } catch (const io::IoError& e) {
    init_status_ = status_from(e);
  } catch (const std::exception& e) {
    init_status_ = Status::Internal(e.what());
  }
  // Serving workers start even when the store failed to open: async batches
  // must still come back (with init_status_ per response) instead of
  // hanging their futures.
  const std::size_t workers = std::max<std::size_t>(1, config_.async_workers);
  serve_workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    serve_workers_.emplace_back([this] { serve_loop(); });
  }
}

AuditEngine::~AuditEngine() {
  // Drain-on-destruct: closing the ring stops new submissions; workers pop
  // whatever is still queued (pop_wait only reports closed once the ring is
  // empty), fulfill every promise, and exit.  After the joins no thread can
  // touch this engine again.
  async_ring_.close();
  for (auto& worker : serve_workers_) worker.join();
}

void AuditEngine::serve_loop() {
  AsyncJob job;
  while (async_ring_.pop_wait(job) == util::MpmcRing<AsyncJob>::Pop::kItem) {
    profiler_.record(
        util::ProfileStage::kQueueWait,
        static_cast<std::uint64_t>(job.submitted.seconds() * 1e9));
    profiler_.record(util::ProfileStage::kQueueDepth, async_ring_.size());
    run_job(job);
    job = AsyncJob{};  // release request references before the next wait
  }
}

void AuditEngine::run_job(AsyncJob& job) {
  std::vector<AuditResponse> responses;
  try {
    // Scoped so the sample is recorded BEFORE the completion wakes the
    // batch's owner — a stats() inside the callback (or right after the
    // future overload's get()) must already see this batch.
    util::ScopedProfile batch_timer(&profiler_, util::ProfileStage::kBatch);
    responses = audit_from(job.batch, job.submitted);
  } catch (...) {
    // audit_from reports per-request failures in-band; this catches the
    // truly exceptional (bad_alloc in the response vector).  No exception
    // crosses the façade, so the batch still completes: per-request
    // kInternal statuses through the one callback.
    std::string what = "batch failed exceptionally";
    try {
      throw;
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    responses.resize(job.batch.size());
    for (std::size_t i = 0; i < job.batch.size(); ++i) {
      responses[i].model_id = job.batch[i].model_id;
      responses[i].status = Status::Internal(what);
    }
  }
  job.callback(std::move(responses));
}

std::uint32_t AuditEngine::latest_floor_locked(const std::string& base) const {
  auto it = latest_.find(base);
  return it != latest_.end() ? it->second : 0;
}

std::uint32_t AuditEngine::latest_on_disk(const std::string& base) const {
  std::uint32_t latest = 0;
  for (const auto& stem : store_->list()) {
    if (stem == base) {
      // Legacy unversioned container: counts as version 1.
      latest = std::max(latest, 1U);
      continue;
    }
    std::string b;
    std::uint32_t v = 0;
    if (parse_versioned_name(stem, &b, &v) && b == base) {
      latest = std::max(latest, v);
    }
  }
  return latest;
}

Result<AuditEngine::Resolved> AuditEngine::resolve(
    const std::string& reference) {
  if (!init_status_.ok()) return init_status_;
  util::ScopedProfile timer(&profiler_, util::ProfileStage::kResolve);
  std::string base = reference;
  std::uint32_t version = 0;
  const bool pinned = parse_versioned_name(reference, &base, &version);
  // Validate the base either way: a pinned "../evil@v1" must not sneak a
  // path past the rules a bare "../evil" is rejected by.
  if (Status s = validate_name(base); !s.ok()) return s;
  if (!pinned) {
    // Newest version wins.  The in-memory rollover pointer is only a floor
    // (this engine's own publishes); the disk scan additionally picks up
    // versions published over the same directory by other processes.
    {
      util::MutexLock lock(state_mu_);
      version = latest_floor_locked(base);
    }
    version = std::max(version, latest_on_disk(base));
    if (version == 0) {
      return Status::NotFound("no detector published under '" + base + "'");
    }
  }

  std::string stem = versioned_name(base, version);
  if (version == 1 && !store_->contains(stem) && store_->contains(base)) {
    stem = base;  // legacy unversioned container standing in for @v1
  }
  Resolved resolved;
  try {
    // Loaded detectors inspect on the engine's executor, like everything
    // else this engine runs ("fits and audits share one executor").
    resolved.handle = store_->get(stem, config_.pool);
  } catch (const io::IoError& e) {
    return status_from(e);
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
  if (!pinned) {
    // Remember the newest version seen by bare lookups.  Pinned resolves
    // must not touch the pointer: serving an old "name@v1" is routine and
    // must never drag later bare lookups backwards.
    util::MutexLock lock(state_mu_);
    auto& slot = latest_[base];
    slot = std::max(slot, version);
  }
  resolved.info.name = base;
  resolved.info.version = version;
  resolved.info.source_classes = resolved.handle->source_classes();
  resolved.info.query_samples = resolved.handle->config().query_samples;
  resolved.info.path = store_->path_for(stem);
  return resolved;
}

Result<DetectorInfo> AuditEngine::publish(const std::string& name,
                                          core::BpromDetector detector) {
  if (!init_status_.ok()) return init_status_;
  if (Status s = validate_name(name); !s.ok()) return s;
  if (!detector.fitted()) {
    return Status::FailedPrecondition("cannot publish an unfitted detector");
  }

  util::MutexLock publish_lock(publish_mu_);
  // Cross-process exclusivity for the scan-and-write below: the O_EXCL
  // lock file makes "find the latest version, mint the next one, write it"
  // atomic against every other engine publishing into this directory, so
  // two engines can no longer race the scan and clobber each other's
  // rollover pointer.  (publish_mu_ already serializes engines sharing
  // this object; the StoreLock extends that to engines sharing only the
  // directory.)
  serve::StoreLock store_lock(store_->directory());
  std::uint32_t latest = latest_on_disk(name);
  {
    util::MutexLock lock(state_mu_);
    latest = std::max(latest, latest_floor_locked(name));
  }
  // Never overwrite an existing version file: a published name@vN is
  // immutable (in-flight audits and pinned requests rely on it).  Under
  // the StoreLock the contains() walk is authoritative — no concurrent
  // writer can mint a version between the walk and the put.
  std::uint32_t next = latest + 1;
  while (store_->contains(versioned_name(name, next))) ++next;
  const std::string stem = versioned_name(name, next);

  DetectorInfo info;
  info.name = name;
  info.version = next;
  info.source_classes = detector.source_classes();
  info.query_samples = detector.config().query_samples;
  info.path = store_->path_for(stem);
  // Whatever pool the caller fitted with (possibly a borrowed one about to
  // die), the published handle inspects on this engine's executor.
  detector.set_pool(config_.pool);
  try {
    store_->put(stem, std::move(detector));
    // Crash-matrix anchor: the artifact is durable on disk but the
    // generation bump and rollover have not happened — recovery must
    // surface name@vN while leaving other engines' change signal intact.
    if (auto hit = BPROM_FAILPOINT("store.publish.crash")) {
      (void)hit;
      return Status::Internal("injected crash between put and rollover");
    }
    // Still under the StoreLock: the generation counter is the cheap
    // cross-process "someone published" signal other engines poll.
    store_->bump_generation();
  } catch (const io::IoError& e) {
    return status_from(e);
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
  {
    // The rollover itself: bare-name lookups see `next` from here on, while
    // handles resolved earlier keep their shared_ptr to the old version.
    util::MutexLock lock(state_mu_);
    latest_[name] = next;
  }
  if (latest > 0) {
    // relaxed: statistics tally — stats() reads a snapshot, not a
    // transaction, and no other memory is published through the counter.
    rollovers_.fetch_add(1, std::memory_order_relaxed);
    // Release the superseded version's cache slot: long-lived engines refit
    // routinely and only the newest version serves bare names, so keeping
    // every old detector resident would grow memory without bound.  Audits
    // already in flight hold their own shared_ptr; a later pinned request
    // for the old version reloads it from disk on demand.
    store_->evict(versioned_name(name, latest));
    if (latest == 1) store_->evict(name);  // legacy unversioned alias
  }
  return info;
}

Result<serve::RecoveryReport> AuditEngine::recover() {
  if (!init_status_.ok()) return init_status_;
  // Same order as publish: publish_mu_ then (inside recover) the StoreLock,
  // so recovery serializes against every publisher, in-process or not.
  util::MutexLock publish_lock(publish_mu_);
  try {
    return store_->recover();
  } catch (const io::IoError& e) {
    return status_from(e);
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
}

Result<DetectorInfo> AuditEngine::fit(const FitRequest& request) {
  if (!init_status_.ok()) return init_status_;
  if (Status s = validate_name(request.name); !s.ok()) return s;
  if (request.reserved_clean == nullptr || request.target_train == nullptr ||
      request.target_test == nullptr) {
    return Status::InvalidRequest("fit request is missing a dataset");
  }
  core::BpromConfig config = request.config;
  config.pool = config_.pool;  // fits and audits share one executor
  core::BpromDetector detector(config);
  try {
    detector.fit(*request.reserved_clean, request.source_classes,
                 *request.target_train, *request.target_test);
  } catch (const std::invalid_argument& e) {
    // fit() owns the dataset and label contracts.
    return Status::InvalidRequest(e.what());
  } catch (const std::exception& e) {
    return Status::Internal(std::string("fit failed: ") + e.what());
  }
  return publish(request.name, std::move(detector));
}

Result<DetectorInfo> AuditEngine::info(const std::string& name) {
  auto resolved = resolve(name);
  if (!resolved.ok()) return resolved.status();
  return std::move(resolved).value().info;
}

Result<std::vector<DetectorInfo>> AuditEngine::list() const {
  if (!init_status_.ok()) return init_status_;
  std::vector<DetectorInfo> infos;
  for (const auto& stem : store_->list()) {
    DetectorInfo info;
    info.version = 1;  // legacy unversioned containers stand in for @v1
    if (!parse_versioned_name(stem, &info.name, &info.version)) {
      info.name = stem;
    }
    info.path = store_->path_for(stem);
    infos.push_back(std::move(info));
  }
  std::sort(infos.begin(), infos.end(),
            [](const DetectorInfo& a, const DetectorInfo& b) {
              return a.name != b.name ? a.name < b.name
                                      : a.version < b.version;
            });
  return infos;
}

Result<std::shared_ptr<const core::BpromDetector>> AuditEngine::detector(
    const std::string& name) {
  auto resolved = resolve(name);
  if (!resolved.ok()) return resolved.status();
  return std::move(resolved).value().handle;
}

std::vector<AuditResponse> AuditEngine::audit(
    const std::vector<AuditRequest>& batch) {
  return audit_from(batch, util::Stopwatch());
}

std::vector<AuditResponse> AuditEngine::audit_from(
    const std::vector<AuditRequest>& batch, util::Stopwatch batch_clock) {
  const std::size_t n = batch.size();
  std::vector<AuditResponse> responses(n);
  if (!init_status_.ok()) {
    // Same contract as every other failure path: echo model_id so callers
    // can attribute the failure, and count the requests.
    for (std::size_t i = 0; i < n; ++i) {
      responses[i].model_id = batch[i].model_id;
      responses[i].status = init_status_;
    }
    // relaxed: statistics tally (see EngineStats — snapshot, not
    // transaction); nothing is ordered through these counters.
    requests_.fetch_add(n, std::memory_order_relaxed);
    return responses;
  }

  // Resolve each distinct detector reference once, before any work starts:
  // the whole batch audits one consistent store snapshot, and a publish()
  // that lands mid-batch only affects later batches.
  std::map<std::string, Result<Resolved>> resolved;
  for (const auto& request : batch) {
    if (resolved.find(request.detector) == resolved.end()) {
      resolved.emplace(request.detector, resolve(request.detector));
    }
  }

  // The salt — and therefore the verdict — is a function of (engine seed,
  // batch index) only, so batches are bit-identical across thread counts
  // and between audit() and audit_async().
  const std::vector<std::uint64_t> salts =
      split_request_salts(config_.seed, n);

  util::parallel_for(n, [&](std::size_t i) {
    const AuditRequest& request = batch[i];
    AuditResponse& response = responses[i];
    response.model_id = request.model_id;
    util::Stopwatch watch;
    util::ScopedProfile request_timer(&profiler_,
                                      util::ProfileStage::kRequest);
    // relaxed: statistics tally, same contract as every counter below.
    requests_.fetch_add(1, std::memory_order_relaxed);

    const Result<Resolved>& target = resolved.at(request.detector);
    if (!target.ok()) {
      response.status = target.status();
      response.seconds = watch.seconds();
      return;
    }
    response.detector_version = target.value().info.versioned_name();
    const core::BpromDetector& detector = *target.value().handle;

    if (request.query_budget == 0) {
      response.status = Status::BudgetExhausted(
          "query budget is zero; inspection needs at least one query");
    } else if (Status s = detector.inspectable(request.model); !s.ok()) {
      response.status = s;
    } else if (request.deadline_ms > 0 &&
               batch_clock.seconds() * 1e3 >
                   static_cast<double>(request.deadline_ms)) {
      // relaxed: statistics tally.
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      response.status = Status::DeadlineExceeded(
          "deadline of " + std::to_string(request.deadline_ms) +
          "ms elapsed before the inspection could start");
    } else {
      // The deadline rides into inspect() itself: the detector checks it
      // between prompt-ensemble members, so a mid-flight overrun stops at
      // the next member boundary instead of running the ensemble to
      // completion.  The clock is the batch clock — queue wait included.
      const core::InspectDeadline deadline{batch_clock, request.deadline_ms};
      const core::InspectDeadline* enforce =
          request.deadline_ms > 0 ? &deadline : nullptr;
      try {
        core::Verdict verdict;
        {
          util::ScopedProfile inspect_timer(&profiler_,
                                            util::ProfileStage::kInspect);
          verdict = detector.inspect(*request.model, salts[i], enforce);
        }
        // relaxed: statistics tally — exactness comes from every path
        // adding its spend once, not from ordering.
        queries_.fetch_add(verdict.queries, std::memory_order_relaxed);
        if (verdict.deadline_exceeded) {
          // relaxed: statistics tally.
          deadline_misses_.fetch_add(1, std::memory_order_relaxed);
          // Report the exact spend of the aborted inspection so callers
          // can account for it against their budgets.
          response.verdict.queries = verdict.queries;
          response.status = Status::DeadlineExceeded(
              "deadline of " + std::to_string(request.deadline_ms) +
              "ms elapsed mid-inspection after " +
              std::to_string(verdict.queries) + " queries");
        } else if (verdict.budget_exhausted) {
          response.verdict.queries = verdict.queries;
          response.status = Status::BudgetExhausted(
              "prompt-learning evaluation budget is too small to complete a "
              "single optimizer step");
        } else if (verdict.queries > request.query_budget) {
          response.verdict.queries = verdict.queries;
          response.status = Status::BudgetExhausted(
              "inspection spent " + std::to_string(verdict.queries) +
              " queries against a budget of " +
              std::to_string(request.query_budget));
        } else {
          response.verdict = verdict;
          // relaxed: statistics tally.
          verdicts_.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::exception& e) {
        response.status = Status::Internal(e.what());
      }
    }
    response.seconds = watch.seconds();
  }, pool());
  return responses;
}

std::future<std::vector<AuditResponse>> AuditEngine::audit_async(
    std::vector<AuditRequest> batch) {
  // One completion path: the future is a promise the callback fulfils.
  auto done = std::make_shared<std::promise<std::vector<AuditResponse>>>();
  auto future = done->get_future();
  audit_async(std::move(batch), [done](std::vector<AuditResponse> responses) {
    done->set_value(std::move(responses));
  });
  return future;
}

void AuditEngine::audit_async(std::vector<AuditRequest> batch,
                              AuditCallback on_done) {
  AsyncJob job;
  // Deadlines are measured from submission, so the clock starts here
  // (AsyncJob's Stopwatch starts on construction): time a batch spends
  // queued in the ring counts against it.
  job.batch = std::move(batch);
  job.callback = std::move(on_done);
  if (!async_ring_.push_wait(std::move(job))) {
    // The ring only refuses when it is closed — the engine is being torn
    // down under us.  Run the batch inline so the callback still fires
    // exactly once; push_wait left `job` untouched on failure.
    run_job(job);
  }
}

EngineStats AuditEngine::stats() const {
  EngineStats out;
  // relaxed: a snapshot, not a transaction (documented on EngineStats) —
  // counters may be mid-update while we read; each load is atomic.
  out.requests = requests_.load(std::memory_order_relaxed);
  out.verdicts = verdicts_.load(std::memory_order_relaxed);
  out.queries = queries_.load(std::memory_order_relaxed);      // relaxed: ^
  out.rollovers = rollovers_.load(std::memory_order_relaxed);  // relaxed: ^
  out.deadline_misses =
      deadline_misses_.load(std::memory_order_relaxed);  // relaxed: see above
  if (store_.has_value()) out.store_generation = store_->generation();
  out.profile = profiler_.snapshot();
  return out;
}

}  // namespace bprom::api
