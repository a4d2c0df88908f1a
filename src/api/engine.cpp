#include "api/engine.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

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

/// Newest N among the "base@vN" names (0 when there is none).
std::uint32_t newest_version(const std::vector<std::string>& names,
                             const std::string& base) {
  std::uint32_t newest = 0;
  for (const auto& name : names) {
    std::string b;
    std::uint32_t v = 0;
    if (parse_versioned_name(name, &b, &v) && b == base) {
      newest = std::max(newest, v);
    }
  }
  return newest;
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
      async_queue_(config_.async_queue_capacity) {
  try {
    store_.emplace(config_.store_dir);
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
  // Drain-on-destruct: closing the queue stops new submissions; workers pop
  // whatever is still queued (pop only reports closed once the queue is
  // empty), fulfill every promise, and exit.  After the joins no thread can
  // touch this engine again.
  async_queue_.close();
  for (auto& worker : serve_workers_) worker.join();
}

void AuditEngine::serve_loop() {
  AsyncJob job;
  while (async_queue_.pop(job)) {
    profiler_.record(
        util::ProfileStage::kQueueWait,
        static_cast<std::uint64_t>(job.submitted.seconds() * 1e9));
    profiler_.record(util::ProfileStage::kQueueDepth, async_queue_.size());
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

std::uint32_t AuditEngine::latest_on_disk(const std::string& base) const {
  return newest_version(store_->list(), base);
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
  try {
    if (!pinned) {
      // Newest version on disk wins, whichever engine published it.
      version = latest_on_disk(base);
      if (version == 0) {
        return Status::NotFound("no detector published under '" + base + "'");
      }
    }
    const std::string stem = versioned_name(base, version);
    Resolved resolved;
    resolved.handle = store_->get(stem);
    resolved.info.name = base;
    resolved.info.version = version;
    resolved.info.source_classes = resolved.handle->source_classes();
    resolved.info.query_samples = resolved.handle->config().query_samples;
    resolved.info.path = store_->path_for(stem);
    return resolved;
  } catch (const io::IoError& e) {
    return status_from(e);
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
}

Result<DetectorInfo> AuditEngine::publish(const std::string& name,
                                          core::BpromDetector detector) {
  if (!init_status_.ok()) return init_status_;
  if (Status s = validate_name(name); !s.ok()) return s;
  if (!detector.fitted()) {
    return Status::FailedPrecondition("cannot publish an unfitted detector");
  }

  DetectorInfo info;
  info.name = name;
  info.source_classes = detector.source_classes();
  info.query_samples = detector.config().query_samples;
  try {
    // Exclusive flock(2) on the store directory for the scan-and-write
    // below: "find the latest version, mint the next one, write it" is
    // atomic against every other publisher into this directory, thread or
    // process, so no writer can mint name@v(latest + 1) between the scan
    // and the put — a published name@vN is never overwritten.
    serve::StoreLock store_lock(store_->directory());
    const std::uint32_t latest = latest_on_disk(name);
    // Quarantined numbers stay spent: minting one again would let a pinned
    // name@vN reach content other than what it was published with.
    info.version =
        std::max(latest, newest_version(store_->quarantined(), name)) + 1;
    const std::string stem = versioned_name(name, info.version);
    info.path = store_->path_for(stem);
    // The rollover itself: once the container is in place, bare-name
    // lookups resolve to the new version, while handles resolved earlier
    // keep their shared_ptr to the old one.
    store_->put(stem, std::move(detector));
    if (latest > 0) {
      // relaxed: statistics tally — stats() reads a snapshot, not a
      // transaction, and no other memory is published through the counter.
      rollovers_.fetch_add(1, std::memory_order_relaxed);
      // Release the superseded version's cache slot: long-lived engines
      // refit routinely and only the newest version serves bare names, so
      // keeping every old detector resident would grow memory without
      // bound.  Audits already in flight hold their own shared_ptr; a later
      // pinned request for the old version reloads it from disk on demand.
      store_->evict(versioned_name(name, latest));
    }
  } catch (const io::IoError& e) {
    return status_from(e);
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
  return info;
}

Result<serve::RecoveryReport> AuditEngine::recover() {
  if (!init_status_.ok()) return init_status_;
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
  core::BpromDetector detector(request.config);
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
  try {
    for (const auto& stem : store_->list()) {
      DetectorInfo info;
      // Only "name@vN" stems are published versions; no other stem resolves.
      if (!parse_versioned_name(stem, &info.name, &info.version)) continue;
      info.path = store_->path_for(stem);
      infos.push_back(std::move(info));
    }
  } catch (const io::IoError& e) {
    return status_from(e);
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
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
      // before each prompt-ensemble member's prompt learning and before its
      // observation pass, so a mid-flight overrun stops at the next check
      // instead of running the ensemble to completion.  The clock is the
      // batch clock — queue wait included.
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
  });
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
  // queued counts against it.
  job.batch = std::move(batch);
  job.callback = std::move(on_done);
  if (!async_queue_.push(std::move(job))) {
    // The queue only refuses when it is closed — the engine is being torn
    // down under us.  Run the batch inline so the callback still fires
    // exactly once; push left `job` untouched on failure.
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
  out.profile = profiler_.snapshot();
  return out;
}

}  // namespace bprom::api
