#include "serve/audit_service.hpp"

#include <exception>

#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace bprom::serve {

std::vector<std::uint64_t> split_request_salts(std::uint64_t seed,
                                               std::size_t n) {
  util::Rng root(seed);
  std::vector<std::uint64_t> salts(n);
  for (std::size_t i = 0; i < n; ++i) salts[i] = root.split(i + 1).next_u64();
  return salts;
}

AuditService::AuditService(std::shared_ptr<const core::BpromDetector> detector,
                           AuditServiceConfig config)
    : detector_(std::move(detector)), config_(config) {}

AuditService::AuditService(DetectorStore& store, const std::string& name,
                           AuditServiceConfig config)
    : AuditService(store.get(name), config) {}

std::vector<AuditResponse> AuditService::audit(
    const std::vector<AuditRequest>& batch) const {
  const std::size_t n = batch.size();
  std::vector<AuditResponse> responses(n);

  const std::vector<std::uint64_t> salts = split_request_salts(config_.seed, n);

  util::parallel_for(n, [&](std::size_t i) {
    AuditResponse& response = responses[i];
    response.model_id = batch[i].model_id;
    util::Stopwatch watch;
    // Validate up front: one malformed request must not take the batch
    // down.
    if (batch[i].model == nullptr) {
      response.error = "null model";
    } else if (!detector_->fitted()) {
      response.error = "detector not fitted";
    } else if (batch[i].model->num_classes() != detector_->source_classes()) {
      response.error = "model class count does not match the detector";
    } else {
      try {
        response.verdict = detector_->inspect(*batch[i].model, salts[i]);
        response.ok = true;
      } catch (const std::exception& e) {
        response.error = e.what();
      }
    }
    response.seconds = watch.seconds();
  }, config_.pool);
  return responses;
}

}  // namespace bprom::serve
