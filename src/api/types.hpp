// Value types of the public `bprom::api` façade.
//
// Every struct carries an explicit `struct_version` so the same layouts can
// later be serialized over a wire unchanged: a field is never repurposed,
// only appended behind a version bump.  Models are the one exception to
// wire-readiness — a black box is referenced by a borrowed pointer because
// the whole point of BPROM is that the auditor only ever *queries* it; a
// network front end would substitute a remote-query adapter behind the same
// `nn::BlackBoxModel` interface and leave these structs as they are.
#pragma once

#include <cstdint>
#include <string>

#include "api/status.hpp"
#include "core/bprom.hpp"
#include "nn/blackbox.hpp"
#include "nn/trainer.hpp"

namespace bprom::api {

inline constexpr std::uint32_t kAuditRequestVersion = 1;
inline constexpr std::uint32_t kAuditResponseVersion = 1;
inline constexpr std::uint32_t kFitRequestVersion = 1;
inline constexpr std::uint32_t kDetectorInfoVersion = 1;

/// Sentinel for "no query budget": the audit may spend what it needs.
inline constexpr std::uint64_t kUnlimitedQueries = ~std::uint64_t{0};

/// One suspicious model to audit.
struct AuditRequest {
  std::uint32_t struct_version = kAuditRequestVersion;
  /// Caller-chosen identifier echoed back in the response.
  std::string model_id;
  /// Detector to audit against: a bare name ("marketplace") resolves to the
  /// newest published version; "name@vN" pins an exact version.
  std::string detector;
  /// Borrowed; must outlive the audit call (async included).
  const nn::BlackBoxModel* model = nullptr;
  /// Query budget with exact post-hoc enforcement.  A zero budget fails
  /// with kBudgetExhausted before the model is queried at all.  A nonzero
  /// budget cannot abort an inspection midway (an inspection is
  /// all-or-nothing): the engine runs it, and if the exact spend exceeded
  /// the budget the response is kBudgetExhausted with the spend reported in
  /// verdict.queries — the overspent queries ARE consumed.  Callers
  /// metering a paid model should size budgets from a prior audit's
  /// verdict.queries (inspection cost is deterministic per detector), not
  /// rely on mid-flight cutoff.
  std::uint64_t query_budget = kUnlimitedQueries;
  /// Per-request deadline in milliseconds measured from batch submission
  /// (for audit_async, queue wait counts); 0 disables.  A request whose turn
  /// comes after the deadline fails with kDeadlineExceeded before querying
  /// the model; a request that overruns mid-inspection is cut off at the
  /// next check inside it — before a prompt-ensemble member's optimizer run
  /// or before its observation pass (one optimizer run is all-or-nothing)
  /// — and fails with kDeadlineExceeded reporting the exact queries already
  /// spent in verdict.queries — those queries ARE consumed.
  /// Deadlines are wall-clock and therefore the one knob that can make a
  /// batch thread-count-dependent; leave at 0 when reproducibility matters.
  std::uint64_t deadline_ms = 0;
};

/// Verdict (or typed failure) for one audited model.
struct AuditResponse {
  std::uint32_t struct_version = kAuditResponseVersion;
  std::string model_id;
  /// Fully-qualified detector version that served the request
  /// ("marketplace@v2"); empty when resolution itself failed.
  std::string detector_version;
  /// kOk iff `verdict` is meaningful.
  Status status;
  core::Verdict verdict;
  /// Wall-clock seconds spent on this request (validation + inspection).
  double seconds = 0.0;
};

/// Fit a detector and publish it under `name` (version auto-increments).
struct FitRequest {
  std::uint32_t struct_version = kFitRequestVersion;
  /// Published name; must be non-empty and must not contain '@' or '/'.
  std::string name;
  /// K_S — class count of the suspicious models this detector will audit.
  std::size_t source_classes = 0;
  /// Borrowed datasets; must outlive the fit() call.
  const nn::LabeledData* reserved_clean = nullptr;  // D_S
  const nn::LabeledData* target_train = nullptr;    // D_T train split
  const nn::LabeledData* target_test = nullptr;     // D_T test split
  /// Detector hyper-parameters.
  core::BpromConfig config{};
};

/// Metadata of one published detector version.
struct DetectorInfo {
  std::uint32_t struct_version = kDetectorInfoVersion;
  std::string name;        // base name, no version suffix
  std::uint32_t version = 0;
  std::size_t source_classes = 0;
  std::size_t query_samples = 0;
  /// Filesystem path of the backing `.bprom` container.
  std::string path;

  /// "name@vN" — the fully-qualified form requests may pin.
  [[nodiscard]] std::string versioned_name() const;
};

/// Compose "name@vN" from a base name and version.
std::string versioned_name(const std::string& base, std::uint32_t version);

/// Split "name@vN" into base and version; returns false (outputs untouched)
/// for bare names or malformed suffixes ("name@", "name@v", "name@v0x").
bool parse_versioned_name(const std::string& name, std::string* base,
                          std::uint32_t* version);

}  // namespace bprom::api
