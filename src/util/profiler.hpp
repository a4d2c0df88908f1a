// Always-on serving profiler: per-stage counters (count/avg/min/max) plus a
// log-linear latency histogram per stage, in one buffer guarded by one
// mutex.  record() and snapshot() take the same lock, so a snapshot is
// exact: every sample recorded before it is in it whole, and no part of a
// later one is.  The audit path records a handful of samples per request
// against hundreds of milliseconds of inspection, so the lock is cheap
// enough to leave on in production.
//
// Stages are a fixed enum: the audit path records wall time for resolve /
// inspect / whole-request / queue-wait, and instantaneous values (queue
// depth) through the same record() channel.  Histogram buckets are
// log-linear in the raw unit (nanoseconds for timers): values below 16 are
// exact and every power of two splits into 16 equal sub-buckets, which
// keeps p50/p95/p99 extraction allocation-free and O(kBuckets).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "util/thread_annotations.hpp"

namespace bprom::util {

/// Instrumented serving stages.  Extend here; names in profiler.cpp.
enum class ProfileStage : std::size_t {
  kResolve = 0,   ///< detector reference -> live handle (ns)
  kInspect,       ///< BpromDetector::inspect wall time (ns)
  kRequest,       ///< whole per-request audit wall time (ns)
  kQueueWait,     ///< async batch: submit -> worker pickup (ns)
  kQueueDepth,    ///< async queue occupancy sampled at pickup (items)
  kBatch,         ///< whole async batch wall time, pickup -> done (ns)
  kStageCount,
};

inline constexpr std::size_t kProfileStages =
    static_cast<std::size_t>(ProfileStage::kStageCount);

/// Human-readable stage name ("resolve", "inspect", ...).
const char* profile_stage_name(ProfileStage stage);

/// Folded statistics of one stage.  Raw units: nanoseconds for timer
/// stages, items for kQueueDepth.  Percentiles are the midpoint of the
/// log-linear bucket holding the sample at that rank, clamped to
/// [min, max]: exact below 16 and within 1/32 of the sample above.
struct ProfileStageStats {
  std::uint64_t count = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  [[nodiscard]] double avg() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

struct ProfilerSnapshot {
  std::array<ProfileStageStats, kProfileStages> stages;

  [[nodiscard]] const ProfileStageStats& operator[](ProfileStage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
};

class Profiler {
 public:
  /// Histogram size: 16 exact buckets below 16, then 16 sub-buckets for
  /// each power of two from 2^4 to 2^63.
  static constexpr std::size_t kBuckets = 16 + 60 * 16;

  Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Record one sample.
  void record(ProfileStage stage, std::uint64_t value);

  /// Cumulative statistics since construction.
  ProfilerSnapshot snapshot() const;

 private:
  struct CumulativeStage {
    std::uint64_t count = 0;
    std::uint64_t min = ~std::uint64_t{0};
    std::uint64_t max = 0;
    double sum = 0.0;
    std::array<std::uint64_t, kBuckets> histogram{};
  };

  mutable Mutex mu_;
  std::array<CumulativeStage, kProfileStages> stages_ BPROM_GUARDED_BY(mu_);
};

/// RAII wall-clock sample: records the scope's duration in nanoseconds.
/// A null profiler disables the timer (zero-cost guard for optional
/// instrumentation).
class ScopedProfile {
 public:
  ScopedProfile(Profiler* profiler, ProfileStage stage)
      : profiler_(profiler), stage_(stage) {
    if (profiler_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ~ScopedProfile() {
    if (profiler_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    profiler_->record(stage_, static_cast<std::uint64_t>(ns));
  }

  ScopedProfile(const ScopedProfile&) = delete;
  ScopedProfile& operator=(const ScopedProfile&) = delete;

 private:
  Profiler* profiler_;
  ProfileStage stage_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bprom::util
