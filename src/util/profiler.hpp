// Always-on serving profiler: atomic per-stage counters (count/avg/min/max)
// plus a log-linear latency histogram per stage, in one buffer that readers
// drain without ever blocking writers.
//
// The discipline is that of a real-time engine's profiler: recording a
// sample is a handful of relaxed atomic RMWs into the live buffer — no
// locks, no allocation, cheap enough to leave on in production.  A reader
// (stats export, bench report) folds the buffer into a cumulative snapshot
// under its own mutex, draining it cell by cell with atomic exchanges.
// Each of a writer's RMWs lands either before or after its cell's
// exchange, so this snapshot or the next one counts it: a sample is never
// lost.  A sample recorded during a fold may have its count in one
// snapshot and its sum in the next — harmless slack for telemetry.
//
// Stages are a fixed enum: the audit path records wall time for resolve /
// inspect / whole-request / queue-wait, and instantaneous values (queue
// depth) through the same record() channel.  Histogram buckets are
// log-linear in the raw unit (nanoseconds for timers): values below 16 are
// exact and every power of two splits into 16 equal sub-buckets, which
// keeps p50/p95/p99 extraction allocation-free and O(kBuckets).
#pragma once

#include <array>
#include <atomic>
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
  kQueueDepth,    ///< async ring occupancy sampled at submit/pickup (items)
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

  /// Record one sample (relaxed atomics into the live buffer).
  void record(ProfileStage stage, std::uint64_t value);

  /// Cumulative statistics since construction: drains the live buffer
  /// into the running totals and returns them.  Readers serialize among
  /// themselves on an internal mutex; writers never touch it.
  ProfilerSnapshot snapshot();

 private:
  struct StageCounters {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> histogram{};
  };

  /// Drain stages_ into cumulative_, leaving every cell at its identity.
  void fold_and_reset() BPROM_REQUIRES(reader_mu_);

  /// Writers land relaxed RMWs here; deliberately NOT guarded by
  /// reader_mu_ — the per-cell atomics are the synchronization, the mutex
  /// only serializes readers.
  std::array<StageCounters, kProfileStages> stages_;

  Mutex reader_mu_;
  struct CumulativeStage {
    std::uint64_t count = 0;
    std::uint64_t min = ~std::uint64_t{0};
    std::uint64_t max = 0;
    double sum = 0.0;
    std::array<std::uint64_t, kBuckets> histogram{};
  };
  std::array<CumulativeStage, kProfileStages> cumulative_
      BPROM_GUARDED_BY(reader_mu_);
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
