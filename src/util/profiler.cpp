#include "util/profiler.hpp"

#include <algorithm>
#include <bit>

namespace bprom::util {

namespace {

/// Log-linear buckets: values below kSub are exact (bucket = value); above,
/// each power of two [2^e, 2^(e+1)) splits into kSub equal sub-buckets
/// keyed by the kSubBits bits after the leading one.  A sub-bucket is
/// 2^(e-kSubBits) wide and starts at >= 2^e, so its midpoint is within
/// 1/32 of any value in it.  bit_width of a value with bit 63 set is 64;
/// e = 63 is the last power of two, so every uint64 has a bucket.
constexpr std::size_t kSubBits = 4;
constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

std::size_t bucket_of(std::uint64_t value) {
  if (value < kSub) return static_cast<std::size_t>(value);
  const auto e = static_cast<std::size_t>(std::bit_width(value)) - 1;
  const std::size_t shift = e - kSubBits;
  const auto sub = static_cast<std::size_t>((value >> shift) & (kSub - 1));
  return kSub + shift * kSub + sub;
}

/// Representative value of bucket b — the midpoint of the integers it
/// holds.  Clamped by the observed min/max when a percentile is extracted,
/// so tiny sample counts stay sane.
double bucket_mid(std::size_t b) {
  if (b < kSub) return static_cast<double>(b);
  const std::size_t shift = (b - kSub) / kSub;
  const std::uint64_t sub = (b - kSub) % kSub;
  const double lo = static_cast<double>((kSub + sub) << shift);
  const double width = static_cast<double>(std::uint64_t{1} << shift);
  return lo + (width - 1.0) / 2.0;
}

static_assert(kSub + (63 - kSubBits) * kSub + (kSub - 1) + 1 ==
                  Profiler::kBuckets,
              "one bucket per (power of two, sub-bucket) up to 2^64");

}  // namespace

const char* profile_stage_name(ProfileStage stage) {
  switch (stage) {
    case ProfileStage::kResolve:
      return "resolve";
    case ProfileStage::kInspect:
      return "inspect";
    case ProfileStage::kRequest:
      return "request";
    case ProfileStage::kQueueWait:
      return "queue_wait";
    case ProfileStage::kQueueDepth:
      return "queue_depth";
    case ProfileStage::kBatch:
      return "batch";
    case ProfileStage::kStageCount:
      break;
  }
  return "unknown";
}

Profiler::Profiler() = default;

void Profiler::record(ProfileStage stage, std::uint64_t value) {
  MutexLock lock(mu_);
  CumulativeStage& c = stages_[static_cast<std::size_t>(stage)];
  ++c.count;
  c.sum += static_cast<double>(value);
  c.min = std::min(c.min, value);
  c.max = std::max(c.max, value);
  ++c.histogram[bucket_of(value)];
}

ProfilerSnapshot Profiler::snapshot() const {
  MutexLock lock(mu_);
  ProfilerSnapshot out;
  for (std::size_t s = 0; s < kProfileStages; ++s) {
    const CumulativeStage& c = stages_[s];
    ProfileStageStats& stats = out.stages[s];
    stats.count = c.count;
    stats.sum = c.sum;
    if (c.count == 0) continue;
    stats.min = c.min;
    stats.max = c.max;
    const auto percentile = [&](double q) {
      const auto rank = static_cast<std::uint64_t>(
          q * static_cast<double>(c.count - 1));
      std::uint64_t seen = 0;
      for (std::size_t b = 0; b < kBuckets; ++b) {
        seen += c.histogram[b];
        if (seen > rank) {
          const double mid = bucket_mid(b);
          // The histogram only knows the bucket; min/max tighten the edges.
          return std::clamp(mid, static_cast<double>(c.min),
                            static_cast<double>(c.max));
        }
      }
      return static_cast<double>(c.max);
    };
    stats.p50 = percentile(0.50);
    stats.p95 = percentile(0.95);
    stats.p99 = percentile(0.99);
  }
  return out;
}

}  // namespace bprom::util
