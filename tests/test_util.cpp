// Unit tests for bprom::util — RNG determinism and distribution sanity,
// table rendering, thread-pool correctness, env knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "util/env.hpp"
#include "util/log.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace bprom::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u64() == b.next_u64();
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(3);
  const auto perm = rng.permutation(100);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  const auto sample = rng.sample_without_replacement(50, 20);
  std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 20u);
  for (auto v : sample) EXPECT_LT(v, 50u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(9);
  Rng child = a.split(1);
  Rng a2(9);
  Rng child2 = a2.split(1);
  EXPECT_EQ(child.next_u64(), child2.next_u64());
  // Different salt gives a different stream.
  Rng a3(9);
  Rng other = a3.split(2);
  EXPECT_NE(child.next_u64(), other.next_u64());
}

TEST(Rng, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Table, RendersAlignedColumns) {
  TablePrinter table({"name", "value"});
  table.add_row({"alpha", cell(1.5, 2)});
  table.add_row({"bb", cell(std::size_t{42})});
  const std::string s = table.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  // Header separator lines present.
  EXPECT_NE(s.find("+--"), std::string::npos);
}

TEST(Table, CellPrecision) {
  EXPECT_EQ(cell(0.12345, 3), "0.123");
  EXPECT_EQ(cell(1.0, 1), "1.0");
  EXPECT_EQ(cell(7), "7");
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  EXPECT_THROW(
      parallel_for(8,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ThreadPool, ZeroThreadConstructionFallsBackToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> counter{0};
  pool.submit([&] { counter.fetch_add(1); }).get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ParallelForExceptionOnExplicitPoolLeavesPoolUsable) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(
                   16,
                   [](std::size_t i) {
                     if (i % 2 == 0) throw std::runtime_error("even");
                   },
                   &pool),
               std::runtime_error);
  // The pool must survive a throwing loop and keep serving work.
  std::atomic<int> counter{0};
  parallel_for(8, [&](std::size_t) { counter.fetch_add(1); }, &pool);
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, NestedSubmitFromWorker) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] {
        auto inner = pool.submit([&] { counter.fetch_add(1); });
        inner.get();
        counter.fetch_add(1);
      })
      .get();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, NestedParallelForOnSingleThreadPoolDoesNotDeadlock) {
  // Regression: a worker running parallel_for used to block forever waiting
  // for helper tasks no free worker could ever pick up.  The caller now
  // participates and drains the queue, so this completes even with one
  // worker thread.
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  parallel_for(
      4,
      [&](std::size_t) {
        parallel_for(4, [&](std::size_t) { counter.fetch_add(1); }, &pool);
      },
      &pool);
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, NestedParallelForOnSmallPoolDoesNotDeadlock) {
  // With two workers the outer loop parks helper tasks in the queue while a
  // worker's nested loop waits on its own helpers — the queue-drain path in
  // parallel_for must keep everything moving.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  parallel_for(
      8,
      [&](std::size_t) {
        parallel_for(8, [&](std::size_t) { counter.fetch_add(1); }, &pool);
      },
      &pool);
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, ParallelForResultsIndependentOfThreadCount) {
  ThreadPool one(1);
  ThreadPool four(4);
  std::vector<std::uint64_t> a(32), b(32);
  const auto work = [](std::vector<std::uint64_t>& out) {
    return [&out](std::size_t i) {
      Rng rng(1000 + i);
      out[i] = rng.next_u64();
    };
  };
  parallel_for(32, work(a), &one);
  parallel_for(32, work(b), &four);
  EXPECT_EQ(a, b);
}

TEST(Env, ScaleDefaultsToNormal) {
  // Unless BPROM_SCALE is exported by the environment, default applies.
  if (std::getenv("BPROM_SCALE") == nullptr) {
    EXPECT_EQ(scale(), Scale::kDefault);
    EXPECT_EQ(by_scale(1, 2, 3), 2);
  }
}

TEST(Env, EnvSizeFallback) {
  EXPECT_EQ(env_size("BPROM_DEFINITELY_UNSET_VAR", 77u), 77u);
}

TEST(Profiler, CountMinMaxAvgExact) {
  Profiler profiler;
  profiler.record(ProfileStage::kResolve, 100);
  profiler.record(ProfileStage::kResolve, 300);
  profiler.record(ProfileStage::kResolve, 200);
  const ProfilerSnapshot snap = profiler.snapshot();
  const ProfileStageStats& s = snap[ProfileStage::kResolve];
  EXPECT_EQ(s.count, 3U);
  EXPECT_EQ(s.min, 100U);
  EXPECT_EQ(s.max, 300U);
  EXPECT_DOUBLE_EQ(s.avg(), 200.0);
  // Untouched stages stay zero.
  EXPECT_EQ(snap[ProfileStage::kInspect].count, 0U);
  EXPECT_EQ(snap[ProfileStage::kInspect].min, 0U);
}

TEST(Profiler, SnapshotsAreCumulative) {
  Profiler profiler;
  profiler.record(ProfileStage::kRequest, 10);
  EXPECT_EQ(profiler.snapshot()[ProfileStage::kRequest].count, 1U);
  profiler.record(ProfileStage::kRequest, 20);
  // The epoch flip must fold, not reset: totals only grow.
  const ProfilerSnapshot snap = profiler.snapshot();
  const ProfileStageStats& s = snap[ProfileStage::kRequest];
  EXPECT_EQ(s.count, 2U);
  EXPECT_EQ(s.min, 10U);
  EXPECT_EQ(s.max, 20U);
}

TEST(Profiler, PercentilesLandInTheRightBucket) {
  Profiler profiler;
  // 95 fast samples, 5 slow outliers: p50/p95 must stay with the fast
  // mass (nearest-rank index 94 of 100 is still fast), p99 must reach the
  // outliers' bucket (log-linear buckets: within 1/32 of the sample, and
  // always clamped inside [min, max]).
  for (int i = 0; i < 95; ++i) profiler.record(ProfileStage::kInspect, 1000);
  for (int i = 0; i < 5; ++i) {
    profiler.record(ProfileStage::kInspect, 1000000);
  }
  const ProfilerSnapshot snap = profiler.snapshot();
  const ProfileStageStats& s = snap[ProfileStage::kInspect];
  EXPECT_EQ(s.count, 100U);
  EXPECT_GE(s.p50, 512.0);
  EXPECT_LE(s.p50, 2048.0);
  EXPECT_LE(s.p95, 2048.0);
  EXPECT_GE(s.p99, 500000.0);
  EXPECT_LE(s.p99, 1000000.0);
  EXPECT_GE(s.p95, s.p50);
  EXPECT_GE(s.p99, s.p95);
}

TEST(Profiler, PercentilesWithinOneSixteenthOfTheExactSample) {
  // Log-linear buckets: each reported percentile must lie within 1/16 of
  // the exact sorted sample at the same rank, for smooth, heavy-tailed and
  // bimodal latency shapes alike.
  struct Shape {
    const char* name;
    std::uint64_t (*draw)(Rng&);
  };
  const Shape shapes[] = {
      {"uniform",
       [](Rng& rng) {
         return static_cast<std::uint64_t>(rng.uniform(0.0, 1e6));
       }},
      {"log-uniform 1e3..1e7",
       [](Rng& rng) {
         return static_cast<std::uint64_t>(
             std::pow(10.0, rng.uniform(3.0, 7.0)));
       }},
      {"bimodal",
       [](Rng& rng) {
         const double v = rng.bernoulli(0.8) ? rng.normal(2e4, 2e3)
                                             : rng.normal(5e6, 5e5);
         return static_cast<std::uint64_t>(std::max(v, 1.0));
       }},
  };
  std::uint64_t seed = 101;
  for (const Shape& shape : shapes) {
    Rng rng(seed++);
    Profiler profiler;
    std::vector<std::uint64_t> samples(10000);
    for (auto& v : samples) {
      v = shape.draw(rng);
      profiler.record(ProfileStage::kRequest, v);
    }
    std::sort(samples.begin(), samples.end());
    const ProfileStageStats s = profiler.snapshot()[ProfileStage::kRequest];
    for (const auto& [q, got] : {std::pair{0.50, s.p50},
                                 std::pair{0.95, s.p95},
                                 std::pair{0.99, s.p99}}) {
      const auto rank = static_cast<std::size_t>(
          q * static_cast<double>(samples.size() - 1));
      const double exact = static_cast<double>(samples[rank]);
      EXPECT_LE(std::abs(got - exact), exact / 16.0)
          << shape.name << " q=" << q << " exact=" << exact
          << " reported=" << got;
    }
  }
}

TEST(Profiler, ConcurrentWritersLoseNoSamples) {
  Profiler profiler;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 50000;
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&profiler] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        profiler.record(ProfileStage::kQueueWait, (i % 7) + 1);
      }
    });
  }
  // A reader flipping epochs mid-stream must not lose or tear samples.
  for (int i = 0; i < 50; ++i) {
    (void)profiler.snapshot();
    std::this_thread::yield();
  }
  for (auto& w : writers) w.join();
  const ProfilerSnapshot snap = profiler.snapshot();
  const ProfileStageStats& s = snap[ProfileStage::kQueueWait];
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.min, 1U);
  EXPECT_EQ(s.max, 7U);
}

TEST(Profiler, ScopedProfileRecordsAndNullDisables) {
  Profiler profiler;
  { ScopedProfile timer(&profiler, ProfileStage::kBatch); }
  { ScopedProfile disabled(nullptr, ProfileStage::kBatch); }
  const ProfilerSnapshot snap = profiler.snapshot();
  const ProfileStageStats& s = snap[ProfileStage::kBatch];
  EXPECT_EQ(s.count, 1U);  // the null-profiler scope recorded nothing
}

TEST(Profiler, HugeValuesClampIntoTheLastBucket) {
  Profiler profiler;
  // Regression: values with the top bit set have bit_width 64, which once
  // indexed one past the end of the histogram.  They must land in the last
  // bucket and keep percentiles inside [min, max].
  for (int i = 0; i < 10; ++i) {
    profiler.record(ProfileStage::kInspect, ~std::uint64_t{0});
  }
  profiler.record(ProfileStage::kInspect, 1);
  const ProfilerSnapshot snap = profiler.snapshot();
  const ProfileStageStats& s = snap[ProfileStage::kInspect];
  EXPECT_EQ(s.count, 11U);
  EXPECT_EQ(s.min, 1U);
  EXPECT_EQ(s.max, ~std::uint64_t{0});
  EXPECT_GE(s.p50, 1.0);
  EXPECT_LE(s.p99, static_cast<double>(s.max));
}

TEST(Log, SinkCaptureAndLevelFilter) {
  std::ostringstream captured;
  set_log_sink(&captured);
  const LogLevel before = log_level();
  set_log_level(LogLevel::kWarn);
  log_info() << "below the filter";
  log_warn() << "kept " << 42;
  set_log_level(before);
  set_log_sink(nullptr);
  EXPECT_EQ(captured.str().find("below the filter"), std::string::npos);
  EXPECT_NE(captured.str().find("kept 42"), std::string::npos);
}

}  // namespace
}  // namespace bprom::util
