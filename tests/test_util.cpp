// Unit tests for bprom::util — RNG determinism and distribution sanity,
// table rendering, thread-pool correctness, env knobs, the bounded queue
// and the profiler.  CI also runs this suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "util/bounded_queue.hpp"
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

TEST(ThreadPool, ParallelForExceptionOnOverridePoolLeavesPoolUsable) {
  ThreadPool pool(2);
  ScopedPoolOverride overridden(pool);
  EXPECT_THROW(parallel_for(16,
                            [](std::size_t i) {
                              if (i % 2 == 0) throw std::runtime_error("even");
                            }),
               std::runtime_error);
  // The pool must survive a throwing loop and keep serving work.
  std::atomic<int> counter{0};
  parallel_for(8, [&](std::size_t) { counter.fetch_add(1); });
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
  ScopedPoolOverride overridden(pool);
  std::atomic<int> counter{0};
  parallel_for(4, [&](std::size_t) {
    parallel_for(4, [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, NestedParallelForOnSmallPoolDoesNotDeadlock) {
  // With two workers the outer loop parks helper tasks in the queue while a
  // worker's nested loop waits on its own helpers — the queue-drain path in
  // parallel_for must keep everything moving.
  ThreadPool pool(2);
  ScopedPoolOverride overridden(pool);
  std::atomic<int> counter{0};
  parallel_for(8, [&](std::size_t) {
    parallel_for(8, [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, OverridesNestAndRestore) {
  ThreadPool* const process_pool = &default_pool();
  ThreadPool one(1);
  ThreadPool two(2);
  {
    ScopedPoolOverride outer(one);
    EXPECT_EQ(&default_pool(), &one);
    {
      ScopedPoolOverride inner(two);
      EXPECT_EQ(&default_pool(), &two);
    }
    EXPECT_EQ(&default_pool(), &one);
  }
  EXPECT_EQ(&default_pool(), process_pool);
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
  {
    ScopedPoolOverride overridden(one);
    parallel_for(32, work(a));
  }
  {
    ScopedPoolOverride overridden(four);
    parallel_for(32, work(b));
  }
  EXPECT_EQ(a, b);
}

TEST(Env, ScaleDefaultsToNormal) {
  // Unless BPROM_SCALE is exported by the environment, default applies.
  if (std::getenv("BPROM_SCALE") == nullptr) {
    EXPECT_EQ(scale(), Scale::kDefault);
  }
}

TEST(Env, EnvSizeFallback) {
  EXPECT_EQ(env_size("BPROM_DEFINITELY_UNSET_VAR", 77u), 77u);
}

TEST(BoundedQueue, FifoOrderSingleThread) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(queue.push(int{i}));
  EXPECT_EQ(queue.size(), 8U);
  for (int i = 0; i < 8; ++i) {
    int out = -1;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(queue.size(), 0U);
}

TEST(BoundedQueue, MoveOnlyElements) {
  BoundedQueue<std::unique_ptr<int>> queue(4);
  ASSERT_TRUE(queue.push(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(queue.pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
  // The destructor frees what is still queued exactly once (ASan would
  // flag a leak or a double free).
  ASSERT_TRUE(queue.push(std::make_unique<int>(8)));
}

TEST(BoundedQueue, CloseStopsPushesButDrainsPops) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.push(int{i}));
  queue.close();
  int refused = 99;
  EXPECT_FALSE(queue.push(std::move(refused)));
  EXPECT_EQ(refused, 99);  // a refused push leaves the value untouched
  // Everything queued before close() is still handed out, in order...
  for (int i = 0; i < 5; ++i) {
    int out = -1;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out, i);
  }
  // ...and only then does pop report closed.
  int out = -1;
  EXPECT_FALSE(queue.pop(out));
}

TEST(BoundedQueue, ShutdownWhileFullWakesBlockedProducer) {
  BoundedQueue<int> queue(2);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));

  // A producer blocked on a full queue must wake and fail once the queue
  // closes — otherwise engine teardown would deadlock behind a stuck
  // audit_async caller.
  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result.store(queue.push(3));
    push_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(push_returned.load());  // genuinely blocked on backpressure
  queue.close();
  producer.join();
  EXPECT_TRUE(push_returned.load());
  EXPECT_FALSE(push_result.load());

  // The two queued items still drain.
  int out = -1;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_TRUE(queue.pop(out));
  EXPECT_FALSE(queue.pop(out));
}

TEST(BoundedQueue, BackpressureUnblocksWhenConsumerFrees) {
  // Capacity is exact: three items fill a capacity-3 queue.
  BoundedQueue<int> queue(3);
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(queue.push(int{i}));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(4));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // the fourth push waits for room
  int out = -1;
  ASSERT_TRUE(queue.pop(out));  // frees a slot; the producer completes
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  for (int want = 2; want <= 4; ++want) {
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out, want);
  }
}

TEST(BoundedQueue, StressDeliversEveryItemExactlyOnce) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  BoundedQueue<std::uint64_t> queue(16);  // small: forces heavy contention

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(p * kPerProducer + i));
      }
    });
  }

  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> popped{0};
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::uint64_t value = 0;
      while (queue.pop(value)) {
        sum.fetch_add(value);
        popped.fetch_add(1);
      }
    });
  }

  for (auto& t : producers) t.join();
  queue.close();  // producers are done: consumers drain and exit
  for (auto& t : consumers) t.join();

  const std::uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);  // 0..n-1 each exactly once
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
  // Long enough that snapshots land inside writers' record() calls: a
  // profiler whose snapshot can fall between one sample's count and sum
  // updates tears hundreds of snapshots per run at this size.
  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kPerThread = 500000;
  constexpr std::uint64_t kConstant = 1000;
  std::atomic<std::size_t> finished{0};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&profiler, &finished] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        profiler.record(ProfileStage::kQueueWait, (i % 7) + 1);
        profiler.record(ProfileStage::kBatch, kConstant);
      }
      finished.fetch_add(1);
    });
  }
  // Snapshots taken while the writers record must neither lose nor tear a
  // sample: on the constant stage, every one must hold whole samples only.
  std::size_t snapshots = 0;
  std::size_t torn = 0;
  while (finished.load() < kThreads) {
    const ProfileStageStats s = profiler.snapshot()[ProfileStage::kBatch];
    ++snapshots;
    const bool whole =
        s.sum == static_cast<double>(kConstant * s.count) &&
        (s.count == 0 || (s.min == kConstant && s.max == kConstant));
    if (!whole) ++torn;
    std::this_thread::yield();
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(torn, 0U) << "of " << snapshots << " mid-stream snapshots";
  const ProfilerSnapshot snap = profiler.snapshot();
  const ProfileStageStats& s = snap[ProfileStage::kQueueWait];
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.min, 1U);
  EXPECT_EQ(s.max, 7U);
  const ProfileStageStats& constant = snap[ProfileStage::kBatch];
  EXPECT_EQ(constant.count, kThreads * kPerThread);
  EXPECT_EQ(constant.sum, static_cast<double>(kConstant * constant.count));
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
