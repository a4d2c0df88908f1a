// Determinism regression for the parallel pipeline: the same root seed
// must yield bit-identical detectors, diagnostics, population scores,
// layer gradients, trained weights, learned prompts, and query counts no
// matter how many pool threads execute the work.  Each case runs under
// ScopedPoolOverride pools of different sizes; the override reaches every
// nested parallel level at once (shadow training, the prompt ensemble,
// optimizer candidate queries, layer forward/backward sharding and the
// GEMMs), so one process compares whole pipelines across thread counts.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "nn/layers.hpp"
#include "nn/trainer.hpp"
#include "util/thread_pool.hpp"
#include "vp/train_blackbox.hpp"

namespace bprom {
namespace {

// The thread counts the CI matrix cares about: serial, small, oversubscribed.
const std::size_t kThreadCounts[] = {1, 2, 8};

core::ExperimentScale micro_scale() {
  core::ExperimentScale s;
  s.suspicious_train = 120;
  s.suspicious_epochs = 2;
  s.population_per_side = 2;
  s.shadows_per_side = 2;
  s.shadow_epochs = 2;
  s.prompt_epochs = 1;
  s.blackbox_evals = 40;
  s.query_samples = 4;
  s.forest_trees = 20;
  return s;
}

TEST(ParallelDeterminism, FitDetectorDiagnosticsMatchAcrossThreadCounts) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 11, 500, 200);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 12, 400, 200);
  const auto scale = micro_scale();

  const auto fit = [&](std::size_t threads) {
    util::ThreadPool pool(threads);
    util::ScopedPoolOverride overridden(pool);
    return core::fit_detector(src, tgt, 0.10, nn::ArchKind::kResNet18Mini, 7,
                              scale);
  };
  auto serial = fit(1);
  auto parallel = fit(4);

  const auto& a = serial.diagnostics();
  const auto& b = parallel.diagnostics();
  EXPECT_EQ(a.meta_labels, b.meta_labels);
  EXPECT_EQ(a.clean_shadow_prompted_accuracy, b.clean_shadow_prompted_accuracy);
  EXPECT_EQ(a.backdoor_shadow_prompted_accuracy,
            b.backdoor_shadow_prompted_accuracy);
  ASSERT_EQ(a.meta_features.size(), b.meta_features.size());
  for (std::size_t i = 0; i < a.meta_features.size(); ++i) {
    EXPECT_EQ(a.meta_features[i], b.meta_features[i]) << "shadow " << i;
  }
}

TEST(ParallelDeterminism, PopulationAndScoresMatchAcrossThreadCounts) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 13, 500, 200);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 14, 400, 200);
  const auto scale = micro_scale();
  const auto atk = attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets);

  auto detector = core::fit_detector(src, tgt, 0.10,
                                     nn::ArchKind::kResNet18Mini, 7, scale);

  // Build and score the population twice, every level of both steps on a
  // 1-thread and then a 4-thread pool.
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  std::vector<core::TrainedSuspicious> pop_serial;
  std::vector<core::TrainedSuspicious> pop_parallel;
  core::PopulationScores scores_serial;
  core::PopulationScores scores_parallel;
  {
    util::ScopedPoolOverride overridden(one);
    pop_serial = core::build_population(src, atk, nn::ArchKind::kResNet18Mini,
                                        2, 40, scale);
    scores_serial = core::score_population(detector, pop_serial);
  }
  {
    util::ScopedPoolOverride overridden(four);
    pop_parallel = core::build_population(src, atk, nn::ArchKind::kResNet18Mini,
                                          2, 40, scale);
    scores_parallel = core::score_population(detector, pop_parallel);
  }
  ASSERT_EQ(pop_serial.size(), pop_parallel.size());
  for (std::size_t i = 0; i < pop_serial.size(); ++i) {
    EXPECT_EQ(pop_serial[i].backdoored, pop_parallel[i].backdoored);
    EXPECT_DOUBLE_EQ(pop_serial[i].clean_accuracy,
                     pop_parallel[i].clean_accuracy);
    EXPECT_DOUBLE_EQ(pop_serial[i].asr, pop_parallel[i].asr);
  }

  EXPECT_EQ(scores_serial.labels, scores_parallel.labels);
  ASSERT_EQ(scores_serial.scores.size(), scores_parallel.scores.size());
  for (std::size_t i = 0; i < scores_serial.scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(scores_serial.scores[i], scores_parallel.scores[i]);
  }
}

// Gradients of every sharded backward pass must be bit-identical for any
// thread count.  Sizes are chosen to clear the layers.cpp op-count gate so
// the parallel paths (per-shard dw/db partials for Linear/Conv2d,
// channel-owned accumulators for depthwise/batchnorm) actually execute.
TEST(ParallelDeterminism, BackwardGradientsMatchAcrossThreadCounts) {
  struct GradRun {
    std::vector<std::vector<float>> grads;  // per parameter, flattened
    std::vector<float> dx;
  };

  const auto run_layer = [](auto make_layer, const std::vector<std::size_t>&
                                                 in_shape) {
    std::vector<GradRun> runs;
    for (const std::size_t threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      util::ScopedPoolOverride overridden(pool);
      util::Rng wrng(11);
      auto layer = make_layer(wrng);
      util::Rng xrng(12);
      nn::Tensor x = nn::Tensor::randn(in_shape, xrng);
      nn::Tensor y = layer->forward(x, /*train=*/true);
      util::Rng grng(13);
      nn::Tensor g = nn::Tensor::randn(y.shape(), grng);
      nn::Tensor dx = layer->backward(g);
      GradRun run;
      for (nn::Parameter* p : layer->parameters()) {
        run.grads.push_back(p->grad.vec());
      }
      run.dx = dx.vec();
      runs.push_back(std::move(run));
    }
    for (std::size_t t = 1; t < runs.size(); ++t) {
      ASSERT_EQ(runs[0].grads.size(), runs[t].grads.size());
      for (std::size_t p = 0; p < runs[0].grads.size(); ++p) {
        EXPECT_EQ(runs[0].grads[p], runs[t].grads[p])
            << "param " << p << " at " << kThreadCounts[t] << " threads";
      }
      EXPECT_EQ(runs[0].dx, runs[t].dx)
          << "dx at " << kThreadCounts[t] << " threads";
    }
  };

  run_layer(
      [](util::Rng& rng) { return std::make_unique<nn::Linear>(256, 256, rng); },
      {64, 256});
  run_layer(
      [](util::Rng& rng) {
        return std::make_unique<nn::Conv2d>(8, 16, 3, 1, 1, rng);
      },
      {32, 8, 16, 16});
  run_layer(
      [](util::Rng& rng) {
        return std::make_unique<nn::DepthwiseConv2d>(16, 3, 1, 1, rng);
      },
      {64, 16, 16, 16});
  run_layer(
      [](util::Rng&) { return std::make_unique<nn::BatchNorm2d>(32); },
      {64, 32, 32, 32});
}

// End-to-end: a full training run (forward + backward + SGD) must produce
// bit-identical weights for any pool size.
TEST(ParallelDeterminism, TrainedWeightsMatchAcrossThreadCounts) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 21, 300, 100);
  std::vector<std::vector<float>> blobs;
  for (const std::size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    util::ScopedPoolOverride overridden(pool);
    util::Rng rng(31);
    auto model = nn::make_model(nn::ArchKind::kResNet18Mini,
                                src.profile.shape, src.profile.classes, rng);
    nn::TrainConfig tc;
    tc.epochs = 2;
    tc.seed = 77;
    nn::train_classifier(*model, src.train, tc);
    blobs.push_back(model->save_parameters());
  }
  for (std::size_t t = 1; t < blobs.size(); ++t) {
    EXPECT_EQ(blobs[0], blobs[t])
        << "weights diverge at " << kThreadCounts[t] << " threads";
  }
}

// Black-box prompt learning queries a CMA-ES generation's candidates (and
// SPSA's pairs) concurrently on the one box: theta, loss, and the exact
// query count must not depend on the thread count, and every query must
// reach the caller's box.
TEST(ParallelDeterminism, BlackBoxPromptMatchesAcrossThreadCounts) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 22, 300, 100);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 23, 200, 100);
  util::Rng mrng(41);
  auto model = nn::make_model(nn::ArchKind::kResNet18Mini, src.profile.shape,
                              src.profile.classes, mrng);

  for (const auto optimizer :
       {vp::BlackBoxOptimizer::kCmaEs, vp::BlackBoxOptimizer::kSpsa}) {
    std::vector<vp::BlackBoxPromptResult> results;
    for (const std::size_t threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      util::ScopedPoolOverride overridden(pool);
      nn::BlackBoxAdapter box(*model);
      vp::BlackBoxPromptConfig cfg;
      cfg.optimizer = optimizer;
      cfg.eval_samples = 16;
      cfg.max_evaluations = 60;
      cfg.seed = 5;
      results.push_back(vp::learn_prompt_blackbox(box, tgt.train, cfg));
      EXPECT_EQ(box.query_count(), results.back().queries)
          << threads << " threads";
    }
    for (std::size_t t = 1; t < results.size(); ++t) {
      EXPECT_EQ(results[0].prompt.theta(), results[t].prompt.theta())
          << "theta diverges at " << kThreadCounts[t] << " threads";
      EXPECT_EQ(results[0].final_loss, results[t].final_loss);
      EXPECT_EQ(results[0].queries, results[t].queries)
          << "query accounting diverges at " << kThreadCounts[t]
          << " threads";
    }
    EXPECT_GT(results[0].queries, 0u);
  }
}

}  // namespace
}  // namespace bprom
