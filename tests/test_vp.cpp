// Visual prompting: prompt geometry, gradients, label mapping, training.
#include <gtest/gtest.h>
#include <cmath>
#include <stdexcept>
#include "data/generator.hpp"
#include "data/ops.hpp"
#include "nn/arch.hpp"
#include "nn/loss.hpp"
#include "vp/train_blackbox.hpp"
#include "vp/train_whitebox.hpp"
namespace bprom::vp {
namespace {

TEST(Prompt, BorderModeParamCount) {
  VisualPrompt prompt(nn::ImageShape{3, 16, 16}, PromptMode::kBorder);
  // 16x16 minus the 8x8 center, times 3 channels.
  EXPECT_EQ(prompt.num_params(), 3u * (256 - 64));
}

TEST(Prompt, AdditiveModeParamCount) {
  VisualPrompt prompt(nn::ImageShape{3, 16, 16}, PromptMode::kAdditive);
  EXPECT_EQ(prompt.num_params(), 3u * 256);
}

TEST(Prompt, CoarseModeParamCount) {
  VisualPrompt prompt(nn::ImageShape{3, 16, 16}, PromptMode::kAdditiveCoarse);
  EXPECT_EQ(prompt.num_params(), 3u * 16);
}

TEST(Prompt, ZeroThetaPreservesContentCenter) {
  VisualPrompt prompt(nn::ImageShape{3, 16, 16}, PromptMode::kAdditiveCoarse);
  util::Rng rng(1);
  nn::Tensor target = nn::Tensor::randn({2, 3, 16, 16}, rng, 0.2F);
  for (auto& v : target.vec()) v = std::clamp(v + 0.5F, 0.0F, 1.0F);
  nn::Tensor canvas = prompt.apply(target);
  EXPECT_EQ(canvas.dim(2), 16u);
  // Center 8x8 equals the 2x-downscaled target when theta == 0.
  auto small = data::downscale2x(target);
  for (std::size_t y = 0; y < 8; ++y) {
    for (std::size_t x = 0; x < 8; ++x) {
      EXPECT_NEAR(canvas.at4(0, 0, 4 + y, 4 + x), small.at4(0, 0, y, x), 1e-6);
    }
  }
}

TEST(Prompt, OutputStaysInUnitRange) {
  for (auto mode : {PromptMode::kBorder, PromptMode::kAdditive,
                    PromptMode::kAdditiveCoarse}) {
    VisualPrompt prompt(nn::ImageShape{3, 16, 16}, mode);
    util::Rng rng(2);
    std::vector<float> theta(prompt.num_params());
    for (auto& t : theta) t = static_cast<float>(rng.normal(0.0, 3.0));
    prompt.set_theta(theta);
    nn::Tensor target({1, 3, 16, 16}, 0.5F);
    nn::Tensor canvas = prompt.apply(target);
    for (float v : canvas.vec()) {
      EXPECT_GE(v, 0.0F);
      EXPECT_LE(v, 1.0F);
    }
  }
}

TEST(Prompt, RejectsTargetsTheCanvasCannotEmbed) {
  // The checks hold in every build type: they throw, they do not assert.
  VisualPrompt prompt(nn::ImageShape{3, 16, 16}, PromptMode::kAdditiveCoarse);
  EXPECT_EQ(prompt.apply(nn::Tensor({1, 3, 8, 8}, 0.5F)).dim(2), 16u);
  EXPECT_THROW((void)prompt.apply(nn::Tensor({1, 1, 16, 16}, 0.5F)),
               std::invalid_argument);
  EXPECT_THROW((void)prompt.apply(nn::Tensor({1, 3, 12, 12}, 0.5F)),
               std::invalid_argument);
  EXPECT_THROW((void)prompt.apply(nn::Tensor({1, 3, 64, 64}, 0.5F)),
               std::invalid_argument);
  EXPECT_THROW((void)prompt.apply(nn::Tensor({3, 16, 16}, 0.5F)),
               std::invalid_argument);
}

TEST(PromptedModel, RejectsACanvasThatIsNotTheModelInput) {
  util::Rng rng(8);
  auto model =
      nn::make_model(nn::ArchKind::kMlp, nn::ImageShape{3, 16, 16}, 10, rng);
  nn::BlackBoxAdapter box(*model);
  EXPECT_THROW(PromptedModel(box, VisualPrompt(nn::ImageShape{3, 32, 32})),
               std::invalid_argument);
}

TEST(Prompt, GradientMatchesFiniteDifference) {
  // Scalar objective: sum of canvas pixels.
  for (auto mode : {PromptMode::kBorder, PromptMode::kAdditiveCoarse}) {
    VisualPrompt prompt(nn::ImageShape{3, 8, 8}, mode);
    util::Rng rng(3);
    std::vector<float> theta(prompt.num_params());
    for (auto& t : theta) t = static_cast<float>(rng.normal(0.0, 0.3));
    prompt.set_theta(theta);
    nn::Tensor target({1, 3, 8, 8}, 0.5F);

    auto objective = [&](const std::vector<float>& th) {
      VisualPrompt p(nn::ImageShape{3, 8, 8}, mode);
      p.set_theta(th);
      nn::Tensor canvas = p.apply(target);
      double acc = 0;
      for (float v : canvas.vec()) acc += v;
      return acc;
    };

    nn::Tensor dcanvas({1, 3, 8, 8}, 1.0F);
    auto grad = prompt.gradient(dcanvas);
    const float eps = 1e-3F;
    for (std::size_t i = 0; i < std::min<std::size_t>(grad.size(), 5); ++i) {
      auto tp = theta;
      tp[i] += eps;
      auto tm = theta;
      tm[i] -= eps;
      const double numeric = (objective(tp) - objective(tm)) / (2.0 * eps);
      EXPECT_NEAR(grad[i], numeric, 5e-2) << "mode/i " << (int)mode << "/" << i;
    }
  }
}

TEST(LabelMapping, GreedyAssignmentIsOneToOne) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 1, 64, 16);
  util::Rng rng(4);
  auto model = nn::make_model(nn::ArchKind::kMlp, src.profile.shape, 10, rng);
  nn::BlackBoxAdapter box(*model);
  PromptedModel pm(box, VisualPrompt(src.profile.shape));
  auto mapping = fit_frequency_label_mapping(
      pm.predict_proba(src.train.images), src.train.labels, 10);
  std::vector<bool> used(10, false);
  for (int s : mapping) {
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 10);
    EXPECT_FALSE(used[static_cast<std::size_t>(s)]);
    used[static_cast<std::size_t>(s)] = true;
  }
}

TEST(WhiteBoxTraining, ReducesPromptLoss) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 2, 300, 50);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 3, 200, 50);
  util::Rng rng(5);
  auto model = nn::make_model(nn::ArchKind::kResNet18Mini, src.profile.shape, 10, rng);
  nn::TrainConfig tc;
  tc.epochs = 4;
  nn::train_classifier(*model, src.train, tc);

  auto loss_of = [&](const VisualPrompt& prompt) {
    nn::Tensor logits = model->logits(prompt.apply(tgt.train.images), false);
    return nn::cross_entropy(logits, tgt.train.labels).loss;
  };
  const double before = loss_of(VisualPrompt(src.profile.shape,
                                             PromptMode::kAdditiveCoarse));
  WhiteBoxPromptConfig pc;
  pc.epochs = 4;
  auto prompt = learn_prompt_whitebox(*model, tgt.train, pc);
  EXPECT_LT(loss_of(prompt), before);
}

TEST(BlackBoxTraining, ReducesPromptLossWithinBudget) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 4, 300, 50);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 5, 128, 50);
  util::Rng rng(6);
  auto model = nn::make_model(nn::ArchKind::kResNet18Mini, src.profile.shape, 10, rng);
  nn::TrainConfig tc;
  tc.epochs = 4;
  nn::train_classifier(*model, src.train, tc);
  nn::BlackBoxAdapter box(*model);

  BlackBoxPromptConfig bc;
  bc.max_evaluations = 150;
  auto result = learn_prompt_blackbox(box, tgt.train, bc);
  // Queries were spent and a finite loss reached.
  EXPECT_GT(result.queries, 100u);
  EXPECT_LT(result.final_loss, std::log(10.0) + 0.5);
}

TEST(PromptedModel, AccuracyUsesMapping) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 7, 200, 100);
  util::Rng rng(8);
  auto model = nn::make_model(nn::ArchKind::kMlp, src.profile.shape, 10, rng);
  nn::BlackBoxAdapter box(*model);
  PromptedModel pm(box, VisualPrompt(src.profile.shape));
  const double id_acc = pm.accuracy(src.test);
  pm.set_label_mapping(fit_frequency_label_mapping(
      pm.predict_proba(src.train.images), src.train.labels, 10));
  const double mapped_acc = pm.accuracy(src.test);
  // Frequency mapping can only improve (or match) an untrained model's
  // identity accuracy in expectation; both must be valid probabilities.
  EXPECT_GE(mapped_acc, 0.0);
  EXPECT_LE(mapped_acc, 1.0);
  EXPECT_GE(id_acc, 0.0);
}

}  // namespace
}  // namespace bprom::vp
