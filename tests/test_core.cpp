// End-to-end BPROM pipeline tests (smoke scale).
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/experiment.hpp"
namespace bprom {
namespace {

core::ExperimentScale tiny_scale() {
  core::ExperimentScale s;
  s.suspicious_train = 200;
  s.suspicious_epochs = 4;
  s.population_per_side = 2;
  s.shadows_per_side = 2;
  s.shadow_epochs = 4;
  s.prompt_epochs = 2;
  s.blackbox_evals = 80;
  s.query_samples = 8;
  s.forest_trees = 40;
  return s;
}

TEST(Bprom, FitAndInspectSmoke) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 1, 1000, 400);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 2, 600, 300);
  auto scale = tiny_scale();
  auto detector = core::fit_detector(src, tgt, 0.10,
                                     nn::ArchKind::kResNet18Mini, 7, scale);
  EXPECT_TRUE(detector.fitted());
  const auto& diag = detector.diagnostics();
  EXPECT_EQ(diag.clean_shadow_prompted_accuracy.size(), 2u);
  EXPECT_EQ(diag.backdoor_shadow_prompted_accuracy.size(), 2u);
  EXPECT_EQ(diag.meta_features.size(), 4u);

  auto cln = core::train_clean_model(src, nn::ArchKind::kResNet18Mini, 91, scale);
  nn::BlackBoxAdapter box(*cln.model);
  auto verdict = detector.inspect(box);
  EXPECT_GE(verdict.score, 0.0);
  EXPECT_LE(verdict.score, 1.0);
  EXPECT_GE(verdict.prompted_accuracy, 0.0);
  EXPECT_LE(verdict.prompted_accuracy, 1.0);
  EXPECT_GT(verdict.queries, 0u);
}

TEST(Bprom, BlackBoxDisciplineQueriesCounted) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 3, 600, 300);
  auto scale = tiny_scale();
  auto cln = core::train_clean_model(src, nn::ArchKind::kResNet18Mini, 92, scale);
  nn::BlackBoxAdapter box(*cln.model);
  EXPECT_EQ(box.query_count(), 0u);
  nn::Tensor batch({4, 3, 16, 16}, 0.5F);
  box.predict_proba(batch);
  EXPECT_EQ(box.query_count(), 4u);
}

TEST(Bprom, PopulationScoringShapes) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 4, 1000, 400);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 5, 600, 300);
  auto scale = tiny_scale();
  auto detector = core::fit_detector(src, tgt, 0.10,
                                     nn::ArchKind::kResNet18Mini, 7, scale);
  auto atk = attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets);
  auto pop = core::build_population(src, atk, nn::ArchKind::kResNet18Mini,
                                    2, 40, scale);
  EXPECT_EQ(pop.size(), 4u);
  auto scores = core::score_population(detector, pop);
  EXPECT_EQ(scores.scores.size(), 4u);
  const double auroc = scores.auroc();
  EXPECT_GE(auroc, 0.0);
  EXPECT_LE(auroc, 1.0);
}

TEST(Bprom, ExperimentScaleRespondsToEnv) {
  auto s = core::ExperimentScale::current();
  EXPECT_GT(s.suspicious_train, 0u);
  EXPECT_GT(s.shadows_per_side, 0u);
}

TEST(Bprom, TrainedBackdooredModelHasTriggers) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 6, 1500, 500);
  core::ExperimentScale scale = tiny_scale();
  scale.suspicious_train = 400;
  scale.suspicious_epochs = 6;
  auto atk = attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets, 1);
  auto m = core::train_backdoored_model(src, atk, nn::ArchKind::kResNet18Mini,
                                        93, scale);
  EXPECT_GT(m.asr, 0.7);
  EXPECT_GT(m.clean_accuracy, 0.75);
}

/// The cheapest detector fit() accepts: one MLP shadow per side, a single
/// short black-box prompt, a handful of trees.
const core::BpromDetector& micro_detector() {
  static const core::BpromDetector detector = [] {
    core::BpromConfig config;
    config.shadow_arch = nn::ArchKind::kMlp;
    config.clean_shadows = 1;
    config.backdoor_shadows = 1;
    config.shadow_train.epochs = 1;
    config.prompt_blackbox.max_evaluations = 8;
    config.prompt_ensemble = 1;
    config.query_samples = 2;
    config.forest.trees = 4;
    auto src = data::make_dataset(data::DatasetKind::kCifar10, 8, 96, 32);
    auto tgt = data::make_dataset(data::DatasetKind::kStl10, 9, 96, 32);
    core::BpromDetector fitted(config);
    fitted.fit(src.train, 10, tgt.train, tgt.test);
    return fitted;
  }();
  return detector;
}

std::unique_ptr<nn::Model> mlp_with_classes(std::size_t classes) {
  util::Rng rng(3);
  return nn::make_model(nn::ArchKind::kMlp,
                        data::profile(data::DatasetKind::kCifar10).shape,
                        classes, rng);
}

// The contracts below hold in every build type: they throw, they do not
// assert.
TEST(BpromContracts, InspectRejectsUnfittedDetector) {
  auto model = mlp_with_classes(10);
  nn::BlackBoxAdapter box(*model);
  const core::BpromDetector detector;
  try {
    (void)detector.inspect(box);
    FAIL() << "inspect() accepted an unfitted detector";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), detector.inspectable(&box).message());
  }
  EXPECT_EQ(box.query_count(), 0u);
}

TEST(BpromContracts, InspectRejectsClassCountMismatch) {
  const auto& detector = micro_detector();
  ASSERT_TRUE(detector.fitted());
  auto model = mlp_with_classes(5);
  nn::BlackBoxAdapter box(*model);
  try {
    (void)detector.inspect(box);
    FAIL() << "inspect() accepted a 5-class model on a 10-class detector";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), detector.inspectable(&box).message());
  }
  EXPECT_EQ(box.query_count(), 0u);
}

TEST(BpromContracts, InspectRejectsModelsThePromptCanvasCannotHold) {
  const auto& detector = micro_detector();
  // D_T is 3x16x16: a 3x24x24 canvas has a 12x12 inner half, which is
  // neither D_T as stored nor its 2x downscale.
  util::Rng rng(3);
  auto model = nn::make_model(nn::ArchKind::kMlp, nn::ImageShape{3, 24, 24},
                              10, rng);
  nn::BlackBoxAdapter box(*model);
  try {
    (void)detector.inspect(box);
    FAIL() << "inspect() accepted a 3x24x24 model for 3x16x16 D_T images";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), detector.inspectable(&box).message());
  }
  EXPECT_EQ(box.query_count(), 0u);
}

TEST(BpromContracts, FitRejectsTargetImagesTheCanvasCannotHold) {
  core::BpromDetector detector = micro_detector();
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 14, 64, 16);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 15, 64, 16);
  // One-channel D_T^train against a three-channel source canvas.
  tgt.train.images = nn::Tensor({tgt.train.size(), 1, 16, 16}, 0.5F);
  EXPECT_THROW(detector.fit(src.train, 10, tgt.train, tgt.test),
               std::invalid_argument);
  EXPECT_EQ(detector.source_classes(), 10u);
}

TEST(BpromContracts, FitRejectsNegativeLabelWithoutChangingState) {
  core::BpromDetector detector = micro_detector();
  const auto before = detector.diagnostics().meta_features;
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 10, 64, 16);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 11, 64, 16);
  tgt.train.labels[3] = -1;
  EXPECT_THROW(detector.fit(src.train, 10, tgt.train, tgt.test),
               std::invalid_argument);
  EXPECT_TRUE(detector.fitted());
  EXPECT_EQ(detector.diagnostics().meta_features, before);

  tgt.train.labels[3] = 0;
  src.train.labels[0] = -2;
  EXPECT_THROW(detector.fit(src.train, 10, tgt.train, tgt.test),
               std::invalid_argument);
  // A D_T^test label outside D_T^train's class range is rejected too.
  src.train.labels[0] = 0;
  tgt.test.labels[0] = 10;
  EXPECT_THROW(detector.fit(src.train, 10, tgt.train, tgt.test),
               std::invalid_argument);
  EXPECT_EQ(detector.diagnostics().meta_features, before);
}

TEST(BpromContracts, FitRejectsMoreTargetThanSourceClasses) {
  core::BpromDetector detector = micro_detector();
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 12, 64, 16);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 13, 64, 16);
  // K_T = 10 > K_S = 2: no one-to-one output mapping exists.
  EXPECT_THROW(detector.fit(src.train, 2, tgt.train, tgt.test),
               std::invalid_argument);
  EXPECT_EQ(detector.source_classes(), 10u);
  // An empty set is rejected the same way.
  EXPECT_THROW(detector.fit(src.train, 10, nn::LabeledData{}, tgt.test),
               std::invalid_argument);
  EXPECT_EQ(detector.source_classes(), 10u);
}

}  // namespace
}  // namespace bprom
